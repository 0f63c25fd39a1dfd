"""Property tests: the threshold update's telescoping identity, the
all-or-ConfigurationError contract of RunConfig validation, under which every
float field of a config that constructs is a finite real that is not a bool and
every int field holds an int, the estimator's batched forward pass, which
scores a block as its sequences alone would be scored or raises
ConfigurationError, and its batched gradient, the sum of its sequences'."""
import dataclasses
import math
import numbers

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vqsense.conformal import SCHEDULES, update_threshold
from vqsense.engine import RunConfig
from vqsense.estimator import SequentialPhaseEstimator, _posterior
from vqsense.probe import ConfigurationError


@settings(max_examples=200, deadline=None)
@given(
    schedule=st.sampled_from(SCHEDULES),
    l_max=st.sampled_from([1.0, math.pi]),
    eta=st.floats(1e-3, 10.0),
    alpha=st.floats(0.01, 0.99),
    lam=st.floats(-10.0, 10.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
)
def test_threshold_update_telescopes(schedule, l_max, eta, alpha, lam, fractions):
    """lam_T - lam_1 = sum_t eta_t (loss_t - alpha), with t the updates made so far."""
    lam_t = lam
    drift = scale = 0.0
    for t, fraction in enumerate(fractions, start=1):
        loss = fraction * l_max
        eta_t = eta if schedule == "constant" else eta / math.sqrt(t)
        drift += eta_t * (loss - alpha)
        scale += abs(eta_t * (loss - alpha))
        lam_t = update_threshold(lam_t, loss, t - 1, eta, alpha, schedule, l_max)
    assert abs((lam_t - lam) - drift) <= 1e-12 * len(fractions) * (abs(lam) + scale)


# the non-finite values get a branch of their own so they are drawn often
WIDE_FLOAT = st.sampled_from([math.inf, -math.inf, math.nan]) | st.floats()
ANY_FLOAT = WIDE_FLOAT | st.booleans() | st.text()
STRATEGY_BY_TYPE = {
    "int": st.integers(-(10**12), 10**12) | st.booleans() | WIDE_FLOAT,
    "float": ANY_FLOAT,
    "float | None": st.none() | ANY_FLOAT,
}
NUMERIC_FIELDS = {
    f.name: STRATEGY_BY_TYPE[f.type]
    for f in dataclasses.fields(RunConfig)
    if f.type in STRATEGY_BY_TYPE
}
FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if "float" in f.type]
INT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"]
# Few fields at a time: with many wide-ranged fields set at once nearly every
# draw is rejected by some field, and a bad value in a config that otherwise
# constructs is never reached.
FIELD_VALUE = st.sampled_from(sorted(NUMERIC_FIELDS)).flatmap(
    lambda name: st.tuples(st.just(name), NUMERIC_FIELDS[name])
)


@settings(max_examples=500, deadline=None)
@given(fields=st.lists(FIELD_VALUE, max_size=4).map(dict))
def test_run_config_constructs_or_raises_configuration_error(fields):
    try:
        cfg = RunConfig(**fields)
    except ConfigurationError:
        return
    for name in FLOAT_FIELDS:
        value = getattr(cfg, name)
        if value is not None:
            assert isinstance(value, numbers.Real) and not isinstance(value, bool), name
            assert math.isfinite(value), name
    for name in INT_FIELDS:
        assert type(getattr(cfg, name)) is int, name


def perturbed_model(seed: int, dropout: float = 0.0) -> SequentialPhaseEstimator:
    """A 2-qubit (4-outcome), 6-phase estimator with random non-zero weights."""
    model = SequentialPhaseEstimator(4, 6, hidden_size=16, dropout=dropout, seed=seed)
    rng = np.random.default_rng(seed + 1)
    model.set_weights(model.weights + rng.normal(scale=0.4, size=model.weights.size))
    return model


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_seq=st.integers(1, 5),
    length=st.integers(1, 6),
    passes=st.integers(0, 3),  # 0: no masks
)
def test_batched_forward_matches_each_sequence(seed, n_seq, length, passes):
    """A block's -log posteriors are each sequence's own, to rtol 1e-12: the
    unmasked per-sequence forward, or the masked single-sequence pass that
    train_step differentiates, pass by pass."""
    model = perturbed_model(seed, dropout=0.3)
    rng = np.random.default_rng(seed)
    shots = rng.integers(4, size=(n_seq, length))
    if passes:
        masks = model.dropout_masks(rng, (n_seq, passes))
        got, run = model.forward(shots, masks)
        want = [[_posterior(model._run(s, m)[0]) for m in ms] for s, ms in zip(shots, masks)]
    else:
        got, run = model.forward(shots)
        want = [model.forward(s)[0] for s in shots]
    assert run is None
    np.testing.assert_allclose(-np.log(got), -np.log(want), rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_seq=st.integers(1, 12),
    length=st.integers(1, 8),
    hidden=st.integers(1, 24),
    masked=st.booleans(),
)
def test_block_gradient_is_the_sum_of_sequence_gradients(seed, n_seq, length, hidden, masked):
    """A (B, L) block's loss and gradient are the sums of its sequences' own,
    each with its own dropout mask, to rtol 1e-12. Entries far below the
    gradient's largest get an absolute floor, since a sum taken in another
    order can cancel to ~1e-17."""
    model = SequentialPhaseEstimator(4, 6, hidden_size=hidden, dropout=0.3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    model.set_weights(model.weights + rng.normal(scale=0.4, size=model.weights.size))
    shots, labels = rng.integers(4, size=(n_seq, length)), rng.integers(6, size=n_seq)
    masks = model.dropout_masks(rng, (n_seq,)) if masked else None
    loss, grad = model.loss_grads(shots, labels, masks)
    parts = [model.loss_grads(s, int(x), None if masks is None else masks[b])
             for b, (s, x) in enumerate(zip(shots, labels))]
    want = np.sum([g for _, g in parts], axis=0)
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert loss == pytest.approx(sum(lo for lo, _ in parts), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-2, 5), max_size=4), max_size=4))
def test_batched_forward_scores_or_raises_configuration_error(rows):
    """A block is scored only if it is nonempty, not ragged and in range."""
    model = perturbed_model(0)
    valid = (
        len(rows) > 0
        and len({len(r) for r in rows}) == 1
        and len(rows[0]) > 0
        and all(0 <= s < 4 for r in rows for s in r)
    )
    if not valid:
        with pytest.raises(ConfigurationError):
            model.forward(rows)
        return
    post, run = model.forward(rows)
    assert post.shape == (len(rows), 6) and run is None
    np.testing.assert_allclose(post.sum(-1), 1.0, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.sampled_from([0, 1, 2, 3, 4, 16]), max_size=5))
def test_forward_rejects_masks_of_the_wrong_shape(shape):
    """Masks for a (3, L) block must be (3, P, 2, H) with P >= 1."""
    assume(not (len(shape) == 4 and shape[0] == 3 and shape[1] >= 1 and shape[2:] == [2, 16]))
    model = perturbed_model(0, dropout=0.3)
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((3, 4), dtype=int), np.ones(shape))
