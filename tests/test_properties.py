"""Property tests: the threshold update's telescoping identity and the
all-or-ConfigurationError contract of RunConfig validation, under which every
float field of a config that constructs is a finite real that is not a bool and
every int field holds an int."""
import dataclasses
import math
import numbers

from hypothesis import given, settings, strategies as st

from vqsense.conformal import SCHEDULES, ThresholdState, update_threshold
from vqsense.engine import RunConfig
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
    """lam_T - lam_1 = sum_t eta_t (loss_t - alpha), and t counts the updates."""
    state = ThresholdState(lam=lam, eta=eta, alpha=alpha, schedule=schedule, l_max=l_max)
    drift = scale = 0.0
    for t, fraction in enumerate(fractions, start=1):
        loss = fraction * l_max
        eta_t = eta if schedule == "constant" else eta / math.sqrt(t)
        drift += eta_t * (loss - alpha)
        scale += abs(eta_t * (loss - alpha))
        state = update_threshold(state, loss)
    assert state.t == len(fractions)
    assert abs((state.lam - lam) - drift) <= 1e-12 * len(fractions) * (abs(lam) + scale)


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
