import warnings

import numpy as np
import pytest

from vqsense.conformal import sigmoid
from vqsense.estimator import (
    EPS,
    SequentialPhaseEstimator,
    _softmax,
    forward_bayesian,
)
from vqsense.probe import ConfigurationError


def make_model(hidden=16, seed=0, dropout=0.0, perturb=0.0):
    model = SequentialPhaseEstimator(
        input_dim=4, n_levels=10, hidden_size=hidden, dropout=dropout, seed=seed
    )
    if perturb:
        rng = np.random.default_rng(seed + 100)
        w = model.get_weights()
        model.set_weights(w + rng.normal(scale=perturb, size=w.size))
    return model


class TestForward:
    def test_fresh_model_is_uniform(self, rng):
        model = make_model()
        shots = rng.integers(4, size=10)
        np.testing.assert_array_equal(model.forward(shots), np.full(10, 0.1))

    def test_posterior_sums_to_one(self, rng):
        model = make_model(perturb=0.5)
        for _ in range(20):
            shots = rng.integers(4, size=int(rng.integers(1, 15)))
            post = model.forward(shots)
            assert abs(post.sum() - 1.0) < 1e-8
            assert np.all(post >= EPS)

    def test_shot_out_of_range(self):
        model = make_model()
        with pytest.raises(ConfigurationError):
            model.forward(np.array([4]))

    def test_deterministic_without_dropout(self, rng):
        model = make_model(perturb=0.3)
        shots = rng.integers(4, size=10)
        np.testing.assert_array_equal(model.forward(shots), model.forward(shots))


class TestLabelRange:
    @pytest.mark.parametrize("x_index", [-1, 10])
    def test_out_of_range_rejected(self, rng, x_index):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=5)
        before = model.weights.tobytes()
        with pytest.raises(ConfigurationError):
            model.nll(shots, x_index)
        with pytest.raises(ConfigurationError):
            model.loss_grads(shots, x_index)
        with pytest.raises(ConfigurationError):
            model.train_step(shots, x_index, 1e-2, 1e-4)
        assert model.weights.tobytes() == before


class TestScore:
    def test_uniform_score_is_log_m(self):
        model = make_model()
        assert abs(model.scores(np.array([0, 1]))[3] - np.log(10)) < 1e-12

    def test_floor_bounds_score(self):
        # score of the floored entry: -log(1e-12) ~ 27.631
        assert abs(-np.log(EPS) - 27.631021) < 1e-5

    def test_scores_vector_matches_scalar(self, rng):
        model = make_model(perturb=0.4)
        shots = rng.integers(4, size=8)
        vec = model.scores(shots)
        post = model.forward(shots)
        for i in range(10):
            assert abs(vec[i] - float(-np.log(post[i]))) < 1e-12


def reference_loss_grads(model, shots, x_index, masks=None):
    """Per-step GRU and BPTT, one shot through both cells at a time: the loop
    the layer-at-a-time estimator replaced. Returns (logits, grads by key)."""
    p, H = model.params, model.hidden
    h, steps = [np.zeros(H), np.zeros(H)], []
    for x in shots:
        step = []
        for layer in (0, 1):
            W, U, b = (p[f"{k}{layer}"] for k in "WUb")
            wx = W[:, x] if layer == 0 else W @ x
            zr = sigmoid(wx[: 2 * H] + U[: 2 * H] @ h[layer] + b[: 2 * H])
            z, r, rh = zr[:H], zr[H:], zr[H:] * h[layer]
            c = np.tanh(wx[2 * H :] + U[2 * H :] @ rh + b[2 * H :])
            step.append((x, h[layer], z, r, rh, c))
            h[layer] = (1 - z) * h[layer] + z * c
            x = h[layer] if masks is None else h[layer] * masks[layer]
        steps.append(step)
    logits = p["Wo"] @ x + p["bo"]
    d_logits = _softmax(logits)
    d_logits[x_index] -= 1.0
    g = {k: np.zeros_like(v) for k, v in p.items()}
    g["Wo"], g["bo"] = np.outer(d_logits, x), d_logits
    dh = [np.zeros(H), p["Wo"].T @ d_logits * (1.0 if masks is None else masks[1])]
    for step in reversed(steps):
        dx_down = 0.0
        for layer in (1, 0):
            x, h_prev, z, r, rh, c = step[layer]
            U = p[f"U{layer}"]
            d = dh[layer] + dx_down
            dac = d * z * (1 - c**2)
            drh = U[2 * H :].T @ dac
            da = np.concatenate(
                (d * (c - h_prev) * z * (1 - z), drh * h_prev * r * (1 - r), dac)
            )
            g[f"U{layer}"][: 2 * H] += np.outer(da[: 2 * H], h_prev)
            g[f"U{layer}"][2 * H :] += np.outer(dac, rh)
            g[f"b{layer}"] += da
            dh[layer] = d * (1 - z) + drh * r + U[: 2 * H].T @ da[: 2 * H]
            if layer == 0:
                g["W0"][:, x] += da
            else:
                g["W1"] += np.outer(da, x)
                dx_down = p["W1"].T @ da * (1.0 if masks is None else masks[0])
    return logits, g


def fd_check(model, shots, x_index, masks=None, coords=None):
    """loss_grads against central differences of its own returned loss."""
    _, flat = model.loss_grads(shots, x_index, masks)
    base = model.get_weights()
    coords = range(base.size) if coords is None else coords
    h = 1e-5
    for k in coords:
        w = base.copy()
        w[k] += h
        model.set_weights(w)
        fp, _ = model.loss_grads(shots, x_index, masks)
        w[k] -= 2 * h
        model.set_weights(w)
        fm, _ = model.loss_grads(shots, x_index, masks)
        numeric = (fp - fm) / (2 * h)
        assert abs(flat[k] - numeric) <= 1e-5 * abs(numeric) + 1e-8, k
    model.set_weights(base)
    return flat


class TestBackprop:
    def test_matches_finite_differences(self, rng):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=8)
        x_index = 4
        _, flat = model.loss_grads(shots, x_index)
        base = model.get_weights()
        h = 1e-4
        coords = rng.choice(
            np.flatnonzero(np.abs(flat) > 1e-8), size=50, replace=False
        )
        for k in coords:
            w = base.copy()
            w[k] += h
            model.set_weights(w)
            fp = model.nll(shots, x_index)
            w[k] -= 2 * h
            model.set_weights(w)
            fm = model.nll(shots, x_index)
            numeric = (fp - fm) / (2 * h)
            assert abs(flat[k] - numeric) / max(abs(numeric), 1e-8) <= 1e-4
        model.set_weights(base)

    def test_masked_matches_finite_differences(self, rng):
        model = make_model(hidden=8, perturb=0.3, dropout=0.5)
        masks = model._make_masks(rng)
        assert all(np.any(m == 0.0) for m in masks)
        shots = rng.integers(4, size=6)
        flat = fd_check(model, shots, 4, masks)
        assert np.any(flat != model.loss_grads(shots, 4)[1])

    def test_length_one_matches_finite_differences(self):
        fd_check(make_model(hidden=8, perturb=0.3), np.array([2]), 7)

    def test_repeated_shots_match_finite_differences(self):
        model = make_model(hidden=8, perturb=0.3)
        shots = np.array([2, 0, 2, 2, 1])
        index = model._views(np.arange(model.weights.size))
        # every W0 column, the repeated shot's in particular
        flat = fd_check(model, shots, 5, coords=index["W0"].reshape(-1))
        assert np.any(flat[index["W0"][:, 2]] != 0.0)


class TestReferenceGRU:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_matches_per_step_loop(self, n, dropout):
        model = SequentialPhaseEstimator(2**n, 10, hidden_size=16, dropout=dropout, seed=n)
        rng = np.random.default_rng(n)
        model.set_weights(model.get_weights() + rng.normal(scale=0.3, size=model.weights.size))
        shots = rng.integers(2**n, size=12)
        shots[3] = shots[7]
        masks = model._make_masks(np.random.default_rng(99))
        assert (masks is None) == (dropout == 0.0)
        logits, ref = reference_loss_grads(model, shots, 6, masks)
        # forward draws the same masks from an rng in the same state
        post = np.maximum(_softmax(logits), EPS)
        np.testing.assert_allclose(
            model.forward(shots, rng=np.random.default_rng(99)), post / post.sum(), rtol=1e-12
        )
        _, flat = model.loss_grads(shots, 6, masks)
        grads = model._views(flat)
        for k, want in ref.items():
            # rtol on each entry; entries far below the array's largest get
            # an absolute floor, since a reordered sum can cancel to ~1e-17
            np.testing.assert_allclose(
                grads[k], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=k
            )


class TestTrainStep:
    def test_zero_lr_skips_bptt(self, rng, monkeypatch):
        model = make_model(perturb=0.2, dropout=0.4)
        before = model.weights.tobytes()

        def fail(*args, **kwargs):
            raise AssertionError("loss_grads called at lr 0")

        monkeypatch.setattr(model, "loss_grads", fail)
        step_rng, expected = np.random.default_rng(5), np.random.default_rng(5)
        assert model.train_step(rng.integers(4, size=5), 2, 0.0, 1e-4, rng=step_rng) is True
        assert model.weights.tobytes() == before
        # the step still draws its two dropout masks
        expected.random(model.hidden)
        expected.random(model.hidden)
        assert step_rng.bit_generator.state == expected.bit_generator.state

    def test_zero_lr_no_change(self, rng):
        model = make_model(perturb=0.2)
        before = model.get_weights()
        model.train_step(rng.integers(4, size=5), 2, 0.0, 1e-4)
        np.testing.assert_array_equal(model.get_weights(), before)

    def test_single_step_decreases_loss(self, rng):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=8)
        before = model.nll(shots, 3)
        model.train_step(shots, 3, 1e-3, 0.0)
        assert model.nll(shots, 3) < before

    def test_decay_schedule(self, rng):
        # engine.sense_step decays the rate; the step train_step takes must
        # scale with the rate it is given (steps 0, 50 and 100 of the schedule).
        shots = rng.integers(4, size=8)
        deltas = []
        for t in (0, 50, 100):
            model = make_model(perturb=0.2)
            before = model.get_weights()
            assert model.train_step(shots, 3, 1e-3 * 0.1 ** (t // 50), 1e-4)
            deltas.append(before - model.get_weights())
        assert np.any(deltas[0] != 0.0)
        np.testing.assert_allclose(deltas[1], 0.1 * deltas[0], rtol=1e-6, atol=1e-15)
        np.testing.assert_allclose(deltas[2], 0.01 * deltas[0], rtol=1e-6, atol=1e-15)

    def test_nonfinite_gradient_leaves_weights_unchanged(self, rng, monkeypatch):
        model = make_model(perturb=0.2)
        before = model.weights.tobytes()
        grad = np.zeros(model.weights.size)
        grad[7] = np.nan
        monkeypatch.setattr(model, "loss_grads", lambda *args, **kwargs: (0.0, grad))
        assert model.train_step(rng.integers(4, size=5), 2, 1e-3, 1e-4) is False
        assert model.weights.tobytes() == before

    def test_zero_lr_still_validates(self, rng):
        model = make_model(perturb=0.2, dropout=0.4)
        with pytest.raises(ConfigurationError):
            model.train_step(np.array([99]), 0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            model.train_step(np.array([]), 0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            model.train_step(rng.integers(4, size=5), 10, 0.0, 0.0)

    def test_update_matches_out_of_place_form(self, rng):
        model = make_model(perturb=0.2)
        shots, lr, l2 = rng.integers(4, size=8), 3e-3, 1e-2
        w = model.get_weights()
        _, g = model.loss_grads(shots, 3)
        assert model.train_step(shots, 3, lr, l2)
        assert model.weights.tobytes() == (w - lr * (g + l2 * w)).tobytes()

    def test_loss_grads_returns_fresh_arrays(self, rng):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=8)
        model.train_step(shots, 3, 1e-3, 1e-4)  # the update buffer is in use
        _, g1 = model.loss_grads(shots, 3)
        _, g2 = model.loss_grads(shots, 5)
        for a, b in ((g1, g2), (g1, model._step), (g2, model._step), (g1, model.weights)):
            assert not np.shares_memory(a, b)
        assert np.any(g1 != g2)

    def test_saturated_gates_stay_finite(self, rng):
        # gate pre-activations of about ±1000: exp(1000) would overflow
        model = make_model(perturb=0.2)
        model.params["b0"][:] = np.where(np.arange(model.params["b0"].size) % 2, 1e3, -1e3)
        model.params["b1"][:] = -model.params["b0"]
        model.params["Wo"][:] = rng.normal(size=model.params["Wo"].shape)
        shots = rng.integers(4, size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            post = model.forward(shots)
            _, grad = model.loss_grads(shots, 3)
            assert model.train_step(shots, 3, 1e-3, 1e-4)
        assert np.all(np.isfinite(post)) and abs(post.sum() - 1.0) < 1e-12
        assert np.all(np.isfinite(grad))

    def test_weights_stay_finite(self, rng):
        model = make_model(perturb=0.3)
        for t in range(100):
            shots = rng.integers(4, size=10)
            model.train_step(shots, int(rng.integers(10)), 0.05 * 0.1 ** (t // 50), 1e-4)
        assert np.all(np.isfinite(model.get_weights()))


class TestFit:
    def test_zero_epochs_no_change(self, rng):
        model = make_model(perturb=0.1)
        before = model.get_weights()
        model.fit([(rng.integers(4, size=5), 1)], 1e-3, 1e-4, epochs=0)
        np.testing.assert_array_equal(model.get_weights(), before)

    def test_beats_uniform_on_training_set(self, rng):
        model = make_model(hidden=16)
        dataset = []
        for xi in range(10):
            # outcomes loosely correlated with the label
            shots = np.clip(
                rng.integers(4, size=10) // 2 + (xi % 4) // 2, 0, 3
            )
            dataset.append((shots, xi))
        model.fit(dataset, 0.02, 1e-4, epochs=100)
        mean_ce = np.mean([model.nll(s, xi) for s, xi in dataset])
        assert mean_ce < np.log(10)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_model().fit([], 1e-3, 1e-4, epochs=1)

    def test_deterministic(self, rng):
        dataset = [(rng.integers(4, size=6), int(rng.integers(10))) for _ in range(5)]
        a = make_model(seed=3)
        b = make_model(seed=3)
        a.fit(dataset, 0.01, 1e-4, epochs=20)
        b.fit(dataset, 0.01, 1e-4, epochs=20)
        np.testing.assert_array_equal(a.get_weights(), b.get_weights())


class TestForwardBayesian:
    def test_identical_members_equal_single(self, rng):
        model = make_model(perturb=0.3)
        shots = rng.integers(4, size=6)
        ensemble = [make_model(perturb=0.3) for _ in range(5)]
        np.testing.assert_allclose(
            forward_bayesian(ensemble, shots), model.forward(shots), atol=1e-12
        )

    def test_no_dropout_any_passes_equals_forward(self, rng):
        model = make_model(perturb=0.3, dropout=0.0)
        shots = rng.integers(4, size=6)
        out = forward_bayesian([model], shots, passes=7, rng=rng)
        np.testing.assert_allclose(out, model.forward(shots), atol=1e-12)

    def test_dropout_passes_average_is_valid(self, rng):
        model = make_model(perturb=0.3, dropout=0.4)
        shots = rng.integers(4, size=6)
        post = forward_bayesian([model], shots, passes=20, rng=rng)
        assert abs(post.sum() - 1.0) < 1e-8

    def test_ensemble_entropy_jensen(self, rng):
        # averaged posterior entropy >= min member entropy
        members = [make_model(seed=s, perturb=0.5) for s in range(5)]
        shots = rng.integers(4, size=10)
        def entropy(p):
            return float(-np.sum(p * np.log(p)))
        mixed = entropy(forward_bayesian(members, shots))
        assert mixed >= min(entropy(m.forward(shots)) for m in members) - 1e-9

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigurationError):
            forward_bayesian([], np.array([0]))

    @pytest.mark.parametrize("passes", [0, -1])
    def test_passes_below_one_rejected(self, rng, passes):
        model = make_model(perturb=0.3, dropout=0.4)
        with pytest.raises(ConfigurationError):
            forward_bayesian([model], np.array([0, 1]), passes=passes, rng=rng)


class TestCheckpointRoundtrip:
    def test_weights_roundtrip(self):
        model = make_model(perturb=0.2)
        clone = make_model()
        clone.set_weights(model.get_weights())
        np.testing.assert_array_equal(clone.get_weights(), model.get_weights())

    def test_set_weights_reaches_every_view(self, rng):
        model = make_model()
        shots = rng.integers(4, size=6)
        w = rng.normal(scale=0.3, size=model.weights.size)
        model.set_weights(w)
        pos = 0
        for k in model._key_order:
            view = model.params[k]
            np.testing.assert_array_equal(view.reshape(-1), w[pos : pos + view.size])
            pos += view.size
        assert pos == w.size
        # the zero head is overwritten, so the posterior is no longer uniform
        assert not np.allclose(model.forward(shots), 0.1)
        model.train_step(shots, 3, 1e-2, 0.0)
        for view in model.params.values():
            assert np.shares_memory(view, model.weights)

    def test_get_weights_is_a_copy(self):
        model = make_model(perturb=0.2)
        w = model.get_weights()
        assert not np.shares_memory(w, model.weights)
        w[:] = 0.0
        assert np.any(model.weights != 0.0)

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_model().set_weights(np.zeros(3))
