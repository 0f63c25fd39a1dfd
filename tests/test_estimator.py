import warnings

import numpy as np
import pytest

from vqsense.conformal import sigmoid
from vqsense.estimator import BATCH, EPS, SequentialPhaseEstimator, _softmax
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
        np.testing.assert_array_equal(model.forward(shots)[0], np.full(10, 0.1))

    def test_posterior_sums_to_one(self, rng):
        model = make_model(perturb=0.5)
        for _ in range(20):
            shots = rng.integers(4, size=int(rng.integers(1, 15)))
            post, _ = model.forward(shots)
            assert abs(post.sum() - 1.0) < 1e-8
            assert np.all(post >= EPS)

    def test_shot_out_of_range(self):
        model = make_model()
        with pytest.raises(ConfigurationError):
            model.forward(np.array([4]))

    def test_deterministic_without_dropout(self, rng):
        model = make_model(perturb=0.3)
        shots = rng.integers(4, size=10)
        np.testing.assert_array_equal(model.forward(shots)[0], model.forward(shots)[0])


class TestShotDtype:
    @pytest.mark.parametrize(
        "shots",
        [np.array([0.5, 1.9, 3.2]), np.array([0.0, 1.0]), [1.0, 2.0],
         np.array([True, False]), np.array(["1", "2"])],
        ids=["fractional", "whole-floats", "float-list", "bool", "text"],
    )
    @pytest.mark.parametrize("call", ["forward", "loss_grads", "train_step"])
    def test_non_integer_shots_rejected(self, call, shots):
        """A cast would truncate floats to other outcomes and parse text."""
        model = make_model(perturb=0.2)
        args = {"forward": (), "loss_grads": (3,), "train_step": (3, 1e-2, 1e-4)}[call]
        before = model.weights.tobytes()
        with pytest.raises(ConfigurationError, match="must be integers"):
            getattr(model, call)(shots, *args)
        assert model.weights.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_other_integer_dtypes_accepted(self, dtype):
        model = make_model(perturb=0.2)
        shots = np.array([0, 3, 1, 3])
        want = model.forward(shots)[0]
        assert model.forward(shots.astype(dtype))[0].tobytes() == want.tobytes()
        assert model.forward([0, 3, 1, 3])[0].tobytes() == want.tobytes()


class TestLabelRange:
    @pytest.mark.parametrize("x_index", [-1, 10])
    def test_out_of_range_rejected(self, rng, x_index):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=5)
        before = model.weights.tobytes()
        with pytest.raises(ConfigurationError):
            model.loss_grads(shots, x_index)
        with pytest.raises(ConfigurationError):
            model.train_step(shots, x_index, 1e-2, 1e-4)
        assert model.weights.tobytes() == before


class TestScore:
    def test_uniform_score_is_log_m(self):
        model = make_model()
        assert abs(-np.log(model.forward(np.array([0, 1]))[0][3]) - np.log(10)) < 1e-12

    def test_floor_bounds_score(self):
        # score of the floored entry: -log(1e-12) ~ 27.631
        assert abs(-np.log(EPS) - 27.631021) < 1e-5

    def test_scores_vector_matches_scalar(self, rng):
        model = make_model(perturb=0.4)
        shots = rng.integers(4, size=8)
        # no entry is near the floor, so each score is that label's cross-entropy
        scores = -np.log(model.forward(shots)[0])
        for i in range(10):
            assert abs(scores[i] - model.loss_grads(shots, i)[0]) < 1e-12


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
            fp = model.loss_grads(shots, x_index)[0]
            w[k] -= 2 * h
            model.set_weights(w)
            fm = model.loss_grads(shots, x_index)[0]
            numeric = (fp - fm) / (2 * h)
            assert abs(flat[k] - numeric) / max(abs(numeric), 1e-8) <= 1e-4
        model.set_weights(base)

    def test_masked_matches_finite_differences(self, rng):
        model = make_model(hidden=8, perturb=0.3, dropout=0.5)
        masks = model.dropout_masks(rng)
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
        masks = model.dropout_masks(np.random.default_rng(99))
        assert (masks is None) == (dropout == 0.0)
        logits, ref = reference_loss_grads(model, shots, 6, masks)
        # forward's one-pass form with the same masks
        post = np.maximum(_softmax(logits), EPS)
        got = model.forward(shots)[0] if masks is None else model.forward(shots, masks[None])[0][0]
        np.testing.assert_allclose(got, post / post.sum(), rtol=1e-12)
        _, flat = model.loss_grads(shots, 6, masks)
        grads = model._views(flat)
        for k, want in ref.items():
            # rtol on each entry; entries far below the array's largest get
            # an absolute floor, since a reordered sum can cancel to ~1e-17
            np.testing.assert_allclose(
                grads[k], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=k
            )


class TestDropoutMasks:
    def test_one_draw_equals_layer_by_layer_draws(self):
        """P passes drawn at once are the per-layer draws of P single passes,
        layer 0 then layer 1 in each, as train_step has always drawn them."""
        model = make_model(hidden=8, dropout=0.4)
        at_once = model.dropout_masks(np.random.default_rng(5), (3,))
        assert at_once.shape == (3, 2, 8)
        rng = np.random.default_rng(5)
        assert at_once.tobytes() == np.stack([model.dropout_masks(rng) for _ in range(3)]).tobytes()
        rng, keep = np.random.default_rng(5), 0.6
        per_layer = [(rng.random(8) < keep).astype(float) / keep for _ in range(6)]
        assert at_once.reshape(6, 8).tobytes() == np.stack(per_layer).tobytes()

    def test_none_without_dropout(self):
        assert make_model().dropout_masks(np.random.default_rng(0), (4,)) is None
        assert make_model().dropout_masks(None) is None

    @pytest.mark.parametrize("dropout", [1.0, 1.5, -0.5, np.nan])
    def test_dropout_outside_unit_interval_rejected(self, dropout):
        """1.0 would divide by zero in dropout_masks, 1.5 would draw all-zero
        masks and -0.5 would silently mean no dropout."""
        with pytest.raises(ConfigurationError, match=r"dropout must be in \[0, 1\)"):
            make_model(dropout=dropout)

    def test_dropout_without_rng_rejected(self):
        with pytest.raises(ConfigurationError, match="needs an rng"):
            make_model(dropout=0.4).dropout_masks(None)

    @pytest.mark.parametrize("call", ["train_step", "fit"])
    def test_training_without_rng_rejected(self, call, rng):
        """A dropout model given no rng would otherwise train with no masks."""
        model = make_model(dropout=0.4, perturb=0.2)
        shots, before = rng.integers(4, size=5), model.weights.tobytes()
        with pytest.raises(ConfigurationError, match="needs an rng"):
            if call == "fit":
                model.fit(shots[None], np.array([3]), 1e-2, 1e-4, epochs=1)
            else:
                model.train_step(shots, 3, 1e-2, 1e-4)
        assert model.weights.tobytes() == before


class TestTrainStep:
    def test_zero_lr_no_change(self, rng):
        model = make_model(perturb=0.2, dropout=0.4)
        before = model.weights.tobytes()
        step_rng, expected = np.random.default_rng(5), np.random.default_rng(5)
        assert model.train_step(rng.integers(4, size=5), 2, 0.0, 1e-4, rng=step_rng)
        assert model.weights.tobytes() == before
        # the step still draws its two dropout masks
        expected.random(model.hidden)
        expected.random(model.hidden)
        assert step_rng.bit_generator.state == expected.bit_generator.state

    def test_single_step_decreases_loss(self, rng):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=8)
        before = model.loss_grads(shots, 3)[0]
        model.train_step(shots, 3, 1e-3, 0.0)
        assert model.loss_grads(shots, 3)[0] < before

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

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_leaves_weights_unchanged(self, rng, monkeypatch, bad, where):
        model = make_model(perturb=0.2)
        before = model.weights.tobytes()
        grad = np.zeros(model.weights.size)
        grad[{"first": 0, "middle": grad.size // 2, "last": -1}[where]] = bad
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

    @pytest.mark.parametrize("lr,l2", [(3e-3, 1e-2), (0.0, 1e-4)])
    def test_reused_forward_pass_gives_the_same_step(self, rng, lr, l2):
        shots = rng.integers(4, size=8)
        plain, fed = make_model(perturb=0.2), make_model(perturb=0.2)
        assert plain.train_step(shots, 3, lr, l2)
        _, run = fed.forward(shots)
        assert fed.train_step(shots, 3, lr, l2, run=run)
        assert fed.weights.tobytes() == plain.weights.tobytes()

    def test_reused_forward_pass_loss_grads_bytes(self, rng):
        model = make_model(perturb=0.2)
        shots = rng.integers(4, size=8)
        loss, grad = model.loss_grads(shots, 6)
        _, run = model.forward(shots)
        loss_run, grad_run = model.loss_grads(shots, 6, run=run)
        assert loss_run == loss and grad_run.tobytes() == grad.tobytes()
        # the pass is not consumed: a second gradient from it is the same
        assert model.loss_grads(shots, 6, run=run)[1].tobytes() == grad.tobytes()

    def test_reused_forward_pass_checked(self, rng):
        model = make_model(perturb=0.2, dropout=0.4)
        shots = rng.integers(4, size=8)
        masks = model.dropout_masks(np.random.default_rng(0), (1,))
        assert model.forward(shots, masks)[1] is None  # masked
        _, run = model.forward(shots)
        with pytest.raises(ConfigurationError):
            model.loss_grads((shots + 1) % 4, 3, run=run)  # other shots
        with pytest.raises(ConfigurationError):  # a dropout step draws masks
            model.train_step(shots, 3, 1e-3, 0.0, rng=np.random.default_rng(0), run=run)

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
            post, _ = model.forward(shots)
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


class TestBlockStep:
    def test_block_update_matches_out_of_place_form(self, rng):
        """A block step descends the summed loss plus B l2/2 |w|^2."""
        model = make_model(perturb=0.2)
        shots, labels, lr, l2 = rng.integers(4, size=(3, 8)), np.array([3, 0, 9]), 3e-3, 1e-2
        w = model.get_weights()
        _, g = model.loss_grads(shots, labels)
        assert model.train_step(shots, labels, lr, l2)
        assert model.weights.tobytes() == (w - lr * (g + 3 * l2 * w)).tobytes()

    def test_block_draws_one_mask_per_sequence(self, rng):
        """The step's masks are one (B, 2, H) draw, which is B single draws."""
        model, twin = make_model(perturb=0.2, dropout=0.4), make_model(perturb=0.2, dropout=0.4)
        shots, labels = rng.integers(4, size=(4, 6)), np.array([1, 2, 3, 4])
        masks = model.dropout_masks(np.random.default_rng(9), (4,))
        _, g = twin.loss_grads(shots, labels, masks)
        w = model.get_weights()
        assert model.train_step(shots, labels, 1e-2, 0.0, rng=np.random.default_rng(9))
        assert model.weights.tobytes() == (w - 1e-2 * g).tobytes()

    @pytest.mark.parametrize("labels", [np.array([1, 2]), np.array([1, 2, 10]),
                                        np.array([1, -1, 2]), np.array([1.0, 2.0, 3.0]), 3])
    def test_bad_block_labels_rejected(self, rng, labels):
        model = make_model(perturb=0.2)
        with pytest.raises(ConfigurationError, match="phase ind"):
            model.loss_grads(rng.integers(4, size=(3, 5)), labels)


class TestFit:
    def test_steps_once_per_block(self, rng):
        """fit is train_step over consecutive blocks of BATCH sequences, the
        last one shorter, sweep after sweep."""
        n = 2 * BATCH + 3
        shots, labels = rng.integers(4, size=(n, 6)), rng.integers(10, size=n)
        fitted, stepped = make_model(perturb=0.2), make_model(perturb=0.2)
        fitted.fit(shots, labels, 0.01, 1e-4, epochs=2)
        for _ in range(2):
            for start in range(0, n, BATCH):
                block = slice(start, start + BATCH)
                assert stepped.train_step(shots[block], labels[block], 0.01, 1e-4)
        assert fitted.weights.tobytes() == stepped.weights.tobytes()

    def test_dropout_draws_match_per_sample_draws(self, rng):
        """fit takes each block's masks in one draw: the rng ends where one
        (2, H) draw per sequence and epoch would leave it."""
        n, epochs = BATCH + 7, 3
        shots, labels = rng.integers(4, size=(n, 5)), rng.integers(10, size=n)
        model = make_model(perturb=0.2, dropout=0.3)
        fit_rng, expected = np.random.default_rng(11), np.random.default_rng(11)
        model.fit(shots, labels, 0.01, 1e-4, epochs=epochs, rng=fit_rng)
        for _ in range(n * epochs):
            expected.random((2, model.hidden))
        assert fit_rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("label", [10, -1])
    def test_label_out_of_range_rejected(self, rng, label):
        model = make_model(perturb=0.2)
        before = model.weights.tobytes()
        with pytest.raises(ConfigurationError, match="out of range"):
            model.fit(rng.integers(4, size=(2, 5)), np.array([3, label]), 1e-2, 1e-4, epochs=1)
        assert model.weights.tobytes() == before

    def test_ragged_dataset_rejected(self, rng):
        """Pretraining sequences all have cfg.shots shots; fit needs one length."""
        model = make_model(perturb=0.2)
        before = model.weights.tobytes()
        ragged = [rng.integers(4, size=5), rng.integers(4, size=6)]
        with pytest.raises(ConfigurationError, match="not an integer array"):
            model.fit(ragged, np.array([3, 4]), 1e-2, 1e-4, epochs=1)
        assert model.weights.tobytes() == before

    def test_zero_epochs_no_change(self, rng):
        model = make_model(perturb=0.1)
        before = model.get_weights()
        model.fit(rng.integers(4, size=(1, 5)), np.array([1]), 1e-3, 1e-4, epochs=0)
        np.testing.assert_array_equal(model.get_weights(), before)

    def test_beats_uniform_on_training_set(self, rng):
        model = make_model(hidden=16)
        labels = np.arange(10)
        # outcomes loosely correlated with the label
        shots = np.clip(rng.integers(4, size=(10, 10)) // 2 + (labels[:, None] % 4) // 2, 0, 3)
        model.fit(shots, labels, 0.02, 1e-4, epochs=100)
        mean_ce = model.loss_grads(shots, labels)[0] / len(labels)
        assert mean_ce < np.log(10)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="nonempty"):
            make_model().fit(np.empty((0, 5), dtype=np.int64), np.empty(0, dtype=np.int64),
                             1e-3, 1e-4, epochs=1)

    def test_deterministic(self, rng):
        shots, labels = rng.integers(4, size=(5, 6)), rng.integers(10, size=5)
        a = make_model(seed=3)
        b = make_model(seed=3)
        a.fit(shots, labels, 0.01, 1e-4, epochs=20)
        b.fit(shots, labels, 0.01, 1e-4, epochs=20)
        np.testing.assert_array_equal(a.get_weights(), b.get_weights())


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
        assert not np.allclose(model.forward(shots)[0], 0.1)
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
