import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from vqsense import conformal, engine, probe
from vqsense.engine import (
    EpisodeRecord,
    RunConfig,
    aggregate,
    init_state,
    pretrain_run,
    probe_grad_step,
    run_trial,
    sense_step,
)
from vqsense.estimator import EPS, SequentialPhaseEstimator
from vqsense.probe import ConfigurationError

FAST = dict(
    n=2, layers=2, m=5, shots=4, horizon=10, hidden_size=8,
    pretrain_samples=5, pretrain_epochs=5, probe_pretrain_steps=3, trials=2,
)


def fast_config(**overrides):
    kw = dict(FAST)
    kw.update(overrides)
    return RunConfig(**kw)


def state_hash(state):
    payload = state.theta.tobytes() + b"".join(
        m.get_weights().tobytes() for m in state.models
    )
    return hashlib.sha256(payload).hexdigest()


def grad_state(theta, g_sum=1.0, g_count=1, **overrides):
    """A trial state at angles theta whose probe baseline is g_sum / g_count."""
    state = init_state(fast_config(layers=len(theta), **overrides), 0)
    state.theta, state.g_sum, state.g_count = theta, g_sum, g_count
    return state


def replay_pretrain_set(state):
    """The set pretrain_run draws for a fresh state, replayed on a copy of
    its rng: per sample a phase index, then its shots under the initial
    angles. Returns shots (N, L), labels (N,) and the copy, left after the
    last draw."""
    cfg, rng = state.cfg, copy.deepcopy(state.rng)
    shots, labels = [], []
    for _ in range(cfg.pretrain_samples):
        labels.append(rng.integers(cfg.m))
        dist = probe.measurement_distribution(state.theta, state.grid[labels[-1]], cfg.n)
        shots.append(probe.sample_shots(dist, cfg.shots, rng))
    return np.array(shots), np.array(labels), rng


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.lambda_start == pytest.approx(np.log(10))
        assert cfg.l_max == 1.0

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            RunConfig(mode="nope")

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            RunConfig(alpha=0.0)

    def test_distance_loss_lmax(self):
        assert RunConfig(loss_kind="distance").l_max == pytest.approx(np.pi)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 1), ("n", 13), ("m", 1), ("eta", -1.0), ("tau", 0.0),
            ("eta_theta", -0.5), ("schedule", "nope"),
            ("loss_kind", "nope"), ("phase_process", "nope"), ("dropout", 1.5),
            ("dropout", -0.1), ("ensemble", 0), ("dropout_passes", 0),
            ("decay_every", 0), ("decay", 0.0), ("lr", -1.0), ("pretrain_lr", -1.0),
            ("l2", -1.0), ("seed", -1),
            ("pretrain_samples", -1), ("pretrain_epochs", -1),
            ("probe_pretrain_steps", -1), ("eta", float("inf")), ("tau", float("inf")),
            ("lr", float("inf")), ("eta_theta", float("inf")), ("l2", float("inf")),
            ("pretrain_lr", float("inf")), ("horizon", 6.5), ("n", 2.0),
            ("shots", True), ("alpha", 1.5),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            RunConfig(**{field: value})


class TestSenseStep:
    def test_static_mode_freezes_everything(self):
        cfg = fast_config(mode="static")
        state = init_state(cfg, 0)
        before = state_hash(state)
        lam_before = state.lam
        rec = sense_step(state, 2)
        assert isinstance(rec, EpisodeRecord)
        assert state_hash(state) == before
        assert state.lam == lam_before

    def test_static_threshold_freezes_lambda_only(self):
        cfg = fast_config(mode="static-threshold")
        state = init_state(cfg, 0)
        before = state_hash(state)
        lam = state.lam
        sense_step(state, 1)
        assert state.lam == lam
        assert state_hash(state) != before  # theta and w moved

    @pytest.mark.parametrize("mode", ["static", "static-threshold"])
    def test_static_threshold_drawn_after_angles(self, mode):
        cfg = fast_config(mode=mode)
        state = init_state(cfg, 11)
        rng = np.random.default_rng(11)
        probe.random_angles(cfg.layers, rng)
        lam = rng.uniform(0.0, 2.0)
        assert state.lam == lam
        for t in range(4):
            assert sense_step(state, t % cfg.m).lam_before == lam
        assert state.lam == lam

    def test_static_probe_estimator_freezes_params_only(self):
        cfg = fast_config(mode="static-probe-estimator")
        state = init_state(cfg, 0)
        before = state_hash(state)
        rec = sense_step(state, 1)
        assert state_hash(state) == before
        assert state.lam == cfg.lambda_start + cfg.eta * (rec.loss - cfg.alpha)
        assert state.g_count == 0  # no probe update, so no baseline either

    def test_loss_at_target_leaves_lambda(self):
        cfg = fast_config(mode="dynamic", alpha=0.5)
        state = init_state(cfg, 0)
        # force a set that surely contains the truth, then check the update rule
        rec = sense_step(state, 0)
        expect = cfg.lambda_start + cfg.eta * (rec.loss - cfg.alpha)
        assert state.lam == pytest.approx(expect)

    @pytest.mark.parametrize("mode", ["dynamic", "static-probe-estimator"])
    def test_decay_schedule_uses_step_count(self, mode):
        # step k (1-indexed) moves lam by eta / sqrt(k) * (loss - alpha)
        cfg = fast_config(mode=mode, schedule="decay")
        state = init_state(cfg, 0)
        records = [sense_step(state, t % cfg.m) for t in range(4)]
        lam = cfg.lambda_start
        for k, rec in enumerate(records, start=1):
            assert rec.lam_before == lam
            lam = lam + cfg.eta / np.sqrt(k) * (rec.loss - cfg.alpha)
        assert state.lam == lam

    def test_record_running_average(self):
        cfg = fast_config()
        state = init_state(cfg, 0)
        losses = []
        for t in range(6):
            rec = sense_step(state, t % cfg.m)
            losses.append(rec.loss)
            assert rec.avg_loss == pytest.approx(np.mean(losses), abs=1e-12)

    def test_distance_loss_mode(self):
        cfg = fast_config(loss_kind="distance")
        state = init_state(cfg, 0)
        rec = sense_step(state, 2)
        assert 0.0 <= rec.loss <= np.pi

    def test_decayed_rate_passed_to_train_step(self, monkeypatch):
        cfg = fast_config(lr=1e-3, decay=0.1, decay_every=50)
        state = init_state(cfg, 0)
        seen = []

        def record(model, shots, x_index, lr, l2, rng=None, run=None):
            seen.append(lr)
            return True

        monkeypatch.setattr(SequentialPhaseEstimator, "train_step", record)
        for t in (0, 49, 50, 100):
            state.steps = t
            sense_step(state, 0)
        assert seen[:2] == [1e-3, 1e-3]
        assert abs(seen[2] - 1e-4) < 1e-18
        assert abs(seen[3] - 1e-5) < 1e-18


class TestDistributionCache:
    def fresh(self, angles, x_value, state):
        probe._states_for.cache_clear()
        return probe.measurement_distribution(angles, x_value, state.cfg.n)

    @pytest.mark.parametrize("mode", engine.MODES)
    def test_every_step_matches_fresh_simulation(self, mode, monkeypatch):
        cfg = fast_config(mode=mode, horizon=12)
        state = init_state(cfg, 3)
        pretrain_run(state)
        sampled = []
        sample_shots = probe.sample_shots

        def spy(dist, shots, rng):
            sampled.append(dist)
            return sample_shots(dist, shots, rng)

        monkeypatch.setattr(probe, "sample_shots", spy)
        for t in range(cfg.horizon):
            x_index = int(state.rng.integers(cfg.m))
            angles = state.theta.copy()
            sense_step(state, x_index)
            want = self.fresh(angles, state.grid[x_index], state)
            assert sampled[-1].tobytes() == want.tobytes()
        assert len(sampled) == cfg.horizon

    def test_frozen_probe_simulates_once_per_phase(self, monkeypatch):
        cfg = fast_config(mode="static-probe-estimator", eta_theta=0.0, horizon=40)
        calls = []
        simulate = probe.measurement_distribution

        def counted(*args):
            calls.append(args[1])
            return simulate(*args)

        monkeypatch.setattr(probe, "measurement_distribution", counted)
        run_trial(cfg, 5)
        assert 0 < len(calls) <= cfg.m
        assert len(set(calls)) == len(calls)

    def test_dropped_when_angles_change(self):
        cfg = fast_config()
        state = init_state(cfg, 0)
        first = state.distribution(2)
        assert state.distribution(2) is first
        with pytest.raises(ValueError):
            first[0] = 0.5  # shared by every step at these angles
        state.theta[0, 1] += 0.4  # an in-place edit counts as a change
        moved = state.distribution(2)
        assert moved.tobytes() == self.fresh(state.theta, state.grid[2], state).tobytes()
        assert moved.tobytes() != first.tobytes()
        state.theta = probe.random_angles(cfg.layers, np.random.default_rng(9))
        assert state.distribution(2).tobytes() == self.fresh(
            state.theta, state.grid[2], state
        ).tobytes()


    def test_dynamic_step_runs_each_forward_pass_once(self, monkeypatch):
        cfg = fast_config(horizon=8)
        state = init_state(cfg, 4)
        pretrain_run(state)
        runs = []
        run = SequentialPhaseEstimator._run

        def counted(model, *args, **kwargs):
            runs.append(1)
            return run(model, *args, **kwargs)

        monkeypatch.setattr(SequentialPhaseEstimator, "_run", counted)
        start = state.theta.copy()
        for t in range(cfg.horizon):
            runs.clear()
            misses = probe._states_for.cache_info().misses
            sense_step(state, t % cfg.m)
            assert len(runs) == 1  # the posterior's pass, reused by train_step
            # the gradient reuses the layer states of the step's distribution
            assert probe._states_for.cache_info().misses <= misses + 1
        assert not np.array_equal(state.theta, start)  # the probe moved


class TestDraw:
    def test_shots_then_each_members_masks(self):
        cfg = fast_config(ensemble=2, dropout=0.3, dropout_passes=3)
        state = init_state(cfg, 0)
        draws = copy.deepcopy(state.rng)
        shots, masks = state.draw(2)
        want_shots = probe.sample_shots(state.distribution(2), cfg.shots, draws)
        want_masks = [m.dropout_masks(draws, (3,)) for m in state.models]
        assert shots.tobytes() == want_shots.tobytes()
        assert len(masks) == len(want_masks) == 2
        for got, want in zip(masks, want_masks):
            assert got.shape == (3, 2, cfg.hidden_size)
            assert got.tobytes() == want.tobytes()
        assert not np.array_equal(masks[0], masks[1])
        assert state.rng.bit_generator.state == draws.bit_generator.state


class TestPosterior:
    """RunState.posterior: the mean over ensemble members and dropout passes."""

    @staticmethod
    def member(seed=0, dropout=0.0, perturb=0.3):
        model = SequentialPhaseEstimator(4, 5, hidden_size=8, dropout=dropout, seed=seed)
        rng = np.random.default_rng(seed + 100)
        model.set_weights(model.weights + rng.normal(scale=perturb, size=model.weights.size))
        return model

    @staticmethod
    def state_with(models, **overrides):
        cfg = fast_config(ensemble=len(models), dropout=models[0].dropout, **overrides)
        state = init_state(cfg, 0)
        state.models = models
        return state

    @staticmethod
    def entropy(p):
        return float(-np.sum(p * np.log(p)))

    def test_identical_members_equal_single(self, rng):
        shots = rng.integers(4, size=6)
        single, runs = self.state_with([self.member()]).posterior(shots, [None])
        # a lone pass is the member's own posterior, not renormalized again
        assert single.tobytes() == self.member().forward(shots)[0].tobytes()
        assert len(runs) == 1 and runs[0] is not None
        mean, runs = self.state_with([self.member() for _ in range(5)]).posterior(
            shots, [None] * 5
        )
        np.testing.assert_allclose(mean, single, atol=1e-12)
        assert len(runs) == 5 and all(run is not None for run in runs)

    def test_no_dropout_any_passes_equals_forward(self, rng):
        model = self.member()
        shots = rng.integers(4, size=6)
        state = self.state_with([model], dropout_passes=7)
        draws = copy.deepcopy(state.rng)
        _, masks = state.draw(1)
        probe.sample_shots(state.distribution(1), state.cfg.shots, draws)
        assert state.rng.bit_generator.state == draws.bit_generator.state  # no masks drawn
        assert masks == [None]
        post, _ = state.posterior(shots, masks)
        assert post.tobytes() == model.forward(shots)[0].tobytes()

    def test_dropout_passes_average_is_valid(self, rng):
        shots = rng.integers(4, size=6)
        state = self.state_with([self.member(dropout=0.4)], dropout_passes=20)
        post, runs = state.posterior(shots, state.draw(0)[1])
        assert abs(post.sum() - 1.0) < 1e-8 and np.all(post >= EPS)
        assert runs == [None]  # train_step draws its own masks

    def test_mean_over_members_and_passes(self, rng):
        members = [self.member(seed=s, dropout=0.3) for s in range(2)]
        shots = rng.integers(4, size=6)
        state = self.state_with(members, dropout_passes=3)
        masks = [m.dropout_masks(rng, (3,)) for m in members]
        posts = [m.forward(shots, mk)[0] for m, mk in zip(members, masks)]
        mean = np.maximum(np.concatenate(posts).mean(axis=0), EPS)
        assert state.posterior(shots, masks)[0].tobytes() == (mean / mean.sum()).tobytes()

    def test_ensemble_entropy_jensen(self, rng):
        # averaged posterior entropy >= min member entropy
        members = [self.member(seed=s, perturb=0.5) for s in range(5)]
        shots = rng.integers(4, size=10)
        mixed = self.entropy(self.state_with(members).posterior(shots, [None] * 5)[0])
        assert mixed >= min(self.entropy(m.forward(shots)[0]) for m in members) - 1e-9

    def test_ensemble_step_reuses_each_members_pass(self, monkeypatch):
        cfg = fast_config(ensemble=3, horizon=4)
        state = init_state(cfg, 4)
        pretrain_run(state)
        runs = []
        run = SequentialPhaseEstimator._run

        def counted(model, *args, **kwargs):
            runs.append(id(model))
            return run(model, *args, **kwargs)

        monkeypatch.setattr(SequentialPhaseEstimator, "_run", counted)
        for t in range(cfg.horizon):
            twins = copy.deepcopy(state.models)
            lr = cfg.lr * cfg.decay ** (state.steps // cfg.decay_every)
            runs.clear()
            rec = sense_step(state, t % cfg.m)
            assert sorted(runs) == sorted(id(m) for m in state.models)
            for model, twin in zip(state.models, twins):
                assert twin.train_step(np.array(rec.shots), rec.x_index, lr, cfg.l2)
                assert model.weights.tobytes() == twin.weights.tobytes()


class TestProbeGradStep:
    def test_zero_rate_no_change(self, rng):
        state = grad_state(probe.random_angles(2, rng), eta_theta=0.0)
        before = state.theta.copy()
        assert not probe_grad_step(state, 1, np.array([0, 1]), 2.0)
        np.testing.assert_array_equal(state.theta, before)
        assert (state.g_sum, state.g_count) == (3.0, 2)  # G still joins the baseline

    def test_zero_advantage_no_change(self, rng):
        # baseline 6 / 2 equals G = 3
        state = grad_state(probe.random_angles(2, rng), g_sum=6.0, g_count=2)
        before = state.theta.copy()
        probe_grad_step(state, 1, np.array([0, 1]), 3.0)
        np.testing.assert_allclose(state.theta, before, atol=1e-15)

    def test_all_shots_degenerate_flags(self):
        # |++> with a ZZ phase, read in the Hadamard basis at grid phase 0:
        # outcomes 1 and 2 have probability 0 (about 1e-32)
        theta = np.array([[0.0, np.pi / 2, 0.0, 0.3]])
        state = grad_state(theta)
        assert state.distribution(0)[[1, 2]].max() <= probe.PROB_FLOOR
        assert probe_grad_step(state, 0, np.array([1, 2]), 2.0)
        np.testing.assert_array_equal(state.theta, theta)

    def test_zero_probability_shot_flagged_and_ignored(self):
        # |++> with a ZZ phase g, read in the Hadamard basis at x = 0, gives
        # p = (cos^2 g, 0, 0, sin^2 g): outcome 1 is impossible, outcome 0 is not
        theta = np.array([[0.0, np.pi / 2, 0.0, 0.3]])
        alone, mixed = grad_state(theta), grad_state(theta)
        dist = alone.distribution(0)  # grid phase 0
        assert dist[1] <= probe.PROB_FLOOR < dist[0]
        assert not probe_grad_step(alone, 0, np.array([0]), 2.0)
        assert probe_grad_step(mixed, 0, np.array([0, 1]), 2.0)
        assert not np.array_equal(alone.theta, theta)
        np.testing.assert_array_equal(mixed.theta, alone.theta)

    def test_overflowing_step_not_taken(self, rng):
        # G - b = 6 - 1 and the gradient are finite, eta_theta (G - b) grad is not
        theta = probe.random_angles(2, rng)
        state = grad_state(theta, eta_theta=1e308)
        shots = np.argsort(state.distribution(1))[::-1][[0, 0, 1]]
        grad = probe.log_prob_grad(theta, state.grid[1], 2, np.bincount(shots, minlength=4))
        assert np.abs(5.0 * grad).max() > 2.0
        with np.errstate(over="ignore"):
            assert probe_grad_step(state, 1, shots, 6.0)
        assert state.theta is theta

    def test_matches_fd_table_update(self, rng):
        theta = probe.random_angles(2, rng)
        state = grad_state(theta, n=3, eta_theta=0.5)
        dist = state.distribution(1)
        shots = np.argsort(dist)[::-1][[0, 0, 1]]  # the likeliest outcome twice
        assert not probe_grad_step(state, 1, shots, 2.5)
        table = probe.log_prob_grad_table(theta, state.grid[1], 3)
        expected = theta.ravel() - 0.5 * 1.5 * table[shots].sum(axis=0)
        out = state.theta.ravel()
        assert np.max(np.abs(out - theta.ravel())) > 1e-3
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


class TestPretrainRun:
    def test_zero_budget_keeps_theta(self):
        cfg = fast_config(probe_pretrain_steps=0)
        state = init_state(cfg, 0)
        theta_before = state.theta.copy()
        pretrain_run(state)
        np.testing.assert_array_equal(state.theta, theta_before)

    def test_no_samples_draws_nothing(self):
        state = init_state(fast_config(pretrain_samples=0), 0)
        theta_before, rng_before = state.theta.copy(), state.rng.bit_generator.state
        weights_before = state.models[0].get_weights()
        assert pretrain_run(state) is None
        assert state.rng.bit_generator.state == rng_before
        np.testing.assert_array_equal(state.theta, theta_before)
        np.testing.assert_array_equal(state.models[0].get_weights(), weights_before)

    def test_beats_uniform_on_pretrain_set(self):
        cfg = RunConfig(
            n=2, layers=2, m=5, shots=6, hidden_size=16,
            pretrain_samples=10, pretrain_epochs=60, probe_pretrain_steps=0,
        )
        state = init_state(cfg, 3)
        shots, labels, _ = replay_pretrain_set(state)
        pretrain_run(state)
        mean_ce = state.models[0].loss_grads(shots, labels)[0] / len(labels)
        assert mean_ce < np.log(cfg.m)

    def test_draw_order(self):
        """Each sample draws its phase index, then its shots under the initial
        angles; then each member in turn fits on the whole set with the trial
        rng. Moving any of these draws changes the weights."""
        cfg = fast_config(probe_pretrain_steps=0, dropout=0.3, ensemble=2)
        seed = 4
        state = init_state(cfg, seed)
        shots, labels, rng = replay_pretrain_set(state)
        pretrain_run(state)
        for k, model in enumerate(state.models):
            fresh = SequentialPhaseEstimator(
                2**cfg.n, cfg.m, cfg.hidden_size, cfg.dropout, seed=seed + 1 + k
            )
            fresh.fit(shots, labels, cfg.pretrain_lr, cfg.l2, cfg.pretrain_epochs, rng=rng)
            assert fresh.weights.tobytes() == model.weights.tobytes()
        assert rng.bit_generator.state == state.rng.bit_generator.state

    @pytest.mark.parametrize(
        "overrides, skipped",
        [({}, 0), (dict(pretrain_lr=1e300, pretrain_samples=5, pretrain_epochs=2), 1)],
        ids=["defaults", "overflow"],
    )
    def test_fit_counts_skipped_blocks(self, overrides, skipped):
        """At rate 1e300 the first block's step is finite and takes the
        weights to about 1e300; the second overflows and is skipped."""
        cfg = RunConfig(**overrides)
        state = init_state(cfg, 1)
        shots, labels, rng = replay_pretrain_set(state)
        model = state.models[0]
        with np.errstate(over="ignore"):
            got = model.fit(shots, labels, cfg.pretrain_lr, cfg.l2, cfg.pretrain_epochs, rng=rng)
        assert got == skipped
        assert np.isfinite(model.weights).all()

    def test_resets_probe_baseline(self):
        state = init_state(fast_config(), 2)
        pretrain_run(state)
        assert (state.g_sum, state.g_count) == (0.0, 0)
        before = state.theta.tobytes()
        rec = sense_step(state, 1)
        assert state.theta.tobytes() == before  # its baseline is its own G
        assert (state.g_sum, state.g_count) == (rec.soft_size, 1)

    def test_same_seed_identical(self):
        cfg = fast_config()
        a, b = init_state(cfg, 5), init_state(cfg, 5)
        pretrain_run(a)
        pretrain_run(b)
        assert state_hash(a) == state_hash(b)


class TestRunTrial:
    @pytest.mark.parametrize("mode", ["static", "static-probe-estimator"])
    @pytest.mark.parametrize(
        "bayes", [dict(ensemble=2), dict(dropout=0.3, dropout_passes=3)],
        ids=["ensemble", "dropout"],
    )
    def test_frozen_trial_matches_step_loop(self, mode, bayes, monkeypatch):
        """A frozen trial scores its steps in blocks ahead of them; a fresh
        state stepped by sense_step alone gives the same trace."""
        # two full blocks and a partial one; at m = 3 seed 0's static
        # threshold falls inside the range of the scores, so sets vary
        cfg = fast_config(mode=mode, horizon=2 * engine.BLOCK + 7, m=3, **bayes)
        steps = []
        step = engine.sense_step
        monkeypatch.setattr(engine, "sense_step", lambda *a: steps.append(1) or step(*a))
        got = run_trial(cfg, 0)
        assert len(steps) == cfg.horizon  # one sense_step per step
        state = init_state(cfg, 0)
        pretrain_run(state)
        for x_index in engine.phase_sequence(cfg, state.rng):
            step(state, int(x_index))
        want = state.records
        assert len(got) == len(want) == cfg.horizon
        assert len({r.set_size for r in want}) > 1
        for g, w in zip(got, want):
            for key in ("x_index", "shots", "set_mask", "lam_before", "loss", "avg_loss"):
                assert getattr(g, key) == getattr(w, key), (g.t, key)
            np.testing.assert_allclose(g.scores, w.scores, rtol=1e-12, atol=0, err_msg=g.t)

    @pytest.mark.parametrize("mode", engine.MODES)
    def test_draws_come_before_steps_only_when_frozen(self, mode, monkeypatch):
        """Each step draws once, in step order; a frozen trial makes every
        draw before its first sense_step, any other trial inside the step."""
        cfg = fast_config(mode=mode, horizon=engine.BLOCK + 3, dropout=0.3, dropout_passes=2,
                          pretrain_samples=0)
        events = []
        draw, step = engine.RunState.draw, engine.sense_step

        def logged_draw(state, x_index):
            events.append(("draw", x_index))
            return draw(state, x_index)

        def logged_step(state, x_index, *args):
            events.append(("step", x_index))
            return step(state, x_index, *args)

        monkeypatch.setattr(engine.RunState, "draw", logged_draw)
        monkeypatch.setattr(engine, "sense_step", logged_step)
        xs = [r.x_index for r in run_trial(cfg, 3)]
        if cfg.updates_params:
            want = [(kind, x) for x in xs for kind in ("step", "draw")]
        else:
            want = [("draw", x) for x in xs] + [("step", x) for x in xs]
        assert events == want

    def test_horizon_one(self):
        cfg = fast_config(horizon=1, pretrain_samples=0)
        records = run_trial(cfg, 0)
        assert len(records) == 1

    def test_reproducible_records(self):
        cfg = fast_config()
        a = run_trial(cfg, 7)
        b = run_trial(cfg, 7)
        assert [dataclasses.asdict(r) for r in a] == [dataclasses.asdict(r) for r in b]

    def test_telescoping_identity_on_trajectory(self):
        cfg = fast_config(horizon=40, mode="dynamic", pretrain_samples=0)
        records = run_trial(cfg, 1)
        lam_first = records[0].lam_before
        loss_sum = sum(r.loss - cfg.alpha for r in records)
        # lam after the last update
        final_lam = records[-1].lam_before + cfg.eta * (records[-1].loss - cfg.alpha)
        assert abs(final_lam - lam_first - cfg.eta * loss_sum) <= 1e-9

    def test_empirical_risk_bound(self):
        cfg = fast_config(horizon=60, pretrain_samples=0)
        for seed in range(3):
            records = run_trial(cfg, seed)
            avg = records[-1].avg_loss
            bound = conformal.risk_bound(cfg.horizon, cfg.eta, cfg.schedule, cfg.l_max)
            assert avg <= cfg.alpha + bound + 1e-12

    def test_drift_sequence(self):
        cfg = fast_config(phase_process="drift", pretrain_samples=0)
        records = run_trial(cfg, 0)
        assert all(0 <= r.x_index < cfg.m for r in records)


class TestAggregate:
    def test_shapes_and_consistency(self):
        cfg = fast_config(pretrain_samples=0)
        trials = [run_trial(cfg, s) for s in range(2)]
        agg = aggregate(trials)
        assert len(agg["t"]) == cfg.horizon
        # mean coverage at t equals recomputation from stored losses
        t = cfg.horizon - 1
        manual = np.mean(
            [1 - np.mean([r.loss for r in tr[: t + 1]]) for tr in trials]
        )
        assert agg["mean_coverage"][t] == pytest.approx(manual, abs=1e-12)

    def test_distance_loss_coverage_from_sets(self):
        cfg = fast_config(loss_kind="distance", horizon=30, pretrain_samples=0)
        trials = [run_trial(cfg, s) for s in range(2)]
        covered = np.array([[r.set_mask[r.x_index] for r in tr] for tr in trials])
        assert not covered.all()  # a miss, so coverage and 1 - distance differ
        agg = aggregate(trials)
        for t in range(cfg.horizon):
            manual = np.mean(covered[:, : t + 1].mean(axis=1))
            assert agg["mean_coverage"][t] == pytest.approx(manual, abs=1e-12)

    def test_ensemble_mode_runs(self):
        cfg = fast_config(ensemble=2)
        records = run_trial(cfg, 0)
        assert len(records) == cfg.horizon

    def test_dropout_mode_runs(self):
        cfg = fast_config(dropout=0.4, dropout_passes=3)
        records = run_trial(cfg, 0)
        assert len(records) == cfg.horizon
