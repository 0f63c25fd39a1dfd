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
    make_pretrain_dataset,
    pretrain_run,
    probe_grad_step,
    run_trial,
    sense_step,
)
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
    payload = state.theta.flat().tobytes() + b"".join(
        m.get_weights().tobytes() for m in state.models
    )
    return hashlib.sha256(payload).hexdigest()


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
            ("eta_theta", -0.5), ("schedule", "nope"), ("basis", "nope"),
            ("loss_kind", "nope"), ("phase_process", "nope"), ("dropout", 1.5),
            ("dropout", -0.1), ("ensemble", 0), ("dropout_passes", 0),
            ("decay_every", 0), ("decay", 0.0), ("lr", -1.0), ("pretrain_lr", -1.0),
            ("l2", -1.0), ("seed", -1), ("lambda_init", float("nan")),
            ("pretrain_samples", 0), ("pretrain_epochs", -1),
            ("probe_pretrain_steps", -1), ("eta", float("inf")), ("tau", float("inf")),
            ("lr", float("inf")), ("eta_theta", float("inf")), ("l2", float("inf")),
            ("pretrain_lr", float("inf")),
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
        lam_before = state.current_lambda()
        rec = sense_step(state, 2)
        assert isinstance(rec, EpisodeRecord)
        assert state_hash(state) == before
        assert state.current_lambda() == lam_before

    def test_static_threshold_freezes_lambda_only(self):
        cfg = fast_config(mode="static-threshold")
        state = init_state(cfg, 0)
        before = state_hash(state)
        lam = state.current_lambda()
        sense_step(state, 1)
        assert state.current_lambda() == lam
        assert state_hash(state) != before  # theta and w moved

    def test_static_probe_estimator_freezes_params_only(self):
        cfg = fast_config(mode="static-probe-estimator")
        state = init_state(cfg, 0)
        before = state_hash(state)
        sense_step(state, 1)
        assert state_hash(state) == before
        assert state.thr.t == 1

    def test_loss_at_target_leaves_lambda(self):
        cfg = fast_config(mode="dynamic", alpha=0.5)
        state = init_state(cfg, 0)
        # force a set that surely contains the truth, then check the update rule
        rec = sense_step(state, 0)
        expect = cfg.lambda_start + cfg.eta * (rec.loss - cfg.alpha)
        assert state.thr.lam == pytest.approx(expect)

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


class TestProbeGradStep:
    def test_zero_rate_no_change(self, rng):
        cfg = fast_config(eta_theta=0.0)
        theta = probe.ProbeParams.random(2, rng)
        basis = probe.BASES["hadamard"]
        dist = probe.measurement_distribution(theta, 0.5, basis, 2)
        out, _ = probe_grad_step(theta, np.array([0, 1]), dist, 2.0, 1.0, 0.5, basis, cfg)
        np.testing.assert_array_equal(out.flat(), theta.flat())

    def test_zero_advantage_no_change(self, rng):
        cfg = fast_config()
        theta = probe.ProbeParams.random(2, rng)
        basis = probe.BASES["hadamard"]
        dist = probe.measurement_distribution(theta, 0.5, basis, 2)
        out, _ = probe_grad_step(theta, np.array([0, 1]), dist, 3.0, 3.0, 0.5, basis, cfg)
        np.testing.assert_allclose(out.flat(), theta.flat(), atol=1e-15)

    def test_all_shots_degenerate_flags(self):
        cfg = fast_config(basis="computational")
        theta = probe.ProbeParams(np.zeros((2, 4)))
        basis = probe.BASES["computational"]
        dist = probe.measurement_distribution(theta, 0.5, basis, 2)
        # outcome 3 has probability 0 under the all-zero-angle probe
        out, flagged = probe_grad_step(
            theta, np.array([3, 3]), dist, 2.0, 1.0, 0.5, basis, cfg
        )
        assert flagged
        np.testing.assert_array_equal(out.flat(), theta.flat())

    def test_zero_probability_shot_flagged_and_ignored(self):
        # |++> with a ZZ phase g, read in the Hadamard basis at x = 0, gives
        # p = (cos^2 g, 0, 0, sin^2 g): outcome 1 is impossible, outcome 0 is not
        cfg = fast_config(layers=1)
        theta = probe.ProbeParams([[0.0, np.pi / 2, 0.0, 0.3]])
        basis = probe.BASES["hadamard"]
        dist = probe.measurement_distribution(theta, 0.0, basis, 2)
        assert dist[1] <= probe.PROB_FLOOR < dist[0]
        alone, flag_alone = probe_grad_step(
            theta, np.array([0]), dist, 2.0, 1.0, 0.0, basis, cfg
        )
        mixed, flag_mixed = probe_grad_step(
            theta, np.array([0, 1]), dist, 2.0, 1.0, 0.0, basis, cfg
        )
        assert not flag_alone and flag_mixed
        assert not np.array_equal(alone.flat(), theta.flat())
        np.testing.assert_array_equal(mixed.flat(), alone.flat())


class TestPretrainRun:
    def test_zero_budget_keeps_theta(self):
        cfg = fast_config(probe_pretrain_steps=0)
        state = init_state(cfg, 0)
        theta_before = state.theta.flat()
        pretrain_run(state)
        np.testing.assert_array_equal(state.theta.flat(), theta_before)

    def test_beats_uniform_on_pretrain_set(self):
        cfg = RunConfig(
            n=2, layers=2, m=5, shots=6, hidden_size=16,
            pretrain_samples=10, pretrain_epochs=60, probe_pretrain_steps=0,
        )
        state = init_state(cfg, 3)
        dataset = pretrain_run(state)
        mean_ce = np.mean(
            [state.models[0].nll(s, xi) for s, xi in dataset]
        )
        assert mean_ce < np.log(cfg.m)

    def test_same_seed_identical(self):
        cfg = fast_config()
        a, b = init_state(cfg, 5), init_state(cfg, 5)
        pretrain_run(a)
        pretrain_run(b)
        assert state_hash(a) == state_hash(b)


class TestRunTrial:
    def test_horizon_one(self):
        cfg = fast_config(horizon=1)
        records = run_trial(cfg, 0, pretrain=False)
        assert len(records) == 1

    def test_reproducible_records(self):
        cfg = fast_config()
        a = run_trial(cfg, 7)
        b = run_trial(cfg, 7)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_telescoping_identity_on_trajectory(self):
        cfg = fast_config(horizon=40, mode="dynamic")
        records = run_trial(cfg, 1, pretrain=False)
        lam_first = records[0].lam_before
        loss_sum = sum(r.loss - cfg.alpha for r in records)
        # lam after the last update
        final_lam = records[-1].lam_before + cfg.eta * (records[-1].loss - cfg.alpha)
        assert abs(final_lam - lam_first - cfg.eta * loss_sum) <= 1e-9

    def test_empirical_risk_bound(self):
        cfg = fast_config(horizon=60)
        for seed in range(3):
            records = run_trial(cfg, seed, pretrain=False)
            avg = records[-1].avg_loss
            bound = conformal.risk_bound(cfg.horizon, cfg.eta, cfg.schedule, cfg.l_max)
            assert avg <= cfg.alpha + bound + 1e-12

    def test_drift_sequence(self):
        cfg = fast_config(phase_process="drift")
        records = run_trial(cfg, 0, pretrain=False)
        assert all(0 <= r.x_index < cfg.m for r in records)


class TestAggregate:
    def test_shapes_and_consistency(self):
        cfg = fast_config()
        trials = [run_trial(cfg, s, pretrain=False) for s in range(2)]
        agg = aggregate(trials)
        assert len(agg["t"]) == cfg.horizon
        # mean coverage at t equals recomputation from stored losses
        t = cfg.horizon - 1
        manual = np.mean(
            [1 - np.mean([r.loss for r in tr[: t + 1]]) for tr in trials]
        )
        assert agg["mean_coverage"][t] == pytest.approx(manual, abs=1e-12)

    def test_ensemble_mode_runs(self):
        cfg = fast_config(ensemble=2)
        records = run_trial(cfg, 0)
        assert len(records) == cfg.horizon

    def test_dropout_mode_runs(self):
        cfg = fast_config(dropout=0.4, dropout_passes=3)
        records = run_trial(cfg, 0)
        assert len(records) == cfg.horizon
