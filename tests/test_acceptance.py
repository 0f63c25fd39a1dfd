"""End-to-end acceptance suite.

Each test prints a single "[ACCEPTANCE] criterion N ... PASS/FAIL" line before
asserting, so the verdict for every criterion is visible in the test log.
The expensive full-scale experiments (T=200, 5 trials) are computed once per
configuration and shared across criteria via a module-scoped cache.
"""
import hashlib

import numpy as np
import pytest

from vqsense import checks, cli, conformal, probe
from vqsense.engine import RunConfig, aggregate, run_trial, trial_seed
from vqsense.probe import BASES, ProbeParams, phase_grid

import conftest
from conftest import dense_embed, random_gate, zero_state
from test_probe import distribution_oracle, probe_state_oracle


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] criterion {num} ({label}): {status} {detail}".rstrip()
    print(line)
    conftest.VERDICTS.append(line)
    return ok


def run_experiment(cfg: RunConfig) -> list:
    """cfg.trials independent trials with the CLI's derived seeds."""
    return [run_trial(cfg, trial_seed(cfg, i)) for i in range(cfg.trials)]


_CACHE: dict = {}


def experiment(**overrides):
    """Run (or fetch) a 5-trial experiment at full scale with overrides."""
    key = tuple(sorted(overrides.items()))
    if key not in _CACHE:
        cfg = RunConfig(**overrides)
        _CACHE[key] = (cfg, run_experiment(cfg))
    return _CACHE[key]


def final_coverage(trials):
    return aggregate(trials)["mean_coverage"][-1]


class TestCriterion1CoverageConvergence:
    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.4])
    def test_final_coverage_hits_target(self, alpha):
        _, trials = experiment(alpha=alpha)
        cov = final_coverage(trials)
        ok = abs(cov - (1 - alpha)) <= 0.05
        assert _verdict(
            1, "coverage convergence",
            ok, f"alpha={alpha} coverage={cov:.4f} target={1 - alpha}",
        )


class TestCriterion2RiskBound:
    def test_twenty_random_configs(self):
        rng = np.random.default_rng(42)
        violations = 0
        worst = -np.inf
        for k in range(20):
            cfg = RunConfig(
                n=2, layers=2, m=5, shots=4, hidden_size=8,
                alpha=float(rng.uniform(0.1, 0.5)),
                eta=float(rng.uniform(0.05, 1.0)),
                horizon=int(rng.integers(50, 501)),
                schedule=("constant", "decay")[int(rng.integers(2))],
            )
            records = run_trial(cfg, int(rng.integers(10_000)), pretrain=False)
            avg_loss = records[-1].avg_loss
            bound = conformal.risk_bound(
                cfg.horizon, cfg.eta, cfg.schedule, cfg.l_max
            )
            slack = cfg.alpha + bound - avg_loss
            worst = max(worst, avg_loss - cfg.alpha - bound)
            if avg_loss > cfg.alpha + bound + 1e-12:
                violations += 1
        ok = violations == 0
        assert _verdict(
            2, "long-run risk bound",
            ok, f"violations={violations}/20 worst_excess={worst:.3e}",
        )


class TestCriterion3Telescoping:
    def test_constant_eta_T1000(self):
        cfg = RunConfig(
            n=2, layers=2, m=5, shots=4, hidden_size=8,
            horizon=1000, schedule="constant",
        )
        records = run_trial(cfg, 0, pretrain=False)
        lam_1 = records[0].lam_before
        lam_end = records[-1].lam_before + cfg.eta * (records[-1].loss - cfg.alpha)
        loss_sum = sum(r.loss - cfg.alpha for r in records)
        gap = abs(lam_end - lam_1 - cfg.eta * loss_sum)
        ok = gap <= 1e-9
        assert _verdict(3, "telescoping identity", ok, f"gap={gap:.3e}")


class TestCriterion4BenchmarkOrdering:
    def test_dynamic_and_static_pe_coverage(self):
        _, dyn = experiment(alpha=0.3)
        _, spe = experiment(alpha=0.3, mode="static-probe-estimator")
        cov_d, cov_s = final_coverage(dyn), final_coverage(spe)
        ok = abs(cov_d - 0.7) <= 0.05 and abs(cov_s - 0.7) <= 0.05
        assert _verdict(
            4, "benchmark coverage (dynamic & static-probe-estimator)",
            ok, f"dynamic={cov_d:.4f} static-pe={cov_s:.4f}",
        )

    def test_dynamic_sets_no_larger(self):
        _, dyn = experiment(alpha=0.3)
        _, spe = experiment(alpha=0.3, mode="static-probe-estimator")
        size_d = aggregate(dyn)["mean_set_size"][-1]
        size_s = aggregate(spe)["mean_set_size"][-1]
        ok = size_d <= size_s
        assert _verdict(
            4, "benchmark set-size ordering",
            ok, f"dynamic={size_d:.3f} <= static-pe={size_s:.3f}",
        )

    def test_static_misses_target(self):
        _, stat = experiment(alpha=0.3, mode="static")
        misses = sum(
            1 for trial in stat if abs((1 - trial[-1].avg_loss) - 0.7) > 0.05
        )
        ok = misses >= 3
        assert _verdict(
            4, "static mode misses target",
            ok, f"misses={misses}/5 trials off by > 0.05",
        )


class TestCriterion5SimulatorOracles:
    def test_analytic_magnetometer(self):
        # two unentangled Ry(pi/2)|0> qubits read in the X basis: each has
        # P(0) = cos^2(x/2), so P(00) = cos^4(x/2)
        theta = ProbeParams([[0.0, np.pi / 2, 0.0, 0.0]])
        worst = 0.0
        for x in phase_grid(10):
            dist = probe.measurement_distribution(theta, x, BASES["hadamard"], 2)
            worst = max(worst, abs(dist[0] - np.cos(x / 2) ** 4))
        ok = worst < 1e-10
        assert _verdict(
            5, "analytic magnetometer", ok, f"max_err={worst:.3e}"
        )

    def test_dense_matrix_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        # the production kernel under random single-qubit unitaries
        for n in (1, 2, 3):
            for _ in range(5):
                amps = dense = zero_state(n)
                for _ in range(12):
                    mat, q = random_gate(n, rng)
                    amps = probe._apply_1q(amps, n, mat, q)
                    dense = dense_embed(n, mat, (q,)) @ dense
                worst = max(worst, np.max(np.abs(amps - dense)))
        # the structured probe circuit must also match its dense oracle
        for n in (2, 3):
            theta = ProbeParams.random(3, rng)
            x = rng.uniform(0, np.pi)
            amps = probe_state_oracle(theta, n)
            worst = max(worst, np.max(np.abs(probe.prepare_probe(theta, n) - amps)))
            dist = probe.measurement_distribution(theta, x, BASES["hadamard"], n)
            oracle = distribution_oracle(theta, x, BASES["hadamard"], n)
            worst = max(worst, np.max(np.abs(dist - oracle)))
        ok = worst < 1e-10
        assert _verdict(5, "dense-matrix circuit oracle", ok, f"max_err={worst:.3e}")

    def test_sampling_tv_distance(self):
        rng = np.random.default_rng(11)
        theta = ProbeParams.random(4, rng)
        dist = probe.measurement_distribution(theta, 1.1, BASES["hadamard"], 4)
        shots = probe.sample_shots(dist, 100_000, np.random.default_rng(3))
        freqs = np.bincount(shots, minlength=dist.size) / shots.size
        tv = 0.5 * np.sum(np.abs(freqs - dist))
        ok = tv < 0.01
        assert _verdict(5, "sampling TV distance", ok, f"tv={tv:.5f}")


class TestCriterion6GradientSuite:
    def test_all_gradient_checks(self):
        results = checks.run_all(seed=0)
        ok = all(r["passed"] for r in results)
        detail = " ".join(
            f"{r['name']}={r['max_rel_error']:.3e}(tol {r['tol']:g})"
            for r in results
        )
        assert _verdict(6, "gradient suite", ok, detail)


class TestCriterion7BayesianVariants:
    @pytest.mark.parametrize(
        "label,overrides",
        [
            ("ensemble", {"ensemble": 5}),
            ("dropout", {"dropout": 0.4}),
        ],
    )
    def test_bayesian_coverage(self, label, overrides):
        _, trials = experiment(alpha=0.4, **overrides)
        cov = final_coverage(trials)
        ok = abs(cov - 0.6) <= 0.05
        assert _verdict(
            7, f"Bayesian {label}", ok, f"coverage={cov:.4f} target=0.6"
        )


class TestCriterion8Determinism:
    CFG = (
        "n = 2\nlayers = 2\nm = 5\nshots = 4\nT = 8\nhidden_size = 8\n"
        "pretrain_samples = 4\npretrain_epochs = 3\nprobe_pretrain_steps = 2\n"
        "trials = 1\n"
    )

    @staticmethod
    def _digests(out_dir):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.name != "run.log"
        }

    @pytest.mark.parametrize("command", ["run", "bench", "pretrain"])
    def test_byte_identical_artifacts(self, command, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(self.CFG)
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{command}_{rep}"
            rc = cli.main(
                [command, "--config", str(cfg), "--out-dir", str(out)]
            )
            assert rc == 0
            outs.append(self._digests(out))
        ok = outs[0] == outs[1]
        assert _verdict(
            8, f"determinism ({command})",
            ok, f"{len(outs[0])} artifacts byte-identical",
        )
