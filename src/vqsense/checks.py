"""Self-contained gradient checks for every learned pathway.

Each check compares an analytic (or estimator-based) gradient against an
independent numerical oracle and reports the worst relative error. The
score-function check compares the sampled probe gradient against the exact
gradient of the expected soft set size, computed by exhaustively enumerating
all shot combinations for a 2-qubit, 2-shot setup.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import conformal, probe
from .estimator import SequentialPhaseEstimator


def check_estimator_backprop(
    seed: int = 0, n_coords: int = 50, tol: float = 1e-4, corrupt: bool = False
) -> dict:
    """BPTT gradients vs central finite differences (h = 1e-4)."""
    rng = np.random.default_rng(seed)
    model = SequentialPhaseEstimator(input_dim=4, n_levels=10, hidden_size=16, seed=seed)
    model.set_weights(model.get_weights() + rng.normal(scale=0.2, size=model.get_weights().size))
    shots = rng.integers(4, size=8)
    x_index = int(rng.integers(10))
    _, grads = model.loss_grads(shots, x_index)
    flat_grad = np.concatenate([grads[k].reshape(-1) for k in model._key_order])
    if corrupt:
        flat_grad = flat_grad + 0.05

    base = model.get_weights()
    h = 1e-4
    candidates = np.flatnonzero(np.abs(flat_grad) > 1e-8)
    coords = rng.choice(candidates, size=min(n_coords, len(candidates)), replace=False)
    max_rel = 0.0
    for k in coords:
        w = base.copy()
        w[k] += h
        model.set_weights(w)
        f_plus = model.nll(shots, x_index)
        w = base.copy()
        w[k] -= h
        model.set_weights(w)
        f_minus = model.nll(shots, x_index)
        numeric = (f_plus - f_minus) / (2 * h)
        rel = abs(flat_grad[k] - numeric) / max(abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    model.set_weights(base)
    return {"name": "estimator_backprop", "max_rel_error": max_rel, "tol": tol,
            "passed": bool(max_rel <= tol)}


def check_soft_size_grad(
    seed: int = 0, tol: float = 1e-8, corrupt: bool = False
) -> dict:
    """Analytic soft-size score gradient vs central finite differences."""
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for _ in range(20):
        scores = rng.uniform(0, 4, size=10)
        lam = rng.uniform(0, 4)
        tau = rng.uniform(0.1, 1.0)
        grad = conformal.soft_size_grad_scores(scores, lam, tau)
        if corrupt:
            grad = grad + 1e-3
        h = 1e-6
        for i in range(len(scores)):
            up, dn = scores.copy(), scores.copy()
            up[i] += h
            dn[i] -= h
            numeric = (
                conformal.soft_set_size(up, lam, tau)
                - conformal.soft_set_size(dn, lam, tau)
            ) / (2 * h)
            max_err = max(max_err, abs(grad[i] - numeric))
    return {"name": "soft_size_grad", "max_rel_error": max_err, "tol": tol,
            "passed": bool(max_err <= tol)}


def check_probe_logprob_grad(
    seed: int = 0, tol: float = 1e-3, corrupt: bool = False
) -> dict:
    """Two-step finite-difference consistency of grad log p(s|x)."""
    rng = np.random.default_rng(seed)
    theta = probe.ProbeParams.random(2, rng)
    basis = probe.BASES["hadamard"]
    x = float(rng.uniform(0, np.pi))
    valid = probe.measurement_distribution(theta, x, basis, 2) > probe.PROB_FLOOR
    g1 = probe.log_prob_grad_table(theta, x, basis, n=2, h=1e-5)
    g2 = probe.log_prob_grad_table(theta, x, basis, n=2, h=1e-7)
    if corrupt:
        g1 = g1 * 1.01
    max_rel = 0.0
    for s in np.flatnonzero(valid):
        for k in range(g1.shape[1]):
            if abs(g2[s, k]) > 1e-6:
                max_rel = max(max_rel, abs(g1[s, k] - g2[s, k]) / abs(g2[s, k]))
    return {"name": "probe_logprob_grad", "max_rel_error": max_rel, "tol": tol,
            "passed": bool(max_rel <= tol)}


def check_score_function_gradient(
    seed: int = 0, n_resamples: int = 10_000, sigmas: float = 3.0,
    corrupt: bool = False,
) -> dict:
    """Score-function probe gradient vs the exact gradient of E[G].

    For n=2 qubits and L=2 shots, E[G](theta) is computed by enumerating all
    16 shot pairs; its finite-difference gradient is the oracle. The sampled
    estimator (G - b) * sum_l grad log p(s_l) must agree within `sigmas`
    standard errors on every coordinate.
    """
    rng = np.random.default_rng(seed)
    n, layers, n_shots, m = 2, 2, 2, 10
    theta = probe.ProbeParams.random(layers, rng)
    basis = probe.BASES["hadamard"]
    x = float(probe.phase_grid(m)[3])
    lam, tau = float(np.log(m)), 0.5

    model = SequentialPhaseEstimator(input_dim=2**n, n_levels=m, hidden_size=16, seed=seed)
    model.set_weights(model.get_weights() + rng.normal(scale=0.3, size=model.get_weights().size))

    outcomes = list(range(2**n))
    g_table = {
        pair: conformal.soft_set_size(model.scores(np.array(pair)), lam, tau)
        for pair in itertools.product(outcomes, repeat=n_shots)
    }

    def expected_g(flat_theta: np.ndarray) -> float:
        p = probe.measurement_distribution(
            probe.ProbeParams.from_flat(flat_theta), x, basis, n
        )
        return sum(p[a] * p[b] * g for (a, b), g in g_table.items())

    flat = theta.flat()
    h = 1e-5
    oracle = np.zeros(len(flat))
    for k in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        oracle[k] = (expected_g(up) - expected_g(dn)) / (2 * h)

    dist = probe.measurement_distribution(theta, x, basis, n)
    table = probe.log_prob_grad_table(theta, x, basis, n)
    baseline = expected_g(flat)
    samples = np.zeros((n_resamples, len(flat)))
    for i in range(n_resamples):
        shots = probe.sample_shots(dist, n_shots, rng)
        if not all(dist[s] > probe.PROB_FLOOR for s in shots):
            continue
        g = g_table[tuple(int(s) for s in shots)]
        samples[i] = (g - baseline) * (table[shots[0]] + table[shots[1]])
    mean = samples.mean(axis=0)
    if corrupt:
        mean = mean + 1.0
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_resamples)
    # 1e-7 floor absorbs finite-difference noise in the oracle for exactly
    # zero-gradient coordinates (where the sample SE is identically 0)
    z = np.abs(mean - oracle) / np.maximum(se, 1e-7)
    return {"name": "score_function_gradient", "max_rel_error": float(z.max()),
            "tol": sigmas, "passed": bool(np.all(z <= sigmas))}


def run_all(seed: int = 0, corrupt: bool = False) -> list[dict]:
    return [
        check_estimator_backprop(seed, corrupt=corrupt),
        check_soft_size_grad(seed, corrupt=corrupt),
        check_probe_logprob_grad(seed, corrupt=corrupt),
        check_score_function_gradient(seed, corrupt=corrupt),
    ]
