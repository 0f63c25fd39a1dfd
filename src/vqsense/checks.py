"""Self-contained gradient checks for every learned pathway.

Each check compares an analytic (or estimator-based) gradient against an
independent numerical oracle and reports the worst relative error. The
score-function check drives engine.probe_grad_step, the update the sensing
loop runs, on every shot pair of a 2-qubit, 2-shot setup, and compares the
exact expectation of its step against the finite-difference gradient of the
expected soft set size, which the same enumeration gives.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import conformal, engine, probe
from .estimator import SequentialPhaseEstimator


def check_estimator_backprop(seed: int = 0, corrupt: bool = False) -> dict:
    """BPTT gradients vs central finite differences (h = 1e-4) on 50 random
    coordinates with a nonzero gradient, within a relative 1e-4: the gradient
    of one sequence's loss, then the summed gradient of a (3, 8) block with
    one dropout mask per sequence, as a pretraining step takes it."""
    rng = np.random.default_rng(seed)
    n_coords, tol, h = 50, 1e-4, 1e-4
    model = SequentialPhaseEstimator(input_dim=4, n_levels=10, hidden_size=16, seed=seed)
    model.set_weights(model.get_weights() + rng.normal(scale=0.2, size=model.get_weights().size))
    base = model.get_weights()

    def max_rel_error(shots, x_index, masks=None) -> float:
        _, flat_grad = model.loss_grads(shots, x_index, masks)
        if corrupt:
            flat_grad = flat_grad + 0.05
        candidates = np.flatnonzero(np.abs(flat_grad) > 1e-8)
        coords = rng.choice(candidates, size=min(n_coords, len(candidates)), replace=False)
        worst = 0.0
        for k in coords:
            losses = []
            for delta in (h, -h):
                w = base.copy()
                w[k] += delta
                model.set_weights(w)
                losses.append(model.loss_grads(shots, x_index, masks)[0])
            numeric = (losses[0] - losses[1]) / (2 * h)
            worst = max(worst, abs(flat_grad[k] - numeric) / max(abs(numeric), 1e-8))
        model.set_weights(base)
        return worst

    single = max_rel_error(rng.integers(4, size=8), int(rng.integers(10)))
    keep = 0.7
    block = max_rel_error(rng.integers(4, size=(3, 8)), rng.integers(10, size=3),
                          (rng.random((3, 2, 16)) < keep) / keep)
    max_rel = max(single, block)
    return {"name": "estimator_backprop", "max_rel_error": max_rel, "tol": tol,
            "passed": bool(max_rel <= tol)}


def check_probe_logprob_grad(seed: int = 0, corrupt: bool = False) -> dict:
    """Adjoint grad of sum_s counts[s] log p(s|x) vs the finite-difference table,
    within a relative 1e-3.

    Runs one-hot counts for every outcome with p(s|x) > PROB_FLOOR, then one
    multi-shot counts vector with repeated outcomes.
    """
    rng = np.random.default_rng(seed)
    n, tol = 2, 1e-3
    theta = probe.random_angles(2, rng)
    x = float(rng.uniform(0, np.pi))
    dist = probe.measurement_distribution(theta, x, n)
    valid = np.flatnonzero(dist > probe.PROB_FLOOR)
    table = probe.log_prob_grad_table(theta, x, n)
    count_vectors = [np.bincount([s], minlength=2**n) for s in valid]
    # more shots than outcomes, so some outcome repeats
    count_vectors.append(np.bincount(rng.choice(valid, size=2**n + 4), minlength=2**n))
    max_rel = 0.0
    for counts in count_vectors:
        adjoint = probe.log_prob_grad(theta, x, n, counts).ravel()
        if corrupt:
            adjoint = adjoint * 1.01
        numeric = counts[valid] @ table[valid]
        big = np.abs(numeric) > 1e-6
        rel = np.abs(adjoint[big] - numeric[big]) / np.abs(numeric[big])
        max_rel = max(max_rel, float(rel.max(initial=0.0)))
    return {"name": "probe_logprob_grad", "max_rel_error": max_rel, "tol": tol,
            "passed": bool(max_rel <= tol)}


def check_score_function_gradient(seed: int = 0, corrupt: bool = False) -> dict:
    """engine.probe_grad_step's expected step vs the exact gradient of E[G],
    within a relative 1e-3 (denominators floored at 1e-5).

    For n=2 qubits and L=2 shots, E[G](theta) is a sum over all 16 shot
    pairs; its finite-difference gradient is the oracle. The engine steps
    once from theta on every pair (a, b), with eta_theta = 1 and its baseline
    at E[G]; the steps weighted by p(a) p(b) are the step's exact expectation.
    """
    rng = np.random.default_rng(seed)
    n, layers, n_shots, m, tol = 2, 2, 2, 10, 1e-3
    theta = probe.random_angles(layers, rng)
    x_index = 3
    x = float(probe.phase_grid(m)[x_index])
    lam, tau = float(np.log(m)), 0.5

    model = SequentialPhaseEstimator(input_dim=2**n, n_levels=m, hidden_size=16, seed=seed)
    model.set_weights(model.get_weights() + rng.normal(scale=0.3, size=model.get_weights().size))

    pairs = list(itertools.product(range(2**n), repeat=n_shots))
    posts = model.forward(np.array(pairs))[0]  # one batched pass over all pairs
    g_table = {
        pair: conformal.soft_set_size(-np.log(post), lam, tau)
        for pair, post in zip(pairs, posts)
    }

    def expected_g(angles: np.ndarray) -> float:
        p = probe.measurement_distribution(angles, x, n)
        return sum(p[a] * p[b] * g for (a, b), g in g_table.items())

    h = 1e-5
    oracle = np.zeros_like(theta)
    for k in np.ndindex(theta.shape):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        oracle[k] = (expected_g(up) - expected_g(dn)) / (2 * h)

    cfg = engine.RunConfig(n=n, layers=layers, m=m, shots=n_shots, tau=tau, eta_theta=1.0,
                           pretrain_samples=0)
    dist = probe.measurement_distribution(theta, x, n)
    baseline = expected_g(theta)
    mean = np.zeros_like(theta)
    for (a, b), g in g_table.items():
        state = engine.init_state(cfg, seed)
        state.theta, state.g_sum, state.g_count = theta, baseline, 1
        engine.probe_grad_step(state, x_index, np.array([a, b]), g)
        mean += dist[a] * dist[b] * (theta - state.theta)
    if corrupt:
        mean = mean + 1.0
    max_rel = float(np.max(np.abs(mean - oracle) / np.maximum(np.abs(oracle), 1e-5)))
    return {"name": "score_function_gradient", "max_rel_error": max_rel, "tol": tol,
            "passed": bool(max_rel <= tol)}


def run_all(seed: int = 0, corrupt: bool = False) -> list[dict]:
    return [
        check_estimator_backprop(seed, corrupt=corrupt),
        check_probe_logprob_grad(seed, corrupt=corrupt),
        check_score_function_gradient(seed, corrupt=corrupt),
    ]
