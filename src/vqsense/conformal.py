"""Risk-controlled set prediction and the online threshold update.

The estimation set at threshold lam collects every grid phase whose score
is <= lam (boundary included). The threshold evolves by
lam <- lam + eta_t * (loss - alpha), which telescopes to an exact identity
on the running loss. risk_bound() turns that identity into a deterministic
long-run bound, (score_max + eta l_max) / (eta_T T), which holds whenever
every score lies in [0, score_max] and lam_1 <= score_max. Its default
ceiling SCORE_MAX holds for every posterior the estimator can give, and a
run passes the ceiling it observed, max(lam_1, largest true-phase score):
engine.run_trial checks the bound after its last step and raises when it
fails. Every function here is pure: the threshold is one float that the
caller keeps (engine.RunState.lam), and eta, alpha, the schedule and l_max
are passed in from its RunConfig.
"""
from __future__ import annotations

import numpy as np

from .estimator import SCORE_MAX
from .probe import ConfigurationError

SCHEDULES = ("constant", "decay")
EMPTY_SET_DISTANCE = np.pi  # cap for the min-distance loss of an empty set


def build_set(scores: np.ndarray, lam: float) -> np.ndarray:
    """Membership mask {x : score(x) <= lam}; may be empty or full."""
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores <= lam


def set_size(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def coverage_loss(x_index: int, mask: np.ndarray) -> float:
    """1 if the true grid index fell outside the set, else 0."""
    return 0.0 if mask[x_index] else 1.0


def min_distance_loss(
    x_value: float, mask: np.ndarray, grid_values: np.ndarray
) -> float:
    """Distance from the true phase to the nearest set member.

    An empty set gets the grid-diameter cap pi, keeping the loss bounded.
    """
    members = np.asarray(grid_values, dtype=float)[np.asarray(mask, dtype=bool)]
    if members.size == 0:
        return float(EMPTY_SET_DISTANCE)
    return float(np.min(np.abs(members - x_value)))


def update_threshold(
    lam: float, loss: float, t: int, eta: float, alpha: float,
    schedule: str = "constant", l_max: float = 1.0,
) -> float:
    """One online update lam + eta_t * (loss - alpha), after t earlier updates.

    eta_t is eta under "constant" and eta / sqrt(t + 1) under "decay"."""
    if not 0 <= loss <= l_max + 1e-12:
        raise ValueError(f"loss {loss} outside [0, {l_max}]")
    if schedule not in SCHEDULES:
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    eta_t = eta if schedule == "constant" else eta / np.sqrt(t + 1)
    return lam + eta_t * (loss - alpha)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)). The ±500 clamp keeps exp finite; minimum/maximum
    give np.clip's values at less call cost."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


def soft_set_size(scores: np.ndarray, lam: float, tau: float) -> float:
    """Differentiable set-size surrogate sum_x sigmoid(-(score - lam)/tau)."""
    if tau <= 0:
        raise ConfigurationError("temperature tau must be > 0")
    scores = np.asarray(scores, dtype=float)
    return float(np.sum(sigmoid(-(scores - lam) / tau)))


def risk_bound(
    horizon: int, eta: float, schedule: str = "constant", l_max: float = 1.0,
    score_max: float = SCORE_MAX,
) -> float:
    """Bound on (average loss - alpha) after `horizon` threshold updates from
    lam_1, when every score lies in [0, score_max] and lam_1 <= score_max.

    lam rises only on a miss, when lam < score(x_true), and then by at most
    eta (l_max - alpha), so it stays below score_max + eta (l_max - alpha).
    It falls only when the set is not empty, when lam >= some score >= 0, and
    then by at most eta alpha, so it stays above -eta alpha. Summing the
    updates by parts bounds the total loss - alpha by that range over the last
    step size eta_T, which is eta under "constant" and eta / sqrt(T) under
    "decay": the bound is (score_max + eta l_max) / (eta_T T).
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    if eta <= 0:
        raise ConfigurationError("eta must be > 0")
    if schedule not in SCHEDULES:
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    eta_last = eta if schedule == "constant" else eta / np.sqrt(horizon)
    return float((score_max + eta * l_max) / (eta_last * horizon))
