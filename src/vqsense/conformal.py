"""Risk-controlled set prediction and the online threshold update.

The estimation set at threshold lam collects every grid phase whose score
is <= lam (boundary included). The threshold evolves by
lam <- lam + eta_t * (loss - alpha), which telescopes to an exact identity
on the running loss and yields the deterministic long-run bound implemented
in risk_bound().
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .probe import ConfigurationError

SCHEDULES = ("constant", "decay")
EMPTY_SET_DISTANCE = np.pi  # cap for the min-distance loss of an empty set


@dataclass(frozen=True)
class ThresholdState:
    """Threshold lam plus its step-size schedule and loss bookkeeping.

    With schedule="decay" the step size at (1-indexed) step t is eta/sqrt(t);
    "constant" uses eta throughout. t counts completed updates.
    """

    lam: float
    eta: float
    alpha: float
    schedule: str = "constant"
    l_max: float = 1.0
    t: int = 0
    cum_loss: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigurationError("threshold step size must be > 0")
        if not 0 < self.alpha < 1:
            raise ConfigurationError("target loss alpha must be in (0, 1)")
        if self.schedule not in SCHEDULES:
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")

    def step_size(self) -> float:
        """eta_t for the upcoming update (step t+1, 1-indexed)."""
        if self.schedule == "constant":
            return self.eta
        return self.eta / np.sqrt(self.t + 1)


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


def update_threshold(state: ThresholdState, loss: float) -> ThresholdState:
    """One online update lam <- lam + eta_t * (loss - alpha)."""
    if not 0 <= loss <= state.l_max + 1e-12:
        raise ValueError(f"loss {loss} outside [0, {state.l_max}]")
    eta_t = state.step_size()
    return replace(
        state,
        lam=state.lam + eta_t * (loss - state.alpha),
        t=state.t + 1,
        cum_loss=state.cum_loss + loss,
    )


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), written into `out` when given. The ±500 clamp keeps
    exp finite; minimum/maximum give np.clip's values at less call cost."""
    z = np.minimum(np.maximum(z, -500.0), 500.0, out=out)
    z = np.exp(np.negative(z, out=out), out=out)
    return np.divide(1.0, np.add(z, 1.0, out=out), out=out)


def soft_set_size(scores: np.ndarray, lam: float, tau: float) -> float:
    """Differentiable set-size surrogate sum_x sigmoid(-(score - lam)/tau)."""
    if tau <= 0:
        raise ConfigurationError("temperature tau must be > 0")
    scores = np.asarray(scores, dtype=float)
    return float(np.sum(sigmoid(-(scores - lam) / tau)))


def risk_bound(
    horizon: int, eta: float, schedule: str = "constant", l_max: float = 1.0
) -> float:
    """Deterministic bound on (average loss - alpha) after `horizon` steps.

    Constant schedule: the telescoped step-size sequence sums to 1/eta, so
    the bound is (l_max + eta) / (horizon * eta). Decaying eta/sqrt(t): the
    sum telescopes to sqrt(T)/eta and the largest step size is eta.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    if eta <= 0:
        raise ConfigurationError("eta must be > 0")
    if schedule == "constant":
        delta_sum = 1.0 / eta
        eta_max = eta
    elif schedule == "decay":
        delta_sum = np.sqrt(horizon) / eta
        eta_max = eta
    else:
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    return float((l_max + eta_max) / horizon * delta_sum)
