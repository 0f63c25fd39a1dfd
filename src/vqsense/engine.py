"""Online sensing loop tying probe, estimator and threshold together.

Each step: measure the probe under the true phase, score every candidate
phase with the sequential estimator, cut the scores at the current
threshold, accrue the loss, then (mode permitting) update the threshold,
the estimator weights, and the probe angles. The probe gradient is a
score-function (likelihood-ratio) estimate: the soft set size depends on
the probe angles only through the shot distribution, so
grad = (G - baseline) * sum_l grad_theta log p(s_l | x_true), with the
running mean of G as baseline.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import conformal, probe
from .estimator import SequentialPhaseEstimator, TrainConfig, forward_bayesian
from .probe import MAX_QUBITS, ConfigurationError

MODES = ("dynamic", "static", "static-threshold", "static-probe-estimator")
LOSS_KINDS = ("coverage", "distance")
PHASE_PROCESSES = ("iid", "drift")
TRIAL_SEED_STRIDE = 9973


@dataclass
class RunConfig:
    """Everything needed to reproduce one experiment."""

    n: int = 4
    layers: int = 4
    m: int = 10
    shots: int = 10
    horizon: int = 200
    alpha: float = 0.3
    tau: float = 0.5
    eta: float = 0.5
    eta_theta: float = 1e-3
    schedule: str = "constant"
    mode: str = "dynamic"
    loss_kind: str = "coverage"
    seed: int = 0
    trials: int = 5
    hidden_size: int = 64
    lr: float = 0.02
    l2: float = 1e-4
    decay: float = 0.1
    decay_every: int = 50
    dropout: float = 0.0
    ensemble: int = 1
    dropout_passes: int = 10
    basis: str = "hadamard"
    lambda_init: float | None = None  # default log(m)
    pretrain_samples: int = 20
    pretrain_epochs: int = 100
    pretrain_lr: float = 0.005
    probe_pretrain_steps: int = 100
    phase_process: str = "iid"  # or "drift": slow rotation across the grid

    def __post_init__(self):
        """Reject every invalid field up front, before any artifact is written."""
        rules = [
            ("mode", self.mode in MODES, f"must be one of {MODES}"),
            ("loss_kind", self.loss_kind in LOSS_KINDS, f"must be one of {LOSS_KINDS}"),
            ("schedule", self.schedule in conformal.SCHEDULES,
             f"must be one of {conformal.SCHEDULES}"),
            ("basis", self.basis in probe.BASES, f"must be one of {tuple(probe.BASES)}"),
            ("phase_process", self.phase_process in PHASE_PROCESSES,
             f"must be one of {PHASE_PROCESSES}"),
            ("n", 2 <= self.n <= MAX_QUBITS, f"must be in [2, {MAX_QUBITS}]"),
            ("m", self.m >= 2, "must be >= 2"),
            ("alpha", 0 < self.alpha < 1, "must be in (0, 1)"),
            ("tau", 0 < self.tau < np.inf, "must be > 0 and finite"),
            ("eta", 0 < self.eta < np.inf, "must be > 0 and finite"),
            ("dropout", 0 <= self.dropout < 1, "must be in [0, 1)"),
            ("decay", 0 < self.decay <= 1, "must be in (0, 1]"),
            ("lambda_init", self.lambda_init is None or np.isfinite(self.lambda_init),
             "must be finite"),
        ]
        for name in ("eta_theta", "lr", "pretrain_lr", "l2", "seed",
                     "pretrain_epochs", "probe_pretrain_steps"):
            rules.append((name, 0 <= getattr(self, name) < np.inf, "must be >= 0 and finite"))
        for name in ("layers", "shots", "horizon", "trials", "hidden_size",
                     "decay_every", "ensemble", "dropout_passes", "pretrain_samples"):
            rules.append((name, getattr(self, name) >= 1, "must be >= 1"))
        for name, ok, requirement in rules:
            if not ok:
                value = getattr(self, name)
                raise ConfigurationError(f"{name} {requirement}, got {value!r}")

    @property
    def l_max(self) -> float:
        return 1.0 if self.loss_kind == "coverage" else float(np.pi)

    @property
    def lambda_start(self) -> float:
        return float(np.log(self.m)) if self.lambda_init is None else self.lambda_init

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            lr=self.lr,
            l2=self.l2,
            decay=self.decay,
            decay_every=self.decay_every,
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpisodeRecord:
    """Full trace of one time step."""

    t: int
    x_index: int
    shots: list[int]
    lam_before: float
    scores: list[float]
    set_mask: list[bool]
    set_size: int
    loss: float
    soft_size: float
    avg_loss: float
    skipped_grad: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunState:
    """Mutable state of one trial."""

    cfg: RunConfig
    theta: probe.ProbeParams
    models: list[SequentialPhaseEstimator]
    thr: conformal.ThresholdState
    basis: np.ndarray  # readout unitary, an entry of probe.BASES
    grid: np.ndarray
    rng: np.random.Generator
    fixed_lam: float | None = None  # set for static / static-threshold modes
    g_sum: float = 0.0
    g_count: int = 0
    loss_sum: float = 0.0
    steps: int = 0
    records: list[EpisodeRecord] = field(default_factory=list)

    @property
    def updates_threshold(self) -> bool:
        return self.cfg.mode in ("dynamic", "static-probe-estimator")

    @property
    def updates_params(self) -> bool:
        return self.cfg.mode in ("dynamic", "static-threshold")

    def current_lambda(self) -> float:
        return self.thr.lam if self.updates_threshold else float(self.fixed_lam)

    def posterior(self, shots: np.ndarray) -> np.ndarray:
        if len(self.models) > 1 or self.models[0].dropout > 0:
            return forward_bayesian(
                self.models, shots, passes=self.cfg.dropout_passes, rng=self.rng
            )
        return self.models[0].forward(shots)


def init_state(cfg: RunConfig, seed: int) -> RunState:
    """Fresh trial state: random probe angles, fresh estimator(s), lam_1."""
    rng = np.random.default_rng(seed)
    theta = probe.ProbeParams.random(cfg.layers, rng)
    models = [
        SequentialPhaseEstimator(
            input_dim=2**cfg.n,
            n_levels=cfg.m,
            hidden_size=cfg.hidden_size,
            dropout=cfg.dropout,
            seed=seed + 1 + k,
        )
        for k in range(cfg.ensemble)
    ]
    thr = conformal.ThresholdState(
        lam=cfg.lambda_start,
        eta=cfg.eta,
        alpha=cfg.alpha,
        schedule=cfg.schedule,
        l_max=cfg.l_max,
    )
    state = RunState(
        cfg=cfg,
        theta=theta,
        models=models,
        thr=thr,
        basis=probe.BASES[cfg.basis],
        grid=probe.phase_grid(cfg.m),
        rng=rng,
    )
    if cfg.mode in ("static", "static-threshold"):
        # Fixed threshold drawn once per trial, uniform in [0, 2].
        state.fixed_lam = float(rng.uniform(0.0, 2.0))
    return state


def make_pretrain_dataset(
    state: RunState, n_samples: int
) -> list[tuple[np.ndarray, int]]:
    """(shots, x_index) pairs sampled under the initial probe angles."""
    cfg = state.cfg
    dataset = []
    for _ in range(n_samples):
        x_index = int(state.rng.integers(cfg.m))
        dist = probe.measurement_distribution(
            state.theta, state.grid[x_index], state.basis, cfg.n
        )
        shots = probe.sample_shots(dist, cfg.shots, state.rng)
        dataset.append((shots, x_index))
    return dataset


def pretrain_run(state: RunState) -> list[tuple[np.ndarray, int]]:
    """Initialize estimator weights and probe angles from a small dataset.

    Estimator: repeated cross-entropy sweeps. Probe: a fixed budget of
    score-function steps on the soft set size at the initial threshold,
    cycling through the pretraining phases with freshly resampled shots
    (the recorded shots carry no probe-angle dependence).
    """
    cfg = state.cfg
    dataset = make_pretrain_dataset(state, cfg.pretrain_samples)
    pre_cfg = TrainConfig(lr=cfg.pretrain_lr, l2=cfg.l2)
    for model in state.models:
        model.fit(dataset, pre_cfg, cfg.pretrain_epochs, rng=state.rng)

    lam = cfg.lambda_start
    g_sum, g_count = 0.0, 0
    for step in range(cfg.probe_pretrain_steps):
        _, x_index = dataset[step % len(dataset)]
        x_value = state.grid[x_index]
        dist = probe.measurement_distribution(state.theta, x_value, state.basis, cfg.n)
        shots = probe.sample_shots(dist, cfg.shots, state.rng)
        scores = -np.log(state.posterior(shots))
        g = conformal.soft_set_size(scores, lam, cfg.tau)
        baseline = g_sum / g_count if g_count else g
        state.theta, _ = probe_grad_step(
            state.theta, shots, dist, g, baseline, x_value, state.basis, cfg
        )
        g_sum += g
        g_count += 1
    return dataset


def probe_grad_step(
    theta: probe.ProbeParams,
    shots: np.ndarray,
    dist: np.ndarray,
    g_value: float,
    baseline: float,
    x_value: float,
    basis: np.ndarray,
    cfg: RunConfig,
) -> tuple[probe.ProbeParams, bool]:
    """theta <- theta - eta_theta * (G - b) * sum_l grad log p(s_l | x).

    Shots s with dist[s] <= probe.PROB_FLOOR are skipped; returns the new
    angles and a flag that is True when any shot was skipped.
    """
    if cfg.eta_theta == 0.0:
        return theta, False
    usable = [s for s in shots if dist[s] > probe.PROB_FLOOR]
    if not usable:
        return theta, True
    table = probe.log_prob_grad_table(theta, x_value, basis, cfg.n)
    grad_logp = np.sum(table[usable], axis=0)
    ghat = (g_value - baseline) * grad_logp
    if not np.all(np.isfinite(ghat)):
        return theta, True
    flat = theta.flat() - cfg.eta_theta * ghat
    return probe.ProbeParams.from_flat(flat), len(usable) < len(shots)


def sense_step(state: RunState, x_index: int) -> EpisodeRecord:
    """One full sensing step; mutates the trial state per the run mode."""
    cfg = state.cfg
    x_value = float(state.grid[x_index])
    lam = state.current_lambda()

    dist = probe.measurement_distribution(state.theta, x_value, state.basis, cfg.n)
    shots = probe.sample_shots(dist, cfg.shots, state.rng)
    scores = -np.log(state.posterior(shots))
    mask = conformal.build_set(scores, lam)
    if cfg.loss_kind == "coverage":
        loss = conformal.coverage_loss(x_index, mask)
    else:
        loss = conformal.min_distance_loss(x_value, mask, state.grid)
    g = conformal.soft_set_size(scores, lam, cfg.tau)

    skipped = False
    if state.updates_threshold:
        state.thr = conformal.update_threshold(state.thr, loss)
    if state.updates_params:
        tc = cfg.train_config()
        for model in state.models:
            ok = model.train_step(shots, x_index, tc, t=state.steps, rng=state.rng)
            skipped = skipped or not ok
        baseline = state.g_sum / state.g_count if state.g_count else g
        state.theta, probe_skip = probe_grad_step(
            state.theta, shots, dist, g, baseline, x_value, state.basis, cfg
        )
        skipped = skipped or probe_skip
    state.g_sum += g
    state.g_count += 1

    state.loss_sum += loss
    state.steps += 1
    record = EpisodeRecord(
        t=state.steps,
        x_index=int(x_index),
        shots=[int(s) for s in shots],
        lam_before=float(lam),
        scores=[float(v) for v in scores],
        set_mask=[bool(v) for v in mask],
        set_size=conformal.set_size(mask),
        loss=float(loss),
        soft_size=float(g),
        avg_loss=state.loss_sum / state.steps,
        skipped_grad=skipped,
    )
    state.records.append(record)
    return record


def phase_sequence(cfg: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """True-phase index per step: i.i.d. uniform, or a slow sweep ("drift")."""
    if cfg.phase_process == "iid":
        return rng.integers(cfg.m, size=cfg.horizon)
    t = np.arange(cfg.horizon)
    pos = (cfg.m - 1) * 0.5 * (1 + np.sin(2 * np.pi * t / max(cfg.horizon, 1)))
    return np.round(pos).astype(np.int64)


def run_trial(cfg: RunConfig, seed: int, pretrain: bool = True) -> list[EpisodeRecord]:
    """One full trial: init, pretrain, then `horizon` sensing steps."""
    state = init_state(cfg, seed)
    if pretrain:
        pretrain_run(state)
    xs = phase_sequence(cfg, state.rng)
    for x_index in xs:
        sense_step(state, int(x_index))
    return state.records


def trial_seed(cfg: RunConfig, trial: int) -> int:
    return cfg.seed + trial * TRIAL_SEED_STRIDE


def aggregate(trials: list[list[EpisodeRecord]]) -> dict[str, np.ndarray]:
    """Cross-trial mean curves of coverage, set size and threshold per step."""
    horizon = len(trials[0])
    if any(len(tr) != horizon for tr in trials):
        raise ValueError("trials have unequal lengths")
    loss = np.array([[r.avg_loss for r in tr] for tr in trials])
    size = np.array([[r.set_size for r in tr] for tr in trials])
    # running mean of set size per trial, then averaged across trials
    run_size = np.cumsum(size, axis=1) / np.arange(1, horizon + 1)
    lam = np.array([[r.lam_before for r in tr] for tr in trials])
    return {
        "t": np.arange(1, horizon + 1),
        "mean_coverage": (1.0 - loss).mean(axis=0),
        "mean_set_size": run_size.mean(axis=0),
        "mean_lambda": lam.mean(axis=0),
    }
