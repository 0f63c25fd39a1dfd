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

import numbers
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from . import conformal, probe
from .estimator import EPS, SCORE_MAX, SequentialPhaseEstimator
from .probe import MAX_QUBITS, ConfigurationError

MODES = ("dynamic", "static", "static-threshold", "static-probe-estimator")
LOSS_KINDS = ("coverage", "distance")
PHASE_PROCESSES = ("iid", "drift")
TRIAL_SEED_STRIDE = 9973
# Shot sequences per forward call when a frozen trial scores ahead. 16 is for
# peak-memory headroom, not speed: in paired serve-n4 runs blocks of 32 took
# 0.9 MB more peak RSS, and their trial time was not measurably different.
BLOCK = 16
# Float slack of the end-of-run bound check: the bound is exact in real
# arithmetic, and T rounded threshold updates move it by far less than this.
RISK_TOL = 1e-9
# RunConfig field annotation -> (text parser, accepted types, description); a str
# field keeps its text, and bools never pass
FIELD_KINDS = {
    "int": (int, (int, np.integer), "an integer"),
    "float": (float, numbers.Real, "a real number"),
}


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
    pretrain_samples: int = 20  # 0: no pretraining
    pretrain_epochs: int = 100
    pretrain_lr: float = 0.005
    probe_pretrain_steps: int = 100
    phase_process: str = "iid"  # or "drift": slow rotation across the grid

    def __post_init__(self):
        """Reject every invalid field up front, before any artifact is written."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in FIELD_KINDS:
                _, allowed, what = FIELD_KINDS[f.type]
                if isinstance(value, bool) or not isinstance(value, allowed):
                    raise ConfigurationError(f"{f.name} must be {what}, got {value!r}")
        rules = [
            ("mode", self.mode in MODES, f"must be one of {MODES}"),
            ("loss_kind", self.loss_kind in LOSS_KINDS, f"must be one of {LOSS_KINDS}"),
            ("schedule", self.schedule in conformal.SCHEDULES,
             f"must be one of {conformal.SCHEDULES}"),
            ("phase_process", self.phase_process in PHASE_PROCESSES,
             f"must be one of {PHASE_PROCESSES}"),
            ("n", 2 <= self.n <= MAX_QUBITS, f"must be in [2, {MAX_QUBITS}]"),
            ("m", self.m >= 2, "must be >= 2"),
            ("alpha", 0 < self.alpha < 1, "must be in (0, 1)"),
            ("tau", 0 < self.tau < np.inf, "must be > 0 and finite"),
            ("eta", 0 < self.eta < np.inf, "must be > 0 and finite"),
            ("dropout", 0 <= self.dropout < 1, "must be in [0, 1)"),
            ("decay", 0 < self.decay <= 1, "must be in (0, 1]"),
        ]
        for name in ("eta_theta", "lr", "pretrain_lr", "l2", "seed", "pretrain_samples",
                     "pretrain_epochs", "probe_pretrain_steps"):
            rules.append((name, 0 <= getattr(self, name) < np.inf, "must be >= 0 and finite"))
        for name in ("layers", "shots", "horizon", "trials", "hidden_size",
                     "decay_every", "ensemble", "dropout_passes"):
            rules.append((name, getattr(self, name) >= 1, "must be >= 1"))
        for name, ok, requirement in rules:
            if not ok:
                value = getattr(self, name)
                raise ConfigurationError(f"{name} {requirement}, got {value!r}")

    @property
    def l_max(self) -> float:
        return 1.0 if self.loss_kind == "coverage" else conformal.EMPTY_SET_DISTANCE

    @property
    def lambda_start(self) -> float:
        return float(np.log(self.m))  # the score of the uniform posterior

    @property
    def updates_threshold(self) -> bool:
        return self.mode in ("dynamic", "static-probe-estimator")

    @property
    def updates_params(self) -> bool:
        return self.mode in ("dynamic", "static-threshold")


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


@dataclass
class RunState:
    """Mutable state of one trial."""

    cfg: RunConfig
    theta: np.ndarray  # the probe angles, (layers, 4)
    models: list[SequentialPhaseEstimator]
    lam: float  # the threshold; set by init_state, updated by sense_step
    grid: np.ndarray
    rng: np.random.Generator
    # sum and count of the soft set sizes G: probe_grad_step's baseline
    g_sum: float = 0.0
    g_count: int = 0
    loss_sum: float = 0.0
    steps: int = 0  # also the number of threshold updates, in the modes that make them
    records: list[EpisodeRecord] = field(default_factory=list)

    def distribution(self, x_index: int) -> np.ndarray:
        return probe.distribution(self.theta, self.grid[x_index], self.cfg.n)

    def draw(self, x_index: int) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """One step's inputs from self.rng: shots from p(s | x) at x_index,
        then each member's dropout masks in turn, (P, 2, H) or None. This is
        the one place that fixes the order of a step's draws."""
        shots = probe.sample_shots(self.distribution(x_index), self.cfg.shots, self.rng)
        passes = (self.cfg.dropout_passes,)
        return shots, [model.dropout_masks(self.rng, passes) for model in self.models]

    def posterior(
        self, shots: np.ndarray, masks: list[np.ndarray | None]
    ) -> tuple[np.ndarray, list[tuple | None]]:
        """(posterior, runs) of one shot sequence (L,), or of each row of a
        block (B, L): the mean over members and their dropout passes, floored
        at EPS and renormalized (a lone pass is returned as is), and each
        member's forward pass for its train_step, None under dropout or for a
        block. masks[k] is None or holds member k's dropout masks,
        shots.shape[:-1] + (P, 2, H), as draw gives them."""
        posts, runs = [], []
        for model, member_masks in zip(self.models, masks):
            post, run = model.forward(shots, member_masks)
            posts.append(post)
            runs.append(run)
        # members, then their passes, along the axis before the phases
        stacked = np.stack(posts, axis=shots.ndim - 1)
        stacked = stacked.reshape(*shots.shape[:-1], -1, self.cfg.m)
        if stacked.shape[-2] == 1:
            return stacked[..., 0, :], runs
        mean = np.maximum(stacked.mean(axis=-2), EPS)
        return mean / mean.sum(-1, keepdims=True), runs


def init_state(cfg: RunConfig, seed: int) -> RunState:
    """Fresh trial state: random probe angles, fresh estimator(s), lam_1 in
    every mode. The angles are the only draw from the trial rng; the
    estimators seed their own generators."""
    rng = np.random.default_rng(seed)
    probe._states_for.cache_clear()  # no trial reuses the simulations of the one before
    theta = probe.random_angles(cfg.layers, rng)
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
    return RunState(
        cfg=cfg,
        theta=theta,
        models=models,
        lam=cfg.lambda_start,
        grid=probe.phase_grid(cfg.m),
        rng=rng,
    )


def pretrain_run(state: RunState) -> None:
    """Initialize estimator weights and probe angles from a small dataset:
    each sample draws a phase index, then its shots under the initial probe
    angles, into labels (N,) and shots (N, L).

    Estimator: repeated cross-entropy sweeps. Probe: a fixed budget of
    score-function steps on the soft set size at the initial threshold,
    cycling through the pretraining phases with freshly resampled shots
    (the recorded shots carry no probe-angle dependence). The baseline
    accumulators are reset afterwards, so the sensing loop's starts fresh.

    A mode that keeps its threshold fixed then calibrates it (split
    conformal): N = pretrain_samples fresh phase indices, scored by
    frozen_posteriors under the pretrained probe and estimators, and lam set
    to the ceil((N + 1)(1 - alpha))-th smallest true-phase score, or to
    SCORE_MAX when that rank is above N. With pretrain_samples = 0 it returns
    at once, drawing nothing, and lam stays lam_1.
    """
    cfg = state.cfg
    if not cfg.pretrain_samples:
        return
    labels = np.empty(cfg.pretrain_samples, dtype=np.int64)
    shots = np.empty((cfg.pretrain_samples, cfg.shots), dtype=np.int64)
    for i in range(cfg.pretrain_samples):
        labels[i] = state.rng.integers(cfg.m)
        shots[i] = probe.sample_shots(state.distribution(int(labels[i])), cfg.shots, state.rng)
    for model in state.models:
        model.fit(shots, labels, cfg.pretrain_lr, cfg.l2, cfg.pretrain_epochs, rng=state.rng)

    for step in range(cfg.probe_pretrain_steps):
        x_index = int(labels[step % len(labels)])
        fresh, masks = state.draw(x_index)
        scores = -np.log(state.posterior(fresh, masks)[0])
        g = conformal.soft_set_size(scores, cfg.lambda_start, cfg.tau)
        probe_grad_step(state, x_index, fresh, g)
    state.g_sum, state.g_count = 0.0, 0

    if not cfg.updates_threshold:
        xs = state.rng.integers(cfg.m, size=cfg.pretrain_samples)
        posts = frozen_posteriors(state, xs)[1]
        scores = np.sort(-np.log(posts[np.arange(len(xs)), xs]))
        # rounded first, so that float error (10 * (1 - 0.7) = 3.0000000000000004)
        # cannot raise the rank by one
        rank = int(np.ceil(round((len(xs) + 1) * (1 - cfg.alpha), 9)))
        state.lam = float(scores[rank - 1]) if rank <= len(xs) else SCORE_MAX


def probe_grad_step(state: RunState, x_index: int, shots: np.ndarray, g_value: float) -> bool:
    """theta <- theta - eta_theta * (G - b) * sum_l grad log p(s_l | x).

    The baseline b is the mean of the earlier G in state.g_sum / g_count (G
    itself on the first call), and G is then added to them. Shots s with
    p(s | x) <= probe.PROB_FLOOR under the current angles are skipped; writes
    state.theta and returns True when any shot was skipped. A step whose
    angles would not all be finite is not taken, and returns True.
    """
    cfg = state.cfg
    baseline = state.g_sum / state.g_count if state.g_count else g_value
    state.g_sum += g_value
    state.g_count += 1
    if cfg.eta_theta == 0.0:
        return False
    dist = state.distribution(x_index)
    usable = [s for s in shots if dist[s] > probe.PROB_FLOOR]
    if not usable:
        return True
    grad_logp = probe.log_prob_grad(
        state.theta, state.grid[x_index], cfg.n, np.bincount(usable, minlength=2**cfg.n)
    )
    theta = state.theta - cfg.eta_theta * ((g_value - baseline) * grad_logp)
    if not np.all(np.isfinite(theta)):
        return True
    state.theta = theta
    return len(usable) < len(shots)


def sense_step(
    state: RunState, x_index: int, scored: tuple[np.ndarray, np.ndarray] | None = None
) -> EpisodeRecord:
    """One full sensing step; mutates the trial state per the run mode.

    scored, if given, is this step's (shots, posterior), drawn and scored
    ahead under the current probe and weights; otherwise the step draws its
    inputs (state.draw) and scores them itself."""
    cfg = state.cfg
    x_value = float(state.grid[x_index])
    lam = state.lam

    if scored is None:
        shots, masks = state.draw(x_index)
        post, runs = state.posterior(shots, masks)
    else:
        (shots, post), runs = scored, [None] * len(state.models)
    scores = -np.log(post)
    mask = conformal.build_set(scores, lam)
    if cfg.loss_kind == "coverage":
        loss = conformal.coverage_loss(x_index, mask)
    else:
        loss = conformal.min_distance_loss(x_value, mask, state.grid)
    g = conformal.soft_set_size(scores, lam, cfg.tau)

    skipped = False
    if cfg.updates_threshold:
        state.lam = conformal.update_threshold(
            lam, loss, state.steps, cfg.eta, cfg.alpha, cfg.schedule, cfg.l_max
        )
    if cfg.updates_params:
        lr = cfg.lr * cfg.decay ** (state.steps // cfg.decay_every)
        for model, run in zip(state.models, runs):
            ok = model.train_step(shots, x_index, lr, cfg.l2, rng=state.rng, run=run)
            skipped = skipped or not ok
        skipped = probe_grad_step(state, x_index, shots, g) or skipped

    state.loss_sum += loss
    state.steps += 1
    record = EpisodeRecord(
        t=state.steps,
        x_index=int(x_index),
        shots=shots.tolist(),
        lam_before=float(lam),
        scores=scores.tolist(),
        set_mask=mask.tolist(),
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
    pos = (cfg.m - 1) * 0.5 * (1 + np.sin(2 * np.pi * t / cfg.horizon))
    return np.round(pos).astype(np.int64)


def frozen_posteriors(state: RunState, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every step's shots (T, L) and posterior (T, M) for a trial that
    updates neither the probe nor the estimators: each step's inputs come
    from state.draw in step order, and are scored BLOCK steps at a time."""
    shots = np.empty((len(xs), state.cfg.shots), dtype=np.int64)
    posts = np.empty((len(xs), state.cfg.m))
    for start in range(0, len(xs), BLOCK):
        block = slice(start, min(start + BLOCK, len(xs)))
        shots[block], step_masks = zip(*(state.draw(int(x)) for x in xs[block]))
        masks = [None if m[0] is None else np.stack(m) for m in zip(*step_masks)]
        posts[block] = state.posterior(shots[block], masks)[0]
    return shots, posts


def run_trial(cfg: RunConfig, seed: int) -> list[EpisodeRecord]:
    """One full trial: init, pretrain_run, then `horizon` sensing steps. When the
    probe and estimators stay fixed, every step's posterior is scored in
    blocks before the first step (frozen_posteriors), with the same draws.

    A mode that updates the threshold then checks the long-run bound at the
    ceiling the trial observed, max(lam_1, largest true-phase score), and
    raises RuntimeError if the average loss exceeds alpha + that bound."""
    state = init_state(cfg, seed)
    pretrain_run(state)
    xs = phase_sequence(cfg, state.rng)
    ahead = repeat(None) if cfg.updates_params else zip(*frozen_posteriors(state, xs))
    for x_index, scored in zip(xs, ahead):
        sense_step(state, int(x_index), scored)
    if cfg.updates_threshold:
        ceiling = max([cfg.lambda_start] + [r.scores[r.x_index] for r in state.records])
        limit = cfg.alpha + conformal.risk_bound(
            cfg.horizon, cfg.eta, cfg.schedule, cfg.l_max, ceiling
        )
        avg_loss = state.records[-1].avg_loss
        if not avg_loss <= limit + RISK_TOL:
            raise RuntimeError(
                f"average loss {avg_loss:.6f} above alpha + risk bound {limit:.6f}"
            )
    return state.records


def trial_seed(cfg: RunConfig, trial: int) -> int:
    return cfg.seed + trial * TRIAL_SEED_STRIDE


def aggregate(trials: list[list[EpisodeRecord]]) -> dict[str, np.ndarray]:
    """Cross-trial mean curves of coverage, set size and threshold per step."""
    horizon = len(trials[0])
    if any(len(tr) != horizon for tr in trials):
        raise ValueError("trials have unequal lengths")
    # coverage from the sets themselves, whatever loss the run controlled
    missed = np.array([[not r.set_mask[r.x_index] for r in tr] for tr in trials])
    size = np.array([[r.set_size for r in tr] for tr in trials])
    # running means per trial, then averaged across trials
    steps = np.arange(1, horizon + 1)
    run_size = np.cumsum(size, axis=1) / steps
    lam = np.array([[r.lam_before for r in tr] for tr in trials])
    return {
        "t": steps,
        "mean_coverage": (1.0 - np.cumsum(missed, axis=1) / steps).mean(axis=0),
        "mean_set_size": run_size.mean(axis=0),
        "mean_lambda": lam.mean(axis=0),
    }
