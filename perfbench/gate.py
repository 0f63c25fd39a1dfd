"""Per-trial correctness gate, read back from the run directory.

A trial fails on any of:
  - a CLI exit code other than 0;
  - a manifest status other than "complete", or an artifact whose sha256
    does not match the manifest;
  - a record count other than the configured horizon;
  - a non-finite conformity score;
  - a record that contradicts itself: a set mask other than
    {x : score(x) <= lam}, a set size other than the mask's count, a
    coverage loss other than "true phase outside the set", or an average
    loss other than the running mean of the losses;
  - a telescoping gap |lam_T - lam_1 - sum_{t<T} eta_t (loss_t - alpha)|
    above TELESCOPE_TOL;
  - a final average loss above alpha + the long-run bound for the range the
    threshold can reach (range_bound below).

The program's own `conformal.risk_bound(T, eta, schedule, l_max)` assumes
the threshold moves within a range of width l_max + eta. The conformity
scores are -log posteriors, which reach past l_max, so a correct run can
end above that nominal bound. Its slack is still computed and reported
(`risk_slack`, negative when exceeded), but it is not a gate condition.

The same read-back yields the trial's mean set size, skipped-gradient count
and a digest of its checksummed artifacts.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TELESCOPE_TOL = 1e-9
AVG_LOSS_TOL = 1e-12
THRESHOLD_MODES = ("dynamic", "static-probe-estimator")


@dataclass
class GateResult:
    problems: list = field(default_factory=list)
    steps: int = 0
    mean_set_size: float = float("nan")
    skipped_grads: int = 0
    risk_slack: float = float("nan")  # against the nominal conformal.risk_bound
    range_slack: float = float("nan")  # against range_bound, the gate condition
    telescope_gap: float = float("nan")
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _step_size(cfg, t: int) -> float:
    """eta_t of the threshold update after step t (1-indexed)."""
    return cfg.eta if cfg.schedule == "constant" else cfg.eta / math.sqrt(t)


def range_bound(cfg, steps: int, lam_first: float, score_min: float,
                true_score_max: float) -> float:
    """Long-run bound on avg loss - alpha for the threshold range the run allows.

    The threshold rises only on a step whose loss exceeds alpha, so the true
    phase was outside the set and lam < its score; it then rises by at most
    eta (l_max - alpha). It falls only on a step whose loss is below alpha,
    so the set was not empty and lam >= the smallest score; it then falls by
    at most eta alpha. Hence lam stays in [lo, hi] below, and telescoping
    gives avg loss - alpha <= (hi - lo) / (eta_T T), with eta_T = eta for the
    constant schedule and eta / sqrt(T) for the decaying one.
    """
    hi = max(lam_first, true_score_max + cfg.eta * (cfg.l_max - cfg.alpha))
    lo = min(lam_first, score_min - cfg.eta * cfg.alpha)
    eta_last = cfg.eta if cfg.schedule == "constant" else cfg.eta / math.sqrt(steps)
    return (hi - lo) / (eta_last * steps)


def record_problems(cfg, rec: dict, loss_sum: float) -> list:
    """Ways one JSONL record contradicts itself; loss_sum includes rec."""
    out = []
    if rec["set_mask"] != [s <= rec["lam_before"] for s in rec["scores"]]:
        out.append("set mask is not {score <= lam}")
    if rec["set_size"] != sum(rec["set_mask"]):
        out.append("set size is not the mask's count")
    if cfg.loss_kind == "coverage" and rec["loss"] != float(not rec["set_mask"][rec["x_index"]]):
        out.append("coverage loss disagrees with the set")
    if abs(rec["avg_loss"] - loss_sum / rec["t"]) > AVG_LOSS_TOL:
        out.append("average loss is not the running mean")
    return [f"step {rec['t']}: {p}" for p in out]


def check_trial(vqsense, exit_code, out_dir: Path) -> GateResult:
    res = GateResult()
    if exit_code != 0:
        res.problems.append(f"exit code {exit_code}")
        return res
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        res.problems.append("no manifest.json")
        return res
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("status") != "complete":
        res.problems.append(f"manifest status {manifest.get('status')!r}")
        return res
    artifacts = manifest["artifacts"]
    for name, digest in sorted(artifacts.items()):
        if _sha256(out_dir / name) != digest:
            res.problems.append(f"checksum mismatch for {name}")
    res.digest = hashlib.sha256(
        json.dumps(artifacts, sort_keys=True).encode()
    ).hexdigest()

    cfg = vqsense.engine.RunConfig(**manifest["config"])
    if cfg.mode not in THRESHOLD_MODES:
        res.problems.append(f"mode {cfg.mode!r} does not update the threshold")
        return res
    lam_first = lam_last = avg_loss = None
    drift = 0.0  # sum of eta_t (loss_t - alpha) over the steps before the last
    prev_term = 0.0
    size_sum = nonfinite = 0
    loss_sum = 0.0
    score_min, true_score_max = math.inf, -math.inf
    record_errors = []
    with (out_dir / "trial_0.jsonl").open() as fh:
        for line in fh:
            rec = json.loads(line)
            nonfinite += not all(math.isfinite(v) for v in rec["scores"])
            if lam_first is None:
                lam_first = rec["lam_before"]
            drift += prev_term
            prev_term = _step_size(cfg, rec["t"]) * (rec["loss"] - cfg.alpha)
            lam_last = rec["lam_before"]
            avg_loss = rec["avg_loss"]
            loss_sum += rec["loss"]
            record_errors += record_problems(cfg, rec, loss_sum)
            score_min = min(score_min, min(rec["scores"]))
            true_score_max = max(true_score_max, rec["scores"][rec["x_index"]])
            size_sum += rec["set_size"]
            res.skipped_grads += bool(rec["skipped_grad"])
            res.steps += 1
    if record_errors:
        res.problems.append(f"{len(record_errors)} inconsistent records, first: {record_errors[0]}")
    if nonfinite:
        res.problems.append(f"non-finite scores in {nonfinite} steps")
    if res.steps != cfg.horizon:
        res.problems.append(f"{res.steps} records, expected {cfg.horizon}")
        return res
    res.mean_set_size = size_sum / res.steps
    res.telescope_gap = abs(lam_last - lam_first - drift)
    if not res.telescope_gap <= TELESCOPE_TOL:
        res.problems.append(f"telescoping gap {res.telescope_gap:.3e}")
    nominal = vqsense.conformal.risk_bound(res.steps, cfg.eta, cfg.schedule, cfg.l_max)
    res.risk_slack = cfg.alpha + nominal - avg_loss
    bound = range_bound(cfg, res.steps, lam_first, score_min, true_score_max)
    res.range_slack = cfg.alpha + bound - avg_loss
    if not res.range_slack >= 0:
        res.problems.append(
            f"average loss {avg_loss:.6f} above alpha + bound {cfg.alpha + bound:.6f}"
        )
    return res
