"""vqsense benchmark: whole trials through the real CLI, one at a time.

Usage (from the root of a vqsense checkout):

    python3 perfbench/run.py --workload trial-n4 --seed 1 --seconds 50 --trace 0

Each workload is a flat `key = value` config in perfbench/workloads/. The
seed is written into a copy of that config, which is fed to the real entry
point in-process: `vqsense.cli.main(["run", "--config", ..., "--out-dir",
...])`. The load is one closed loop: one process runs one trial at a time,
and each sensing step starts only after the previous one finished. Trials
repeat with the same seed while the next one would be at least half done
within --seconds (at least one trial). Every trial passes the correctness
gate in gate.py, and every trial of one seed and one program version must
write byte-identical checksummed artifacts.

--trace 0 reports the end-to-end metrics, with no instrumentation but the
timers of `engine.pretrain_run` and `engine.sense_step`. --trace 1 runs one
such trial and then one traced trial, and reports the per-layer metrics.
The last line of standard output is the JSON result; the spans, the
per-trial figures and the environment go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import gate
import spans as spanlib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_DIR = BENCH_DIR / "workloads"
SETUP_PER_TRIAL = 4  # set-up samples taken before each untraced trial
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.cfg"))


def import_program():
    """Import vqsense from this checkout's src/, and from nowhere else."""
    pkg = SRC / "vqsense"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a vqsense checkout")
    # Pinned before numpy is first imported; child processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import vqsense
    import vqsense.cli  # noqa: F401 - not imported by the package itself

    if Path(vqsense.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported vqsense from {vqsense.__file__}, not {pkg}")
    return vqsense


def program_id(numpy_version: str, config_text: str) -> str:
    """Identity of what a trial runs: the sources, numpy and the config."""
    h = hashlib.sha256(numpy_version.encode())
    for path in sorted((SRC / "vqsense").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    h.update(config_text.encode())
    return h.hexdigest()[:16]


def environment(vqsense, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vqsense": vqsense.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


@dataclass
class Trial:
    index: int
    traced: bool
    exit_code: int | None
    trial_s: float
    pretrain_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    check: gate.GateResult | None = None
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.check is not None and self.check.ok


def run_trial(vqsense, index: int, cfg_path: Path, out_dir: Path, tracer=None) -> Trial:
    """One `vqsense run` call; traced when a tracer is given."""
    shutil.rmtree(out_dir, ignore_errors=True)
    pretrain_s: list = []
    step_s: list = []
    if tracer is None:
        replacements = spanlib.stage_timers(vqsense.engine, pretrain_s, step_s)
    else:
        tracer.trial = index
        replacements = tracer.replacements(vqsense)
    argv = ["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]
    code = None
    with spanlib.patched(replacements), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = vqsense.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed trial
            print(f"trial {index} raised {exc!r}", file=sys.stderr)
        trial_s = time.perf_counter() - start
    trial = Trial(index, tracer is not None, code, trial_s, pretrain_s, step_s)
    trial.check = gate.check_trial(vqsense, code, out_dir)
    if out_dir.is_dir():
        trial.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
    return trial


def measure_setup(cfg_path: Path, work_dir: Path) -> list[float]:
    """Fresh-process time from spawn to the first engine.pretrain_run call."""
    times = []
    for k in range(SETUP_PER_TRIAL):
        out_dir = work_dir / f"setup{k}"
        argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), str(SRC),
                str(cfg_path), str(out_dir)]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child exited {proc.returncode}: {proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(out_dir, ignore_errors=True)
    return times


def check_determinism(trials: list[Trial], key: str) -> str:
    """Fail trials whose artifact digest differs from the first recorded
    digest for the same workload, seed and program version."""
    store_path = OUT_ROOT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    reference = store.get(key)
    for t in trials:
        if not t.check.digest:
            continue
        if reference is None:
            reference = t.check.digest
        elif t.check.digest != reference:
            t.check.problems.append(f"artifact digest {t.check.digest[:12]} != {reference[:12]}")
    if reference is not None and key not in store:
        store[key] = reference
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store_path)
    return reference or ""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(trials: list[Trial], setup: list[float]) -> dict:
    steps_ms = [s * 1e3 for t in trials for s in t.step_s]
    pretrain = [s for t in trials for s in t.pretrain_s]
    ok = [t for t in trials if t.ok]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "trial_s": metric(statistics.median(t.trial_s for t in trials), "s"),
        "pretrain_s": metric(statistics.median(pretrain) if pretrain else math.nan, "s"),
        "step_ms_mean": metric(statistics.fmean(steps_ms) if steps_ms else math.nan, "ms"),
        "step_ms_p95": metric(percentile(steps_ms, 0.95) if steps_ms else math.nan, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mean_set_size": metric(
            statistics.fmean(t.check.mean_set_size for t in ok) if ok else math.nan, "count"
        ),
        "ok_frac": metric(len(ok) / len(trials), "ratio"),
    }


def per_layer_metrics(tracer, traced: Trial, untraced: Trial, trials: list[Trial],
                      n: int, layers: int) -> dict:
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = spanlib.self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_sum(name):
        return sum(selfs[s.id] for s in by_name[name])

    grad_ids = {s.id for s in by_name["probe.grad"]}
    sims = len(by_name["probe.simulate"])
    nested_sims = sum(1 for s in by_name["probe.simulate"] if s.parent in grad_ids)
    grad_calls = len(grad_ids)
    conformal_spans = [s for s in spans if s.name.startswith("conformal.")]
    cli_outer = [s for s in spans if s.name.startswith("cli.")
                 and (s.parent < 0 or not spans[s.parent].name.startswith("cli."))]
    covered = spanlib.union_length((s.start, s.end) for s in spans if s.parent < 0)
    train_calls = len(by_name["estimator.train_step"])
    train_ok = tracer.true_counts.get("estimator.train_step", 0)
    # Amplitude updates per simulation, from the array sizes: per layer n
    # single-qubit gates and one diagonal ZZ ring, then the phase channel and
    # n basis-change gates, each touching all 2^n amplitudes.
    amps_per_sim = 2**n * (layers * (n + 1) + 1 + n)
    steps = traced.check.steps
    return {
        "probe.simulate.calls": metric(sims, "count"),
        "probe.simulate.s": metric(total("probe.simulate"), "s"),
        "probe.grad.calls": metric(grad_calls, "count"),
        "probe.grad.self_s": metric(self_sum("probe.grad"), "s"),
        "probe.grad.total_s": metric(total("probe.grad"), "s"),
        "probe.grad.sims_per_call": metric(nested_sims / grad_calls if grad_calls else 0, "count"),
        "probe.sample.calls": metric(len(by_name["probe.sample"]), "count"),
        "probe.sample.s": metric(total("probe.sample"), "s"),
        "probe.amp_updates": metric(sims * amps_per_sim, "count"),
        "estimator.forward.calls": metric(len(by_name["estimator.forward"]), "count"),
        "estimator.forward.s": metric(total("estimator.forward"), "s"),
        "estimator.bptt.calls": metric(len(by_name["estimator.bptt"]), "count"),
        "estimator.bptt.s": metric(total("estimator.bptt"), "s"),
        "estimator.update.self_s": metric(self_sum("estimator.train_step"), "s"),
        "estimator.train_step.ok_ratio": metric(
            train_ok / train_calls if train_calls else 1.0, "ratio"),
        "estimator.fit.s": metric(total("estimator.fit"), "s"),
        "conformal.calls": metric(len(conformal_spans), "count"),
        "conformal.s": metric(sum(s.duration for s in conformal_spans), "s"),
        "conformal.risk_slack": metric(traced.check.risk_slack, "loss"),
        "engine.steps": metric(len(by_name["engine.step"]), "count"),
        "engine.step.self_s": metric(self_sum("engine.step"), "s"),
        "engine.pretrain.self_s": metric(self_sum("engine.pretrain"), "s"),
        "engine.skipped_grad_ratio": metric(
            traced.check.skipped_grads / steps if steps else 0, "ratio"),
        "cli.write.s": metric(sum(s.duration for s in cli_outer), "s"),
        "cli.write.bytes": metric(traced.bytes_written, "bytes"),
        "trace.overhead": metric(traced.trial_s / untraced.trial_s - 1, "ratio"),
        "trace.uncovered_share": metric(1 - covered / traced.trial_s, "ratio"),
        "gate.failed_frac": metric(sum(not t.ok for t in trials) / len(trials), "ratio"),
    }


def measure(vqsense, workload: str, config_text: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """Run one benchmark measurement; returns the full result record."""
    work_dir = OUT_ROOT / workload / f"seed{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cfg_path = work_dir / "config.cfg"
    cfg_path.write_text(config_text + f"\nseed = {seed}\n")
    env = environment(vqsense, seed)

    # Set-up samples are spread over the run, a few before each trial, so
    # that their median spans the machine's slow and fast spells as the
    # trial times do.
    setup: list[float] = []
    out_dir = work_dir / "run"  # each trial replaces the previous one's artifacts
    trials: list[Trial] = []
    start = time.perf_counter()
    while True:
        if not traced:
            setup += measure_setup(cfg_path, work_dir)
        trials.append(run_trial(vqsense, len(trials), cfg_path, out_dir))
        elapsed = time.perf_counter() - start
        typical = statistics.median(t.trial_s for t in trials)
        # Start another trial only if it would be at least half done by the
        # end of the measuring time.
        if traced or elapsed + typical / 2 > seconds:
            break
    tracer = None
    if traced:
        tracer = spanlib.Tracer()
        trials.append(run_trial(vqsense, len(trials), cfg_path, out_dir, tracer))
    digest = check_determinism(
        trials, f"{workload} seed={seed} id={program_id(env['numpy'], config_text)}")

    if traced:
        values = vqsense.cli.parse_config_file(cfg_path)
        defaults = vqsense.engine.RunConfig
        n, layers = values.get("n", defaults.n), values.get("layers", defaults.layers)
        metrics = per_layer_metrics(tracer, trials[-1], trials[0], trials, n, layers)
        with (work_dir / "spans.jsonl").open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
    else:
        metrics = end_to_end_metrics(trials, setup)
    return {
        "workload": workload,
        "env": env,
        "artifact_digest": digest,
        "setup_s": setup,
        "trials": [
            {"index": t.index, "traced": t.traced, "exit_code": t.exit_code,
             "trial_s": t.trial_s, "pretrain_s": t.pretrain_s,
             "steps": len(t.step_s),
             "step_ms_mean": statistics.fmean(t.step_s) * 1e3 if t.step_s else None,
             "problems": t.check.problems,
             "mean_set_size": t.check.mean_set_size,
             "risk_slack": t.check.risk_slack,
             "range_slack": t.check.range_slack,
             "telescope_gap": t.check.telescope_gap}
            for t in trials
        ],
        "step_samples": sum(len(t.step_s) for t in trials),
        "attempted": len(trials),
        "failed": sum(not t.ok for t in trials),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    vqsense = import_program()
    if args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; have {workload_names()}")
    config_text = (WORKLOAD_DIR / f"{args.workload}.cfg").read_text()

    result = measure(vqsense, args.workload, config_text, args.seed, args.seconds,
                     bool(args.trace))
    work_dir = OUT_ROOT / args.workload / f"seed{args.seed}"
    (work_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(result["env"], sort_keys=True))
    for t in result["trials"]:
        status = "ok" if not t["problems"] else "FAILED: " + "; ".join(t["problems"])
        if t["risk_slack"] < 0:  # reported, not gated: see gate.py
            status += f" (above the nominal conformal.risk_bound by {-t['risk_slack']:.6f})"
        print(f"trial {t['index']}{' (traced)' if t['traced'] else ''}: "
              f"{t['trial_s']:.3f} s, {t['steps']} timed steps, {status}")
    print(f"artifact digest {result['artifact_digest']} "
          f"({result['step_samples']} step-latency samples)")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
