"""Paired before/after benchmark of two vqsense versions on one machine.

Usage (from the root of a vqsense checkout):

    python3 scripts/bench_pairs.py --parent REV --topic reuse \
        --pairs 10 --seed-base 700 --seconds 50

Both sides run from fresh directories: the parent is `git archive REV`, the
change is this working tree's `src/` and `perfbench/` (or `git archive` of
--change REV). Each pair runs `perfbench/run.py --trace 0` once per side and
workload with the same seed, seed-base + k for pair k = 1, 2, ...; which side
goes first alternates (the change first in odd pairs), and the workloads are
interleaved within a pair. Then --traced pairs of `--trace 1` runs give the
per-layer figures of each side, including the share of distribution lookups
served without a simulation (1 - probe.simulate.calls / probe.sample.calls:
every sampled step looks its distribution up once). DROPOUT_STEP_PAIRS
pairs then time a `dropout = 0.4` sensing step in-process on each side (the
median step of one pretrained trial), alternating which side goes first. Last,
`vqsense run` on each side with --identity-seeds of every workload and a few
other modes compares the sha256 of trial_0.jsonl and aggregate.csv, and
records each config's mean set size; where the digests differ, it records the
first step whose shots, set, threshold or loss differ, the largest relative
score difference before it, whether that stays within SCORE_RTOL, and each
side's coverage, average loss and mean set size. Everything goes to
BENCH_<topic>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trial-n4", "serve-n4")
# Other modes whose artifacts are compared, each a config for `vqsense run`.
EXTRA_CONFIGS = {
    "static": "trials = 1\nmode = static\n",
    "static-threshold": "trials = 1\nmode = static-threshold\n",
    "dropout-0.2": "trials = 1\ndropout = 0.2\nseed = 3\n",
    "ensemble-3": "trials = 1\nensemble = 3\nseed = 3\n",
    "static-pe-dropout": "trials = 1\nmode = static-probe-estimator\ndropout = 0.2\nseed = 3\n",
    "static-pe-ensemble": "trials = 1\nmode = static-probe-estimator\nensemble = 3\nseed = 3\n",
    "decay-distance": "trials = 1\nschedule = decay\nloss_kind = distance\nseed = 3\n",
    "static-pe-decay": "trials = 1\nmode = static-probe-estimator\nschedule = decay\nseed = 3\n",
    "drift": "trials = 1\nphase_process = drift\nseed = 3\n",
    # no pretraining: only the online path runs
    "unpretrained": "trials = 1\npretrain_samples = 0\nseed = 3\n",
}
# Largest relative score difference a config whose digests differ may show
# while its shots, sets, thresholds and losses all match.
SCORE_RTOL = 1e-12
# One pretrained `dropout = 0.4` trial (10 passes), timed step by step in
# process; prints the median step in ms. DROPOUT_STEP_PAIRS such pairs run.
DROPOUT_STEP_PAIRS = 10
DROPOUT_STEP = """
import statistics, sys, time
from vqsense.engine import RunConfig, init_state, phase_sequence, pretrain_run, sense_step
cfg = RunConfig(dropout=0.4, trials=1)
state = init_state(cfg, int(sys.argv[1]))
pretrain_run(state)
times = []
for x_index in phase_sequence(cfg, state.rng):
    start = time.perf_counter()
    sense_step(state, int(x_index))
    times.append(time.perf_counter() - start)
print(statistics.median(times) * 1e3)
"""
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def checkout(dest: Path, rev: str | None) -> Path:
    """src/ and perfbench/ of rev (or of the working tree) in a fresh dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev, "src", "perfbench"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return dest
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "src", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.split()
    for rel in listed:
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / rel, dest / rel)
    return dest


def bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py call; its env line and its closing JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, env={**os.environ, **BLAS_THREADS})
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench failed in {side}: {proc.stderr[-2000:]}")
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    out = json.loads(lines[-1])
    return {"seed": seed, "exit_code": proc.returncode, "correct": out["correct"],
            "failed": out["failed"], "attempted": out["attempted"], "env": env,
            "metrics": {k: m["value"] for k, m in out["metrics"].items()}}


def dropout_step_ms(side: Path, seed: int) -> float:
    """Median `dropout = 0.4` sensing step of one pretrained trial, in ms."""
    proc = subprocess.run(
        [sys.executable, "-c", DROPOUT_STEP, str(seed)], cwd=side, capture_output=True,
        text=True, check=True,
        env={**os.environ, **BLAS_THREADS, "PYTHONPATH": str(side / "src")})
    return float(proc.stdout.split()[-1])


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(med), 6), "q3": round(float(q3), 6)}


def compare(parent_runs, change_runs, better: dict) -> dict:
    """Per metric: both sides' quartiles, pairwise wins and the median ratio."""
    out = {}
    for name, direction in better.items():
        a = [r["metrics"][name] for r in parent_runs]
        b = [r["metrics"][name] for r in change_runs]
        sign = 1 if direction == "lower" else -1
        pa, pb = quartiles(a), quartiles(b)
        out[name] = {
            "parent": pa, "change": pb,
            "change_wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            "ties": sum(x == y for x, y in zip(a, b)),
            "median_ratio": round(pb["median"] / pa["median"], 4) if pa["median"] else None,
            "median_gap_beats_parent_iqr":
                abs(pb["median"] - pa["median"]) > pa["q3"] - pa["q1"],
        }
    return out


def artifacts(side: Path, config_text: str, work: Path) -> tuple[dict, list[dict]]:
    """sha256 of trial_0.jsonl and aggregate.csv from one `vqsense run`, and
    the records of trial_0.jsonl."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "run.cfg").write_text(config_text)
    subprocess.run(
        [sys.executable, "-m", "vqsense.cli", "run", "--config", str(work / "run.cfg"),
         "--out-dir", str(work / "out")],
        cwd=side, capture_output=True, check=True,
        env={**os.environ, **BLAS_THREADS, "PYTHONPATH": str(side / "src")})
    digests = {f: hashlib.sha256((work / "out" / f).read_bytes()).hexdigest()
               for f in ("trial_0.jsonl", "aggregate.csv")}
    records = [json.loads(line) for line in (work / "out" / "trial_0.jsonl").open()]
    shutil.rmtree(work)
    return digests, records


def outcome(records: list[dict]) -> dict:
    """A trial's coverage, final average loss and mean set size."""
    return {"coverage": float(np.mean([r["set_mask"][r["x_index"]] for r in records])),
            "avg_loss": records[-1]["avg_loss"],
            "mean_set_size": float(np.mean([r["set_size"] for r in records]))}


def divergence(parent: list[dict], change: list[dict]) -> dict:
    """Where two trials of one config part: the first step whose shots, set,
    threshold or loss differ (None if none does), the largest relative score
    difference over the steps before it, whether the trials agree but for
    scores within SCORE_RTOL, and both sides' outcomes."""
    first, worst = None, 0.0
    for a, b in zip(parent, change):
        fields = [k for k in ("shots", "set_mask", "lam_before", "loss") if a[k] != b[k]]
        if fields:
            first = {"t": a["t"], "fields": fields}
            break
        sa, sb = np.array(a["scores"]), np.array(b["scores"])
        scale = np.maximum(np.abs(sa), np.abs(sb))
        rel = np.divide(np.abs(sa - sb), scale, out=np.zeros_like(scale), where=scale > 0)
        worst = max(worst, float(rel.max()))
    return {"first_differing_step": first, "max_rel_score_diff": worst,
            "within_score_rtol": first is None and worst <= SCORE_RTOL,
            "parent": outcome(parent), "change": outcome(change)}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the before side")
    parser.add_argument("--change", help="git revision of the after side (default: working tree)")
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=3, help="traced pairs per workload")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--identity-seeds", default="1-20", help="e.g. 1-20; empty to skip")
    parser.add_argument("--claim", default="serve-n4:step_ms_mean")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_pairs")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["better"] for m in spec["per_layer"]}
    sides = {"parent": checkout(args.work_dir / "parent", args.parent),
             "change": checkout(args.work_dir / "change", args.change)}
    started = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())

    def paired(trace: int, seeds: list[int]) -> dict:
        runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
        for i, seed in enumerate(seeds):
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            for w in WORKLOADS:
                for side in order:
                    r = bench(sides[side], w, seed, args.seconds, trace)
                    runs[w][side].append(r)
                    print(f"trace={trace} {w} seed={seed} {side}: correct={r['correct']}",
                          file=sys.stderr, flush=True)
        return runs

    pair_seeds = [args.seed_base + 1 + i for i in range(args.pairs)]
    timed = paired(0, pair_seeds)
    traced_seeds = [args.seed_base + 101 + i for i in range(args.traced)]
    traced = paired(1, traced_seeds) if args.traced else {}

    report: dict = {"workloads": {}, "traced": {}}
    for w, runs in timed.items():
        report["workloads"][w] = {
            "seeds": pair_seeds,
            "all_correct": all(r["correct"] for s in runs.values() for r in s),
            "metrics": compare(runs["parent"], runs["change"], end_to_end),
            "parent_runs": [{"seed": r["seed"], **r["metrics"]} for r in runs["parent"]],
            "change_runs": [{"seed": r["seed"], **r["metrics"]} for r in runs["change"]],
        }
    for w, runs in traced.items():
        entry = {"seeds": traced_seeds}
        for side, rs in runs.items():
            for r in rs:
                m = r["metrics"]
                m["cache_hit_share"] = 1 - m["probe.simulate.calls"] / m["probe.sample.calls"]
            entry[side] = {name: quartiles([r["metrics"][name] for r in rs])
                           for name in [*per_layer, "cache_hit_share"]}
        entry["all_correct"] = all(r["correct"] for s in runs.values() for r in s)
        report["traced"][w] = entry

    w, name = args.claim.split(":")
    m = report["workloads"][w]["metrics"][name]
    claim = {"workload": w, "metric": name, "pairs": args.pairs, **{
        k: m[k] for k in ("change_wins", "median_ratio", "median_gap_beats_parent_iqr")}}
    claim["met"] = claim["change_wins"] >= 0.9 * args.pairs and m["median_gap_beats_parent_iqr"]

    dropout_ms = {"parent": [], "change": []}
    for i in range(DROPOUT_STEP_PAIRS):
        seed = args.seed_base + 201 + i
        for side in ("change", "parent") if i % 2 == 0 else ("parent", "change"):
            dropout_ms[side].append(dropout_step_ms(sides[side], seed))
        print(f"dropout step seed={seed}: parent {dropout_ms['parent'][-1]:.3f} ms, "
              f"change {dropout_ms['change'][-1]:.3f} ms", file=sys.stderr, flush=True)
    pairs = list(zip(dropout_ms["parent"], dropout_ms["change"]))
    dropout_step = {
        "config": "RunConfig(dropout=0.4, trials=1), pretrained, 200 dynamic steps; "
                  "the value is the median sense_step in ms, timed in process",
        "seeds": [args.seed_base + 201 + i for i in range(DROPOUT_STEP_PAIRS)],
        "parent": quartiles(dropout_ms["parent"]), "change": quartiles(dropout_ms["change"]),
        "change_wins": sum(b < a for a, b in pairs),
        "speedup_per_pair": quartiles([a / b for a, b in pairs]),
        "parent_ms": dropout_ms["parent"], "change_ms": dropout_ms["change"],
    }

    identity = {}
    if args.identity_seeds:
        for seed in seed_range(args.identity_seeds):
            for wl in WORKLOADS:
                text = (ROOT / "perfbench" / "workloads" / f"{wl}.cfg").read_text()
                identity[f"{wl} seed={seed}"] = text + f"\nseed = {seed}\n"
        identity.update(EXTRA_CONFIGS)
    same, diverged, set_sizes = {}, {}, {}
    for label, text in identity.items():
        (da, ra), (db, rb) = [artifacts(sides[s], text, args.work_dir / "identity")
                              for s in ("parent", "change")]
        same[label] = da == db
        set_sizes[label] = {"parent": outcome(ra)["mean_set_size"],
                            "change": outcome(rb)["mean_set_size"]}
        if not same[label]:
            diverged[label] = divergence(ra, rb)
        print(f"identity {label}: {same[label]}, mean set size "
              f"{set_sizes[label]['parent']:.3f} / {set_sizes[label]['change']:.3f}",
              file=sys.stderr, flush=True)

    env = timed[WORKLOADS[0]]["parent"][0]["env"]
    result = {
        "topic": args.topic,
        "parent_commit": args.parent,
        "change": args.change or "working tree",
        "machine": {k: env[k] for k in ("cpu_model", "nproc", "python", "numpy")}
        | {"blas_threads": 1},
        "window_utc": f"{started} to {time.strftime('%H:%M:%S UTC', time.gmtime())}",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace T, in a fresh directory per side",
        "protocol": f"{args.pairs} pairs per workload on seeds {pair_seeds[0]}..{pair_seeds[-1]}; "
                    "the change runs first in odd pairs; workloads interleaved within a "
                    f"pair; {args.traced} traced pairs per workload on seeds from "
                    f"{args.seed_base + 101}; quartiles are numpy's linear percentiles",
        "claim": claim,
        **report,
        "dropout_step": dropout_step,
        "byte_identical": {"configs": len(same), "identical": sum(same.values()),
                           "differ": sorted(diverged), "score_rtol": SCORE_RTOL,
                           "differ_beyond_score_rtol": sorted(
                               k for k, d in diverged.items() if not d["within_score_rtol"]),
                           "mean_set_size": set_sizes, "divergence": diverged},
    }
    out = ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
