"""Command-line front end: run, bench, gradcheck, bayesian, pretrain.

Configs are flat key = value text files mirroring RunConfig field names
("T" is accepted as an alias for horizon, "L" for shots); command-line flags
override file values, which override defaults. Every field a subcommand does
not fix has a --field-name flag whose dest is the field, and file and flag
values go through the same per-field parser. Every run writes a manifest.json
first, then per-trial JSONL records and an aggregate CSV, and finally rewrites
the manifest with artifact checksums. Each file goes through a temp file and
os.replace, so none is left half-written. Wall-clock timestamps go to a run.log
sidecar so that every checksummed artifact is byte-reproducible from the config
and seed alone.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from collections.abc import Callable, Collection
from pathlib import Path

import numpy as np

from . import __version__, checks
from .engine import (
    FIELD_KINDS,
    MODES,
    TRIAL_SEED_STRIDE,
    EpisodeRecord,
    RunConfig,
    aggregate,
    init_state,
    pretrain_run,
    run_trial,
    trial_seed,
)
from .probe import ANGLES_PER_LAYER, ConfigurationError

ENV_OUT_ROOT = "VQSENSE_OUT"
_CONFIG_ALIASES = {"t": "horizon", "l": "shots"}
_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
# the fields each `bayesian` variant sets, overriding the file and the defaults
BAYESIAN_VARIANTS = {"ensemble": {"ensemble": 5, "dropout": 0.0},
                     "dropout": {"ensemble": 1, "dropout": 0.4}}


def parse_value(name: str, text: str):
    """Convert the text of a config-file value or flag to its RunConfig field type."""
    kind = FIELD_KINDS.get(_FIELDS[name].type)
    try:
        return text if kind is None else kind[0](text)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {name!r}: {exc}") from None


def parse_config_file(path: str | Path) -> dict:
    """Flat key = value config; '#' starts a comment. Errors carry line numbers."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_").lower()
        key = _CONFIG_ALIASES.get(key, key)
        if key not in _FIELDS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:  # an alias counts as its field
            raise ConfigurationError(f"{path}:{lineno}: {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = parse_value(key, text.strip())
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then every flag given (dest = field name)."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for name in _FIELDS:
        text = getattr(args, name, None)
        if text is not None:
            values[name] = parse_value(name, text)
    return RunConfig(**values)


def resolve_out_dir(args: argparse.Namespace, command: str) -> Path:
    if getattr(args, "out_dir", None):
        return Path(args.out_dir)
    root = os.environ.get(ENV_OUT_ROOT, "runs")
    return Path(root) / command


# -- artifact writers ----------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def _atomic_open(path: Path, newline: str | None = None):
    """Write through a temp file beside `path`, moved onto it only on success."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_manifest(out_dir: Path, payload: dict) -> Path:
    path = out_dir / "manifest.json"
    with _atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_records(out_dir: Path, name: str, records: list[EpisodeRecord]) -> Path:
    path = out_dir / name
    with _atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(vars(rec), sort_keys=True) + "\n")
    return path


def write_aggregate_csv(out_dir: Path, name: str, curves_by_mode: dict) -> Path:
    """curves_by_mode: mode -> dict of arrays from engine.aggregate()."""
    path = out_dir / name
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mode", "mean_coverage", "mean_set_size", "mean_lambda"])
        for mode, curves in curves_by_mode.items():
            for i, t in enumerate(curves["t"]):
                writer.writerow([
                    int(t), mode,
                    repr(float(curves["mean_coverage"][i])),
                    repr(float(curves["mean_set_size"][i])),
                    repr(float(curves["mean_lambda"][i])),
                ])
    return path


def write_checkpoint(path: Path, header: str, values: np.ndarray) -> Path:
    """One-line shape header, then whitespace-separated decimals."""
    lines = [header]
    lines.extend(repr(float(v)) for v in np.asarray(values, dtype=float).reshape(-1))
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _manifest_base(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed_rule": f"trial i uses seed + i*{TRIAL_SEED_STRIDE} (base seed {cfg.seed})",
        "decisions": {
            "recurrent_cell": "gru",
            "theta_gradient": "score-function with running-mean baseline",
        },
        "artifacts": {},
        "status": "running",
    }


def _finalize_manifest(out_dir: Path, payload: dict, paths: list[Path]) -> None:
    payload["artifacts"] = {p.name: _sha256(p) for p in sorted(paths)}
    payload["status"] = "complete"
    write_manifest(out_dir, payload)


def _log(out_dir: Path, message: str) -> None:
    with (out_dir / "run.log").open("a") as fh:
        fh.write(f"{time.time():.3f} {message}\n")


def _run_recorded(out_dir: Path, payload: dict, work: Callable[[], list[Path]]) -> int:
    """Write the manifest, then run work() for its artifact paths and record
    them with their checksums. An out_dir that cannot be made raises
    ConfigurationError. A failure leaves the manifest "partial", its
    traceback in run.log, and returns 1; Ctrl-C leaves it "interrupted" and
    is raised again."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from None
    write_manifest(out_dir, payload)
    _log(out_dir, f"start {payload['command']}")
    try:
        paths = work()
    except KeyboardInterrupt:
        payload["status"] = "interrupted"
        write_manifest(out_dir, payload)
        _log(out_dir, "interrupted")
        raise
    except Exception as exc:  # noqa: BLE001 - partial results must be flagged
        payload["status"] = "partial"
        payload["error"] = str(exc)
        write_manifest(out_dir, payload)
        _log(out_dir, f"failed: {exc}\n{traceback.format_exc().rstrip()}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _finalize_manifest(out_dir, payload, paths)
    _log(out_dir, "done")
    _print_out(f"wrote {len(paths) + 1} artifacts to {out_dir}")
    return 0


def _run_modes(cfg: RunConfig, modes: list[str], out_dir: Path, payload: dict) -> int:
    def work() -> list[Path]:
        paths, curves_by_mode = [], {}
        for mode in modes:
            mode_cfg = dataclasses.replace(cfg, mode=mode)
            trials = []
            for i in range(mode_cfg.trials):
                records = run_trial(mode_cfg, trial_seed(mode_cfg, i))
                trials.append(records)
                suffix = f"{mode}_trial_{i}.jsonl" if len(modes) > 1 else f"trial_{i}.jsonl"
                paths.append(write_records(out_dir, suffix, records))
            curves_by_mode[mode] = aggregate(trials)
        paths.append(write_aggregate_csv(out_dir, "aggregate.csv", curves_by_mode))
        final = curves_by_mode[modes[0]]["mean_coverage"][-1]
        _print_out(f"final mean coverage ({modes[0]}): {final:.4f}")
        return paths

    return _run_recorded(out_dir, payload, work)


# -- subcommands ----------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_dir = resolve_out_dir(args, "run")
    return _run_modes(cfg, [cfg.mode], out_dir, _manifest_base(cfg, "run"))


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_dir = resolve_out_dir(args, "bench")
    return _run_modes(cfg, list(MODES), out_dir, _manifest_base(cfg, "bench"))


def cmd_bayesian(args: argparse.Namespace) -> int:
    cfg = dataclasses.replace(build_config(args), **BAYESIAN_VARIANTS[args.variant])
    out_dir = resolve_out_dir(args, f"bayesian-{args.variant}")
    payload = _manifest_base(cfg, "bayesian") | {"variant": args.variant}
    return _run_modes(cfg, [cfg.mode], out_dir, payload)


def _print_out(text: str) -> None:
    """Print a line to stdout. A reader that closes the pipe early (`| head`)
    does not change the exit code: the rest of the output is dropped."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # later writes, and the flush at exit, go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
    results = checks.run_all(seed=args.seed, corrupt=args.corrupt)
    report = {"seed": args.seed, "checks": results,
              "passed": all(r["passed"] for r in results)}
    _print_out(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_dir = resolve_out_dir(args, "pretrain")

    def work() -> list[Path]:
        state = init_state(cfg, trial_seed(cfg, 0))
        pretrain_run(state)
        paths = [
            write_checkpoint(
                out_dir / "theta.txt",
                f"theta layers={cfg.layers} count={cfg.layers * ANGLES_PER_LAYER}",
                state.theta,
            )
        ]
        for k, model in enumerate(state.models):
            w = model.get_weights()
            header = (
                f"weights input={model.input_dim} hidden={model.hidden} "
                f"out={model.n_levels} count={w.size}"
            )
            paths.append(write_checkpoint(out_dir / f"weights_{k}.txt", header, w))
        return paths

    return _run_recorded(out_dir, _manifest_base(cfg, "pretrain"), work)


def _add_common_flags(p: argparse.ArgumentParser, fixed: Collection[str] = ()) -> None:
    p.allow_abbrev = False  # whole names only: a fixed --dropout must not mean --dropout-passes
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out-dir")
    # one of the two spellings of the horizon, or the last one given would win
    horizon = p.add_mutually_exclusive_group()
    horizon.add_argument("--T", dest="horizon", help="horizon (number of time steps)")
    for name in _FIELDS:
        if name not in fixed:
            (horizon if name == "horizon" else p).add_argument(
                "--" + name.replace("_", "-"), dest=name
            )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. argparse leaves a
    reference cycle behind for every argument it adds, which only a full
    garbage collection frees, so a process that calls main() once per run
    would otherwise accumulate about 60 KB of garbage per call."""
    parser = argparse.ArgumentParser(
        prog="vqsense",
        description="Variational quantum sensing with online conformal risk control",
    )
    # main() calls cmd_<command>
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment in a single mode")
    _add_common_flags(p_run)

    p_bench = sub.add_parser("bench", help="run all four benchmark modes")
    _add_common_flags(p_bench, fixed=("mode",))

    p_bayes = sub.add_parser("bayesian", help="run with an ensemble or dropout estimator")
    p_bayes.add_argument("variant", choices=BAYESIAN_VARIANTS)
    _add_common_flags(p_bayes, fixed=set().union(*BAYESIAN_VARIANTS.values()))

    p_grad = sub.add_parser("gradcheck", help="verify every gradient pathway")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--corrupt", action="store_true",
                        help="negative control: corrupt gradients and expect failure")

    p_pre = sub.add_parser("pretrain", help="pretrain and write checkpoints")
    _add_common_flags(p_pre)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
