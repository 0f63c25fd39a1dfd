"""Command-line front end: run, bench, gradcheck, bayesian, pretrain.

Configs are flat key = value text files mirroring RunConfig field names
("T" is accepted as an alias for horizon); command-line flags override file
values, which override defaults. Each flag's dest is its RunConfig field, and
file and flag values go through the same per-field parser. Every run writes a
manifest.json first, then per-trial JSONL records and an aggregate CSV, and
finally rewrites the manifest with artifact checksums. Each file goes through
a temp file and os.replace, so none is left half-written. Wall-clock timestamps
go to a run.log sidecar so that every checksummed artifact is
byte-reproducible from the config and seed alone.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, checks
from .engine import (
    MODES,
    EpisodeRecord,
    RunConfig,
    aggregate,
    init_state,
    pretrain_run,
    run_trial,
    trial_seed,
)
from .probe import ConfigurationError

ENV_OUT_ROOT = "VQSENSE_OUT"
_CONFIG_ALIASES = {"t": "horizon", "l": "shots"}
_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


class ConfigFileError(ValueError):
    pass


def parse_value(name: str, text: str):
    """Convert the text of a config-file value or flag to its RunConfig field type."""
    kind = _FIELDS[name].type
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "float | None":
            return None if text.lower() in ("none", "") else float(text)
        return text
    except ValueError as exc:
        raise ConfigFileError(f"bad value for {name!r}: {exc}") from None


def parse_config_file(path: str | Path) -> dict:
    """Flat key = value config; '#' starts a comment. Errors carry line numbers."""
    path = Path(path)
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_").lower()
        key = _CONFIG_ALIASES.get(key, key)
        if key not in _FIELDS:
            raise ConfigFileError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parse_value(key, text.strip())
        except ConfigFileError as exc:
            raise ConfigFileError(f"{path}:{lineno}: {exc}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then every flag given (dest = field name)."""
    values: dict = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigFileError(f"config file not found: {cfg_path}")
        values.update(parse_config_file(cfg_path))
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
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
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


def _manifest_base(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    payload = {
        "command": command,
        "version": __version__,
        "config": cfg.to_dict(),
        "seed_rule": f"trial i uses seed + i*9973 (base seed {cfg.seed})",
        "decisions": {
            "measurement_basis": cfg.basis,
            "recurrent_cell": "gru",
            "threshold_schedule": cfg.schedule,
            "lambda_init": cfg.lambda_start,
            "theta_gradient": "score-function with running-mean baseline",
        },
        "artifacts": {},
        "status": "running",
    }
    if extra:
        payload.update(extra)
    return payload


def _finalize_manifest(out_dir: Path, payload: dict, paths: list[Path]) -> None:
    payload["artifacts"] = {p.name: _sha256(p) for p in sorted(paths)}
    payload["status"] = "complete"
    write_manifest(out_dir, payload)


def _log(out_dir: Path, message: str) -> None:
    with (out_dir / "run.log").open("a") as fh:
        fh.write(f"{time.time():.3f} {message}\n")


def _run_modes(cfg: RunConfig, modes: list[str], out_dir: Path, payload: dict) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, payload)
    _log(out_dir, f"start {payload['command']}")
    paths: list[Path] = []
    curves_by_mode: dict = {}
    try:
        for mode in modes:
            mode_cfg = dataclasses.replace(cfg, mode=mode)
            trials = []
            for i in range(mode_cfg.trials):
                records = run_trial(mode_cfg, trial_seed(mode_cfg, i))
                trials.append(records)
                suffix = f"{mode}_trial_{i}.jsonl" if len(modes) > 1 else f"trial_{i}.jsonl"
                paths.append(write_records(out_dir, suffix, records))
            curves_by_mode[mode] = aggregate(trials)
    except KeyboardInterrupt:
        payload["status"] = "interrupted"
        write_manifest(out_dir, payload)
        _log(out_dir, "interrupted")
        raise
    except Exception as exc:  # noqa: BLE001 - partial results must be flagged
        payload["status"] = "partial"
        payload["error"] = str(exc)
        write_manifest(out_dir, payload)
        _log(out_dir, f"failed: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths.append(write_aggregate_csv(out_dir, "aggregate.csv", curves_by_mode))
    _finalize_manifest(out_dir, payload, paths)
    _log(out_dir, "done")
    final = curves_by_mode[modes[0]]
    print(f"wrote {len(paths) + 1} artifacts to {out_dir}")
    print(f"final mean coverage ({modes[0]}): {final['mean_coverage'][-1]:.4f}")
    return 0


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
    cfg = build_config(args)
    if args.variant == "ensemble":
        cfg = dataclasses.replace(cfg, ensemble=5, dropout=0.0)
    else:
        cfg = dataclasses.replace(cfg, ensemble=1, dropout=0.4)
    out_dir = resolve_out_dir(args, f"bayesian-{args.variant}")
    extra = {"variant": args.variant, "dropout_passes": cfg.dropout_passes}
    return _run_modes(cfg, [cfg.mode], out_dir, _manifest_base(cfg, "bayesian", extra))


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = checks.run_all(seed=args.seed, corrupt=args.corrupt)
    report = {"seed": args.seed, "checks": results,
              "passed": all(r["passed"] for r in results)}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    out_dir = resolve_out_dir(args, "pretrain")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = _manifest_base(cfg, "pretrain")
    write_manifest(out_dir, payload)
    state = init_state(cfg, trial_seed(cfg, 0))
    pretrain_run(state)
    paths = [
        write_checkpoint(
            out_dir / "theta.txt",
            f"theta layers={cfg.layers} count={cfg.layers * 4}",
            state.theta.flat(),
        )
    ]
    for k, model in enumerate(state.models):
        w = model.get_weights()
        header = (
            f"weights input={model.input_dim} hidden={model.hidden} "
            f"out={model.n_levels} count={w.size}"
        )
        paths.append(write_checkpoint(out_dir / f"weights_{k}.txt", header, w))
    _finalize_manifest(out_dir, payload, paths)
    print(f"wrote checkpoints to {out_dir}")
    return 0


def _add_common_flags(p: argparse.ArgumentParser, with_mode: bool = True) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--alpha")
    p.add_argument("--T", dest="horizon", help="horizon (number of time steps)")
    p.add_argument("--seed")
    if with_mode:
        p.add_argument("--mode", choices=MODES)
    p.add_argument("--out-dir")
    p.add_argument("--trials")
    p.add_argument("--hidden-size", dest="hidden_size")
    p.add_argument("--eta")
    p.add_argument("--eta-theta", dest="eta_theta")
    p.add_argument("--tau")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqsense",
        description="Variational quantum sensing with online conformal risk control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment in a single mode")
    _add_common_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run all four benchmark modes")
    _add_common_flags(p_bench, with_mode=False)
    p_bench.set_defaults(func=cmd_bench)

    p_bayes = sub.add_parser("bayesian", help="run with an ensemble or dropout estimator")
    p_bayes.add_argument("variant", choices=("ensemble", "dropout"))
    _add_common_flags(p_bayes)
    p_bayes.set_defaults(func=cmd_bayesian)

    p_grad = sub.add_parser("gradcheck", help="verify every gradient pathway")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--corrupt", action="store_true",
                        help="negative control: corrupt gradients and expect failure")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_pre = sub.add_parser("pretrain", help="pretrain and write checkpoints")
    _add_common_flags(p_pre)
    p_pre.set_defaults(func=cmd_pretrain)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigFileError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
