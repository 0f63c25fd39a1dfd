import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vqsense import cli
from vqsense.cli import (
    build_config,
    main,
    parse_config_file,
    write_checkpoint,
)
from vqsense.engine import RunConfig, init_state, trial_seed
from vqsense.probe import ConfigurationError

FAST_CONFIG = """
# small run for tests
n = 2
layers = 2
m = 5
shots = 4
T = 8            # alias for horizon
hidden_size = 8
pretrain_samples = 4
pretrain_epochs = 3
probe_pretrain_steps = 2
trials = 1
"""


# a valid value other than the default for every RunConfig field
FIELD_TEXT = {
    "n": "3", "layers": "2", "m": "5", "shots": "4", "horizon": "7", "alpha": "0.25",
    "tau": "0.7", "eta": "0.4", "eta_theta": "0.002", "schedule": "decay", "mode": "static",
    "loss_kind": "distance", "seed": "9", "trials": "2", "hidden_size": "8", "lr": "0.01",
    "l2": "0.001", "decay": "0.5", "decay_every": "20", "dropout": "0.2", "ensemble": "2",
    "dropout_passes": "3",
    "pretrain_samples": "0", "pretrain_epochs": "3", "pretrain_lr": "0.01",
    "probe_pretrain_steps": "2", "phase_process": "drift",
}


@pytest.fixture
def fast_cfg_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return path


def read_checkpoint(path):
    """Inverse of cli.write_checkpoint: (header, values)."""
    text = path.read_text().splitlines()
    return text[0], np.array([float(v) for v in " ".join(text[1:]).split()])


def artifact_digests(out_dir, skip=("run.log",)):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.name not in skip
    }


class TestConfigFile:
    def test_parse_aliases_and_comments(self, fast_cfg_file):
        values = parse_config_file(fast_cfg_file)
        assert values["horizon"] == 8
        assert values["shots"] == 4
        assert "t" not in values

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 2\nwibble = 3\n")
        with pytest.raises(ConfigurationError, match="bad.cfg:2.*wibble"):
            parse_config_file(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = two\n")
        with pytest.raises(ConfigurationError, match="bad.cfg:1"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigurationError, match="expected 'key = value'"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text",
        ["alpha = 0.3\nalpha = 0.5\n", "T = 3\nn = 2\nT = 5\n", "T = 3\nn = 2\nhorizon = 5\n"],
        ids=["same-key", "same-alias", "alias-and-field"],
    )
    def test_key_set_twice_names_both_lines(self, tmp_path, text):
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        last = len(text.splitlines())
        with pytest.raises(ConfigurationError, match=f"twice.cfg:{last}: .* already set on line 1"):
            parse_config_file(path)

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_every_field_has_a_flag(self, field, tmp_path, monkeypatch):
        """`key = value` in a file and `--key-name value` give the same config."""
        configs = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: configs.append(build_config(args)) or 0)
        path = tmp_path / "one.cfg"
        path.write_text(f"{field.name} = {FIELD_TEXT[field.name]}\n")
        assert main(["run", "--config", str(path)]) == 0
        flag = "--" + field.name.replace("_", "-")
        assert main(["run", flag, FIELD_TEXT[field.name]]) == 0
        assert configs[0] == configs[1] != RunConfig()

    def test_flags_override_file(self, fast_cfg_file):
        import argparse

        ns = argparse.Namespace(config=str(fast_cfg_file), alpha="0.25",
                                horizon="11", seed=None, mode=None, trials=None,
                                hidden_size=None, eta=None, eta_theta=None,
                                tau=None)
        cfg = build_config(ns)
        assert cfg.horizon == 11
        assert cfg.alpha == 0.25
        assert cfg.shots == 4  # from file


class TestExitCodes:
    def test_missing_config_exits_2_no_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"),
                   "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_directory_config_exits_2_no_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tmp_path), "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error: cannot read config file" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_no_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("alpha = 0.25 # \u00e9t\u00e9\n".encode("latin-1"))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(bad), "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error: cannot read config file" in capsys.readouterr().err

    def test_key_set_twice_exits_2_no_artifacts(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("alpha = 0.3\nalpha = 0.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "twice.cfg:2: 'alpha' already set on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["lambda_init = 1.5", "basis = computational"],
                             ids=["lambda_init", "basis"])
    def test_removed_key_exits_2_no_artifacts(self, line, tmp_path, capsys):
        """lambda_1 is always log m and the readout always Hadamard: no key sets them."""
        path = tmp_path / "old.cfg"
        path.write_text(FAST_CONFIG + line + "\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "below-file", "env"])
    @pytest.mark.parametrize(
        "command", [["run"], ["bench"], ["bayesian", "ensemble"], ["pretrain"]],
        ids=["run", "bench", "bayesian", "pretrain"],
    )
    def test_unusable_out_dir_exits_2(self, command, where, fast_cfg_file, tmp_path,
                                      monkeypatch, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("keep me\n")
        argv = command + ["--config", str(fast_cfg_file)]
        if where == "env":
            monkeypatch.setenv(cli.ENV_OUT_ROOT, str(blocker))
        else:
            argv += ["--out-dir", str(blocker / "sub" if where == "below-file" else blocker)]
        assert main(argv) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
        assert blocker.read_text() == "keep me\n"

    @pytest.mark.parametrize(
        "argv",
        [["bench", "--mode", "static"], ["bayesian", "ensemble", "--ensemble", "2"],
         # whole flag names only, or this would set dropout_passes
         ["bayesian", "dropout", "--dropout", "3"],
         # lambda_1 = log m and the Hadamard readout are constants, not fields
         ["run", "--lambda-init", "1.5"], ["run", "--basis", "computational"]],
        ids=["bench-mode", "bayesian-ensemble", "bayesian-dropout", "run-lambda-init",
             "run-basis"],
    )
    def test_flag_of_a_fixed_field_exits_2(self, argv, fast_cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(fast_cfg_file), "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alpha = banana\n")
        rc = main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_value_range_exits_2(self, fast_cfg_file, tmp_path, capsys):
        for flag, value in (("--alpha", "1.5"), ("--eta", "-1"), ("--tau", "0"),
                            ("--eta-theta", "-0.5"), ("--T", "0"), ("--eta", "inf")):
            out = tmp_path / "o"
            rc = main(["run", "--config", str(fast_cfg_file), flag, value,
                       "--out-dir", str(out)])
            assert rc == 2, flag
            assert not out.exists(), flag

    def test_gradcheck_passes(self, capsys):
        rc = main(["gradcheck", "--seed", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert len(report["checks"]) == 3

    def test_gradcheck_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_gradcheck_corrupt_fails(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--corrupt"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"]
        assert all(not c["passed"] for c in report["checks"])

    @pytest.mark.parametrize("corrupt,want", [(False, 0), (True, 1)])
    def test_gradcheck_closed_stdout_keeps_exit_code(self, corrupt, want):
        """A reader that closes the pipe (`vqsense gradcheck | head -c 1`)
        must not turn a pass into exit 1, nor a failure into another code.
        The read end is closed before the report is written, so every write
        meets a broken pipe."""
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "vqsense.cli", "gradcheck", "--seed", "0",
             *(["--corrupt"] if corrupt else [])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == want, err
        assert "BrokenPipeError" not in err and "Traceback" not in err


class TestRunArtifacts:
    def test_run_writes_expected_files(self, fast_cfg_file, tmp_path, capsys):
        out = tmp_path / "run1"
        rc = main(["run", "--config", str(fast_cfg_file), "--out-dir", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert {"manifest.json", "trial_0.jsonl", "aggregate.csv", "run.log"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        for name, digest in manifest["artifacts"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "flags",
        [["--lr", "1e300", "--T", "10", "--pretrain-samples", "0"],
         ["--pretrain-lr", "1e300", "--pretrain-samples", "5", "--pretrain-epochs", "2",
          "--T", "3"]],
        ids=["lr", "pretrain-lr"],
    )
    def test_overflowing_learning_rate_completes(self, tmp_path, flags):
        # each estimator step whose lr (grad + l2 w) overflows is skipped, not taken
        out = tmp_path / "run"
        with np.errstate(over="ignore"):
            assert main(["run", "--trials", "1", *flags, "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
        records = [json.loads(line) for line in (out / "trial_0.jsonl").open()]
        assert all(np.all(np.isfinite(r["scores"])) for r in records)
        if "--lr" in flags:
            assert any(r["skipped_grad"] for r in records)

    def test_manifest_states_the_trial_seed_stride(self, fast_cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(fast_cfg_file), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = RunConfig(**manifest["config"])
        stride = re.fullmatch(r"trial i uses seed \+ i\*(\d+) \(base seed \d+\)",
                              manifest["seed_rule"])
        assert int(stride.group(1)) == trial_seed(cfg, 1) - cfg.seed

    def test_interrupt_marks_manifest(self, fast_cfg_file, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_trial", interrupted)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(fast_cfg_file), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        assert {p.name for p in out.iterdir()} == {"manifest.json", "run.log"}

    def test_failed_write_leaves_final_name_untouched(self, tmp_path):
        @dataclasses.dataclass
        class Record:
            t: object

        path = cli.write_records(tmp_path, "trial_0.jsonl", [Record(1)])
        before = path.read_bytes()
        # the second record fails after the first line is written: JSON has
        # no encoding for a bare object
        with pytest.raises(TypeError):
            cli.write_records(tmp_path, "trial_0.jsonl", [Record(2), Record(object())])
        assert path.read_bytes() == before
        # the curves lack a column, so the CSV fails after its header row
        with pytest.raises(KeyError):
            cli.write_aggregate_csv(tmp_path, "aggregate.csv", {"dynamic": {"t": [1]}})
        assert [p.name for p in tmp_path.iterdir()] == ["trial_0.jsonl"]

    @pytest.mark.parametrize(
        "extra",
        [
            "",
            # a frozen probe reads its distributions from the engine's cache
            "mode = static-probe-estimator\neta_theta = 0\n",
            "ensemble = 2\n",
            "dropout = 0.2\ndropout_passes = 3\n",
            # frozen estimators score their steps in blocks ahead of them
            "mode = static-probe-estimator\ndropout = 0.2\n",
        ],
        ids=["default", "frozen-probe", "ensemble", "dropout", "frozen-dropout"],
    )
    def test_determinism_byte_identical(self, fast_cfg_file, tmp_path, extra):
        fast_cfg_file.write_text(FAST_CONFIG + extra)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(fast_cfg_file), "--out-dir", str(out1)]) == 0
        assert main(["run", "--config", str(fast_cfg_file), "--out-dir", str(out2)]) == 0
        assert artifact_digests(out1) == artifact_digests(out2)

    def test_jsonl_matches_csv(self, fast_cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["run", "--config", str(fast_cfg_file), "--out-dir", str(out)])
        records = [json.loads(line)
                   for line in (out / "trial_0.jsonl").read_text().splitlines()]
        rows = (out / "aggregate.csv").read_text().splitlines()
        header = rows[0].split(",")
        last = rows[-1].split(",")
        cov = float(last[header.index("mean_coverage")])
        assert cov == pytest.approx(1.0 - records[-1]["avg_loss"], abs=1e-12)

    def test_bench_writes_all_modes(self, fast_cfg_file, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--config", str(fast_cfg_file), "--out-dir", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        for mode in ("dynamic", "static", "static-threshold", "static-probe-estimator"):
            assert f"{mode}_trial_0.jsonl" in names
        rows = (out / "aggregate.csv").read_text().splitlines()[1:]
        modes_in_csv = {row.split(",")[1] for row in rows}
        assert len(modes_in_csv) == 4

    def test_bayesian_variants(self, fast_cfg_file, tmp_path):
        for variant, key, val in (("ensemble", "ensemble", 5), ("dropout", "dropout", 0.4)):
            out = tmp_path / variant
            rc = main(["bayesian", variant, "--config", str(fast_cfg_file),
                       "--out-dir", str(out)])
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["variant"] == variant
            assert manifest["config"][key] == val


class TestCheckpoints:
    def test_roundtrip_exact(self, tmp_path, rng):
        values = rng.standard_normal(37)
        path = write_checkpoint(tmp_path / "w.txt", "weights count=37", values)
        header, loaded = read_checkpoint(path)
        assert header == "weights count=37"
        np.testing.assert_array_equal(loaded, values)

    def test_pretrain_writes_checkpoints(self, fast_cfg_file, tmp_path, capsys):
        out = tmp_path / "pre"
        rc = main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out)])
        assert rc == 0
        header, theta = read_checkpoint(out / "theta.txt")
        assert header.startswith("theta layers=2")
        assert theta.size == 8
        header, w = read_checkpoint(out / "weights_0.txt")
        assert f"count={w.size}" in header

    def test_pretrain_without_samples_writes_initial_weights(self, fast_cfg_file, tmp_path):
        out = tmp_path / "pre"
        rc = main(["pretrain", "--config", str(fast_cfg_file), "--pretrain-samples", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        cfg = RunConfig(**json.loads((out / "manifest.json").read_text())["config"])
        state = init_state(cfg, trial_seed(cfg, 0))
        np.testing.assert_array_equal(read_checkpoint(out / "theta.txt")[1], state.theta.ravel())
        np.testing.assert_array_equal(read_checkpoint(out / "weights_0.txt")[1],
                                      state.models[0].get_weights())

    def test_pretrain_deterministic(self, fast_cfg_file, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out1)])
        main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out2)])
        assert artifact_digests(out1) == artifact_digests(out2)

    def test_pretrain_failure_marks_manifest(self, fast_cfg_file, tmp_path, monkeypatch):
        def failing(state):
            raise RuntimeError("pretraining diverged")

        monkeypatch.setattr(cli, "pretrain_run", failing)
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        assert manifest["error"] == "pretraining diverged"
        assert {p.name for p in out.iterdir()} == {"manifest.json", "run.log"}
        log = (out / "run.log").read_text()
        assert "failed: pretraining diverged" in log
        assert "Traceback" in log and "in failing" in log

    def test_pretrain_interrupt_marks_manifest(self, fast_cfg_file, tmp_path, monkeypatch):
        def interrupted(state):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "pretrain_run", interrupted)
        out = tmp_path / "pre"
        with pytest.raises(KeyboardInterrupt):
            main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        assert {p.name for p in out.iterdir()} == {"manifest.json", "run.log"}
