import hashlib
import json

import numpy as np
import pytest

from vqsense import cli
from vqsense.cli import (
    build_config,
    main,
    parse_config_file,
    write_checkpoint,
    ConfigFileError,
)

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
        with pytest.raises(ConfigFileError, match="bad.cfg:2.*wibble"):
            parse_config_file(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = two\n")
        with pytest.raises(ConfigFileError, match="bad.cfg:1"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigFileError, match="expected 'key = value'"):
            parse_config_file(path)

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
        assert len(report["checks"]) == 4

    def test_gradcheck_corrupt_fails(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--corrupt"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"]
        assert all(not c["passed"] for c in report["checks"])


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
        class Record:
            def __init__(self, t):
                self.t = t

            def to_dict(self):
                if self.t < 0:
                    raise RuntimeError("write failed")
                return {"t": self.t}

        path = cli.write_records(tmp_path, "trial_0.jsonl", [Record(1)])
        before = path.read_bytes()
        # the second record fails after the first line is written
        with pytest.raises(RuntimeError):
            cli.write_records(tmp_path, "trial_0.jsonl", [Record(2), Record(-1)])
        assert path.read_bytes() == before
        # the curves lack a column, so the CSV fails after its header row
        with pytest.raises(KeyError):
            cli.write_aggregate_csv(tmp_path, "aggregate.csv", {"dynamic": {"t": [1]}})
        assert [p.name for p in tmp_path.iterdir()] == ["trial_0.jsonl"]

    def test_determinism_byte_identical(self, fast_cfg_file, tmp_path):
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

    def test_pretrain_deterministic(self, fast_cfg_file, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out1)])
        main(["pretrain", "--config", str(fast_cfg_file), "--out-dir", str(out2)])
        assert artifact_digests(out1) == artifact_digests(out2)
