"""Golden trace: short seeded trials must reproduce the recorded per-step trace.

tests/golden/trials.json holds one short trial per run mode, plus a dynamic
and a static-probe-estimator trial with MC dropout, each with pretraining on at
a reduced budget, a dynamic trial with no pretraining (pretrain_samples = 0),
one with the decaying step size and the distance loss, one whose phase
drifts, and a dynamic trial with a two-member ensemble. A change that keeps
RNG use and float order reproduces it exactly; the check allows a relative
1e-9 on floats and requires ints and bools to match exactly.

Regenerate the fixture (only when a change is meant to alter behaviour):

    PYTHONPATH=src python tests/test_golden.py --write
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from vqsense.engine import MODES, RunConfig, run_trial

FIXTURE = Path(__file__).parent / "golden" / "trials.json"
SMALL = dict(
    n=3, layers=2, m=6, shots=5, horizon=30, hidden_size=8,
    pretrain_samples=6, pretrain_epochs=4, probe_pretrain_steps=4,
)
CASES = {mode: dict(SMALL, mode=mode) for mode in MODES}
CASES["dynamic-dropout"] = dict(SMALL, dropout=0.4, dropout_passes=3)
CASES["dynamic-unpretrained"] = dict(SMALL, pretrain_samples=0)
# frozen estimators with dropout: block scoring ahead of the steps
CASES["static-probe-estimator-dropout"] = dict(
    SMALL, mode="static-probe-estimator", dropout=0.4, dropout_passes=3
)
CASES["dynamic-decay-distance"] = dict(SMALL, schedule="decay", loss_kind="distance")
CASES["dynamic-drift"] = dict(SMALL, phase_process="drift")
CASES["dynamic-ensemble"] = dict(SMALL, ensemble=2)
SEED = 17
TRACED = ("x_index", "shots", "scores", "lam_before", "set_mask", "loss")


def trace(overrides: dict, seed: int) -> list[dict]:
    records = run_trial(RunConfig(**overrides), seed)
    return [{k: dataclasses.asdict(r)[k] for k in TRACED} for r in records]


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_fixture(case):
    want = json.loads(FIXTURE.read_text())[case]
    got = trace(want["config"], want["seed"])
    assert len(got) == len(want["records"])
    for t, (g, w) in enumerate(zip(got, want["records"]), start=1):
        for key in TRACED:
            if isinstance(np.ravel(w[key])[0], float):
                np.testing.assert_allclose(
                    g[key], w[key], rtol=1e-9, atol=0, err_msg=f"{case} t={t} {key}"
                )
            else:
                assert g[key] == w[key], f"{case} t={t} {key}"


def write_fixture() -> None:
    payload = {
        case: {"config": cfg, "seed": SEED, "records": trace(cfg, SEED)}
        for case, cfg in CASES.items()
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_fixture()
