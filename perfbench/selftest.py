"""Self-test of the benchmark harness on a tiny config (a few seconds).

Usage (from the root of a vqsense checkout): python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is emitted, with its unit, by the
     untraced (end_to_end) and the traced (per_layer) run;
  2. the traced run leaves every wrapped function exactly as it found it;
  3. a deliberately broken trial registers as failed: a threshold update
     that breaks the telescoping identity, a coverage loss that disagrees
     with the set, a config the CLI rejects, and an artifact digest that
     disagrees with the one recorded for the seed;
  4. the probe gradient's simulation count is 1 + 2 x (number of angles).
Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run
import spans as spanlib

TINY = """
trials = 1
n = 3
layers = 1
m = 4
shots = 3
horizon = 12
hidden_size = 8
pretrain_samples = 4
pretrain_epochs = 2
probe_pretrain_steps = 3
"""
SEED = 7


def expected_metrics(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def wrapped_attrs(vqsense) -> dict:
    owners = [(spanlib.resolve_owner(vqsense, path), attr)
              for _, path, attr in spanlib.TRACE_TARGETS]
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in owners}


def main() -> int:
    vqsense = run.import_program()
    checked, failures = [], []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        checked.append(what)
        if not ok:
            failures.append(what)

    plain = run.measure(vqsense, "selftest", TINY, SEED, 0, traced=False)
    check(plain["failed"] == 0, "tiny untraced trial passes the gate")
    check(emitted(plain) == expected_metrics("end_to_end"),
          "untraced run emits every end_to_end metric with its unit")

    before = wrapped_attrs(vqsense)
    traced = run.measure(vqsense, "selftest", TINY, SEED, 0, traced=True)
    check(traced["failed"] == 0, "tiny traced trial passes the gate")
    check(emitted(traced) == expected_metrics("per_layer"),
          "traced run emits every per_layer metric with its unit")
    after = wrapped_attrs(vqsense)
    check(before.keys() == after.keys()
          and all(before[k] is after[k] for k in before),
          "wrappers are removed after the traced run")
    check(traced["metrics"]["probe.grad.sims_per_call"]["value"] == 1 + 2 * 4,
          "probe.grad.sims_per_call counts 1 + 2 x 4 simulations")

    original = vqsense.conformal.update_threshold

    def drifting(state, loss):
        new = original(state, loss)
        return dataclasses.replace(new, lam=new.lam + 1e-6)

    with spanlib.patched([(vqsense.conformal, "update_threshold", drifting)]):
        broken = run.measure(vqsense, "selftest", TINY, SEED + 1, 0, traced=False)
    check(broken["failed"] == 1 and broken["metrics"]["ok_frac"]["value"] == 0,
          "a broken threshold update registers as a failed trial")

    with spanlib.patched([(vqsense.conformal, "coverage_loss", lambda x_index, mask: 0.0)]):
        blind = run.measure(vqsense, "selftest", TINY, SEED + 2, 0, traced=False)
    check(blind["failed"] == 1 and "coverage loss disagrees" in blind["trials"][0]["problems"][0],
          "a coverage loss that disagrees with the set registers as a failed trial")

    # Traced, because the untraced run's set-up children refuse a bad config.
    bad_config = run.measure(vqsense, "selftest", TINY + "alpha = 1.5\n", SEED, 0,
                             traced=True)
    check(bad_config["failed"] == 2 and bad_config["metrics"]["gate.failed_frac"]["value"] == 1,
          "a config the CLI rejects registers in gate.failed_frac")

    store = run.OUT_ROOT / "digests.json"
    digests = json.loads(store.read_text())
    key = next(k for k in digests if k.startswith(f"selftest seed={SEED} "))
    digests[key] = "0" * 64
    store.write_text(json.dumps(digests))
    mismatch = run.measure(vqsense, "selftest", TINY, SEED, 0, traced=False)
    check(mismatch["failed"] == 1, "an artifact digest that disagrees registers as failed")
    del digests[key]
    store.write_text(json.dumps(digests))

    print(f"selftest: {len(failures)} of {len(checked)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
