"""Child process of the set-up measurement.

Runs `vqsense run` in a fresh interpreter up to its first call into
engine.pretrain_run, prints the monotonic clock (the same clock as the
parent's time.perf_counter on Linux) and exits at once. The parent
subtracts the time it started this process.

Usage: python3 setup_child.py SRC_DIR CONFIG OUT_DIR
"""
import os
import sys
import time


def main() -> int:
    src, config, out_dir = sys.argv[1:4]
    sys.path.insert(0, src)
    from vqsense import cli, engine

    def stop(state):
        sys.stdout.write(f"{time.perf_counter()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    engine.pretrain_run = stop
    cli.main(["run", "--config", config, "--out-dir", out_dir])
    print("engine.pretrain_run was never called", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
