#!/usr/bin/env python3
"""Run the full experiment battery with the shipped configs.

Each experiment writes CSVs plus a JSON summary under results/<name>/.
A full run at the shipped trial counts took about 1 minute on a 2-core host
(numpy 2.4, OpenBLAS); pass --quick to shrink trial counts for a smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

from thzisac.cli import RUNNERS, main as cli_main

EXPERIMENTS = list(RUNNERS)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--quick", action="store_true",
                        help="3 trials per experiment instead of the configured counts")
    parser.add_argument("--only", nargs="*", choices=EXPERIMENTS, default=None)
    args = parser.parse_args()

    cfg_dir = Path(__file__).parent / "configs"
    failures = []
    for name in args.only or EXPERIMENTS:
        cfg = cfg_dir / f"{name.replace('-', '_')}.yaml"
        argv = [name, "--config", str(cfg), "--out", str(Path(args.out) / name)]
        if args.quick:
            argv += ["--trials", "3"]
        t0 = time.time()
        rc = cli_main(argv)
        print(f"[{name}] exit={rc} ({time.time() - t0:.0f}s)")
        if rc != 0:
            failures.append(name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
