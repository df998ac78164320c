"""Command-line front end for the experiment runners.

Exit codes: 0 success, 2 configuration or output-directory error, 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments
from .config import ConfigError, load_config

RUNNERS = {
    "tradeoff": experiments.run_tradeoff,
    "se-sweep": experiments.run_se_sweep,
    "beam-scan": experiments.run_beam_scan,
    "mc-rmse": experiments.run_mc_rmse,
    "isi-demo": experiments.run_isi_demo,
    "ici-demo": experiments.run_ici_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzisac",
        description="Terahertz joint sensing/communication transmit-design and "
                    "receiver-processing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(RUNNERS) + ["selftest"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"seed": args.seed, "trials": args.trials})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "selftest":
        return 0 if experiments.selftest() else 3
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot use --out {args.out!r}: {exc}", file=sys.stderr)
        return 2
    summary = RUNNERS[args.command](cfg, args.out)
    print(f"{args.command}: wrote results under {args.out}/")
    for key in sorted(summary)[:8]:
        print(f"  {key}: {summary[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
