#!/usr/bin/env python3
"""Benchmark two commits side by side in alternating pairs and write BENCH_<n>.json.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --seeds 600 10 \
        --out BENCH_10.json [--workloads precoding-tradeoff ...]

Each commit is unpacked with `git archive` into its own directory under
--work-dir, so neither side sees the other's files or bytecode. For every
workload and seed, `perfbench/run.py --trace 0` runs once per side for
BENCHMARK.json's run_seconds, with PYTHONDONTWRITEBYTECODE=1. The parent goes
first in even pairs and the change first in odd ones, so slow drift of the
host loads both sides alike.
The output keeps every run's env and result lines, and per workload and
end-to-end metric: the parent's and the change's q1/median/q3, the median
ratio, the number of pairs in which the change was better and a verdict
against BENCHMARK.json's bound (see `verdict`). After its pairs,
each workload also runs once per side with `--trace 1` on the first seed, and
the output lists every per-layer metric of the two traced runs with its shift,
change minus parent. It also records each side's line count of
src/thzisac/*.py, as `wc -l` gives it, so a refactor reports its net lines.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# per-run keys of perfbench's env line; the rest describe the host
RUN_ENV_KEYS = ("commit", "workload", "runner", "seed", "config_trials", "trials_per_call",
                "blas_env")


def unpack(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def src_lines(tree: Path) -> int:
    """Newlines in tree/src/thzisac/*.py, the total `wc -l src/thzisac/*.py` prints."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "thzisac").glob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One `perfbench/run.py` run in tree: its rc, env line and result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env_line = next((line for line in lines if line.startswith("env ")), None)
    result = lines[-1] if done.returncode == 0 and lines else None
    return {"rc": done.returncode, "env": env_line, "result": result}


def quartiles(values: list) -> list:
    """q1, median, q3 with linear interpolation (numpy's default percentile)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list, change: list, direction: str, bound: float) -> str:
    """What one metric's pairs show, with parent[i] and change[i] run as pair i.

    "gain": at least 10 pairs, the change better in at least 9/10 of them,
    and the medians differ in its favour by more than the parent's q3 - q1.
    "regression": the change's median is worse than the parent's by more
    than bound times the parent's median. "unresolved": the parent's own
    q3 - q1 exceeds bound times its median, unless every change run is better
    than every parent run. "unchanged": none of these.
    """
    sign = 1.0 if direction == "higher" else -1.0
    q1, median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - median)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if gap < -bound * abs(median):
        return "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(median) and not all_better:
        return "unresolved"
    return "unchanged"


def summarize(runs: list, better: dict, bounds: dict) -> dict:
    """workload -> metric -> pair statistics, from run records of both sides.

    ``better`` maps each end-to-end metric to "higher" or "lower", and
    ``bounds`` to the relative amount by which it may worsen. A pair counts
    only when both of its runs produced a result line.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [(p["parent"], p["change"]) for _, p in sorted(by_pair.items())
                 if all(p.get(side, {}).get("result") for side in SIDES)]
        results = [(json.loads(a["result"]), json.loads(b["result"])) for a, b in pairs]
        entry = {}
        for metric, direction in better.items():
            parent = [a["metrics"][metric]["value"] for a, _ in results]
            change = [b["metrics"][metric]["value"] for _, b in results]
            if not parent:
                continue
            sign = 1.0 if direction == "higher" else -1.0
            entry[metric] = {
                "pairs": len(parent),
                "parent_q1_median_q3": [round(v, 4) for v in quartiles(parent)],
                "change_q1_median_q3": [round(v, 4) for v in quartiles(change)],
                "change_over_parent_median": round(statistics.median(change)
                                                   / statistics.median(parent), 3),
                "change_better_in_pairs": sum(sign * (c - p) > 0
                                              for p, c in zip(parent, change)),
                "verdict": verdict(parent, change, direction, bounds[metric]),
                "parent_runs": [round(v, 4) for v in parent],
                "change_runs": [round(v, 4) for v in change],
            }
        entry["failed_checks_parent_change"] = [
            sum(json.loads(r["result"])["failed"] for r in runs
                if r["workload"] == workload and r["side"] == side and r["result"])
            for side in SIDES]
        entry["rc_nonzero"] = sum(r["rc"] != 0 for r in runs if r["workload"] == workload)
        out[workload] = entry
    return out


def layer_shifts(traced: list) -> dict:
    """workload -> per-layer metric -> parent, change and shift (change - parent).

    ``traced`` holds one `--trace 1` run record per side and workload. A metric
    only one side reports, or a side without a result line, reads None.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in traced):
        values = {side: {} for side in SIDES}
        for r in traced:
            if r["workload"] == workload and r["result"]:
                values[r["side"]] = {name: m["value"]
                                     for name, m in json.loads(r["result"])["metrics"].items()}
        rows = {}
        for name in sorted(set(values["parent"]) | set(values["change"])):
            parent, change = (values[side].get(name) for side in SIDES)
            rows[name] = {"parent": parent, "change": change,
                          "shift": None if parent is None or change is None
                          else change - parent}
        out[workload] = rows
    return out


def host_env(runs: list) -> dict:
    """The host part of the first run's env line."""
    for r in runs:
        if r["env"]:
            env = json.loads(r["env"][len("env "):])
            return {k: v for k, v in sorted(env.items()) if k not in RUN_ENV_KEYS}
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "COUNT"),
                        required=True, help="pair i runs seed FIRST + i on both sides")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--work-dir", default=None,
                        help="where the two trees are unpacked, created if missing "
                             "(default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.seeds[0] < 0 or args.seeds[1] < 1:
        parser.error("--seeds needs FIRST >= 0 and COUNT >= 1")
    if args.work_dir is not None:
        try:
            os.makedirs(args.work_dir, exist_ok=True)
        except OSError as exc:
            parser.error(f"--work-dir {args.work_dir}: {exc.strerror}")
    # the report is written after every run, so a path it cannot take would lose them all
    out_dir = Path(args.out).resolve().parent
    if Path(args.out).is_dir():
        parser.error(f"--out {args.out}: is a directory")
    if not out_dir.is_dir():
        parser.error(f"--out {args.out}: no directory {out_dir}")
    if not os.access(out_dir, os.W_OK):
        parser.error(f"--out {args.out}: directory {out_dir} is not writable")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.seeds[0], args.seeds[0] + args.seeds[1]))

    with tempfile.TemporaryDirectory(dir=args.work_dir) as work:
        trees = {side: Path(work) / side for side in SIDES}
        commits = {side: unpack(getattr(args, side), trees[side]) for side in SIDES}
        lines = {side: src_lines(trees[side]) for side in SIDES}
        runs, traced = [], []
        for workload in workloads:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for i, side in enumerate(order):
                    record = {"side": side, "workload": workload, "seed": seed, "pair": pair,
                              "first_in_pair": i == 0,
                              **run_once(trees[side], workload, seed, seconds)}
                    runs.append(record)
                    print(f"{workload} pair {pair} seed {seed} {side}: rc {record['rc']} "
                          f"{record['result']}", flush=True)
            for side in SIDES:
                record = {"side": side, "workload": workload, "seed": seeds[0],
                          **run_once(trees[side], workload, seeds[0], seconds, trace=1)}
                traced.append(record)
                print(f"{workload} traced seed {seeds[0]} {side}: rc {record['rc']}",
                      flush=True)

    report = {
        "what": "perfbench end-to-end runs of a parent and a change commit from two "
                "git-archive copies (PYTHONDONTWRITEBYTECODE=1), pairs alternating which "
                "side runs first",
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --trace 0 "
                   f"--seconds {seconds:g}",
        "parent_commit": commits["parent"], "change_commit": commits["change"],
        "src_lines": {**lines, "shift": lines["change"] - lines["parent"]},
        "env": host_env(runs),
        "seeds": f"{seeds[0]}-{seeds[-1]} for every workload, parent first in even pairs",
        "summary": summarize(runs, better, bounds),
        "trace_command": f"python3 perfbench/run.py --workload <w> --seed {seeds[0]} "
                         f"--trace 1 --seconds {seconds:g}, once per side",
        "layers": layer_shifts(traced),
        "runs": runs,
        "traced_runs": traced,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
