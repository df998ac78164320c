"""Benchmark the thzisac experiment runners on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload isi-short-cp --seed 1 --seconds 25 --trace 0

The workload's runner is called in-process, serially, on its shipped YAML
config with the seed replaced, again and again (at least twice) for about
--seconds. Every call's CSVs are checked against the acceptance
tolerances and their sha256 must repeat the first call's. The last stdout
line is one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of the traced calls (calls alternate untraced and
traced) whose spans are written to .perfbench_out/traces/. Per-layer seconds
and counts are per runner call. Exit code 2, without a result line, when the
package or its configs are missing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 9
MODULES = ("experiments", "config", "geometry", "waveform", "channel", "precoding",
           "sensing_rx", "isi_ici")
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing package or config)."""


@dataclass
class Call:
    """Outcome of one runner call."""

    wall: float
    cpu: float
    draws: int
    digests: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    warnings: Counter = field(default_factory=Counter)


def import_program(root: Path) -> dict:
    """Import thzisac from root/src, never from anywhere else on the path."""
    src = root / "src"
    if not (src / "thzisac" / "__init__.py").is_file():
        raise BenchError(f"no thzisac package under {src}")
    sys.path.insert(0, str(src))
    import importlib
    mods = {name: importlib.import_module(f"thzisac.{name}") for name in MODULES}
    where = Path(mods["experiments"].__file__).resolve().parent
    if where != (src / "thzisac").resolve():
        raise BenchError(f"thzisac imported from {where}, not {src}")
    return mods


def write_config(workload, seed: int, out_dir: Path) -> Path:
    """The shipped YAML with only seed and trials replaced."""
    import yaml
    shipped = workload.config_path(ROOT)
    if not os.path.isfile(shipped):
        raise BenchError(f"missing shipped config {shipped}")
    with open(shipped) as fh:
        data = yaml.safe_load(fh) or {}
    data.update(seed=seed, trials=workload.trials)
    path = out_dir / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return path


def measure_setup(config: Path) -> list:
    """Seconds to import numpy and thzisac and load the config, in fresh interpreters."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, str(probe), str(ROOT / "src"), str(config)],
                              capture_output=True, text=True, timeout=120, check=True,
                              cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_call(runner, workload, cfg, out_dir: Path, reference: dict) -> Call:
    """One runner call: time it, tally warnings, digest and check the CSVs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            runner(cfg, str(out_dir))
        except Exception as exc:  # a crashing runner is a failed check, not a crash
            error = exc
            traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    call = Call(wall=wall, cpu=cpu, draws=workload.draws(cfg),
                warnings=Counter(w.category.__name__ for w in caught))
    if error is not None:
        call.checks = [(f"runner raised {type(error).__name__}: {error}", False)]
        return call
    for path in sorted(out_dir.glob("*.csv")):
        call.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    try:
        call.checks, call.observed = workload.check(str(out_dir))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        call.checks = [(f"outputs unreadable: {type(exc).__name__}: {exc}", False)]
    if reference:
        call.checks.append(("csv bytes repeat the first call", call.digests == reference))
    return call


def blas_threads():
    """OpenBLAS thread count from the library numpy bundles, None when not found."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload, seed: int, cfg) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config instead
        blas = {}
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "commit": git_commit(ROOT), "workload": workload.name, "runner": workload.runner,
        "seed": seed, "config_trials": cfg.trials, "trials_per_call": workload.draws(cfg),
    }


def rate(calls) -> float:
    return statistics.median(c.draws / c.wall for c in calls)


def session(mods, workload, cfg, out_dir: Path, seconds: float, trace: bool):
    """Call the runner for about `seconds`, two calls at least.

    When tracing, calls alternate untraced and traced, so the overhead is
    measured against untraced calls made under the same machine load. A
    further call starts only while it is expected to end less than half a
    call past the deadline, so a run overshoots by at most about half a call.
    Returns (all calls, tracer or None).
    """
    experiments = mods["experiments"]
    tracer = Tracer() if trace else None
    namespaces = [m for name, m in sys.modules.items()
                  if name == "thzisac" or name.startswith("thzisac.")]
    calls = []
    start = time.perf_counter()

    def time_left():
        typical = statistics.median(c.wall for c in calls)
        return time.perf_counter() - start + typical / 2 < seconds

    def call():
        # looked up per call: when tracing, the runner itself is wrapped
        runner = getattr(experiments, workload.runner)
        ref = calls[0].digests if calls else {}
        calls.append(run_call(runner, workload, cfg, out_dir, ref))

    while len(calls) < 2 or time_left():
        if trace and len(calls) % 2:
            tracer.run_id = len(calls)
            with tracer.installed(layers.targets(mods), namespaces):
                call()
        else:
            call()
    return calls, tracer


def traced_metrics(tracer, calls, attempted: int, failed: int) -> dict:
    untraced, traced = calls[0::2], calls[1::2]
    observed = Counter()
    for c in traced:
        observed.update(c.observed)
    observed.update(cpu_s=sum(c.cpu for c in traced), wall_s=sum(c.wall for c in traced),
                    attempted=attempted, failed=failed)
    observed["traced_trials_per_s"] = rate(traced)
    observed["untraced_trials_per_s"] = rate(untraced)
    tally = Counter()
    for c in traced:
        tally.update(c.warnings)
    return layers.layer_metrics(tracer.spans, tracer.counters, len(traced), tally, observed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    work_dir = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
    try:
        mods = import_program(ROOT)
        work_dir.mkdir(parents=True, exist_ok=True)
        config_path = write_config(workload, args.seed, work_dir)
        cfg = mods["config"].load_config(str(config_path))
        ready_s = time.perf_counter() - _T0
        setups = measure_setup(config_path)
        calls, tracer = session(mods, workload, cfg, work_dir / "out",
                                        args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(c.checks) for c in calls)
    failed = sum(not ok for c in calls for _, ok in c.checks)
    print("env " + json.dumps(environment(workload, args.seed, cfg), sort_keys=True))
    for i, c in enumerate(calls):
        kind = "traced" if tracer is not None and i % 2 else "untraced"
        passed = sum(ok for _, ok in c.checks)
        print(f"call {i} ({kind}): {c.wall:.3f} s wall, {c.cpu:.3f} s cpu, {c.draws} trials, "
              f"checks {passed}/{len(c.checks)}, warnings {dict(c.warnings)}, "
              f"csv sha256 {json.dumps(c.digests, sort_keys=True)}")
        for name, ok in c.checks:
            if not ok:
                print(f"  FAILED check: {name}")
    print(f"in-process start to runner ready: {ready_s:.4f} s; setup samples "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} checks failed)")

    if tracer is None:
        metrics = {"trials_per_s": rate(calls), "setup_s": statistics.median(setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
    else:
        metrics = traced_metrics(tracer, calls, attempted, failed)
        units = {name: layers.unit_of(name) for name in metrics}
        trace_dir = ROOT / ".perfbench_out" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{workload.name}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent", "run"],
                       "spans": tracer.spans, "counters": tracer.counters,
                       "metrics": metrics}, fh)
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
