"""Tests of the benchmark's own arithmetic, counters and checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import importlib
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, run  # noqa: E402
from perfbench.tracing import Tracer, self_times, totals_by_name  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from thzisac import isi_ici, precoding  # noqa: E402
from thzisac.channel import ModelMismatchWarning  # noqa: E402
from thzisac.geometry import UpaGeometry, dft_codebook  # noqa: E402
from thzisac.waveform import FrameConfig  # noqa: E402

MODS = {name: importlib.import_module(f"thzisac.{name}") for name in run.MODULES}
NAMESPACES = [m for name, m in sys.modules.items()
              if name == "thzisac" or name.startswith("thzisac.")]


def test_self_times_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],   # nested under the first "a"
        ["c", 8.5, 9.5, 2, 0],   # sticks out of its parent b: only 0.5 s counts
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.5, 1.0, 1.0])
    totals = totals_by_name(spans)
    assert totals["a"] == pytest.approx((3.0, 4.0, 2))
    assert totals["root"] == pytest.approx((3.0, 10.0, 1))


def test_self_times_merge_overlapping_children():
    spans = [["p", 0.0, 10.0, -1, 0], ["x", 1.0, 4.0, 0, 0], ["y", 3.0, 6.0, 0, 0],
             ["z", 3.5, 5.0, 0, 0]]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_patches_every_namespace_and_restores():
    owner, user = types.ModuleType("owner"), types.ModuleType("user")

    def leaf(x):
        return x + 1

    owner.leaf = user.leaf = leaf
    user.outer = lambda x: user.leaf(x) * 2
    tracer = Tracer()
    targets = [(owner, "leaf", "leaf", None, None), (user, "outer", "outer", None, None)]
    with tracer.installed(targets, [owner, user]):
        assert user.outer(1) == 4 and owner.leaf(1) == 2
    assert owner.leaf is leaf and user.leaf is leaf
    assert [s[0] for s in tracer.spans] == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]


def test_tracer_keeps_a_namespace_specific_span_name():
    owner, user = types.ModuleType("owner"), types.ModuleType("user")
    owner.leaf = user.leaf = abs
    tracer = Tracer()
    targets = [(owner, "leaf", "owner.leaf", None, None), (user, "leaf", "user.leaf", None, None)]
    with tracer.installed(targets, [owner, user]):
        owner.leaf(-1), user.leaf(-2)
    assert [s[0] for s in tracer.spans] == ["owner.leaf", "user.leaf"]
    assert owner.leaf is abs and user.leaf is abs


def _tiny_problem():
    frame = FrameConfig(16, 4, 4, 480e3, 0.3e12)
    rng = np.random.default_rng(5)
    shape = (16, 4)
    pair = isi_ici.ExtendedTxPair(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    y = isi_ici.apply_channel_operator(0.3 * frame.t_symbol, 0.1 * frame.delta_f, pair, frame)
    return frame, pair, y + 0.01 * rng.standard_normal(y.shape)


@pytest.mark.parametrize("tau_frac, nu_frac", [(None, None), (0.6, 0.3), (0.9, 0.05),
                                               (100.0, 0.2)])
def test_coarse_nodes_match_tackled_estimate_grid(monkeypatch, tau_frac, nu_frac):
    frame, pair, y = _tiny_problem()
    tau_max = None if tau_frac is None else tau_frac * frame.t_symbol
    nu_max = None if nu_frac is None else nu_frac * frame.delta_f
    grids = []
    scan = isi_ici._coarse_scan

    def spy(y, pair, frame, tau_grid, nu_grid):
        grids.append(tau_grid.size * nu_grid.size)
        return scan(y, pair, frame, tau_grid, nu_grid)

    monkeypatch.setattr(isi_ici, "_coarse_scan", spy)
    tracer = Tracer()
    with tracer.installed(layers.targets(MODS), NAMESPACES):
        isi_ici.tackled_estimate(y, pair, frame, tau_max, nu_max, rounds=1, iters=3)
    assert len(grids) == 1
    assert tracer.counters["isi_ici.coarse_nodes"] == grids[0]
    assert grids[0] == layers.coarse_nodes(frame, tau_max, nu_max)


def test_coarse_nodes_on_the_demo_grids():
    isi = FrameConfig(1024, 16, 32, 3840e3, 0.3e12)
    control = FrameConfig(1024, 16, 32, 480e3, 0.3e12)
    ici = FrameConfig(1024, 16, 32, 120e3, 0.3e12)
    tau, nu = isi_ici.SPEED_OF_LIGHT, 0.3e12 * 2 / isi_ici.SPEED_OF_LIGHT
    assert layers.coarse_nodes(isi, 2 * 55 / tau, 30 * nu) == 2887 * 1
    assert layers.coarse_nodes(control, 2 * 55 / tau, 30 * nu) == 362 * 11
    assert layers.coarse_nodes(ici, 2 * 40 / tau, 55 * nu) == 67 * 73


def test_vec_iterations_count_objective_trace():
    geom = UpaGeometry(8, 8)
    rng = np.random.default_rng(3)
    switch = precoding.default_switch_pattern(4, 10, geom.n_elements // 4)
    comm = np.linalg.qr(rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4)))[0]
    targets = precoding.PrecodingTargets(np.repeat(comm[None], 4, axis=0),
                                         precoding.optimal_sensing_precoder(
                                             dft_codebook(geom), 3, 4), 0.5)
    tracer = Tracer()
    with tracer.installed(layers.targets(MODS), NAMESPACES):
        with pytest.warns(ModelMismatchWarning, match="max_iter=2"):
            results = [precoding.vec_hybrid_precoding(targets, switch, max_iter=2, rng=rng)]
        results.append(precoding.vec_hybrid_precoding(targets, switch, rng=rng))
    trace_len = sum(len(p.objective_trace) for p in results)
    assert tracer.counters["precoding.vec_iterations"] == trace_len // 2 == 2 + (
        len(results[1].objective_trace) // 2)
    assert totals_by_name(tracer.spans)["precoding.weighted_objective"][2] == trace_len
    assert tracer.counters["precoding.vec_converged"] == sum(p.converged for p in results)


ESTIMATES_HEADER = ("# thzisac isi-demo config_sha=0 seed=1\n"
                    "scenario,trial,estimator,true_range_m,est_range_m,est_velocity_mps,"
                    "abs_range_error_m\n")
GOOD_ROWS = ["isi_3840khz,0,tackled,10.0,10.001,5,0.001",
             "isi_3840khz,0,tackled,45.0,45.001,5,0.001",
             "isi_3840khz,0,unaware,10.0,10.01,5,0.01",
             "isi_3840khz,0,unaware,45.0,26.0,5,19.0"]


def _fake_runner(rows):
    def runner(cfg, out_dir):
        Path(out_dir, "isi_demo_estimates.csv").write_text(
            ESTIMATES_HEADER + "\n".join(rows) + "\n")
    return runner


def _fail_ratio(calls):
    checks = [ok for c in calls for _, ok in c.checks]
    return checks.count(False) / len(checks)


def test_fail_ratio_rises_on_out_of_tolerance_row(tmp_path):
    workload, cfg = WORKLOADS["isi-short-cp"], SimpleNamespace(trials=1)
    good = run.run_call(_fake_runner(GOOD_ROWS), workload, cfg, tmp_path / "a", {})
    assert _fail_ratio([good]) == 0.0 and len(good.checks) == 3
    bad_row = "isi_3840khz,0,tackled,45.0,45.2,5,0.2"
    bad = run.run_call(_fake_runner(GOOD_ROWS + [bad_row]), workload, cfg, tmp_path / "b",
                       good.digests)
    failed = [name for name, ok in bad.checks if not ok]
    assert len(failed) == 2   # the 0.2 m row and the changed CSV bytes
    assert _fail_ratio([good, bad]) == pytest.approx(2 / 8)


def test_runner_exception_is_a_failed_check(tmp_path):
    def broken(cfg, out_dir):
        raise RuntimeError("boom")

    call = run.run_call(broken, WORKLOADS["isi-short-cp"], SimpleNamespace(trials=1),
                        tmp_path, {})
    assert [ok for _, ok in call.checks] == [False]


def test_benchmark_json_declares_what_the_runs_print():
    import json
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    observed = dict.fromkeys(["cpu_s", "wall_s", "detected", "detect_total", "tackled_hits",
                              "tackled_total", "failed", "attempted", "traced_trials_per_s",
                              "untraced_trials_per_s"], 0)
    metrics = layers.layer_metrics([], {}, 1, {}, observed)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: layers.unit_of(name) for name in metrics}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


def test_traced_session_spans_the_runner(tmp_path):
    from thzisac.config import ExperimentConfig
    cfg = ExperimentConfig(trials=1)
    cfg.ici_demo.m_subcarriers = 64
    calls, tracer = run.session(MODS, WORKLOADS["ici-high-doppler"], cfg, tmp_path, 0.0, True)
    assert len(calls) == 2 and {s[4] for s in tracer.spans} == {1}
    metrics = run.traced_metrics(tracer, calls, 1, 0)
    assert metrics["trace.coverage_ratio"] > 0.9
    assert metrics["isi_ici.apply_channel_operator.calls"] > 0
    assert MODS["experiments"].run_ici_demo.__name__ == "run_ici_demo"
    assert not hasattr(MODS["isi_ici"].apply_channel_operator, "__wrapped__")
