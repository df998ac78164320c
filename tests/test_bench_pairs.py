"""The pair statistics of scripts/bench_pairs.py, on made-up run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(side, pair, rate, rss, failed=0, rc=0):
    result = None if rc else json.dumps({
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {"trials_per_s": {"value": rate, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})
    return {"side": side, "workload": "w", "seed": 100 + pair, "pair": pair,
            "first_in_pair": (side == "parent") == (pair % 2 == 0),
            "rc": rc, "env": None, "result": result}


def test_summary_reads_each_metric_in_its_own_direction():
    rates = [(1.0, 2.0), (2.0, 3.0), (3.0, 1.0), (4.0, 6.0), (5.0, 8.0)]
    runs = []
    for pair, (parent, change) in enumerate(rates):
        runs += [_run("parent", pair, parent, 50.0, failed=pair == 1),
                 _run("change", pair, change, 50.0 - change)]
    runs += [_run("parent", 5, 9.0, 50.0), _run("change", 5, 0.0, 0.0, rc=1)]
    summary = bench_pairs.summarize(runs, {"trials_per_s": "higher",
                                           "peak_rss_mb": "lower"})["w"]
    rate = summary["trials_per_s"]
    assert rate["pairs"] == 5  # the pair whose change run failed is left out
    assert rate["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert rate["change_q1_median_q3"] == [2.0, 3.0, 6.0]
    assert rate["change_over_parent_median"] == 1.0
    assert rate["change_better_in_pairs"] == 4
    assert rate["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert summary["peak_rss_mb"]["change_better_in_pairs"] == 5  # lower is better
    assert summary["failed_checks_parent_change"] == [1, 0]
    assert summary["rc_nonzero"] == 1


@pytest.mark.parametrize("values, want", [([3.0], [3.0, 3.0, 3.0]),
                                          ([1.0, 2.0], [1.25, 1.5, 1.75])])
def test_quartiles_interpolate_like_numpy(values, want):
    assert bench_pairs.quartiles(values) == want
