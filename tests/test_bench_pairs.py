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
                    "setup_s": {"value": 1.0, "unit": "s"},
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
    summary = bench_pairs.summarize(runs, {"trials_per_s": "higher", "peak_rss_mb": "lower"},
                                    {"trials_per_s": 0.25, "peak_rss_mb": 0.05})["w"]
    rate = summary["trials_per_s"]
    assert rate["pairs"] == 5  # the pair whose change run failed is left out
    assert rate["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert rate["change_q1_median_q3"] == [2.0, 3.0, 6.0]
    assert rate["change_over_parent_median"] == 1.0
    assert rate["change_better_in_pairs"] == 4
    assert rate["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert summary["peak_rss_mb"]["change_better_in_pairs"] == 5  # lower is better
    # the parent's rates spread 2.0-4.0 around 3.0, wider than 25%
    assert rate["verdict"] == "unresolved"
    assert summary["peak_rss_mb"]["verdict"] == "unchanged"  # every change run is better
    assert summary["failed_checks_parent_change"] == [1, 0]
    assert summary["rc_nonzero"] == 1


_PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


@pytest.mark.parametrize("change, direction, bound, want", [
    # 9 of 10 pairs better, median gap 1.0 past the parent's q3 - q1 of 0.175
    ([11.0] * 9 + [9.0], "higher", 0.25, "gain"),
    ([9.0] * 9 + [11.0], "lower", 0.05, "gain"),
    ([11.0] * 8 + [9.0] * 2, "higher", 0.25, "unchanged"),  # 8 of 10 pairs
    ([p + 0.05 for p in _PARENT], "higher", 0.25, "unchanged"),  # 10 of 10, gap 0.05
    ([7.0] * 10, "higher", 0.25, "regression"),
    ([10.6] * 10, "lower", 0.05, "regression"),
    ([10.4] * 10, "lower", 0.05, "unchanged"),
    # the parent's q3 - q1 of 0.175 exceeds a 1% bound, so "no worse" cannot be told
    ([10.0] * 10, "higher", 0.01, "unresolved"),
    ([10.31] * 5, "higher", 0.01, "unchanged"),  # every change run beats every parent run
])
def test_verdict_follows_the_pair_rules(change, direction, bound, want):
    parent = _PARENT[:len(change)]
    assert bench_pairs.verdict(parent, change, direction, bound) == want


@pytest.mark.parametrize("values, want", [([3.0], [3.0, 3.0, 3.0]),
                                          ([1.0, 2.0], [1.25, 1.5, 1.75])])
def test_quartiles_interpolate_like_numpy(values, want):
    assert bench_pairs.quartiles(values) == want


def _traced(side, metrics, rc=0):
    result = None if rc else json.dumps({
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}})
    return {"side": side, "workload": "w", "seed": 100, "rc": rc, "env": None,
            "result": result}


def test_layer_shifts_pair_each_metric_across_sides():
    traced = [_traced("parent", {"a.s": 0.5, "b.s": 0.25, "gone.s": 0.125}),
              _traced("change", {"a.s": 0.25, "b.s": 0.25, "new.s": 1.0}),
              {**_traced("parent", {"a.s": 1.0}), "workload": "v"},
              {**_traced("change", {}, rc=1), "workload": "v"}]
    shifts = bench_pairs.layer_shifts(traced)
    assert list(shifts) == ["w", "v"]
    assert shifts["w"]["a.s"] == {"parent": 0.5, "change": 0.25, "shift": -0.25}
    assert shifts["w"]["b.s"]["shift"] == 0.0
    assert shifts["w"]["gone.s"] == {"parent": 0.125, "change": None, "shift": None}
    assert shifts["w"]["new.s"] == {"parent": None, "change": 1.0, "shift": None}
    # a traced run without a result line leaves its side empty
    assert shifts["v"] == {"a.s": {"parent": 1.0, "change": None, "shift": None}}


def test_main_traces_each_side_once_per_workload(monkeypatch, tmp_path):
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, workload, seed, trace))
        if trace:
            return _traced(tree.name, {"x.s": 1.0 if tree.name == "parent" else 0.75})
        return _run(tree.name, 0, 2.0 if tree.name == "change" else 1.0, 50.0)

    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: rev)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--seeds", "7", "2",
                             "--workloads", "w", "--out", str(out)]) == 0
    assert [c for c in calls if c[3]] == [("parent", "w", 7, 1), ("change", "w", 7, 1)]
    assert len([c for c in calls if not c[3]]) == 4
    report = json.loads(out.read_text())
    assert report["layers"]["w"]["x.s"]["shift"] == -0.25
    assert report["summary"]["w"]["trials_per_s"]["change_over_parent_median"] == 2.0


def test_main_records_each_side_source_lines(monkeypatch, tmp_path):
    def fake_unpack(rev, dest):
        package = dest / "src" / "thzisac"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * (10 if rev == "p" else 7))
        (package / "b.py").write_text("y = 2\nz = 3")  # wc -l counts the one newline
        (package / "notes.txt").write_text("\n" * 50)
        return rev

    monkeypatch.setattr(bench_pairs, "unpack", fake_unpack)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds, trace=0:
                        _run(tree.name, 0, 1.0, 50.0))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--seeds", "7", "1",
                             "--workloads", "w", "--out", str(out),
                             "--work-dir", str(tmp_path)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] == {"parent": 11, "change": 8, "shift": -3}


def test_main_creates_a_missing_work_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: rev)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds, trace=0:
                        _run(tree.name, 0, 1.0, 50.0))
    work = tmp_path / "not" / "yet"
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--seeds", "7", "1",
                             "--workloads", "w", "--out", str(out),
                             "--work-dir", str(work)]) == 0
    assert work.is_dir() and out.exists()


def test_main_rejects_a_work_dir_it_cannot_make(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a, **k: pytest.fail("ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "p", "--change", "c", "--seeds", "7", "1",
                          "--out", str(tmp_path / "BENCH.json"),
                          "--work-dir", str(blocker / "sub")])
    assert exc.value.code == 2
    assert "--work-dir" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/BENCH.json", "file/BENCH.json", "a_dir"])
def test_main_rejects_an_out_it_cannot_write_before_any_run(monkeypatch, tmp_path, capsys, out):
    # the report is written last, so a bad --out must stop the bench before its runs
    monkeypatch.setattr(bench_pairs, "unpack", lambda *a: pytest.fail("unpacked"))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a, **k: pytest.fail("ran"))
    (tmp_path / "file").write_text("")
    (tmp_path / "a_dir").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "p", "--change", "c", "--seeds", "7", "1",
                          "--out", str(tmp_path / out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"error: --out {tmp_path / out}: " + {
        "missing/BENCH.json": f"no directory {tmp_path / 'missing'}",
        "file/BENCH.json": f"no directory {tmp_path / 'file'}",
        "a_dir": "is a directory"}[out])
