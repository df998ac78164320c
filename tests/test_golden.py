"""Frozen runner outputs: every runner at the tiny config must reproduce them.

Strings and ints compare exactly, floats to GOLDEN_RTOL relative. Each CSV's
provenance line and each summary's config_sha are left out, because they hash
the config schema rather than the results.

A change meant to alter results regenerates the files it alters with
    PYTHONPATH=src python tests/test_golden.py [case ...]
(all cases when none is named) and says why in CHANGES.md.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from thzisac import experiments

from test_harness import _tiny_config

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-9
RUNNERS = {
    "tradeoff": experiments.run_tradeoff,
    "se-sweep": experiments.run_se_sweep,
    "beam-scan": experiments.run_beam_scan,
    "mc-rmse": experiments.run_mc_rmse,
    "isi-demo": experiments.run_isi_demo,
    "ici-demo": experiments.run_ici_demo,
}
# at eta in {0, 0.5, 1} VEC's (eta, 1-eta) and SCA's (sqrt(eta), sqrt(1-eta))
# target weightings give the same normalized target; one case at eta = 0.3
# tells them apart
CASES = sorted(RUNNERS) + ["tradeoff-eta0.3"]


def runner_outputs(case: str, out_dir: Path) -> dict:
    """File name -> CSV lines after the provenance line, or summary minus config_sha."""
    name, _, eta = case.partition("-eta")
    cfg = _tiny_config(trials=2)
    if eta:
        cfg.tradeoff.eta_grid = [float(eta)]
    RUNNERS[name](cfg, str(out_dir))
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            outputs[path.name] = path.read_text().splitlines()[1:]
        else:
            summary = json.loads(path.read_text())
            del summary["config_sha"]
            outputs[path.name] = summary
    return outputs


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _cells(outputs: dict) -> dict:
    """CSV lines split into typed cells; summaries as they are."""
    return {name: [[_cell(c) for c in line.split(",")] for line in value]
            if name.endswith(".csv") else value for name, value in outputs.items()}


def assert_matches(got, want, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (got, want))
        assert numbers, f"{where}: {got!r} != golden {want!r}"
        same = (got == want or (math.isnan(got) and math.isnan(want))
                or math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0))
        assert same, f"{where}: {got!r} != golden {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != golden {want!r}"


@pytest.mark.parametrize("case", CASES)
def test_runner_matches_golden(case, tmp_path):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert_matches(_cells(runner_outputs(case, tmp_path)), _cells(want), case)


if __name__ == "__main__":
    wanted = sys.argv[1:] or CASES
    unknown = sorted(set(wanted) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases {unknown}; known: {CASES}")
    GOLDEN.mkdir(exist_ok=True)
    for case in wanted:
        with tempfile.TemporaryDirectory() as tmp:
            data = runner_outputs(case, Path(tmp))
        (GOLDEN / f"{case}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
