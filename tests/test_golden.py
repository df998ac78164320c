"""Frozen runner outputs: every runner at the tiny config must reproduce them.

Strings and ints compare exactly, floats to GOLDEN_RTOL relative. Each CSV's
provenance line and each summary's config_sha are left out, because they hash
the config schema rather than the results.

A change meant to alter results regenerates the files it alters with
    PYTHONPATH=src python tests/test_golden.py [case ...]
(all cases when none is named) and says why in CHANGES.md. A change meant to
keep them reports how far they moved with
    PYTHONPATH=src python tests/test_golden.py --drift [case ...]
which prints each case's worst relative float drift and writes nothing.

Every case must also be well conditioned in its random draws: scaling every
float that experiments.child_rng draws by 1 +- AUDIT_DELTA may move no float
cell by more than MAX_AMPLIFICATION * AUDIT_DELTA relative, so a round-off
change in a kernel cannot move a golden by O(1).
    PYTHONPATH=src python tests/test_golden.py --conditioning [case ...]
prints each case's worst amplification (relative move / delta) and writes nothing.
"""

import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from thzisac import experiments
from thzisac.channel import ModelMismatchWarning
from thzisac.cli import RUNNERS
from thzisac.config import child_rng

from test_harness import _tiny_config

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-9
AUDIT_DELTA = 1e-13
MAX_AMPLIFICATION = 1e7
# case -> (runner, {config section: {field: value}}) for the cases beyond one
# per runner at the tiny config
VARIANTS = {
    # at eta in {0, 0.5, 1} VEC's (eta, 1-eta) and SCA's (sqrt(eta), sqrt(1-eta))
    # target weightings give the same normalized target; eta = 0.3 tells them apart
    "tradeoff-eta0.3": ("tradeoff", {"tradeoff": {"eta_grid": [0.3]}}),
    # P = 2 paths for 4 streams: the SVD design pads with its shared fill
    "tradeoff-p2": ("tradeoff", {"comm": {"num_nlos": 1},
                                 "tradeoff": {"eta_grid": [0.0, 0.3, 0.5, 1.0]}}),
}
CASES = sorted(RUNNERS) + sorted(VARIANTS)


def runner_outputs(case: str, out_dir: Path) -> dict:
    """File name -> CSV lines after the provenance line, or summary minus config_sha."""
    name, edits = VARIANTS.get(case, (case, {}))
    cfg = _tiny_config(trials=2)
    for section, fields in edits.items():
        for key, value in fields.items():
            setattr(getattr(cfg, section), key, value)
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


def worst_drift(got, want, where: str = ""):
    """(largest |got - want| / |want| over all float cells, where it occurs).

    Equal values, NaN pairs included, drift 0. A structural or non-float
    difference, or any change of a zero golden value, drifts inf.
    """
    if isinstance(want, dict) or isinstance(want, list):
        same_shape = (type(got) is type(want) and len(got) == len(want)
                      and (not isinstance(want, dict) or sorted(got) == sorted(want)))
        if not same_shape:
            return math.inf, where
        keys = want if isinstance(want, dict) else range(len(want))
        return max((worst_drift(got[k], want[k], f"{where}[{k!r}]") for k in keys),
                   key=lambda d: d[0], default=(0.0, where))
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if isinstance(want, float) and numbers:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return 0.0, where
        return (abs(got - want) / abs(want) if want else math.inf), where
    return (0.0 if type(got) is type(want) and got == want else math.inf), where


class _ScaledDraws:
    """A Generator whose float draws come out scaled by 1 + delta; other draws are its own."""

    def __init__(self, rng: np.random.Generator, delta: float):
        self._rng, self._scale = rng, 1.0 + delta

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def scaled(*args, **kwargs):
            out = draw(*args, **kwargs)
            return out * self._scale if np.asarray(out).dtype.kind == "f" else out
        return scaled


def worst_amplification(case: str, tmp: Path):
    """(largest relative float-cell move / AUDIT_DELTA, where) when every float
    that experiments.child_rng draws is scaled by 1 + AUDIT_DELTA and by 1 - AUDIT_DELTA."""
    worst = (0.0, "")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelMismatchWarning)  # asserted in the golden test
        base = _cells(runner_outputs(case, tmp / "base"))
        for sign in (1, -1):
            scaled = lambda *key, d=sign * AUDIT_DELTA: _ScaledDraws(child_rng(*key), d)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(experiments, "child_rng", scaled)
                moved, where = worst_drift(_cells(runner_outputs(case, tmp / f"{sign:+}")), base)
            worst = max(worst, (moved / AUDIT_DELTA, where), key=lambda w: w[0])
    return worst


def _golden(case: str) -> dict:
    return json.loads((GOLDEN / f"{case}.json").read_text())


@pytest.mark.parametrize("case", CASES)
def test_runner_matches_golden(case, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outputs = runner_outputs(case, tmp_path)
    # the padded case's SVD design warns once per channel draw; no other case warns
    want = (2 * ["channel rank below stream count; zero singular values kept"]
            if case == "tradeoff-p2" else [])
    assert [str(w.message) for w in caught] == want
    assert all(w.category is ModelMismatchWarning for w in caught)
    assert_matches(_cells(outputs), _cells(_golden(case)), case)


@pytest.mark.parametrize("case", CASES)
def test_runner_is_well_conditioned_in_its_draws(case, tmp_path):
    amplification, where = worst_amplification(case, tmp_path)
    assert amplification <= MAX_AMPLIFICATION, f"{case}: {amplification:.3g} at {where}"


def test_scaled_draws_scale_floats_only():
    draws = _ScaledDraws(np.random.default_rng(3), 0.5)
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(draws.standard_normal(4), 1.5 * rng.standard_normal(4))
    assert draws.uniform(0.0, 2.0) == 1.5 * rng.uniform(0.0, 2.0)
    np.testing.assert_array_equal(draws.integers(0, 9, size=5), rng.integers(0, 9, size=5))


def test_worst_drift_measures_float_cells():
    want = _cells(_golden("tradeoff"))
    assert worst_drift(want, want)[0] == 0.0
    got = json.loads(json.dumps(want))
    got["tradeoff_summary.json"]["digital_se_bits"] *= 1 + 3e-12
    drift, where = worst_drift(got, want)
    assert math.isclose(drift, 3e-12, rel_tol=1e-3) and "digital_se_bits" in where
    got["tradeoff.csv"].pop()
    assert worst_drift(got, want)[0] == math.inf


def test_drift_report_of_unchanged_case_is_zero(capsys):
    # ici-demo does not touch precoding; its outputs equal the frozen file
    before = (GOLDEN / "ici-demo.json").stat().st_mtime_ns
    main(["--drift", "ici-demo"])
    assert capsys.readouterr().out.split() == ["ici-demo", "0"]
    assert (GOLDEN / "ici-demo.json").stat().st_mtime_ns == before


def test_conditioning_report_prints_and_writes_nothing(capsys):
    before = (GOLDEN / "tradeoff-eta0.3.json").stat().st_mtime_ns
    main(["--conditioning", "tradeoff-eta0.3"])
    case, amplification, *_ = capsys.readouterr().out.split()
    assert case == "tradeoff-eta0.3" and 0.0 <= float(amplification) <= MAX_AMPLIFICATION
    assert (GOLDEN / "tradeoff-eta0.3.json").stat().st_mtime_ns == before


def main(argv):
    mode = argv[0] if argv[:1] in (["--drift"], ["--conditioning"]) else None
    wanted = argv[mode is not None:] or CASES
    unknown = sorted(set(wanted) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases {unknown}; known: {CASES}")
    GOLDEN.mkdir(exist_ok=True)
    for case in wanted:
        with tempfile.TemporaryDirectory() as tmp:
            if mode == "--conditioning":
                amplification, where = worst_amplification(case, Path(tmp))
                print(f"{case} {amplification:.3g}" + (f" {where}" if amplification else ""))
                continue
            data = runner_outputs(case, Path(tmp))
        if mode == "--drift":
            worst, where = worst_drift(_cells(data), _cells(_golden(case)))
            print(f"{case} {worst:.3g}" + (f" {where}" if worst else ""))
            continue
        (GOLDEN / f"{case}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
