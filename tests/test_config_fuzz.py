"""Config fuzzing: whatever a config field holds, a run exits 0 or exits 2 with one line.

Each example takes a shrunk config, replaces one schema field with a valid
value (the shrunk config's own), a boundary value, a wrong type, an empty
list, zero or a negative number, and runs one CLI command that reads that
field. An exception escaping the CLI, an exit code other than 0 and 2, or a
config error that is not one `config error: ...` line fails the example.
"""

import contextlib
import copy
import dataclasses
import io
import tempfile
import typing
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thzisac.cli import main as cli_main
from thzisac.config import ExperimentConfig, TargetSpec

# the shrunk config of test_harness._tiny_config at one trial, as YAML data
TINY = {
    "seed": 11, "trials": 1,
    "arrays": {"w_tx": 8, "l_tx": 8, "w_rx": 8, "l_rx": 8},
    "frame": {"m_subcarriers": 16, "n_symbols": 8},
    "comm": {"path_spread_deg": 30.0},
    "tradeoff": {"eta_grid": [0.0, 0.5, 1.0], "structures": [4]},
    "se_sweep": {"snr_grid_db": [-30, -20], "structures": [4]},
    "beam_scan": {"slots": [3, 4], "angle_step_deg": 0.5},
    "mc_rmse": {"snr_grid_db": [10.0], "music_step_deg": 0.05},
    "isi_demo": {"m_subcarriers": 128, "max_range_m": 30.0,
                 "targets": [{"range_m": 12.0, "velocity_mps": 5.0, "snr_db": -10.0}]},
    "ici_demo": {"m_subcarriers": 128, "max_range_m": 35.0,
                 "targets": [{"range_m": 10.0, "velocity_mps": 50.0, "snr_db": -10.0},
                             {"range_m": 20.0, "velocity_mps": 50.0, "snr_db": -15.0}]},
}
KEEP = object()  # draw the shrunk config's own, valid value
VALUES = {
    int: [KEEP, 1, "x", [], 0, -1],
    float: [KEEP, 1.0, "x", [], 0, -1],
    list[int]: [KEEP, [1], ["x"], "x", [], [0], [-1]],
    list[float]: [KEEP, [1.0], ["x"], "x", [], [0], [-1]],
    list: [KEEP, ["vec"], ["x"], "x", [], [0], [-1]],
    "targets": [KEEP, [{}], ["x"], "x", [], [0], [-1]],
}
# the commands that read each section; the rest are read by every runner
COMMANDS = {"tradeoff": ["tradeoff"], "se_sweep": ["se-sweep"], "beam_scan": ["beam-scan"],
            "mc_rmse": ["mc-rmse"], "scene": ["mc-rmse"], "isi_demo": ["isi-demo"],
            "ici_demo": ["ici-demo"]}
ALL_COMMANDS = ["tradeoff", "se-sweep", "beam-scan", "mc-rmse", "isi-demo", "ici-demo",
                "selftest"]


def _fields(cls, path=()):
    """(path, kind) for every leaf of the schema; target lists also by their first entry."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        here = path + (f.name,)
        if dataclasses.is_dataclass(f.default_factory):
            yield from _fields(f.default_factory, here)
        elif f.name == "targets":
            yield here, "targets"
            for sub, kind in _fields(TargetSpec):
                yield here + (0,) + sub, kind
        else:
            yield here, hints[f.name]


FIELDS = list(_fields(ExperimentConfig))


def _with(data: dict, path: tuple, value) -> dict:
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        if isinstance(key, str) and key not in node:
            node[key] = [{}] if key == "targets" else {}
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def _cases(draw):
    path, kind = draw(st.sampled_from(FIELDS))
    value = draw(st.sampled_from(VALUES[kind]))
    command = draw(st.sampled_from(COMMANDS.get(path[0], ALL_COMMANDS)))
    return path, value, command


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_every_config_field_runs_or_exits_two(case):
    path, value, command = case
    data = TINY if value is KEEP else _with(TINY, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 2), f"{command} exited {rc} with {path} = {value!r}"
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
