"""Config sweep: whatever one config field holds, the config is rejected cleanly or runs.

The sweep enumerates every (leaf, value) case of the schema, not a sample. A
leaf is a scalar field, a list field, or a list's first entry; target lists
are also walked into their first entry's fields. Each leaf is set, one at a
time in a shrunk config, to a fixed set of values that does not depend on the
schema's rules (a wrong type, a bool, an empty list, zero, a negative and a
fractional number) and to each bound in the field's metadata and the value
just past it. Every case must be accepted by `config_from_dict` or raise a
one-line `ConfigError`. Each distinct accepted config then runs through the
CLI on every command that reads the leaf, and must exit 0. What it writes may
be undefined only where the config makes it so: a `nan` CSV cell only in a
row with `n_detected` 0, and a null summary value only beside `n_detected` 0
(that row's summary) or under a key whose grid point the config omits.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import shutil
import tempfile
import typing
from pathlib import Path

import yaml

from thzisac.cli import RUNNERS, main as cli_main
from thzisac.config import ConfigError, ExperimentConfig, config_digest, config_from_dict

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
# every leaf spelled out, so that a case only replaces what is already there
BASE = dataclasses.asdict(config_from_dict(TINY))
# the fraction is 1.5, not 0.5: the demos' grids grow as 1/spacing, and a
# 0.5 kHz subcarrier spacing alone takes the ICI demo about 3 s
FIXED = ["x", True, [], 0, -1, 1.5]
# the runners that read each section; seed, trials and frame are read by all six
COMMANDS = {"arrays": list(RUNNERS)[:4], "comm": list(RUNNERS)[:4], "tradeoff": ["tradeoff"],
            "se_sweep": ["se-sweep"], "beam_scan": ["beam-scan"], "mc_rmse": ["mc-rmse"],
            "scene": ["mc-rmse"], "isi_demo": ["isi-demo"], "ici_demo": ["ici-demo"]}
# summary keys that read one grid point, and whether a config holds that point
GRID_POINTS = {
    "vec_fc_eta0_gain_dbi": lambda c: "vec" in c.tradeoff.algorithms and 0.0 in c.tradeoff.eta_grid,
    "vec_fc_eta1_se_bits": lambda c: "vec" in c.tradeoff.algorithms and 1.0 in c.tradeoff.eta_grid,
    "se_drop_eta06_at_m30db_bits": lambda c: ({0.6, 1.0} <= set(c.se_sweep.etas)
                                              and -30 in c.se_sweep.snr_grid_db),
}


def _leaves(cls, path=()):
    """(path, kind, rules) for every leaf of the schema."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind, here = hints[f.name], path + (f.name,)
        if dataclasses.is_dataclass(kind):
            yield from _leaves(kind, here)
        elif typing.get_origin(kind) is list:
            item = typing.get_args(kind)[0]
            yield here, kind, {}
            yield here + (0,), item, f.metadata
            if dataclasses.is_dataclass(item):
                yield from _leaves(item, here + (0,))
        else:
            yield here, kind, f.metadata


def _values(kind, rules) -> list:
    """The fixed values, then each bound in ``rules`` and the value just past it."""
    values = list(FIXED)
    for name, outward in (("ge", -1), ("gt", -1), ("le", 1)):
        if name in rules:
            bound = rules[name]
            past = bound + outward if kind is int else math.nextafter(bound, outward * math.inf)
            values += [bound, past]
    return values + list(rules.get("one_of", ()))


def _with(data, path: tuple, value):
    """``data`` with the leaf at ``path`` replaced; the nodes off the path are shared."""
    if not path:
        return value
    data = copy.copy(data)
    data[path[0]] = _with(data[path[0]], path[1:], value)
    return data


def _cases():
    for path, kind, rules in _leaves(ExperimentConfig):
        for value in _values(kind, rules):
            yield path, value


def _nulls(node, cfg, where=""):
    """Keys under which a summary holds a null that neither legitimate case explains."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        if value is not None:
            yield from _nulls(value, cfg, f"{where}{key}.")
        elif node.get("n_detected") != 0 and GRID_POINTS.get(key, lambda c: True)(cfg):
            yield f"{where}{key}"


def _undefined_outputs(out: Path, cfg) -> list:
    """Where a run's CSVs and summaries are undefined, minus the two legitimate cases."""
    bad = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            header, *rows = path.read_text().splitlines()[1:]
            for line in rows:
                row = dict(zip(header.split(","), line.split(",")))
                if "nan" in row.values() and row.get("n_detected") != "0":
                    bad.append(f"{path.name}: {line}")
        else:
            bad += [f"{path.name}: {key}" for key in _nulls(json.loads(path.read_text()), cfg)]
    return bad


def test_every_config_field_runs_or_exits_two():
    runs = {}
    for path, value in _cases():
        data = _with(BASE, path, value)
        try:
            cfg = config_from_dict(data)
        except ConfigError as exc:
            assert "\n" not in str(exc), (path, value, str(exc))
            continue
        for command in COMMANDS.get(path[0], RUNNERS):
            runs.setdefault((config_digest(cfg), command), (data, cfg, path, value))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
        for (_, command), (data, cfg, path, value) in runs.items():
            config.write_text(yaml.safe_dump(data))
            shutil.rmtree(out, ignore_errors=True)
            err = io.StringIO()
            case = f"{command} with {path} = {value!r}"
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = cli_main([command, "--config", str(config), "--out", str(out)])
            except Exception as exc:
                raise AssertionError(f"{case} raised {exc!r}") from exc
            assert rc == 0, f"{case} exited {rc}: {err.getvalue()}"
            assert not (bad := _undefined_outputs(out, cfg)), f"{case} wrote undefined {bad}"
