"""Experiment configuration: dataclass schema, strict YAML loading, RNG streams.

Config keys carry explicit units in their names (delta_f_khz, range_m, ...).
Unknown keys are rejected with the full offending path, and a key given twice
is rejected too, so silent typos cannot skew a reproduction run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .channel import delay_of_range, doppler_of_velocity, range_of_delay
from .geometry import UpaGeometry
from .precoding import SwitchMatrix, default_switch_pattern
from .waveform import FrameConfig


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _field(default, **rules):
    """Schema field with its single-field rules, checked as the YAML is read.

    ``ge``, ``gt`` and ``le`` bound a number, ``one_of`` lists the allowed
    values and ``nonempty`` rejects an empty list. A list field applies all but
    ``nonempty`` to each entry. A callable default is a default factory.
    """
    if callable(default):
        return field(default_factory=default, metadata=rules)
    return field(default=default, metadata=rules)


_AZIMUTH = {"ge": -90, "le": 90}  # the azimuth convention of geometry.py
_ETA = {"ge": 0, "le": 1}


@dataclass
class FrameSpec:
    m_subcarriers: int = 64
    n_symbols: int = 16
    q_slots: int = 32
    delta_f_khz: float = 1920.0
    fc_ghz: float = 300.0
    cp_fraction: float = _field(0.25, ge=0, le=1)

    def to_frame(self, m_subcarriers: int = None, delta_f_khz: float = None) -> FrameConfig:
        m_sc = self.m_subcarriers if m_subcarriers is None else m_subcarriers
        df = (self.delta_f_khz if delta_f_khz is None else delta_f_khz) * 1e3
        return FrameConfig(m_subcarriers=m_sc, n_symbols=self.n_symbols,
                           q_slots=self.q_slots, delta_f=df, fc=self.fc_ghz * 1e9,
                           m_cp=int(round(m_sc * self.cp_fraction)))


@dataclass
class ArraySpec:
    w_tx: int = _field(32, ge=1)
    l_tx: int = _field(32, ge=1)
    w_rx: int = _field(32, ge=1)
    l_rx: int = _field(32, ge=1)
    n_rf_tx: int = _field(4, ge=1)
    n_rf_rx: int = _field(4, ge=1)
    n_streams: int = _field(4, ge=1)
    n_closed_rx: int = 4

    def tx_geom(self) -> UpaGeometry:
        return UpaGeometry(self.w_tx, self.l_tx)

    def rx_geom(self) -> UpaGeometry:
        return UpaGeometry(self.w_rx, self.l_rx)

    def tx_switch(self, n_closed: int) -> SwitchMatrix:
        k_t = self.tx_geom().n_elements // self.n_rf_tx
        return default_switch_pattern(self.n_rf_tx, n_closed, k_t)

    def rx_switch(self) -> SwitchMatrix:
        k_r = self.rx_geom().n_elements // self.n_rf_rx
        return default_switch_pattern(self.n_rf_rx, self.n_closed_rx, k_r)


@dataclass
class CommSpec:
    num_nlos: int = 4
    nlos_extra_loss_db: float = 15.0
    path_spread_deg: float = _field(60.0, ge=0)
    los_range_m: float = 10.0


@dataclass
class TargetSpec:
    range_m: float = _field(15.0, gt=0)
    velocity_mps: float = 20.0
    azimuth_deg: float = _field(70.0, **_AZIMUTH)
    snr_db: float = 0.0


@dataclass
class SceneSpec:
    noise_power: float = _field(1.0, gt=0)
    targets: list[TargetSpec] = _field(lambda: [TargetSpec()], nonempty=True)


@dataclass
class TradeoffSpec:
    eta_grid: list[float] = _field(lambda: [round(0.1 * k, 1) for k in range(11)],
                                   nonempty=True, **_ETA)
    snr_db: float = -20.0
    structures: list[int] = _field(lambda: [4, 8, 16], nonempty=True)
    sensing_azimuth_deg: float = _field(-65.0, **_AZIMUTH)
    algorithms: list[str] = _field(lambda: ["vec", "sca"], one_of=("vec", "sca"))


@dataclass
class SeSweepSpec:
    snr_grid_db: list[float] = _field(lambda: [-40, -35, -30, -25, -20, -15, -10],
                                      nonempty=True)
    etas: list[float] = _field(lambda: [0.6, 1.0], **_ETA)
    structures: list[int] = _field(lambda: [4, 8, 16], nonempty=True)
    sensing_azimuth_deg: float = _field(-65.0, **_AZIMUTH)


@dataclass
class BeamScanSpec:
    slots: list[int] = _field(lambda: [3, 4, 5, 6], nonempty=True, ge=1)
    eta: float = _field(0.5, **_ETA)
    n_closed: int = 16
    angle_step_deg: float = _field(0.1, ge=0.01)


@dataclass
class McRmseSpec:
    eta: float = _field(0.4, **_ETA)
    snr_grid_db: list[float] = _field(lambda: [-10.0, -5.0, 0.0], nonempty=True)
    music_step_deg: float = _field(0.01, ge=0.001)
    n_closed: int = 4
    delta_f_khz: float = 3840.0
    angle_gate_deg: float = _field(1.0, gt=0)
    range_gate_m: float = _field(1.0, gt=0)
    velocity_gate_mps: float = _field(5.0, gt=0)


@dataclass
class IsiDemoSpec:
    m_subcarriers: int = 1024
    delta_f_khz_control: float = 480.0
    delta_f_khz_isi: float = 3840.0
    targets: list[TargetSpec] = _field(lambda: [
        TargetSpec(range_m=10.0, velocity_mps=5.0, snr_db=-10.0),
        TargetSpec(range_m=45.0, velocity_mps=5.0, snr_db=-10.0)], nonempty=True)
    max_range_m: float = 55.0
    max_speed_mps: float = _field(30.0, ge=0)


@dataclass
class IciDemoSpec:
    m_subcarriers: int = 1024
    delta_f_khz: float = 120.0
    velocity_control_mps: float = 5.0
    velocity_ici_mps: float = 50.0
    targets: list[TargetSpec] = _field(lambda: [
        TargetSpec(range_m=10.0, velocity_mps=50.0, snr_db=-10.0),
        TargetSpec(range_m=20.0, velocity_mps=50.0, snr_db=-15.0),
        TargetSpec(range_m=30.0, velocity_mps=50.0, snr_db=20.0)], nonempty=True)
    max_range_m: float = 40.0
    max_speed_mps: float = _field(55.0, ge=0)


@dataclass
class ExperimentConfig:
    seed: int = _field(20240901, ge=0)
    trials: int = _field(20, ge=1)
    frame: FrameSpec = field(default_factory=FrameSpec)
    arrays: ArraySpec = field(default_factory=ArraySpec)
    comm: CommSpec = field(default_factory=CommSpec)
    scene: SceneSpec = field(default_factory=SceneSpec)
    tradeoff: TradeoffSpec = field(default_factory=TradeoffSpec)
    se_sweep: SeSweepSpec = field(default_factory=SeSweepSpec)
    beam_scan: BeamScanSpec = field(default_factory=BeamScanSpec)
    mc_rmse: McRmseSpec = field(default_factory=McRmseSpec)
    isi_demo: IsiDemoSpec = field(default_factory=IsiDemoSpec)
    ici_demo: IciDemoSpec = field(default_factory=IciDemoSpec)


_type_hints = functools.cache(typing.get_type_hints)


def _build(cls, data, path: str, problems: list):
    """``cls`` from YAML data; each unknown key, wrong type or broken rule joins ``problems``."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        problems.append(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
        return None
    known = {f.name: f for f in fields(cls)}
    unknown = [f"{path}.{k}" if path else k for k in data if k not in known]
    if unknown:
        problems.append("unknown config keys: " + ", ".join(sorted(unknown)))
    hints = _type_hints(cls)
    kwargs = {}
    for name, spec in known.items():
        if name in data:
            here = f"{path}.{name}" if path else name
            kwargs[name] = _leaf(hints[name], data[name], spec.metadata, here, problems)
    return cls(**kwargs)


def _leaf(kind, value, rules, here: str, problems: list):
    """``value`` read as the schema type ``kind``, checked against its field's ``rules``."""
    if dataclasses.is_dataclass(kind):
        return _build(kind, value, here, problems)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            problems.append(f"{here} must be a list, got {value!r}")
            return value
        if rules.get("nonempty") and not value:
            problems.append(f"{here} must not be empty")
        item = typing.get_args(kind)[0]
        return [_leaf(item, v, rules, f"{here}[{i}]", problems) for i, v in enumerate(value)]
    ge, gt, le = rules.get("ge"), rules.get("gt"), rules.get("le")
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        noun = {int: "an integer", float: "a number", str: "a string"}[kind]
        problems.append(f"{here} must be {noun}, got {value!r}")
    elif ge is not None and not value >= ge:
        problems.append(f"{here} must be >= {ge}, got {value}")
    elif gt is not None and not value > gt:
        problems.append(f"{here} must be > {gt}, got {value}")
    elif le is not None and not value <= le:
        problems.append(f"{here} must be <= {le}, got {value}")
    elif "one_of" in rules and value not in rules["one_of"]:
        problems.append(f"{here} must be one of {rules['one_of']}, got {value!r}")
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    problems = []
    cfg = _build(ExperimentConfig, data, "", problems)
    # the cross-field checks compare numbers and would fail on a leaf with a problem
    problems = problems or _validate(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def _validate(cfg: ExperimentConfig) -> list:
    """Problems that involve two or more fields, each of which meets its own rules."""
    arr = cfg.arrays
    problems = []
    if arr.tx_geom().n_elements % arr.n_rf_tx:
        problems.append("arrays: transmit elements not divisible by n_rf_tx")
    if arr.rx_geom().n_elements % arr.n_rf_rx:
        problems.append("arrays: receive elements not divisible by n_rf_rx")
    if arr.n_streams > arr.n_rf_tx:
        problems.append("arrays: n_streams exceeds n_rf_tx")
    for name, counts, n_rf in (("tradeoff", cfg.tradeoff.structures, arr.n_rf_tx),
                               ("se_sweep", cfg.se_sweep.structures, arr.n_rf_tx),
                               ("beam_scan", [cfg.beam_scan.n_closed], arr.n_rf_tx),
                               ("mc_rmse", [cfg.mc_rmse.n_closed], arr.n_rf_tx),
                               ("arrays.n_closed_rx", [arr.n_closed_rx], arr.n_rf_rx)):
        for n_c in counts:
            if not n_rf <= n_c <= n_rf ** 2:
                problems.append(f"{name}: closed-switch count {n_c} outside [{n_rf}, {n_rf ** 2}]")
    slots = [q for q in cfg.beam_scan.slots if q > arr.w_tx]
    if slots:
        problems.append(f"beam_scan: slots {slots} beyond arrays.w_tx = {arr.w_tx}")
    for name, df_khz in (("frame", cfg.frame.delta_f_khz), ("mc_rmse", cfg.mc_rmse.delta_f_khz)):
        try:
            cfg.frame.to_frame(delta_f_khz=df_khz)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return problems + _range_problems(cfg)


def _range_problems(cfg: ExperimentConfig) -> list:
    """ISI/ICI demo frames that cannot be built, or search boxes their frames cannot hold.

    The range must fit in the shortest slot, and the Doppler bound of the
    speed must stay below every subcarrier spacing, the domain of the ISI/ICI
    model (isi_ici_rx warns at |nu| >= delta_f).
    """
    problems = []
    for name, spec, spacings in (
            ("isi_demo", cfg.isi_demo, (cfg.isi_demo.delta_f_khz_control,
                                        cfg.isi_demo.delta_f_khz_isi)),
            ("ici_demo", cfg.ici_demo, (cfg.ici_demo.delta_f_khz,))):
        try:
            t_slot = min(cfg.frame.to_frame(spec.m_subcarriers, df).t_slot for df in spacings)
            df_khz = max(spacings)
            if delay_of_range(spec.max_range_m) > t_slot:
                problems.append(f"{name}: max_range_m {spec.max_range_m} beyond the "
                                f"{range_of_delay(t_slot):.4g} m one slot reaches "
                                f"at {df_khz} kHz")
            nu_max = doppler_of_velocity(spec.max_speed_mps, cfg.frame.fc_ghz * 1e9)
            if nu_max >= 1e3 * min(spacings):
                problems.append(f"{name}: max_speed_mps {spec.max_speed_mps} gives Doppler "
                                f"{nu_max / 1e3:.4g} kHz, not below the {min(spacings)} kHz "
                                "subcarrier spacing")
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return problems


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping key given twice."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                continue  # the base class rejects a non-scalar key as unhashable
            key = (key_node.tag, key_node.value)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key_node.value!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str = None, overrides: dict = None) -> ExperimentConfig:
    """Load YAML config (defaults when path is None) with CLI overrides, then validate."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = yaml.load(fh, Loader=_StrictLoader) or {}
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigError(" ".join(str(exc).split())) from exc
    if isinstance(data, dict):
        data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return config_from_dict(data)


def config_digest(cfg: ExperimentConfig) -> str:
    """Short stable hash of the full configuration for output provenance."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


_EXPERIMENT_IDS = {"tradeoff": 1, "se-sweep": 2, "beam-scan": 3, "mc-rmse": 4,
                   "isi-demo": 5, "ici-demo": 6, "selftest": 7}


def child_rng(seed: int, experiment: str, *indices: int) -> np.random.Generator:
    """Deterministic per-(experiment, trial) stream from the root seed.

    Streams are independent of trial count, so adding trials never reshuffles
    earlier ones.
    """
    key = (_EXPERIMENT_IDS[experiment],) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
