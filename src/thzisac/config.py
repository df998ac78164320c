"""Experiment configuration: dataclass schema, strict YAML loading, RNG streams.

Config keys carry explicit units in their names (delta_f_khz, range_m, ...).
Unknown keys are rejected with the full offending path so silent typos cannot
skew a reproduction run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .channel import delay_of_range, range_of_delay
from .geometry import UpaGeometry
from .precoding import SwitchMatrix, default_switch_pattern
from .waveform import FrameConfig


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass
class FrameSpec:
    m_subcarriers: int = 64
    n_symbols: int = 16
    q_slots: int = 32
    delta_f_khz: float = 1920.0
    fc_ghz: float = 300.0
    cp_fraction: float = 0.25

    def to_frame(self, m_subcarriers: int = None, delta_f_khz: float = None) -> FrameConfig:
        m_sc = self.m_subcarriers if m_subcarriers is None else m_subcarriers
        df = (self.delta_f_khz if delta_f_khz is None else delta_f_khz) * 1e3
        return FrameConfig(m_subcarriers=m_sc, n_symbols=self.n_symbols,
                           q_slots=self.q_slots, delta_f=df, fc=self.fc_ghz * 1e9,
                           m_cp=int(round(m_sc * self.cp_fraction)))


@dataclass
class ArraySpec:
    w_tx: int = 32
    l_tx: int = 32
    w_rx: int = 32
    l_rx: int = 32
    n_rf_tx: int = 4
    n_rf_rx: int = 4
    n_streams: int = 4
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
    path_spread_deg: float = 60.0
    los_range_m: float = 10.0


@dataclass
class TargetSpec:
    range_m: float = 15.0
    velocity_mps: float = 20.0
    azimuth_deg: float = 70.0
    snr_db: float = 0.0


@dataclass
class SceneSpec:
    noise_power: float = 1.0
    targets: list = field(default_factory=lambda: [TargetSpec()])


@dataclass
class TradeoffSpec:
    eta_grid: list = field(default_factory=lambda: [round(0.1 * k, 1) for k in range(11)])
    snr_db: float = -20.0
    structures: list = field(default_factory=lambda: [4, 8, 16])
    sensing_azimuth_deg: float = -65.0
    algorithms: list = field(default_factory=lambda: ["vec", "sca"])


@dataclass
class SeSweepSpec:
    snr_grid_db: list = field(default_factory=lambda: [-40, -35, -30, -25, -20, -15, -10])
    etas: list = field(default_factory=lambda: [0.6, 1.0])
    structures: list = field(default_factory=lambda: [4, 8, 16])
    sensing_azimuth_deg: float = -65.0


@dataclass
class BeamScanSpec:
    slots: list = field(default_factory=lambda: [3, 4, 5, 6])
    eta: float = 0.5
    n_closed: int = 16
    angle_step_deg: float = 0.1


@dataclass
class McRmseSpec:
    eta: float = 0.4
    snr_grid_db: list = field(default_factory=lambda: [-10.0, -5.0, 0.0])
    music_step_deg: float = 0.01
    n_closed: int = 4
    delta_f_khz: float = 3840.0
    angle_gate_deg: float = 1.0
    range_gate_m: float = 1.0
    velocity_gate_mps: float = 5.0


@dataclass
class IsiDemoSpec:
    m_subcarriers: int = 1024
    delta_f_khz_control: float = 480.0
    delta_f_khz_isi: float = 3840.0
    targets: list = field(default_factory=lambda: [
        TargetSpec(range_m=10.0, velocity_mps=5.0, snr_db=-10.0),
        TargetSpec(range_m=45.0, velocity_mps=5.0, snr_db=-10.0)])
    max_range_m: float = 55.0
    max_speed_mps: float = 30.0


@dataclass
class IciDemoSpec:
    m_subcarriers: int = 1024
    delta_f_khz: float = 120.0
    velocity_control_mps: float = 5.0
    velocity_ici_mps: float = 50.0
    targets: list = field(default_factory=lambda: [
        TargetSpec(range_m=10.0, velocity_mps=50.0, snr_db=-10.0),
        TargetSpec(range_m=20.0, velocity_mps=50.0, snr_db=-15.0),
        TargetSpec(range_m=30.0, velocity_mps=50.0, snr_db=20.0)])
    max_range_m: float = 40.0
    max_speed_mps: float = 55.0


@dataclass
class ExperimentConfig:
    seed: int = 20240901
    trials: int = 20
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


_LIST_FIELDS = {"targets": TargetSpec}


def _build(cls, data, path: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = [f"{path}.{k}" if path else k for k in data if k not in known]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    kwargs = {}
    for name, spec in known.items():
        if name not in data:
            continue
        value = data[name]
        here = f"{path}.{name}" if path else name
        if name in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"{here}: expected a list")
            kwargs[name] = [_build(_LIST_FIELDS[name], v, f"{here}[{i}]")
                            for i, v in enumerate(value)]
        elif dataclasses.is_dataclass(spec.default_factory):
            kwargs[name] = _build(spec.default_factory, value, here)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, data, "")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    problems = []
    arr = cfg.arrays
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
    unknown = [a for a in cfg.tradeoff.algorithms if a not in ("vec", "sca")]
    if unknown:
        problems.append(f"tradeoff: unknown algorithms {unknown}, expected 'vec' or 'sca'")
    slots = [q for q in cfg.beam_scan.slots if not 1 <= q <= arr.w_tx]
    if slots:
        problems.append(f"beam_scan: slots {slots} outside 1..{arr.w_tx}")
    for name, step in (("beam_scan.angle_step_deg", cfg.beam_scan.angle_step_deg),
                       ("mc_rmse.music_step_deg", cfg.mc_rmse.music_step_deg)):
        if not step > 0:
            problems.append(f"{name} must be > 0, got {step}")
    if not 0.0 <= cfg.frame.cp_fraction <= 1.0:
        problems.append(f"frame: cp_fraction {cfg.frame.cp_fraction} outside [0, 1]")
    else:
        problems.extend(_range_problems(cfg))
    for name, low in (("trials", 1), ("seed", 0)):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            problems.append(f"{name} must be an integer, got {value!r}")
        elif value < low:
            problems.append(f"{name} must be >= {low}")
    for name, etas in (("tradeoff", cfg.tradeoff.eta_grid), ("se_sweep", cfg.se_sweep.etas),
                       ("beam_scan", [cfg.beam_scan.eta]), ("mc_rmse", [cfg.mc_rmse.eta])):
        for eta in etas:
            if not 0.0 <= eta <= 1.0:
                problems.append(f"{name}: eta {eta} outside [0, 1]")
    if problems:
        raise ConfigError("; ".join(problems))


def _range_problems(cfg: ExperimentConfig) -> list:
    """ISI/ICI demo search ranges that reach past the shortest slot of their frames."""
    problems = []
    for name, spec, df_khz in (
            ("isi_demo", cfg.isi_demo, max(cfg.isi_demo.delta_f_khz_control,
                                           cfg.isi_demo.delta_f_khz_isi)),
            ("ici_demo", cfg.ici_demo, cfg.ici_demo.delta_f_khz)):
        try:
            t_slot = cfg.frame.to_frame(spec.m_subcarriers, df_khz).t_slot
            if delay_of_range(spec.max_range_m) > t_slot:
                problems.append(f"{name}: max_range_m {spec.max_range_m} beyond the "
                                f"{range_of_delay(t_slot):.4g} m one slot reaches "
                                f"at {df_khz} kHz")
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return problems


def load_config(path: str = None, overrides: dict = None) -> ExperimentConfig:
    """Load YAML config (defaults when path is None) with CLI overrides, then validate."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
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
