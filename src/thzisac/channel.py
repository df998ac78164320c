"""Multipath communication channel, backscatter sensing channel, and noise.

The communication channel follows the ray-tracing form
H_c[m] = gamma * sum_path alpha[m] a_r a_t^H with gamma = sqrt(Nt*Nr/(L_N+1)).
The sensing channel uses a_t^T (transpose, not conjugate) on the transmit side,
which mirrors scan beams about broadside; see geometry.slot_for_angle.

Large arrays are never materialized as Nr x Nt matrices on the hot paths: the
channel keeps its steering factors and exposes products against tall-skinny
precoders/combiners.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import UpaGeometry, steering_upa
from .waveform import FrameConfig

SPEED_OF_LIGHT = 299_792_458.0


class ModelMismatchWarning(UserWarning):
    """A model precondition (CP-bounded delay, small Doppler, full rank) is violated."""


def delay_of_range(range_m: float) -> float:
    """Round-trip delay tau = 2r/c0."""
    if range_m < 0:
        raise ValueError(f"range must be >= 0, got {range_m}")
    return 2.0 * range_m / SPEED_OF_LIGHT


def doppler_of_velocity(velocity_mps: float, fc: float) -> float:
    """Round-trip Doppler shift nu = 2 fc v / c0."""
    return 2.0 * fc * velocity_mps / SPEED_OF_LIGHT


def range_of_delay(tau: float) -> float:
    return tau * SPEED_OF_LIGHT / 2.0


def velocity_of_doppler(nu: float, fc: float) -> float:
    return nu * SPEED_OF_LIGHT / (2.0 * fc)


def awgn(shape, noise_power: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, per-entry variance noise_power."""
    if noise_power < 0:
        raise ValueError("noise power must be >= 0")
    if noise_power == 0:
        return np.zeros(shape, dtype=complex)
    scale = np.sqrt(noise_power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# Communication channel
# ---------------------------------------------------------------------------

@dataclass
class CommPath:
    """One propagation path with per-subcarrier gain and departure/arrival angles."""

    gain_per_subcarrier: np.ndarray
    aoa: tuple
    aod: tuple
    is_los: bool = False


@dataclass
class CommChannel:
    """LoS + NLoS multipath channel between the transmit and receive UPAs."""

    paths: list
    tx_geom: UpaGeometry
    rx_geom: UpaGeometry
    _factors: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n_los = sum(1 for p in self.paths if p.is_los)
        if n_los != 1:
            raise ValueError(f"channel needs exactly one LoS path, got {n_los}")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def gamma(self) -> float:
        """Normalization sqrt(Nt*Nr / (L_N + 1))."""
        return np.sqrt(self.tx_geom.n_elements * self.rx_geom.n_elements / self.n_paths)

    def factors(self):
        """Cached (A_r, A_t, G) with H[m] = A_r @ diag(G[:, m]) @ A_t^H."""
        if self._factors is None:
            a_r = np.stack([steering_upa(p.aoa[0], p.aoa[1], self.rx_geom)
                            for p in self.paths], axis=1)
            a_t = np.stack([steering_upa(p.aod[0], p.aod[1], self.tx_geom)
                            for p in self.paths], axis=1)
            gains = self.gamma * np.stack([p.gain_per_subcarrier for p in self.paths])
            object.__setattr__(self, "_factors", (a_r, a_t, gains))
        return self._factors


def sample_comm_channel(tx_geom: UpaGeometry, rx_geom: UpaGeometry, frame: FrameConfig,
                        rng: np.random.Generator, num_nlos: int = 4,
                        nlos_extra_loss_db: float = 15.0, aod_spread: float = np.pi / 3,
                        los_range_m: float = 10.0, elevation: float = np.pi / 2) -> CommChannel:
    """Draw a random sparse THz channel: unit-gain LoS plus weaker NLoS rays.

    Path azimuths are uniform in [-aod_spread, aod_spread]; NLoS magnitudes sit
    nlos_extra_loss_db below the LoS and their excess delays are uniform in
    [0, T_cp/2]. Per-subcarrier frequency dependence enters only through the
    delay phase ramps; absolute path loss is absorbed by the SNR definition.
    """
    m_idx = np.arange(frame.m_subcarriers)
    tau_los = los_range_m / SPEED_OF_LIGHT
    paths = [CommPath(gain_per_subcarrier=np.exp(-2j * np.pi * m_idx * frame.delta_f * tau_los),
                      aoa=(rng.uniform(-aod_spread, aod_spread), elevation),
                      aod=(rng.uniform(-aod_spread, aod_spread), elevation),
                      is_los=True)]
    mag = 10.0 ** (-nlos_extra_loss_db / 20.0)
    for _ in range(num_nlos):
        tau = tau_los + rng.uniform(0.0, frame.t_cp / 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        gain = mag * np.exp(1j * phase) * np.exp(-2j * np.pi * m_idx * frame.delta_f * tau)
        paths.append(CommPath(gain_per_subcarrier=gain,
                              aoa=(rng.uniform(-aod_spread, aod_spread), elevation),
                              aod=(rng.uniform(-aod_spread, aod_spread), elevation),
                              is_los=False))
    return CommChannel(paths=paths, tx_geom=tx_geom, rx_geom=rx_geom)


# ---------------------------------------------------------------------------
# Sensing channel
# ---------------------------------------------------------------------------

@dataclass
class SensingTarget:
    """Point scatterer with range, radial velocity, and arrival angles.

    Either ``coeff`` is set directly or ``effective_snr_db`` is given and the
    coefficient is resolved against the designed transmit beam (resolve_coeffs).
    """

    range_m: float
    velocity_mps: float
    azimuth: float
    elevation: float = np.pi / 2
    coeff: complex = None
    effective_snr_db: float = None

    def __post_init__(self):
        if self.range_m <= 0:
            raise ValueError(f"target range must be > 0, got {self.range_m}")
        if self.coeff is None and self.effective_snr_db is None:
            raise ValueError("target needs coeff or effective_snr_db")

    def delay(self) -> float:
        return delay_of_range(self.range_m)

    def doppler(self, fc: float) -> float:
        return doppler_of_velocity(self.velocity_mps, fc)


@dataclass
class SensingScene:
    """Targets plus the receiver noise level (linear power sigma^2)."""

    targets: list
    noise_power: float = 1.0

    @property
    def n_targets(self) -> int:
        return len(self.targets)


def check_isi_ici_free(scene: SensingScene, frame: FrameConfig,
                       doppler_fraction: float = 0.1) -> bool:
    """Warn when a target violates the CP-bounded delay / small-Doppler model."""
    clean = True
    for i, t in enumerate(scene.targets):
        if t.delay() > frame.t_cp:
            warnings.warn(f"target {i}: delay {t.delay():.3e}s exceeds CP {frame.t_cp:.3e}s; "
                          "the ISI-free model is approximate here", ModelMismatchWarning)
            clean = False
        if abs(t.doppler(frame.fc)) > doppler_fraction * frame.delta_f:
            warnings.warn(f"target {i}: Doppler {t.doppler(frame.fc):.3e}Hz is not small "
                          f"against delta_f {frame.delta_f:.3e}Hz", ModelMismatchWarning)
            clean = False
    return clean


def resolve_coeffs(scene: SensingScene, tx_gains: np.ndarray, nt: int,
                   rng: np.random.Generator) -> SensingScene:
    """Fix |h_p| so the per-antenna post-channel SNR equals each target's setting.

    tx_gains[p] is the average transmit beamforming power toward target p,
    (1/(M*Ns)) sum_m ||a_t^T(theta_p) F_RF F_BB[m]||^2, under the designed beam.
    The per-antenna received signal power is then (Nt/P)|h_p|^2 tx_gains[p], and
    |h_p| is chosen to make its ratio to the noise power hit effective_snr_db.
    Phases are uniform, drawn as _draw_coeffs draws them.
    """
    p_count = scene.n_targets
    return _draw_coeffs(scene, lambda p, snr_lin: np.sqrt(
        snr_lin * scene.noise_power * p_count / (nt * tx_gains[p])), rng)


def _draw_coeffs(scene: SensingScene, magnitude, rng: np.random.Generator) -> SensingScene:
    """A copy of scene whose unresolved target p takes magnitude(p, snr_lin) e^{j phase}.

    One uniform phase per unresolved target, in target order; a target with an
    explicit coeff keeps it and draws nothing. The input scene is not modified.
    """
    targets = []
    for p, tgt in enumerate(scene.targets):
        coeff = tgt.coeff
        if coeff is None:
            mag = magnitude(p, 10.0 ** (tgt.effective_snr_db / 10.0))
            coeff = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        targets.append(replace(tgt, coeff=coeff))
    return replace(scene, targets=targets)
