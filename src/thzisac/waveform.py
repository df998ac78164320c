"""OFDM frame timing, symbol generation, and CP modulation.

All DFTs are unitary (1/sqrt(M) both ways) so Parseval holds exactly and the
modulate/demodulate pair is an exact inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrameConfig:
    """Multicarrier frame numerology and derived timing.

    m_cp defaults to M/4 (quarter-symbol cyclic prefix).
    """

    m_subcarriers: int
    n_symbols: int
    q_slots: int
    delta_f: float
    fc: float
    m_cp: int = None

    def __post_init__(self):
        if self.m_cp is None:
            object.__setattr__(self, "m_cp", self.m_subcarriers // 4)
        if self.m_subcarriers < 1 or self.n_symbols < 1 or self.q_slots < 1:
            raise ValueError("frame dimensions must be positive")
        if not 0 <= self.m_cp <= self.m_subcarriers:
            raise ValueError(f"cp size {self.m_cp} outside [0, {self.m_subcarriers}]")
        if self.delta_f <= 0 or self.fc <= 0:
            raise ValueError("delta_f and fc must be positive")

    @property
    def t_symbol(self) -> float:
        """Useful symbol duration T = 1/delta_f."""
        return 1.0 / self.delta_f

    @property
    def t_cp(self) -> float:
        """Cyclic prefix duration (m_cp/M) * T."""
        return (self.m_cp / self.m_subcarriers) * self.t_symbol

    @property
    def t_total(self) -> float:
        """Full symbol duration T_o = T + T_cp."""
        return self.t_symbol + self.t_cp

    @property
    def t_slot(self) -> float:
        """Slot duration T_s = N * T_o."""
        return self.n_symbols * self.t_total


def generate_symbols(cfg: FrameConfig, ns: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. QPSK data symbols, shape (ns, M, N), per-entry power 1/ns.

    The stream-vector covariance is then I/ns as required by the transmit model.
    """
    shape = (ns, cfg.m_subcarriers, cfg.n_symbols)
    bits = rng.integers(0, 2, size=(2,) + shape)
    return ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / np.sqrt(2.0 * ns)


def ofdm_modulate(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Unitary IDFT per symbol plus cyclic prefix.

    grid has shape (..., M, N); returns (..., N*(M+m_cp)) time samples.
    """
    m_sc, n_sym = grid.shape[-2:]
    if m_sc != cfg.m_subcarriers or n_sym != cfg.n_symbols:
        raise ValueError(f"grid shape {grid.shape[-2:]} != ({cfg.m_subcarriers}, {cfg.n_symbols})")
    td = np.fft.ifft(grid, axis=-2) * np.sqrt(m_sc)
    with_cp = np.concatenate([td[..., m_sc - cfg.m_cp:, :], td], axis=-2)
    # symbol-major serialization: (..., N*(M+m_cp))
    return np.swapaxes(with_cp, -1, -2).reshape(grid.shape[:-2] + (-1,))


def ofdm_demodulate(samples: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Drop CP and apply the unitary DFT; exact inverse of ofdm_modulate."""
    m_tot = cfg.m_subcarriers + cfg.m_cp
    n_sym = samples.shape[-1] // m_tot
    if samples.shape[-1] != n_sym * m_tot:
        raise ValueError(f"sample count {samples.shape[-1]} not a multiple of {m_tot}")
    blocks = samples.reshape(samples.shape[:-1] + (n_sym, m_tot))[..., cfg.m_cp:]
    grid = np.fft.fft(blocks, axis=-1) / np.sqrt(cfg.m_subcarriers)
    return np.swapaxes(grid, -1, -2)
