"""Exact received-signal model with inter-symbol and inter-carrier interference.

Lifts the CP-bounded-delay and small-Doppler restrictions: delays may reach a
full slot (tau <= T_s) and Doppler shifts may approach the subcarrier spacing.
The per-target channel acts on the concatenated previous/current transmit grids
through per-branch delay phases, a within-symbol split at sample index l, and
an exact per-sample Doppler ramp; everything is FFT-sized, O(MN log M) per
application.

The spatial dimension is collapsed here: one effective complex coefficient per
target, with beamforming gains folded in by the caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (SPEED_OF_LIGHT, ModelMismatchWarning, SensingScene, awgn,
                      range_of_delay, velocity_of_doppler)
from .sensing_rx import DelayDopplerEstimate, MlProfile, golden_section_max, gss_refine
from .waveform import FrameConfig


@dataclass(frozen=True)
class DelayGeometry:
    """Integer split of a delay: k whole symbols, l leftover samples, phase base b.

    Samples m >= l of each received symbol carry transmit symbol n-k; samples
    m < l carry symbol n-k-1 through the CP-straddling branch.
    """

    k: int
    l: int
    b: complex


def delay_geometry(tau: float, frame: FrameConfig) -> DelayGeometry:
    if tau < 0 or tau > frame.t_slot * (1 + 1e-12):
        raise ValueError(f"delay {tau} outside [0, slot duration {frame.t_slot}]")
    m_sc, m_cp = frame.m_subcarriers, frame.m_cp
    k = int(np.floor(tau / frame.t_total))
    raw = tau / frame.t_symbol * m_sc - m_cp - k * (m_sc + m_cp)
    l = max(0, int(np.ceil(raw - 1e-9)))
    b = np.exp(2j * np.pi * (k * m_cp / m_sc - tau * frame.delta_f))
    return DelayGeometry(k=k, l=min(l, m_sc), b=complex(b))


@dataclass
class ExtendedTxPair:
    """Frequency-domain transmit grids of the previous and current slots, (M, N) each."""

    x_prev: np.ndarray
    x_curr: np.ndarray

    def __post_init__(self):
        if self.x_prev.shape != self.x_curr.shape:
            raise ValueError("previous and current grids must share a shape")

    @classmethod
    def with_zero_predecessor(cls, x_curr: np.ndarray) -> "ExtendedTxPair":
        """First slot of a frame: nothing was on the air before it."""
        return cls(x_prev=np.zeros_like(x_curr), x_curr=x_curr)

    def concat(self) -> np.ndarray:
        return np.hstack([self.x_prev, self.x_curr])


class TxBaseband:
    """Continuous-time transmit waveform of one slot, for brute-force sampling.

    s(t) = (1/sqrt(M)) sum_{m,n} X[m,n] rect(t - n*T_o) e^{j2pi m df (t - T_cp - n*T_o)}
    with rect supported on [0, T_o); zero outside the slot. The 1/sqrt(M) keeps
    samples consistent with the unitary-IDFT modulator.
    """

    def __init__(self, grid: np.ndarray, frame: FrameConfig):
        if grid.shape != (frame.m_subcarriers, frame.n_symbols):
            raise ValueError(f"grid shape {grid.shape} does not match the frame")
        self.grid = grid
        self.frame = frame

    def sample(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        fr = self.frame
        n = np.floor(t / fr.t_total).astype(int)
        valid = (n >= 0) & (n < fr.n_symbols)
        n_safe = np.clip(n, 0, fr.n_symbols - 1)
        delta = t - n * fr.t_total
        m_idx = np.arange(fr.m_subcarriers)
        phases = np.exp(2j * np.pi * fr.delta_f * np.outer(m_idx, delta - fr.t_cp))
        vals = np.einsum("mk,mk->k", self.grid[:, n_safe], phases) / np.sqrt(fr.m_subcarriers)
        return np.where(valid, vals, 0.0)


def _delayed_samples(tau: float, x_cat: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """Time-domain samples (M, N) of the concatenated grids x_cat delayed by tau.

    Samples m >= l come from symbol n-k, samples m < l from symbol n-k-1 with
    the extra CP phase ramp (the CP-straddling branch).
    """
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    dg = delay_geometry(tau, frame)
    m_idx = np.arange(m_sc)
    b1 = dg.b ** m_idx
    cols = n_sym + np.arange(n_sym) - dg.k
    s = np.fft.ifft(b1[:, None] * x_cat[:, cols], axis=0) * np.sqrt(m_sc)
    if dg.l > 0:
        b2 = b1 * np.exp(2j * np.pi * m_idx * frame.m_cp / m_sc)
        t2 = np.fft.ifft(b2[:, None] * x_cat[:, cols - 1], axis=0) * np.sqrt(m_sc)
        s = np.where(m_idx[:, None] >= dg.l, s, t2)
    return s


def apply_channel_operator(tau: float, nu: float, pair: ExtendedTxPair,
                           frame: FrameConfig) -> np.ndarray:
    """Frequency-domain response of a unit-coefficient target at (tau, nu).

    Returns the length-M*N vector (symbol-major) of the received grid: the
    delayed time-domain samples of the concatenated slots, Doppler-rotated at
    the true receive instants, then re-DFT'd per symbol. Linear in the grids.
    """
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    m_idx = np.arange(m_sc)
    s = _delayed_samples(tau, pair.concat(), frame)
    t_sample = (np.arange(n_sym)[None, :] * frame.t_total + frame.t_cp
                + m_idx[:, None] / m_sc * frame.t_symbol)
    r = s * np.exp(2j * np.pi * nu * t_sample)
    y = np.fft.fft(r, axis=0) / np.sqrt(m_sc)
    return y.reshape(-1, order="F")


def isi_ici_rx(scene: SensingScene, pair: ExtendedTxPair, frame: FrameConfig,
               rng: np.random.Generator) -> np.ndarray:
    """Received frequency-domain vector with full ISI/ICI plus noise."""
    y = np.zeros(frame.m_subcarriers * frame.n_symbols, dtype=complex)
    for tgt in scene.targets:
        if tgt.coeff is None:
            raise ValueError("target coefficient unresolved")
        nu = tgt.doppler(frame.fc)
        if abs(nu) >= frame.delta_f:
            warnings.warn(f"Doppler {nu:.3e}Hz at or beyond the subcarrier spacing",
                          ModelMismatchWarning)
        y += tgt.coeff * apply_channel_operator(tgt.delay(), nu, pair, frame)
    return y + awgn(y.shape, scene.noise_power, rng)


def resolve_collapsed_coeffs(scene: SensingScene, rng: np.random.Generator) -> SensingScene:
    """Per-sample effective SNR to coefficient, for the spatially collapsed model.

    Assumes unit-power transmit grid entries: |alpha|^2 = snr * noise_power.
    """
    for tgt in scene.targets:
        if tgt.coeff is None:
            snr_lin = 10.0 ** (tgt.effective_snr_db / 10.0)
            mag = np.sqrt(snr_lin * scene.noise_power)
            tgt.coeff = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return scene


def cp_limited_range(frame: FrameConfig) -> float:
    """Maximum round-trip range resolvable inside the cyclic prefix, c0*T_cp/2."""
    return SPEED_OF_LIGHT * frame.t_cp / 2.0


# ---------------------------------------------------------------------------
# ISI/ICI-tackled estimator
# ---------------------------------------------------------------------------

def matched_objective(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig):
    """Normalized correlation |<H(tau,nu)x, y>|^2 / ||H(tau,nu)x||^2 as a callable.

    The callable returns (value, alpha) with alpha the least-squares coefficient
    at that (tau, nu).
    """
    def fun(tau: float, nu: float):
        h = apply_channel_operator(tau, nu, pair, frame)
        den = float(np.vdot(h, h).real)
        if den <= 0.0:
            return 0.0, 0.0j
        c = np.vdot(h, y)
        return float(np.abs(c) ** 2 / den), c / den
    return fun


def _coarse_scan(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                 tau_grid: np.ndarray, nu_grid: np.ndarray):
    """Evaluate the tackled objective on the grid with shared per-delay FFT work.

    For fixed tau the correlation separates as
    sum_m e^{-j2pi nu (T_cp + mT/M)} sum_n W[m,n] e^{-j2pi nu n T_o}; the inner
    sum is periodic in nu with period 1/T_o and lives on a half-bin FFT grid,
    so each tau node costs O(M N log) regardless of the Doppler span.
    """
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    m_idx = np.arange(m_sc)
    y_grid = y.reshape(m_sc, n_sym, order="F")
    z_time = np.fft.ifft(y_grid, axis=0) * np.sqrt(m_sc)
    x_cat = pair.concat()
    d_nu = 1.0 / (2 * n_sym * frame.t_total)
    j_nodes = np.round(nu_grid / d_nu).astype(int)
    if not np.allclose(j_nodes * d_nu, nu_grid, rtol=0, atol=d_nu * 1e-9):
        raise ValueError("Doppler grid must lie on the half-bin lattice")
    out = np.zeros((tau_grid.size, nu_grid.size))
    phase_m = np.exp(-2j * np.pi * np.outer(m_idx / m_sc * frame.t_symbol + frame.t_cp,
                                            nu_grid))
    for i, tau in enumerate(tau_grid):
        s = _delayed_samples(float(tau), x_cat, frame)
        den = float(np.sum(np.abs(s) ** 2))
        if den <= 0.0:
            continue
        w = np.conj(s) * z_time
        g = np.fft.fft(w, n=2 * n_sym, axis=1)
        corr = np.sum(phase_m * g[:, np.mod(j_nodes, 2 * n_sym)], axis=0)
        out[i] = np.abs(corr) ** 2 / den
    return out


def _half_bin_grid(frame: FrameConfig, tau_max: float = None, nu_max: float = None):
    """Coarse half-bin lattice of the tackled scan.

    Delay nodes step T/(2M) over [0, min(tau_max, T_slot)], Doppler nodes
    1/(2*N*T_o) over [-nu_max, nu_max]; the defaults are the full slot and half
    the symbol rate. Returns (d_tau, d_nu, tau_grid, j_max, nu_grid).
    """
    tau_max = frame.t_slot if tau_max is None else min(tau_max, frame.t_slot)
    nu_max = 1.0 / (2 * frame.t_total) if nu_max is None else nu_max
    d_tau = frame.t_symbol / (2 * frame.m_subcarriers)
    d_nu = 1.0 / (2 * frame.n_symbols * frame.t_total)
    tau_grid = np.arange(0.0, tau_max + d_tau / 2, d_tau)
    j_max = int(np.floor(nu_max / d_nu + 1e-9))
    nu_grid = np.arange(-j_max, j_max + 1) * d_nu
    return d_tau, d_nu, tau_grid, j_max, nu_grid


def tackled_estimate(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                     tau_max: float = None, nu_max: float = None,
                     rounds: int = 3, iters: int = 40):
    """Single-target estimate maximizing the exact-model normalized correlation.

    Coarse grid at half-bin spacing (T/(2M) in delay, 1/(2*N*T_o) in Doppler)
    over [0, tau_max] x [-nu_max, nu_max], then alternating golden-section
    refinement one coarse step around the best node. Returns
    (DelayDopplerEstimate, alpha_hat).
    """
    d_tau, d_nu, tau_grid, j_max, nu_grid = _half_bin_grid(frame, tau_max, nu_max)
    prof = _coarse_scan(y, pair, frame, tau_grid, nu_grid)
    if not np.any(prof > 0):
        raise ValueError("no detectable target: flat matched-filter objective")
    i, j = np.unravel_index(int(np.argmax(prof)), prof.shape)
    tau0, nu0 = float(tau_grid[i]), float(nu_grid[j])

    objective = matched_objective(y, pair, frame)
    tau, nu = tau0, nu0
    best, _ = objective(tau, nu)
    lo_t, hi_t = max(0.0, tau0 - d_tau), min(frame.t_slot, tau0 + d_tau)
    lo_n, hi_n = nu0 - d_nu, nu0 + d_nu
    for _ in range(rounds):
        cand, val = golden_section_max(lambda t: objective(t, nu)[0], lo_t, hi_t,
                                       iters, 1e-6 * d_tau)
        if val > best:
            tau, best = cand, val
        cand, val = golden_section_max(lambda v: objective(tau, v)[0], lo_n, hi_n,
                                       iters, 1e-6 * d_nu)
        if val > best:
            nu, best = cand, val
    _, alpha = objective(tau, nu)
    est = DelayDopplerEstimate(
        tau_hat=tau, nu_hat=nu,
        range_hat=range_of_delay(tau), velocity_hat=velocity_of_doppler(nu, frame.fc),
        coarse_bin=(i, j - j_max), peak_value=best)
    return est, alpha


def tackled_range_profile(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                          tau_max: float, nu_max: float):
    """Per-delay maximum of the tackled objective over the Doppler grid.

    Returns (tau_nodes, profile) on the coarse half-bin delay lattice; used to
    render range profiles next to the unaware ones.
    """
    _, _, tau_grid, _, nu_grid = _half_bin_grid(frame, tau_max, nu_max)
    prof = _coarse_scan(y, pair, frame, tau_grid, nu_grid)
    return tau_grid, prof.max(axis=1)


def successive_cancellation(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                            count: int, tau_max: float = None, nu_max: float = None):
    """Estimate-subtract loop for multiple targets under the exact model.

    Each pass takes the strongest remaining response, fits its coefficient by
    least squares, and cancels it before the next pass. Returns a list of
    (DelayDopplerEstimate, alpha_hat), strongest first.
    """
    residual = y.copy()
    results = []
    for _ in range(count):
        est, alpha = tackled_estimate(residual, pair, frame, tau_max, nu_max)
        residual = residual - alpha * apply_channel_operator(est.tau_hat, est.nu_hat,
                                                             pair, frame)
        results.append((est, alpha))
    return results


# ---------------------------------------------------------------------------
# Interference-unaware reference estimator (Hadamard phase-ramp model)
# ---------------------------------------------------------------------------

def unaware_range_profile(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                          tau_max: float):
    """Matched-filter profile of the phase-ramp model, tiled past its ambiguity.

    The unaware model X ⊙ Psi(tau, nu) is periodic in tau with period 1/delta_f,
    so the delay axis beyond one symbol repeats; the tiling makes aliases of
    strong targets visible exactly where a plotted profile would show them.
    Returns (tau_bins, profile) with profile shaped (n_bins, N).
    """
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    base = MlProfile(y.reshape(m_sc, n_sym, order="F"), pair.x_curr, frame).grid()
    d_tau = frame.t_symbol / m_sc
    n_bins = int(np.floor(tau_max / d_tau)) + 1
    tiles = int(np.ceil(n_bins / m_sc))
    ext = np.tile(base, (tiles, 1))[:n_bins]
    return np.arange(n_bins) * d_tau, ext


def hadamard_model_vec(x_curr: np.ndarray, tau: float, nu: float,
                       frame: FrameConfig) -> np.ndarray:
    """Interference-free model response vec(X ⊙ Psi(tau, nu)), symbol-major."""
    m_idx = np.arange(frame.m_subcarriers)
    n_idx = np.arange(frame.n_symbols)
    psi = (np.exp(-2j * np.pi * m_idx[:, None] * frame.delta_f * tau)
           * np.exp(2j * np.pi * n_idx[None, :] * frame.t_total * nu))
    return (x_curr * psi).reshape(-1, order="F")


def unaware_successive_cancellation(y: np.ndarray, pair: ExtendedTxPair,
                                    frame: FrameConfig, count: int,
                                    tau_max: float) -> list:
    """Estimate-subtract loop under the interference-free phase-ramp model.

    The counterpart of successive_cancellation with the Hadamard model doing
    the fitting: exact when delays stay inside the CP and Doppler is small,
    and increasingly biased (with residual masking of weak targets) otherwise.
    """
    residual = y.copy()
    energy = float(np.sum(np.abs(pair.x_curr) ** 2))
    results = []
    for _ in range(count):
        est = unaware_estimate_peaks(residual, pair, frame, 1, tau_max)[0]
        model = hadamard_model_vec(pair.x_curr, est.tau_hat, est.nu_hat, frame)
        alpha = np.vdot(model, residual) / energy
        residual = residual - alpha * model
        results.append((est, alpha))
    return results


def unaware_estimate_peaks(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                           count: int, tau_max: float,
                           exclusion_m: float = 1.0) -> list:
    """Top-count peaks of the unaware profile with local exclusion, GSS-refined.

    No model cancellation: detected peaks only mask their neighborhood, the way
    peaks are read off a plotted range profile. Ambiguity replicas of strong
    targets therefore survive as candidate detections.
    """
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    _, ext = unaware_range_profile(y, pair, frame, tau_max)
    y_grid = y.reshape(m_sc, n_sym, order="F")
    prof = MlProfile(y_grid, pair.x_curr, frame)
    d_tau = frame.t_symbol / m_sc
    excl = max(1, int(round(exclusion_m / (SPEED_OF_LIGHT * d_tau / 2.0))))
    work = ext.copy()
    results = []
    for _ in range(count):
        m0_ext, j = np.unravel_index(int(np.argmax(work)), work.shape)
        n0 = j - n_sym if j >= (n_sym + 1) // 2 else j
        est = gss_refine(prof, (int(m0_ext), int(n0)), frame)
        results.append(est)
        work[max(0, m0_ext - excl):m0_ext + excl + 1, :] = 0.0
    return results
