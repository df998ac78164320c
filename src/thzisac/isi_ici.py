"""Exact received-signal model with inter-symbol and inter-carrier interference.

Lifts the CP-bounded-delay and small-Doppler restrictions: delays may reach a
full slot (tau <= T_s) and Doppler shifts may approach the subcarrier spacing.
One model of the delayed transmit signal serves the operator and the coarse
scan: the serialized, CP-carrying sample stream of the previous and current
slots (_cp_stream). A delay reads that stream a whole number of samples back,
with a forward fraction of a sample inside the same symbol as a per-subcarrier
phase ramp; the operator then applies the exact per-sample Doppler ramp and a
per-symbol DFT, O(MN log M) per application.

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


class FlatObjectiveError(ValueError):
    """The tackled objective is zero on every coarse node: nothing to detect."""


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


def _cp_stream(pair: ExtendedTxPair, frame: FrameConfig, frac: float, n_prev: int,
               length: int) -> np.ndarray:
    """Serialized CP-carrying transmit samples, zero-padded to length.

    Covers the last n_prev symbols of the previous slot and the whole current
    slot. Sample p holds the waveform frac * T/M after sample instant p,
    inside the same symbol (0 <= frac < 1).
    """
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    stream = np.zeros(length, dtype=complex)
    sym = stream[:(n_prev + n_sym) * (m_sc + m_cp)].reshape(n_prev + n_sym, m_sc + m_cp)
    ramp = np.exp(2j * np.pi * frac * np.arange(m_sc) / m_sc)[:, None]
    sym[:n_prev, m_cp:] = np.fft.ifft(ramp * pair.x_prev[:, n_sym - n_prev:], axis=0).T
    sym[n_prev:, m_cp:] = np.fft.ifft(ramp * pair.x_curr, axis=0).T
    sym[:, m_cp:] *= np.sqrt(m_sc)
    sym[:, :m_cp] = sym[:, m_sc:]
    return stream


def apply_channel_operator(tau: float, nu: float, pair: ExtendedTxPair,
                           frame: FrameConfig) -> np.ndarray:
    """Frequency-domain response of a unit-coefficient target at (tau, nu).

    Returns the length-M*N vector (symbol-major) of the received grid. The
    delay is read off the serialized transmit stream of the two slots as a
    whole-sample lag back plus a forward fraction inside the same symbol;
    the samples are Doppler-rotated at the true receive instants and
    re-DFT'd per symbol. Linear in the grids.
    """
    if tau < 0 or tau > frame.t_slot * (1 + 1e-12):
        raise ValueError(f"delay {tau} outside [0, slot duration {frame.t_slot}]")
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    p_len = m_sc + m_cp
    shift = tau * m_sc * frame.delta_f
    lag = int(np.ceil(shift - 1e-9))
    n_prev = -(-max(0, lag - m_cp) // p_len)
    stream = _cp_stream(pair, frame, max(0.0, lag - shift), n_prev,
                        (n_prev + n_sym) * p_len + m_cp)
    first = n_prev * p_len + m_cp - lag
    rows = stream[first:first + n_sym * p_len].reshape(n_sym, p_len)[:, :m_sc]
    t_sample = (np.arange(n_sym)[:, None] * frame.t_total + frame.t_cp
                + np.arange(m_sc)[None, :] / m_sc * frame.t_symbol)
    r = rows * np.exp(2j * np.pi * nu * t_sample)
    return (np.fft.fft(r, axis=1) / np.sqrt(m_sc)).reshape(-1)


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
    """Normalized correlation |<H(tau,nu)x, y>|^2 / ||H(tau,nu)x||^2 as a callable."""
    def fun(tau: float, nu: float) -> float:
        h = apply_channel_operator(tau, nu, pair, frame)
        den = float(np.vdot(h, h).real)
        if den <= 0.0:
            return 0.0
        return float(np.abs(np.vdot(h, y)) ** 2 / den)
    return fun


def _fast_fft_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles without slow radices."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _lattice_index(grid: np.ndarray, step: float, name: str) -> np.ndarray:
    """Integer node indices of grid on the lattice step * k; off-lattice raises."""
    idx = np.round(grid / step).astype(int)
    if not np.allclose(idx * step, grid, rtol=0, atol=step * 1e-9):
        raise ValueError(f"{name} grid must lie on the half-bin lattice")
    return idx


def _coarse_scan(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                 tau_grid: np.ndarray, nu_grid: np.ndarray):
    """Evaluate the tackled objective on the half-bin grid by FFT cross-correlation.

    With P = M + m_cp samples of T/M per symbol, delay node i = tau / (T/(2M))
    reads the serialized transmit stream of the two slots at half-sample phase
    i % 2, (i + 1) // 2 samples back. For one Doppler node the correlations of
    all delays with the Doppler-rotated receive stream (zero on the CP
    samples) are therefore one cross-correlation per phase. It is computed
    overlap-save: the receive stream is cut into blocks, each correlated
    against the transmit samples from the largest lag before it, and the
    block spectra are summed before one short inverse FFT. Each delay's energy
    ||H(tau, nu) x||^2 is a sum of N windows of a cumulative sum of |stream|^2.
    Cost per Doppler node: one batched FFT of about N*P samples, whatever the
    delay span; the Doppler ramp is applied by a running product.
    """
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    p_len = m_sc + m_cp
    i_nodes = _lattice_index(tau_grid, frame.t_symbol / (2 * m_sc), "delay")
    d_nu = 1.0 / (2 * n_sym * frame.t_total)
    j_nodes = _lattice_index(nu_grid, d_nu, "Doppler")
    out = np.zeros((tau_grid.size, nu_grid.size))
    if out.size == 0:
        return out
    if i_nodes.min() < 0 or i_nodes.max() > 2 * n_sym * p_len:
        raise ValueError("delay grid outside [0, slot duration]")
    lags = (i_nodes + 1) // 2
    by_phase = [(sel, lags[sel]) for sel in (i_nodes % 2 == 0, i_nodes % 2 == 1)]
    lag_max = int(lags.max())

    # receive samples m_cp .. N*P-1 of the slot in n_blk blocks of blk_len; the
    # transmit stream starts with the n_prev previous-slot symbols lag_max reaches.
    # Four buffers span all blocks (n_blk * (span / n_blk + lag_max) samples)
    # and two one block; sqrt(span / (2 lag_max)) blocks minimises their sum.
    span = n_sym * p_len - m_cp
    n_blk = max(1, round(np.sqrt(span / (2 * (lag_max + 1)))))
    fft_len = _fast_fft_len(-(-span // n_blk) + lag_max)
    blk_len = fft_len - lag_max
    n_blk = -(-span // blk_len)
    n_prev = -(-max(0, lag_max - m_cp) // p_len)
    rx_first = (n_prev + np.arange(n_sym)) * p_len + m_cp
    spectra, den = [], np.zeros(i_nodes.size)
    for h, (sel, lag_h) in enumerate(by_phase):
        tx = _cp_stream(pair, frame, h / 2, n_prev, rx_first[0] + n_blk * blk_len)
        energy = np.zeros(tx.size + 1)
        np.abs(tx, out=energy[1:])
        np.square(energy, out=energy)
        np.cumsum(energy, out=energy)
        for first in rx_first:
            den[sel] += energy[first + m_sc - lag_h] - energy[first - lag_h]
        del energy
        windows = np.lib.stride_tricks.sliding_window_view(
            tx[rx_first[0] - lag_max:], blk_len + lag_max)[::blk_len]
        spec = np.fft.fft(windows, n=fft_len, axis=1)
        del tx, windows
        spectra.append(np.conjugate(spec, out=spec))
        del spec

    rx = np.zeros((n_blk, fft_len), dtype=complex)
    body = rx[:, lag_max:]
    flat = np.zeros(n_blk * blk_len + m_cp, dtype=complex)
    flat[:n_sym * p_len].reshape(n_sym, p_len)[:, :m_sc] = np.fft.ifft(
        y.reshape(m_sc, n_sym, order="F"), axis=0).T
    body[...] = flat[:n_blk * blk_len].reshape(n_blk, blk_len)
    del flat
    body *= np.sqrt(m_sc)
    acc = np.empty(fft_len, dtype=complex)
    step_j, prev_j = None, 0
    for col, j in enumerate(j_nodes):
        if j != prev_j:
            if j - prev_j != step_j:
                step_j = j - prev_j
                t_body = (m_cp + np.arange(n_blk * blk_len)) / (m_sc * frame.delta_f)
                step = np.exp(-2j * np.pi * step_j * d_nu * t_body).reshape(n_blk, blk_len)
            body *= step
            prev_j = j
        spec = np.fft.fft(rx, axis=1)
        for (sel, lag_h), tx_spec in zip(by_phase, spectra):
            if lag_h.size:
                np.einsum("bk,bk->k", spec, tx_spec, out=acc)
                corr = np.fft.ifft(acc)[lag_h]
                out[sel, col] = corr.real ** 2 + corr.imag ** 2
        del spec
    live = den > 0.0
    out[~live] = 0.0
    out[live] /= den[live, None]
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
    refinement one coarse step around the best node. Returns the
    DelayDopplerEstimate; raises FlatObjectiveError when the objective is zero
    on every coarse node.
    """
    d_tau, d_nu, tau_grid, j_max, nu_grid = _half_bin_grid(frame, tau_max, nu_max)
    prof = _coarse_scan(y, pair, frame, tau_grid, nu_grid)
    if not np.any(prof > 0):
        raise FlatObjectiveError("no detectable target: flat matched-filter objective")
    i, j = np.unravel_index(int(np.argmax(prof)), prof.shape)
    tau0, nu0 = float(tau_grid[i]), float(nu_grid[j])

    objective = matched_objective(y, pair, frame)
    tau, nu = tau0, nu0
    best = objective(tau, nu)
    lo_t, hi_t = max(0.0, tau0 - d_tau), min(frame.t_slot, tau0 + d_tau)
    lo_n, hi_n = nu0 - d_nu, nu0 + d_nu
    for _ in range(rounds):
        cand, val = golden_section_max(lambda t: objective(t, nu), lo_t, hi_t,
                                       iters, 1e-6 * d_tau)
        if val > best:
            tau, best = cand, val
        cand, val = golden_section_max(lambda v: objective(tau, v), lo_n, hi_n,
                                       iters, 1e-6 * d_nu)
        if val > best:
            nu, best = cand, val
    return DelayDopplerEstimate(
        tau_hat=tau, nu_hat=nu,
        range_hat=range_of_delay(tau), velocity_hat=velocity_of_doppler(nu, frame.fc),
        coarse_bin=(i, j - j_max), peak_value=best)


def tackled_range_profile(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                          tau_max: float, nu_max: float):
    """Per-delay maximum of the tackled objective over the Doppler grid.

    Returns (tau_nodes, profile) on the coarse half-bin delay lattice; used to
    render range profiles next to the unaware ones.
    """
    _, _, tau_grid, _, nu_grid = _half_bin_grid(frame, tau_max, nu_max)
    prof = _coarse_scan(y, pair, frame, tau_grid, nu_grid)
    return tau_grid, prof.max(axis=1)


def _cancel(y: np.ndarray, count: int, detect, response) -> list:
    """Detect, fit, subtract: the successive-cancellation loop of both models.

    Each pass detects the strongest remaining target with detect(residual),
    fits alpha = <h, r> / ||h||^2 on its model response h = response(est) and
    subtracts alpha * h. Returns [(estimate, alpha)], strongest first; shorter
    than count when detect finds a flat objective.
    """
    residual = y.copy()
    results = []
    for _ in range(count):
        try:
            est = detect(residual)
        except FlatObjectiveError:
            break
        h = response(est)
        alpha = np.vdot(h, residual) / np.vdot(h, h).real
        residual = residual - alpha * h
        results.append((est, alpha))
    return results


def successive_cancellation(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                            count: int, tau_max: float = None, nu_max: float = None):
    """Estimate-subtract loop for multiple targets under the exact model.

    Returns a list of (DelayDopplerEstimate, alpha_hat), strongest first; it is
    shorter than count when a pass finds a flat objective (nothing left).
    """
    return _cancel(y, count,
                   lambda r: tackled_estimate(r, pair, frame, tau_max, nu_max),
                   lambda est: apply_channel_operator(est.tau_hat, est.nu_hat, pair, frame))


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
    return _cancel(y, count,
                   lambda r: unaware_estimate_peaks(r, pair, frame, 1, tau_max)[0],
                   lambda est: hadamard_model_vec(pair.x_curr, est.tau_hat, est.nu_hat, frame))


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
