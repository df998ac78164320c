"""Exact received-signal model with inter-symbol and inter-carrier interference.

Lifts the CP-bounded-delay and small-Doppler restrictions: delays may reach a
full slot (tau <= T_s) and Doppler shifts may approach the subcarrier spacing.
One model of the delayed transmit signal serves the operator, the coarse scan
and the refinement: the serialized, CP-carrying sample stream of the previous
and current slots (_cp_stream). A delay reads that stream a whole number of
samples back, with a forward fraction of a sample inside the same symbol as a
per-subcarrier phase ramp; the operator then applies the exact per-sample
Doppler ramp and a per-symbol DFT, O(MN log M) per application.

The coarse scan has two regimes, chosen from its grid's deepest lag. When no
node reads past the CP, each receive symbol reads a cyclic shift of one
current-slot symbol: the scan runs per symbol in the frequency domain, one
(N, M) FFT per Doppler residue and a constant energy. Deeper grids correlate
the whole receive stream with the transmit stream, overlap-save, one FFT of
about N(M + m_cp) samples per Doppler node.

The refinement reads the same model without building it per probe. Along the
delay axis the objective's numerator and energy are trigonometric polynomials
in the sub-sample fraction whose coefficients depend only on the whole-sample
lag (_lag_terms): one FFT of the symbols a lag reads, once per lag and line,
then O(M) per probe; inside the CP the energy is a constant and needs no
autocorrelation table. Along the Doppler axis one stream per line, then N + M
exps per probe.

The spatial dimension is collapsed here: one effective complex coefficient per
target, with beamforming gains folded in by the caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .channel import (SPEED_OF_LIGHT, ModelMismatchWarning, SensingScene, awgn,
                      range_of_delay, velocity_of_doppler)
from .sensing_rx import (DelayDopplerEstimate, MlProfile, alternating_refine, doppler_bin,
                         golden_section_max, gss_refine)
from .waveform import FrameConfig


class FlatObjectiveError(ValueError):
    """The tackled objective is zero on every coarse node: nothing to detect."""


@dataclass
class TackledEstimate(DelayDopplerEstimate):
    """A tackled estimate with the range profile of the coarse scan it started from.

    range_profile is (tau_nodes, per-delay maximum over the Doppler nodes), what
    tackled_range_profile returns for the same input and search box.
    """

    range_profile: tuple = field(default=None, compare=False, repr=False)


@dataclass
class ExtendedTxPair:
    """Frequency-domain transmit grids of the previous and current slots, (M, N) each."""

    x_prev: np.ndarray
    x_curr: np.ndarray

    def __post_init__(self):
        if self.x_prev.shape != self.x_curr.shape:
            raise ValueError("previous and current grids must share a shape")


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
    per_symbol, per_sample = _doppler_factors(nu, frame)
    r = _delayed_rows(tau, pair, frame) * np.outer(per_symbol, per_sample)
    return (np.fft.fft(r, axis=1) / np.sqrt(frame.m_subcarriers)).reshape(-1)


def _sample_lag(tau: float, frame: FrameConfig) -> tuple:
    """A delay as (lag, frac, n_prev) in samples of T/M.

    tau reads the transmit stream lag whole samples back and then frac of a
    sample forward inside the same symbol (0 <= frac < 1); the lag reaches
    back into the last n_prev symbols of the previous slot.
    """
    if tau < 0 or tau > frame.t_slot * (1 + 1e-12):
        raise ValueError(f"delay {tau} outside [0, slot duration {frame.t_slot}]")
    shift = tau * frame.m_subcarriers * frame.delta_f
    lag = int(np.ceil(shift - 1e-9))
    return lag, max(0.0, lag - shift), _symbols_back(lag, frame)


def _symbols_back(lag: int, frame: FrameConfig) -> int:
    """How many previous-slot symbols a lag of that many whole samples reaches into."""
    return -(-max(0, lag - frame.m_cp) // (frame.m_subcarriers + frame.m_cp))


def _delayed_rows(tau: float, pair: ExtendedTxPair, frame: FrameConfig) -> np.ndarray:
    """Transmit samples a delay tau earlier at the receive instants, (N, M), CP removed."""
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    p_len = m_sc + m_cp
    lag, frac, n_prev = _sample_lag(tau, frame)
    stream = _cp_stream(pair, frame, frac, n_prev, (n_prev + n_sym) * p_len + m_cp)
    first = n_prev * p_len + m_cp - lag
    return stream[first:first + n_sym * p_len].reshape(n_sym, p_len)[:, :m_sc]


def _doppler_factors(nu: float, frame: FrameConfig):
    """The Doppler ramp e^{j2pi nu t} at the receive instants t = n T_o + T_cp + m T/M.

    Returned as its per-symbol (N,) and per-sample (M,) factors, whose outer
    product is the (N, M) ramp.
    """
    m_sc = frame.m_subcarriers
    per_symbol = np.exp(2j * np.pi * nu * (np.arange(frame.n_symbols) * frame.t_total
                                           + frame.t_cp))
    per_sample = np.exp(2j * np.pi * nu * frame.t_symbol / m_sc * np.arange(m_sc))
    return per_symbol, per_sample


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
    Returns a new scene of copied targets; the input scene is not modified.
    """
    targets = []
    for tgt in scene.targets:
        coeff = tgt.coeff
        if coeff is None:
            snr_lin = 10.0 ** (tgt.effective_snr_db / 10.0)
            mag = np.sqrt(snr_lin * scene.noise_power)
            coeff = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        targets.append(replace(tgt, coeff=coeff))
    return replace(scene, targets=targets)


def cp_limited_range(frame: FrameConfig) -> float:
    """Maximum round-trip range resolvable inside the cyclic prefix, c0*T_cp/2."""
    return SPEED_OF_LIGHT * frame.t_cp / 2.0


# ---------------------------------------------------------------------------
# ISI/ICI-tackled estimator
# ---------------------------------------------------------------------------

def _rx_samples(y: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """Per-symbol unitary IDFT of the received vector: its time samples, (N, M)."""
    m_sc = frame.m_subcarriers
    return np.fft.ifft(y.reshape(frame.n_symbols, m_sc), axis=1) * np.sqrt(m_sc)


def _ratio(corr: complex, energy: float) -> float:
    return float(abs(corr) ** 2 / energy) if energy > 0.0 else 0.0


# The tackled objective |<H(tau,nu)x, y>|^2 / ||H(tau,nu)x||^2 along one axis,
# read off the time samples y_t = _rx_samples(y): the per-symbol DFT is
# unitary, so <H x, y> = <rows * ramp, y_t> with rows = _delayed_rows(tau) and
# ramp the unit-modulus Doppler ramp, and ||H x||^2 = ||rows||^2.

class _ReadSymbols(NamedTuple):
    """The transmit symbols a delay line reads, in stream order, (n_prev + N, M) each.

    Rows are the last n_prev symbols of the previous slot, then the current
    slot. x_conj[k] = conj(X_k), and autocorr[k, d] = sum_m conj(X_k[m+d]) X_k[m]
    for 0 <= d < M, the aperiodic autocorrelation of symbol k's subcarriers.
    When no read delay passes the CP (n_prev = 0), autocorr holds only its
    d = 0 column ||X_k||^2: every row then reads each sample of one symbol
    once, so the other columns do not enter the energy.
    """

    x_conj: np.ndarray
    autocorr: np.ndarray


def _read_symbols(pair: ExtendedTxPair, frame: FrameConfig, tau_max: float) -> _ReadSymbols:
    """The symbols every delay in [0, tau_max] reads, for _delay_line."""
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    n_prev = _sample_lag(tau_max, frame)[2]
    x = np.ascontiguousarray(np.concatenate([pair.x_prev[:, n_sym - n_prev:], pair.x_curr],
                                            axis=1).T)
    if n_prev == 0:
        return _ReadSymbols(x.conj(), np.sum(x.real ** 2 + x.imag ** 2, axis=1, keepdims=True))
    # |FFT_2M(X_k)|^2 is real, so conj(IFFT(.)) = FFT(.) / 2M, and rfft holds d < M
    power = np.abs(np.fft.fft(x, n=2 * m_sc, axis=1))
    np.square(power, out=power)
    autocorr = np.fft.rfft(power, axis=1)[:, :m_sc]
    autocorr /= 2 * m_sc
    return _ReadSymbols(x.conj(), autocorr)


def _fold(sym: np.ndarray, m_cp: int) -> np.ndarray:
    """Per-symbol stream columns (K, M + m_cp) summed onto the M samples the CP repeats.

    Stream column c < m_cp carries sample M - m_cp + c, column c >= m_cp sample c - m_cp.
    """
    out = sym[:, m_cp:].copy()
    out[:, out.shape[1] - m_cp:] += sym[:, :m_cp]
    return out


def _lag_terms(target: np.ndarray, symbols: _ReadSymbols, frame: FrameConfig, lag: int):
    """Coefficients (c, e) of the objective's numerator and denominator at one whole-sample lag.

    With rows = _delayed_rows at this lag and sub-sample fraction phi, and
    rho_d = e^{-2 pi i phi d / M}:
        <rows, target> = sum_d rho_d c_d,
        ||rows||^2     = 2 Re sum_d rho_d e_d - Re e_0.
    c_d = M^-1/2 sum_k conj(X_k[d]) FFT(G_k)[d], where G_k is target scattered
    onto the stream positions its rows read and folded onto symbol k's samples;
    e_d = M^-1 sum_k FFT(W_k)[d] autocorr_k[d], where W_k counts how often each
    sample of symbol k is read. Row n reads symbol a + n from column o on and,
    past its end, the head of symbol a + n + 1, so W_k takes two patterns.
    e has as many terms as symbols.autocorr has columns.
    """
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    p_len = m_sc + m_cp
    n_read = symbols.x_conj.shape[0]
    first = (n_read - n_sym) * p_len + m_cp - lag
    if first < 0:
        raise ValueError(f"lag {lag} reaches past the {n_read} symbols read")
    stream = np.zeros(n_read * p_len + m_cp, dtype=complex)
    stream[first:first + n_sym * p_len].reshape(n_sym, p_len)[:, :m_sc] = target
    folded = _fold(stream[:n_read * p_len].reshape(n_read, p_len), m_cp)
    del stream
    corr = np.einsum("km,km->m", symbols.x_conj, np.fft.fft(folded, axis=1)) / np.sqrt(m_sc)

    a, o = divmod(first, p_len)
    spill = max(0, o + m_sc - p_len)
    counts = np.zeros((2, p_len))
    counts[0, o:o + m_sc] = 1.0
    counts[1, :spill] = 1.0
    w_hat = np.fft.fft(_fold(counts, m_cp), axis=1)
    energy = w_hat[0, :symbols.autocorr.shape[1]] * symbols.autocorr[a:a + n_sym].sum(axis=0)
    if spill:
        energy += w_hat[1] * symbols.autocorr[a + 1:a + 1 + n_sym].sum(axis=0)
    return corr, energy / m_sc


def _delay_line(y_t: np.ndarray, nu: float, frame: FrameConfig, symbols: _ReadSymbols):
    """The objective as a function of tau at fixed nu: O(M) per probe.

    Each whole-sample lag pays one FFT of the symbols it reads (_lag_terms),
    cached for the line; a probe is then one length-M exp and two dot products
    in its sub-sample fraction. symbols must cover the deepest probed delay.
    """
    per_symbol, per_sample = _doppler_factors(nu, frame)
    target = y_t * np.outer(per_symbol, per_sample).conj()
    rate = -2j * np.pi * np.arange(frame.m_subcarriers) / frame.m_subcarriers
    terms = {}

    def fun(tau: float) -> float:
        lag, frac, _ = _sample_lag(tau, frame)
        if lag not in terms:
            terms[lag] = _lag_terms(target, symbols, frame, lag)
        corr, energy = terms[lag]
        ramp = np.exp(rate * frac)
        return _ratio(ramp @ corr, 2.0 * (ramp[:energy.size] @ energy).real - energy[0].real)
    return fun


def _doppler_line(y_t: np.ndarray, tau: float, pair: ExtendedTxPair, frame: FrameConfig):
    """The objective as a function of nu at fixed tau: N + M exps per probe."""
    rows = _delayed_rows(tau, pair, frame)
    energy = float(np.sum(rows.real ** 2 + rows.imag ** 2))
    corr = rows.conj() * y_t

    def fun(nu: float) -> float:
        per_symbol, per_sample = _doppler_factors(nu, frame)
        return _ratio(per_symbol.conj() @ corr @ per_sample.conj(), energy)
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


def _coarse_scan(y_t: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                 i_nodes: np.ndarray, j_nodes: np.ndarray):
    """Evaluate the tackled objective of y_t = _rx_samples(y) on half-bin lattice nodes.

    The nodes are _half_bin_grid's integers: Doppler node j at j / (2 N T_o),
    and delay node i at i T/(2M). With P = M + m_cp samples of T/M per symbol,
    node i reads the serialized transmit stream of the two slots at half-sample
    phase i % 2, (i + 1) // 2 samples back. Two regimes by FFT cross-correlation,
    chosen from the deepest lag once the nodes have been checked against the slot:

    - Deepest lag <= m_cp: every receive symbol reads a cyclic shift of one
      current-slot symbol, and the scan runs per symbol in the frequency
      domain (_scan_in_cp): one (N, M) FFT per Doppler residue, no stream.
    - Deeper: for one Doppler node the correlations of all delays with the
      Doppler-rotated receive stream (zero on the CP samples) are one
      cross-correlation per phase. It is computed overlap-save: the receive
      stream is cut into blocks, each correlated against the transmit samples
      from the largest lag before it, and the block spectra are summed before
      one short inverse FFT. Each delay's energy ||H(tau, nu) x||^2 is a sum
      of N windows of a cumulative sum of |stream|^2. Cost per Doppler node:
      one batched FFT of about N*P samples, whatever the delay span; the
      Doppler ramp is applied by a running product.
    """
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    p_len = m_sc + m_cp
    if i_nodes.min() < 0 or i_nodes.max() > 2 * n_sym * p_len:
        raise ValueError("delay grid outside [0, slot duration]")
    lags = (i_nodes + 1) // 2
    lag_max = int(lags.max())
    if lag_max <= m_cp:
        return _scan_in_cp(y_t, pair.x_curr, frame, i_nodes, j_nodes)
    d_nu = 1.0 / (2 * n_sym * frame.t_total)
    out = np.zeros((i_nodes.size, j_nodes.size))
    by_phase = [(sel, lags[sel]) for sel in (i_nodes % 2 == 0, i_nodes % 2 == 1)]

    # receive samples m_cp .. N*P-1 of the slot in n_blk blocks of blk_len; the
    # transmit stream starts with the n_prev previous-slot symbols lag_max reaches.
    # Four buffers span all blocks (n_blk * (span / n_blk + lag_max) samples)
    # and two one block; sqrt(span / (2 lag_max)) blocks minimises their sum.
    span = n_sym * p_len - m_cp
    n_blk = max(1, round(np.sqrt(span / (2 * (lag_max + 1)))))
    fft_len = _fast_fft_len(-(-span // n_blk) + lag_max)
    blk_len = fft_len - lag_max
    n_blk = -(-span // blk_len)
    n_prev = _symbols_back(lag_max, frame)
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
    flat[:n_sym * p_len].reshape(n_sym, p_len)[:, :m_sc] = y_t
    body[...] = flat[:n_blk * blk_len].reshape(n_blk, blk_len)
    del flat
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


def _scan_in_cp(y_t: np.ndarray, x_curr: np.ndarray, frame: FrameConfig, i_nodes: np.ndarray,
                j_nodes: np.ndarray) -> np.ndarray:
    """_coarse_scan of the receive samples y_t on nodes i whose lag (i + 1) // 2 is <= m_cp.

    Row n then reads current-slot symbol n cyclically shifted by i/2 samples,
    so with G_j[n] = FFT_M(y_t[n] * e^{-2 pi i j (m_cp + m) / (2NP)}):
        corr[i, j] = M^-1/2 sum_k e^{2 pi i k i / (2M)}
                     sum_n e^{-2 pi i j n / (2N)} conj(X_n[k]) G_j[n, k],
    and every node's energy is sum_n ||X_n||^2. Both half-sample phases of a
    Doppler node come out of one 2M-point inverse FFT, batched over 8 nodes.
    Doppler nodes j and j + K, K = 2NP / gcd(2NP, M), have
    G_{j+K}[n, k] = G_j[n, k + M / gcd] times a constant phase, which |corr|^2
    drops: one (N, M) FFT per residue of j mod K, then O(NM) per node.
    """
    m_sc, n_sym, m_cp = frame.m_subcarriers, frame.n_symbols, frame.m_cp
    out = np.zeros((i_nodes.size, j_nodes.size))
    energy = float(np.sum(x_curr.real ** 2 + x_curr.imag ** 2))
    if energy == 0.0:
        return out
    period = 2 * n_sym * (m_sc + m_cp)
    k_res, bins = period // np.gcd(period, m_sc), m_sc // np.gcd(period, m_sc)
    sample_rate = -2j * np.pi * (m_cp + np.arange(m_sc)) / period
    symbol_rate = -1j * np.pi * np.arange(n_sym) / n_sym
    x_conj = np.ascontiguousarray(x_curr.T.conj())
    # each node's bin shift from the first node of its residue
    _, first, which = np.unique(j_nodes % k_res, return_index=True, return_inverse=True)
    shifts = (j_nodes - j_nodes[first][which]) // k_res * bins % m_sc
    s_max = int(shifts.max())
    # G_j0 with its first s_max bins repeated after the last, so that every
    # shift reads one contiguous window; the nodes' z rows go 8 to a read-out
    spec = np.empty((n_sym, m_sc + s_max), dtype=complex)
    prod = np.empty((n_sym, m_sc), dtype=complex)
    block, res = 8, -1
    z = np.empty((block, m_sc), dtype=complex)
    read = i_nodes % (2 * m_sc)
    order = np.argsort(which, kind="stable")  # residue by residue
    for start in range(0, order.size, block):
        cols = order[start:start + block]
        for row, col in enumerate(cols):
            if which[col] != res:
                res = which[col]
                np.fft.fft(y_t * np.exp(sample_rate * j_nodes[first[res]]), axis=1,
                           out=spec[:, :m_sc])
                spec[:, m_sc:] = spec[:, :s_max]
            np.multiply(x_conj, spec[:, shifts[col]:shifts[col] + m_sc], out=prod)
            np.matmul(np.exp(symbol_rate * j_nodes[col]), prod, out=z[row])
        corr = np.fft.ifft(z[:cols.size], n=2 * m_sc, axis=1, norm="forward")[:, read]
        out[:, cols] = (corr.real ** 2 + corr.imag ** 2).T
    out /= m_sc * energy
    return out


def _half_bin_grid(frame: FrameConfig, tau_max: float = None, nu_max: float = None):
    """Coarse half-bin lattice of the tackled scan.

    Returns (d_tau, d_nu, i_nodes, j_nodes): integer nodes (i, j) at (i d_tau, j d_nu),
    d_tau = T/(2M) over [0, min(tau_max, T_slot)] and d_nu = 1/(2*N*T_o) over
    [-nu_max, nu_max]. The defaults are the full slot and half the symbol rate;
    a negative bound raises.
    """
    if min(tau_max or 0.0, nu_max or 0.0) < 0:
        raise ValueError(f"negative search bound: tau_max={tau_max}, nu_max={nu_max}")
    tau_max = frame.t_slot if tau_max is None else min(tau_max, frame.t_slot)
    nu_max = 1.0 / (2 * frame.t_total) if nu_max is None else nu_max
    d_tau = frame.t_symbol / (2 * frame.m_subcarriers)
    d_nu = 1.0 / (2 * frame.n_symbols * frame.t_total)
    # as many delay nodes as np.arange(0.0, tau_max + d_tau / 2, d_tau) holds
    i_nodes = np.arange(int(np.ceil((tau_max + d_tau / 2) / d_tau)))
    j_max = int(np.floor(nu_max / d_nu + 1e-9))
    return d_tau, d_nu, i_nodes, np.arange(-j_max, j_max + 1)


def tackled_estimate(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                     tau_max: float = None, nu_max: float = None,
                     rounds: int = 3, iters: int = 40):
    """Single-target estimate maximizing the exact-model normalized correlation.

    Coarse grid at half-bin spacing (T/(2M) in delay, 1/(2*N*T_o) in Doppler)
    over [0, tau_max] x [-nu_max, nu_max], then alternating line searches one
    coarse step around the best node (sensing_rx.alternating_refine); scan and
    line searches read the same receive samples. Returns a TackledEstimate;
    raises FlatObjectiveError when the objective is zero on every coarse node.
    """
    d_tau, d_nu, i_nodes, j_nodes = _half_bin_grid(frame, tau_max, nu_max)
    y_t = _rx_samples(y, frame)
    prof = _coarse_scan(y_t, pair, frame, i_nodes, j_nodes)
    if not np.any(prof > 0):
        raise FlatObjectiveError("no detectable target: flat matched-filter objective")
    i, j = np.unravel_index(int(np.argmax(prof)), prof.shape)
    tau0, nu0 = float(i_nodes[i] * d_tau), float(j_nodes[j] * d_nu)

    tau_box = (max(0.0, tau0 - d_tau), min(frame.t_slot, tau0 + d_tau))
    symbols = _read_symbols(pair, frame, tau_box[1])
    (tau, nu), best = alternating_refine(
        # this module's binding of the search, so isi_ici.golden_section_max
        # names the line searches of the tackled refinement
        golden_section_max,
        (lambda p: _delay_line(y_t, p[1], frame, symbols),
         lambda p: _doppler_line(y_t, p[0], pair, frame)),
        (tau0, nu0), (tau_box, (nu0 - d_nu, nu0 + d_nu)),
        (1e-6 * d_tau, 1e-6 * d_nu), rounds, iters)
    return TackledEstimate(
        tau_hat=tau, nu_hat=nu,
        range_hat=range_of_delay(tau), velocity_hat=velocity_of_doppler(nu, frame.fc),
        peak_value=best, range_profile=(i_nodes * d_tau, prof.max(axis=1)))


def tackled_range_profile(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                          tau_max: float, nu_max: float):
    """Per-delay maximum of the tackled objective over the Doppler grid.

    Returns (tau_nodes, profile) on the coarse half-bin delay lattice by
    rescanning y. The demos render TackledEstimate.range_profile instead, the
    same pair that tackled_estimate keeps for its own input.
    """
    d_tau, _, i_nodes, j_nodes = _half_bin_grid(frame, tau_max, nu_max)
    prof = _coarse_scan(_rx_samples(y, frame), pair, frame, i_nodes, j_nodes)
    return i_nodes * d_tau, prof.max(axis=1)


def _cancel(y: np.ndarray, count: int, detect, response) -> list:
    """Detect, fit, subtract: the successive-cancellation loop of both models.

    Each pass detects the strongest remaining target with detect(residual),
    fits alpha = <h, r> / ||h||^2 on its model response h = response(est) and
    subtracts alpha * h. Returns [(estimate, alpha)], strongest first; shorter
    than count when detect finds a flat objective. alpha * h is subtracted in
    place, bit for bit as residual - alpha * h, and freed before the next pass.
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
        np.subtract(residual, np.multiply(alpha, h, out=h), out=residual)
        del h
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

def _unaware_profile(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig, tau_max: float):
    """The phase-ramp model's matched filter of y, and its 2D-DFT grid tiled over [0, tau_max].

    Returns (MlProfile, grid) with the grid shaped (n_bins, N) in delay steps of T/M.
    """
    prof = MlProfile(y.reshape(frame.m_subcarriers, frame.n_symbols, order="F"), pair.x_curr,
                     frame)
    n_bins = int(np.floor(tau_max / (frame.t_symbol / frame.m_subcarriers))) + 1
    return prof, np.tile(prof.grid(), (int(np.ceil(n_bins / frame.m_subcarriers)), 1))[:n_bins]


def unaware_range_profile(y: np.ndarray, pair: ExtendedTxPair, frame: FrameConfig,
                          tau_max: float):
    """Matched-filter profile of the phase-ramp model, tiled past its ambiguity.

    The unaware model X ⊙ Psi(tau, nu) is periodic in tau with period 1/delta_f,
    so the delay axis beyond one symbol repeats; the tiling makes aliases of
    strong targets visible exactly where a plotted profile would show them.
    Returns (tau_bins, profile) with profile shaped (n_bins, N).
    """
    ext = _unaware_profile(y, pair, frame, tau_max)[1]
    return np.arange(ext.shape[0]) * (frame.t_symbol / frame.m_subcarriers), ext


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
    prof, work = _unaware_profile(y, pair, frame, tau_max)
    d_tau = frame.t_symbol / frame.m_subcarriers
    excl = max(1, int(round(exclusion_m / (SPEED_OF_LIGHT * d_tau / 2.0))))
    results = []
    for _ in range(count):
        m0_ext, j = np.unravel_index(int(np.argmax(work)), work.shape)
        est = gss_refine(prof, (int(m0_ext), int(doppler_bin(j, frame.n_symbols))), frame)
        results.append(est)
        work[max(0, m0_ext - excl):m0_ext + excl + 1, :] = 0.0
    return results
