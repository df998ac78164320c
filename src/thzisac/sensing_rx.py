"""Sensing receiver for the ISI/ICI-free model.

Receive combining onto the RF-chain domain, observation stacking across
subcarriers and symbols, subspace (MUSIC) azimuth estimation against the
combined array manifold, and two-phase delay-Doppler estimation: a coarse 2D
DFT grid maximum followed by alternating golden-section refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (SensingScene, awgn, check_isi_ici_free, range_of_delay,
                      velocity_of_doppler)
from .geometry import AngularWindow, UpaGeometry, steering_many, steering_upa
from .precoding import PrecoderSet, SwitchMatrix
from .waveform import FrameConfig

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class ReceiveCombiner:
    """RF-chain combiner: unit-norm (possibly subarray-masked) steering columns."""

    matrix: np.ndarray
    direction_angles: np.ndarray
    elevation: float = np.pi / 2

    @property
    def n_rf(self) -> int:
        return self.matrix.shape[1]


def receive_combiner(window: AngularWindow, n_rf_r: int, geom: UpaGeometry,
                     rng: np.random.Generator, switch: SwitchMatrix = None,
                     elevation: float = np.pi / 2) -> ReceiveCombiner:
    """Point n_rf_r receive beams at angles drawn uniformly inside the window.

    With a receive switch pattern, chain u sees only its closed subarrays; the
    column is the steering phase profile masked to that support and rescaled to
    unit norm.
    """
    angles = rng.uniform(window.lo, window.hi, size=n_rf_r)
    cols = steering_many(angles, elevation, geom)
    if switch is not None:
        mask = switch.expand()[:, :n_rf_r]
        cols = np.where(mask, cols, 0.0)
        norms = np.linalg.norm(cols, axis=0)
        if np.any(norms == 0):
            raise ValueError("a receive chain has no closed subarray")
        cols = cols / norms
    return ReceiveCombiner(matrix=cols, direction_angles=angles, elevation=elevation)


@dataclass
class ObservationBlock:
    """Combined observations y_q[m, n], kept as (n_rf, M, N)."""

    y: np.ndarray
    slot_index: int = 1

    @property
    def n_rf(self) -> int:
        return self.y.shape[0]

    def stacked(self) -> np.ndarray:
        """(n_rf, M*N) with column index n*M + m (symbol-major block order)."""
        n_rf, m_sc, n_sym = self.y.shape
        return self.y.transpose(0, 2, 1).reshape(n_rf, m_sc * n_sym)


def simulate_rx(scene: SensingScene, precoders: PrecoderSet, symbols: np.ndarray,
                combiner: ReceiveCombiner, frame: FrameConfig, q: int,
                tx_geom: UpaGeometry, rx_geom: UpaGeometry,
                rng: np.random.Generator, check_model: bool = True) -> ObservationBlock:
    """Combined received block for one slot under the ISI/ICI-free channel.

    y_q[m,n] = W^H H_s[m,n] F_RF F_BB[m] s[m,n] + W^H e[m,n], evaluated through
    the rank-P factorization of H_s so large arrays stay tall-skinny.
    """
    if check_model:
        check_isi_ici_free(scene, frame)
    ns, m_sc, n_sym = symbols.shape
    scale = (np.sqrt(tx_geom.n_elements * rx_geom.n_elements / scene.n_targets)
             if scene.targets else 0.0)
    m_idx = np.arange(m_sc)
    t_sym = (q - 1) * frame.t_slot + np.arange(n_sym) * frame.t_total
    y3 = np.zeros((combiner.n_rf, m_sc, n_sym), dtype=complex)
    for tgt in scene.targets:
        if tgt.coeff is None:
            raise ValueError("target coefficient unresolved; call resolve_coeffs first")
        a_r = steering_upa(tgt.azimuth, tgt.elevation, rx_geom)
        a_t = steering_upa(tgt.azimuth, tgt.elevation, tx_geom)
        c_p = combiner.matrix.conj().T @ a_r
        g_p = precoders.beam_response(a_t)
        xi = np.einsum("ms,smn->mn", g_p, symbols)
        phase = np.exp(-2j * np.pi * m_idx[:, None] * frame.delta_f * tgt.delay()) \
            * np.exp(2j * np.pi * t_sym[None, :] * tgt.doppler(frame.fc))
        y3 += scale * tgt.coeff * c_p[:, None, None] * (phase * xi)[None]
    noise = awgn((rx_geom.n_elements, m_sc * n_sym), scene.noise_power, rng)
    y3 += (combiner.matrix.conj().T @ noise).reshape(combiner.n_rf, m_sc, n_sym)
    return ObservationBlock(y=y3, slot_index=q)


# ---------------------------------------------------------------------------
# Angle estimation
# ---------------------------------------------------------------------------

@dataclass
class MusicResult:
    """Pseudo-spectrum over the search grid and the located peaks."""

    angles: np.ndarray
    spectrum: np.ndarray
    peak_angles: np.ndarray
    signal_dim: int
    noise_dim: int
    eigenvalues: np.ndarray = None


def music_spectrum(block: ObservationBlock, combiner: ReceiveCombiner, p_q: int,
                   angle_grid: np.ndarray, geom: UpaGeometry,
                   elevation: float = np.pi / 2) -> MusicResult:
    """Subspace pseudo-spectrum against the combined manifold, peaks refined.

    P(theta) = ||W^H a(theta)||^2 / ||U_n^H W^H a(theta)||^2, with U_n the
    noise eigenvectors of the sample covariance of the stacked block. Peak
    locations get a parabolic refinement on the noise-projection minimum.
    """
    if p_q >= block.n_rf:
        raise ValueError(f"p_q={p_q} leaves no noise subspace with {block.n_rf} chains")
    y = block.stacked()
    r = y @ y.conj().T / y.shape[1]
    evals, evecs = np.linalg.eigh(r)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    u_n = evecs[:, p_q:]

    angle_grid = np.asarray(angle_grid, dtype=float)
    t = combiner.matrix.conj().T @ steering_many(angle_grid, elevation, geom)
    num = np.sum(np.abs(t) ** 2, axis=0)
    den = np.sum(np.abs(u_n.conj().T @ t) ** 2, axis=0)
    spectrum = num / np.maximum(den, 1e-300)

    peak_angles = _pick_peaks(angle_grid, spectrum, den, p_q)
    return MusicResult(angles=angle_grid, spectrum=spectrum, peak_angles=peak_angles,
                       signal_dim=p_q, noise_dim=block.n_rf - p_q, eigenvalues=evals)


def _pick_peaks(angles: np.ndarray, spectrum: np.ndarray, den: np.ndarray,
                count: int, min_sep_bins: int = 25) -> np.ndarray:
    """Top local maxima with separation, parabolically refined on the null depth."""
    idx = np.arange(1, angles.size - 1)
    local = idx[(spectrum[idx] >= spectrum[idx - 1]) & (spectrum[idx] >= spectrum[idx + 1])]
    if local.size == 0:
        local = np.array([int(np.argmax(spectrum))])
    ranked = local[np.argsort(spectrum[local])[::-1]]
    chosen = []
    for i in ranked:
        if all(abs(i - j) >= min_sep_bins for j in chosen):
            chosen.append(int(i))
        if len(chosen) == count:
            break
    peaks = []
    step = angles[1] - angles[0] if angles.size > 1 else 0.0
    for i in chosen:
        if 0 < i < angles.size - 1 and step > 0:
            y0, y1, y2 = den[i - 1], den[i], den[i + 1]
            denom = y0 - 2.0 * y1 + y2
            delta = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
            peaks.append(angles[i] + np.clip(delta, -1.0, 1.0) * step)
        else:
            peaks.append(angles[i])
    return np.array(sorted(peaks))


# ---------------------------------------------------------------------------
# Delay-Doppler estimation
# ---------------------------------------------------------------------------

@dataclass
class DelayDopplerEstimate:
    tau_hat: float
    nu_hat: float
    range_hat: float
    velocity_hat: float
    coarse_bin: tuple
    peak_value: float


def reconstruct_reference(theta: float, phi: float, combiner: ReceiveCombiner,
                          precoders: PrecoderSet, symbols: np.ndarray,
                          tx_geom: UpaGeometry, rx_geom: UpaGeometry) -> np.ndarray:
    """Noise-free unit-coefficient response W^H a_r a_t^T F_RF F_BB[m] s[m,n].

    Returns (n_rf, M, N); the matched-filter template for a target at the
    estimated angle, with delay/Doppler phases left to the search.
    """
    a_r = steering_upa(theta, phi, rx_geom)
    a_t = steering_upa(theta, phi, tx_geom)
    c = combiner.matrix.conj().T @ a_r
    xi = np.einsum("ms,smn->mn", precoders.beam_response(a_t), symbols)
    return c[:, None, None] * xi[None]


class MlProfile:
    """Matched-filter objective |sum_u tr((Psi(tau,nu) ⊙ Xhat_u)^H Y_u)|^2.

    The denominator sum_u ||Psi ⊙ Xhat_u||_F^2 is constant in (tau, nu) because
    |Psi| = 1 entrywise, so only the numerator is evaluated.
    """

    def __init__(self, y_blocks: np.ndarray, xhat_blocks: np.ndarray, frame: FrameConfig):
        if y_blocks.ndim == 2:
            y_blocks = y_blocks[None]
        if xhat_blocks.ndim == 2:
            xhat_blocks = xhat_blocks[None]
        self.z = np.sum(np.conj(xhat_blocks) * y_blocks, axis=0)
        self.frame = frame
        self.template_energy = float(np.sum(np.abs(xhat_blocks) ** 2))

    def __call__(self, tau: float, nu: float) -> float:
        m_idx = np.arange(self.z.shape[0])
        n_idx = np.arange(self.z.shape[1])
        psi_tau_c = np.exp(2j * np.pi * m_idx * self.frame.delta_f * tau)
        psi_nu_c = np.exp(-2j * np.pi * n_idx * self.frame.t_total * nu)
        return float(np.abs(psi_tau_c @ self.z @ psi_nu_c) ** 2)

    def grid(self) -> np.ndarray:
        """The objective on the whole 2D-DFT grid, M*N*|FFT_n(IFFT_m(z))|^2, shape (M, N).

        Entry [m0, j] is the objective at tau = m0/(M*delta_f), nu = j/(N*T_o).
        """
        m_sc, n_sym = self.z.shape
        g = np.fft.fft(np.fft.ifft(self.z, axis=0) * np.sqrt(m_sc), axis=1) / np.sqrt(n_sym)
        return m_sc * n_sym * np.abs(g) ** 2


def ml_profile(y_blocks: np.ndarray, xhat_blocks: np.ndarray, tau: float, nu: float,
               frame: FrameConfig) -> float:
    """One-point evaluation of the matched-filter delay-Doppler objective."""
    return MlProfile(y_blocks, xhat_blocks, frame)(tau, nu)


def sdft_coarse(y_blocks: np.ndarray, xhat_blocks: np.ndarray, frame: FrameConfig):
    """On-grid maximization of the objective via summed 2D DFTs.

    The grid is tau = m0/(M*delta_f), nu = n0/(N*T_o) with m0 in [0, M) and
    n0 in [-N/2, N/2). Returns ((m0, n0), profile) where profile[m0, j] equals
    the direct objective at Doppler index j folded mod N, scaled to match
    ml_profile exactly.
    """
    profile = MlProfile(y_blocks, xhat_blocks, frame).grid()
    n_sym = profile.shape[1]
    flat = int(np.argmax(profile))
    m0, j = divmod(flat, n_sym)
    n0 = j - n_sym if j >= (n_sym + 1) // 2 else j
    return (m0, n0), profile


def golden_section_max(fun, lo: float, hi: float, iters: int = 40,
                       tol: float = 0.0) -> tuple:
    """1D golden-section maximization on [lo, hi]; returns (x, fun(x))."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    x = c if fc > fd else d
    return (x, max(fc, fd))


def gss_refine(profile, coarse_bin: tuple, frame: FrameConfig, rounds: int = 3,
               iters: int = 40) -> DelayDopplerEstimate:
    """Continuous refinement around the coarse bin by alternating 1D searches.

    The search region spans one grid step either side of the coarse maximum on
    both axes. Line-search results are accepted only when they improve on the
    best value seen, so the estimate never scores below its coarse bin.
    """
    m0, n0 = coarse_bin
    d_tau = 1.0 / (frame.m_subcarriers * frame.delta_f)
    d_nu = 1.0 / (frame.n_symbols * frame.t_total)
    tau, nu = m0 * d_tau, n0 * d_nu
    best = profile(tau, nu)
    tol_tau, tol_nu = 1e-6 * d_tau, 1e-6 * d_nu
    for _ in range(rounds):
        cand, val = golden_section_max(lambda t: profile(t, nu),
                                       (m0 - 1) * d_tau, (m0 + 1) * d_tau, iters, tol_tau)
        if val > best:
            tau, best = cand, val
        cand, val = golden_section_max(lambda v: profile(tau, v),
                                       (n0 - 1) * d_nu, (n0 + 1) * d_nu, iters, tol_nu)
        if val > best:
            nu, best = cand, val
    # moves are accepted only on improvement, so the result can never score
    # below the coarse bin; a non-unimodal region degrades to the best found
    return DelayDopplerEstimate(
        tau_hat=tau, nu_hat=nu,
        range_hat=range_of_delay(tau), velocity_hat=velocity_of_doppler(nu, frame.fc),
        coarse_bin=(m0, n0), peak_value=best)


def estimate_slot(block: ObservationBlock, combiner: ReceiveCombiner,
                  precoders: PrecoderSet, symbols: np.ndarray, frame: FrameConfig,
                  search_window: AngularWindow, p_q: int, tx_geom: UpaGeometry,
                  rx_geom: UpaGeometry, grid_step_deg: float = 0.01,
                  elevation: float = np.pi / 2) -> list:
    """Full per-slot pipeline: angles by MUSIC, then delay-Doppler per angle.

    Returns a list of (theta_hat, DelayDopplerEstimate), one entry per assumed
    target in the slot's search window.
    """
    step = np.deg2rad(grid_step_deg)
    grid = np.arange(search_window.lo, search_window.hi + step / 2, step)
    music = music_spectrum(block, combiner, p_q, grid, rx_geom, elevation)
    results = []
    for theta in music.peak_angles:
        xhat = reconstruct_reference(theta, elevation, combiner, precoders, symbols,
                                     tx_geom, rx_geom)
        prof = MlProfile(block.y, xhat, frame)
        coarse, _ = sdft_coarse(block.y, xhat, frame)
        est = gss_refine(prof, coarse, frame)
        results.append((float(theta), est))
    return results
