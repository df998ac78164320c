"""Sensing receiver for the ISI/ICI-free model.

Receive combining onto the RF-chain domain, observation stacking across
subcarriers and symbols, subspace (MUSIC) azimuth estimation against the
combined array manifold, and two-phase delay-Doppler estimation: a coarse 2D
DFT grid maximum followed by alternating line searches (Brent's method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (SensingScene, awgn, check_isi_ici_free, range_of_delay,
                      velocity_of_doppler)
from .geometry import (AngularWindow, UpaGeometry, steering_factors, steering_many,
                       steering_upa)
from .precoding import PrecoderSet, SwitchMatrix
from .waveform import FrameConfig

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
EPS = np.finfo(float).eps


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
    the rank-P factorization of H_s so large arrays stay tall-skinny. The
    combined noise W^H e ~ CN(0, sigma^2 W^H W) is drawn in the RF-chain
    domain: n_rf white rows coloured by R^H from W = QR, continuous in W also
    where the Gram W^H W is degenerate or singular.
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
    r = np.linalg.qr(combiner.matrix, mode="r")
    noise = awgn((combiner.n_rf, m_sc * n_sym), scene.noise_power, rng)
    y3 += (r.conj().T @ noise).reshape(combiner.n_rf, m_sc, n_sym)
    return ObservationBlock(y=y3)


# ---------------------------------------------------------------------------
# Angle estimation
# ---------------------------------------------------------------------------

@dataclass
class MusicResult:
    """Pseudo-spectrum over the search grid and the located peaks."""

    angles: np.ndarray
    spectrum: np.ndarray
    peak_angles: np.ndarray
    eigenvalues: np.ndarray = None


@dataclass
class MusicGrid:
    """An azimuth search grid with the Kronecker factors of its UPA responses.

    a_z is (l_count,) and a_y is (w_count, angles.size), as steering_factors
    returns them at the grid's elevation. Neither depends on the observations,
    so one grid serves every trial of a slot.
    """

    angles: np.ndarray
    a_z: np.ndarray
    a_y: np.ndarray
    elevation: float


def music_grid(search_window: AngularWindow, grid_step_deg: float, geom: UpaGeometry,
               elevation: float = np.pi / 2) -> MusicGrid:
    """The window's MUSIC grid, lo to hi inclusive in grid_step_deg steps, with its factors."""
    step = np.deg2rad(grid_step_deg)
    angles = np.arange(search_window.lo, search_window.hi + step / 2, step)
    return MusicGrid(angles, *steering_factors(angles, elevation, geom), elevation)


def music_spectrum(block: ObservationBlock, combiner: ReceiveCombiner, p_q: int,
                   grid: MusicGrid) -> MusicResult:
    """Subspace pseudo-spectrum against the combined manifold, peaks refined.

    P(theta) = ||W^H a(theta)||^2 / ||U_n^H W^H a(theta)||^2 over grid.angles,
    with U_n the noise eigenvectors of the sample covariance of the stacked
    block. Peak locations get a parabolic refinement on the noise-projection
    minimum. W^H a(theta) is formed through the grid's Kronecker factors
    a_z kron a_y(theta): a_z is folded into the combiner once, leaving a
    (n_rf, W) by (W, grid) product.
    """
    if p_q >= block.n_rf:
        raise ValueError(f"p_q={p_q} leaves no noise subspace with {block.n_rf} chains")
    y = block.stacked()
    r = y @ y.conj().T / y.shape[1]
    evals, evecs = np.linalg.eigh(r)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    u_n = evecs[:, p_q:]

    w_count = grid.a_y.shape[0]
    w_y = np.tensordot(grid.a_z, combiner.matrix.conj().reshape(grid.a_z.size, w_count, -1), 1)
    t = w_y.T @ grid.a_y
    num = np.sum(np.abs(t) ** 2, axis=0)
    den = np.sum(np.abs(u_n.conj().T @ t) ** 2, axis=0)
    spectrum = num / np.maximum(den, 1e-300)

    peak_angles = _pick_peaks(grid.angles, spectrum, den, p_q)
    return MusicResult(angles=grid.angles, spectrum=spectrum, peak_angles=peak_angles,
                       eigenvalues=evals)


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
        # per-probe phase rates, so a probe only scales them by tau and nu
        self._tau_rate = 2j * np.pi * np.arange(self.z.shape[0]) * frame.delta_f
        self._nu_rate = -2j * np.pi * np.arange(self.z.shape[1]) * frame.t_total

    def __call__(self, tau: float, nu: float) -> float:
        psi_tau_c = np.exp(self._tau_rate * tau)
        psi_nu_c = np.exp(self._nu_rate * nu)
        return float(np.abs(psi_tau_c @ self.z @ psi_nu_c) ** 2)

    def doppler_line(self, tau: float):
        """The objective as a function of nu at fixed tau, bit-identical to self(tau, nu).

        The row psi_tau^H z is built once; a probe is one length-N exp and dot.
        """
        row = np.exp(self._tau_rate * tau) @ self.z
        return lambda nu: float(np.abs(row @ np.exp(self._nu_rate * nu)) ** 2)

    def grid(self) -> np.ndarray:
        """The objective on the whole 2D-DFT grid, M*N*|FFT_n(IFFT_m(z))|^2, shape (M, N).

        Entry [m0, j] is the objective at tau = m0/(M*delta_f), nu = j/(N*T_o).
        """
        m_sc, n_sym = self.z.shape
        g = np.fft.fft(np.fft.ifft(self.z, axis=0) * np.sqrt(m_sc), axis=1) / np.sqrt(n_sym)
        return m_sc * n_sym * np.abs(g) ** 2


def doppler_bin(j: int, n_sym: int) -> int:
    """Signed Doppler index n0 in [-N/2, N/2) of column j of an N-point 2D-DFT grid."""
    return j - n_sym if j >= (n_sym + 1) // 2 else j


def sdft_coarse(profile: MlProfile):
    """On-grid maximization of the objective via summed 2D DFTs.

    The grid is tau = m0/(M*delta_f), nu = n0/(N*T_o) with m0 in [0, M) and
    n0 in [-N/2, N/2). Returns ((m0, n0), grid) where grid = profile.grid()
    and grid[m0, j] equals profile at Doppler index j folded mod N.
    """
    grid = profile.grid()
    m0, j = divmod(int(np.argmax(grid)), grid.shape[1])
    return (m0, doppler_bin(j, grid.shape[1])), grid


def golden_section_max(fun, lo: float, hi: float, iters: int = 40,
                       tol: float = 0.0) -> tuple:
    """Maximize fun on [lo, hi] by Brent's method; returns (x, fun(x)).

    Golden-section steps plus parabolic steps through the three best points
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
    Stops once the bracket around the best point is within the absolute
    tolerance tol, or after iters steps: at most iters + 1 evaluations.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + (1.0 - GOLDEN) * (b - a)
    fx = fw = fv = fun(x)
    d = e = 0.0
    for _ in range(iters):
        mid = 0.5 * (a + b)
        tol1 = tol / 3.0 + 4.0 * EPS * abs(x)
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx) at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accepted only inside the bracket and shorter than half the step
            # before last, so a stalling fit falls back to golden sections
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            e = d
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                d = tol1 if mid >= x else -tol1
        else:
            e = (a if x >= mid else b) - x
            d = (1.0 - GOLDEN) * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0 else -tol1))
        fu = fun(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def alternating_refine(search, lines, start, boxes, tols, rounds: int, iters: int) -> tuple:
    """Alternating line searches over a 2D box, from start.

    lines[k](point) is the objective along axis k through point, as a function
    of that coordinate alone; search(fun, lo, hi, iters, tol) maximizes it
    over boxes[k] = (lo, hi) to tolerance tols[k]. A move is taken only when
    it beats the best value so far, so the result never scores below start;
    a non-unimodal region degrades to the best found. Stops after rounds
    rounds, or after the first round that improves nothing. Each axis's
    line is built anew only when a coordinate it holds has moved. Returns
    (point, best value).
    """
    point = list(start)
    built = {}

    def line_at(k: int):
        held = point[:k] + point[k + 1:]
        if k not in built or built[k][0] != held:
            built.pop(k, None)  # free the stale line before its successor is built
            built[k] = (held, lines[k](point))
        return built[k][1]

    best = line_at(0)(point[0])
    for _ in range(rounds):
        improved = False
        for k in range(len(lines)):
            cand, val = search(line_at(k), *boxes[k], iters, tols[k])
            if val > best:
                point[k], best, improved = cand, val, True
        if not improved:
            break
    return tuple(point), best


def gss_refine(profile, coarse_bin: tuple, frame: FrameConfig, rounds: int = 3,
               iters: int = 40) -> DelayDopplerEstimate:
    """Continuous refinement around the coarse bin by alternating 1D searches.

    The search region spans one grid step either side of the coarse maximum on
    both axes; see alternating_refine. profile is an MlProfile or any callable
    (tau, nu) -> value; only an MlProfile has a cheaper Doppler line.
    """
    m0, n0 = coarse_bin
    d_tau = 1.0 / (frame.m_subcarriers * frame.delta_f)
    d_nu = 1.0 / (frame.n_symbols * frame.t_total)
    doppler_line = getattr(profile, "doppler_line", lambda t: lambda v: profile(t, v))
    (tau, nu), best = alternating_refine(
        golden_section_max,
        (lambda p: lambda t: profile(t, p[1]), lambda p: doppler_line(p[0])),
        (m0 * d_tau, n0 * d_nu),
        (((m0 - 1) * d_tau, (m0 + 1) * d_tau), ((n0 - 1) * d_nu, (n0 + 1) * d_nu)),
        (1e-6 * d_tau, 1e-6 * d_nu), rounds, iters)
    return DelayDopplerEstimate(
        tau_hat=tau, nu_hat=nu,
        range_hat=range_of_delay(tau), velocity_hat=velocity_of_doppler(nu, frame.fc),
        peak_value=best)


def estimate_slot(block: ObservationBlock, combiner: ReceiveCombiner,
                  precoders: PrecoderSet, symbols: np.ndarray, frame: FrameConfig,
                  grid: MusicGrid, p_q: int, tx_geom: UpaGeometry,
                  rx_geom: UpaGeometry) -> list:
    """Full per-slot pipeline: angles by MUSIC on grid, then delay-Doppler per angle.

    Each angle's matched-filter profile is built once and serves both the
    coarse grid and the refinement. Returns a list of (theta_hat,
    DelayDopplerEstimate), one entry per assumed target in the slot's
    search window.
    """
    music = music_spectrum(block, combiner, p_q, grid)
    results = []
    for theta in music.peak_angles:
        xhat = reconstruct_reference(theta, grid.elevation, combiner, precoders, symbols,
                                     tx_geom, rx_geom)
        profile = MlProfile(block.y, xhat, frame)
        coarse, _ = sdft_coarse(profile)
        results.append((float(theta), gss_refine(profile, coarse, frame)))
    return results
