"""Hybrid precoding for joint communication and scan-beam synthesis.

Two designs for the dynamic array-of-subarray architecture: an alternating
vectorization (VEC) solver of the weighted Frobenius-distance problem, and a
one-shot codebook-assisted (SCA) update that reuses a communication-only analog
precoder. Also the fully digital SVD reference, spectral efficiency, and the
transmit beampattern.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import CommChannel, ModelMismatchWarning
from .geometry import SensingCodebook, UpaGeometry, steering_many


@dataclass(frozen=True)
class SwitchMatrix:
    """Subarray-to-RF-chain switch states for the dynamic subarray network.

    ``closed`` is (n_rf, n_rf) boolean: entry (i, j) connects subarray i to RF
    chain j. Each closed switch exposes a block of k_t phase shifters.
    """

    closed: np.ndarray
    k_t: int

    def __post_init__(self):
        closed = np.asarray(self.closed, dtype=bool)
        object.__setattr__(self, "closed", closed)
        if closed.ndim != 2 or closed.shape[0] != closed.shape[1]:
            raise ValueError(f"switch matrix must be square, got {closed.shape}")
        if self.k_t < 1:
            raise ValueError("subarray size must be >= 1")

    @property
    def n_rf(self) -> int:
        return self.closed.shape[0]

    @property
    def n_t(self) -> int:
        return self.n_rf * self.k_t

    @property
    def n_closed(self) -> int:
        return int(self.closed.sum())

    def expand(self) -> np.ndarray:
        """Antenna-level boolean mask (n_t, n_rf): each switch becomes a k_t block."""
        return np.repeat(self.closed, self.k_t, axis=0)


def default_switch_pattern(n_rf: int, n_closed: int, k_t: int) -> SwitchMatrix:
    """Diagonal-first pattern: n_rf closed gives AoSA, n_rf^2 gives FC.

    Intermediate counts close the diagonal first and then fill the remaining
    positions in row-major order.
    """
    if not n_rf <= n_closed <= n_rf * n_rf:
        raise ValueError(f"closed-switch count {n_closed} outside [{n_rf}, {n_rf * n_rf}]")
    closed = np.eye(n_rf, dtype=bool)
    extra = n_closed - n_rf
    for i in range(n_rf):
        for j in range(n_rf):
            if extra == 0:
                break
            if not closed[i, j]:
                closed[i, j] = True
                extra -= 1
    return SwitchMatrix(closed=closed, k_t=k_t)


@dataclass
class PrecoderSet:
    """Analog precoder (nt, n_rf), per-subcarrier digital precoders (M, n_rf, ns)."""

    analog: np.ndarray
    digital: np.ndarray
    switch: SwitchMatrix = None
    converged: bool = True
    objective_trace: list = field(default_factory=list)

    def tx_matrix(self, m: int) -> np.ndarray:
        """Effective transmit precoder F_RF @ F_BB[m]."""
        return self.analog @ self.digital[m]

    def tx_matrices(self) -> np.ndarray:
        """All effective precoders stacked (M, nt, ns)."""
        return np.einsum("tr,mrs->mts", self.analog, self.digital)

    def beam_response(self, a_t: np.ndarray) -> np.ndarray:
        """Per-subcarrier stream gains a_t^T F_RF F_BB[m] toward steering a_t, (M, ns)."""
        return (a_t @ self.analog) @ self.digital


# ---------------------------------------------------------------------------
# Reference precoders
# ---------------------------------------------------------------------------

def optimal_fully_digital(channel, ns: int):
    """First ns right/left singular vectors of the channel per subcarrier.

    ``channel`` is either a CommChannel (factored path, arbitrary array sizes)
    or a sequence of dense Nr x Nt matrices. Returns (F, C, S): arrays of shape
    (M, nt, ns), (M, nr, ns), (M, ns).
    """
    if isinstance(channel, CommChannel):
        return _svd_factored(channel, ns)
    mats = list(channel)
    f_list, c_list, s_list = [], [], []
    for h in mats:
        u, s, vh = np.linalg.svd(h, full_matrices=True)
        if min(h.shape) < ns or s[min(ns, s.size) - 1] <= s[0] * 1e-12:
            warnings.warn("channel rank below stream count; zero singular values kept",
                          ModelMismatchWarning)
        f_list.append(vh[:ns].conj().T)
        c_list.append(u[:, :ns])
        s_list.append(np.pad(s[:ns], (0, max(0, ns - s.size))))
    return np.stack(f_list), np.stack(c_list), np.stack(s_list)


def _svd_factored(channel: CommChannel, ns: int):
    a_r, a_t, gains = channel.factors()
    q_r, r_r = np.linalg.qr(a_r)
    q_t, r_t = np.linalg.qr(a_t)
    p = a_r.shape[1]
    if p < ns:
        warnings.warn("channel rank below stream count; zero singular values kept",
                      ModelMismatchWarning)
    f_list, c_list, s_list = [], [], []
    for m in range(gains.shape[1]):
        mid = r_r @ np.diag(gains[:, m]) @ r_t.conj().T
        u, s, vh = np.linalg.svd(mid)
        k = min(ns, p)
        f = q_t @ vh[:k].conj().T
        c = q_r @ u[:, :k]
        if k < ns:
            f = _pad_orthonormal(f, ns)
            c = _pad_orthonormal(c, ns)
        f_list.append(f)
        c_list.append(c)
        s_list.append(np.pad(s[:k], (0, ns - k)))
    return np.stack(f_list), np.stack(c_list), np.stack(s_list)


def _pad_orthonormal(mat: np.ndarray, ns: int) -> np.ndarray:
    """Extend columns to ns with deterministic orthonormal complements."""
    n, k = mat.shape
    basis = np.eye(n, dtype=complex)[:, :ns]
    q, _ = np.linalg.qr(np.hstack([mat, basis]))
    return q[:, :ns]


def optimal_sensing_precoder(codebook: SensingCodebook, q: int, ns: int) -> np.ndarray:
    """Rank-one scan precoder: ns copies of the unit-norm codebook column.

    ||F_s||_F^2 = ns, commensurate with the communication target so the
    weighted design trades real power between the two.
    """
    col = codebook.columns[:, q - 1]
    return np.tile(col[:, None], (1, ns))


# ---------------------------------------------------------------------------
# VEC alternating solver
# ---------------------------------------------------------------------------

@dataclass
class PrecodingTargets:
    """Weighted design targets: comm SVD precoders, scan column, and weight eta."""

    comm_opt: np.ndarray      # (M, nt, ns)
    sense_opt: np.ndarray     # (nt, ns)
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


def weighted_objective(targets: PrecodingTargets, f_rf: np.ndarray,
                       f_bb: np.ndarray) -> float:
    """(1/M) sum_m eta||F_c - F F_BB||^2 + (1-eta)||F_s - F F_BB||^2."""
    prod = np.einsum("tr,mrs->mts", f_rf, f_bb)
    e_c = np.sum(np.abs(targets.comm_opt - prod) ** 2, axis=(1, 2))
    e_s = np.sum(np.abs(targets.sense_opt[None] - prod) ** 2, axis=(1, 2))
    return float(np.mean(targets.eta * e_c + (1.0 - targets.eta) * e_s))


def vec_digital_update(targets: PrecodingTargets, f_rf: np.ndarray) -> np.ndarray:
    """Semi-unitary digital precoders from the orthogonal-Procrustes step.

    For each m, F_BB[m] = V1 U^H with U S V^H the SVD of G[m]^H B, where G
    stacks the sqrt-weighted targets and B the correspondingly weighted analog
    precoder. Returns (M, n_rf, ns).
    """
    eta = targets.eta
    # G^H B = eta F_c^H F_RF + (1-eta) F_s^H F_RF without forming the stacks
    gc = np.einsum("mts,tr->msr", targets.comm_opt.conj(), f_rf)
    gs = targets.sense_opt.conj().T @ f_rf
    ghb = eta * gc + (1.0 - eta) * gs[None]
    out = np.empty((ghb.shape[0], f_rf.shape[1], targets.comm_opt.shape[2]), dtype=complex)
    for m in range(ghb.shape[0]):
        u, _, vh = np.linalg.svd(ghb[m], full_matrices=False)
        out[m] = vh.conj().T @ u.conj().T
    return out


def vec_analog_update(targets: PrecodingTargets, f_bb: np.ndarray,
                      switch: SwitchMatrix, prev: np.ndarray = None) -> np.ndarray:
    """Phase-rotation update of the analog precoder on the closed-switch support.

    Each nonzero entry takes the phase of the matched entry of
    sum_m [eta F_c[m] + (1-eta) F_s] F_BB[m]^H; zero-magnitude entries keep
    their previous phase. Exact minimizer when F_BB[m] is square-unitary.
    """
    eta = targets.eta
    t_c = np.einsum("mts,mrs->tr", targets.comm_opt, f_bb.conj())
    t_s = targets.sense_opt @ f_bb.conj().sum(axis=0).T
    t = eta * t_c + (1.0 - eta) * t_s
    mask = switch.expand()
    out = np.zeros_like(t)
    mag = np.abs(t)
    ok = mask & (mag > 0)
    out[ok] = t[ok] / mag[ok]
    stuck = mask & (mag == 0)
    if stuck.any():
        out[stuck] = prev[stuck] if prev is not None else 1.0
    return out


def _random_phase_analog(switch: SwitchMatrix, rng: np.random.Generator) -> np.ndarray:
    mask = switch.expand()
    phases = np.exp(2j * np.pi * rng.random(mask.shape))
    return np.where(mask, phases, 0.0)


def _normalized_least_squares(f_rf: np.ndarray, weighted) -> np.ndarray:
    """Digital precoders F_BB[m] = sqrt(ns) F_RF^+ W[m] / ||F_RF F_RF^+ W[m]||_F.

    ``weighted`` yields the already-weighted (nt, ns) target W[m] of each
    subcarrier in turn, so no (M, nt, ns) temporary is formed. The result,
    (M, n_rf, ns), meets ||F_RF F_BB[m]||_F^2 = ns exactly.
    """
    pinv = np.linalg.pinv(f_rf)
    out = []
    for w in weighted:
        f_ls = pinv @ w
        norm = np.linalg.norm(f_rf @ f_ls)
        if norm == 0:
            raise ValueError("analog precoder annihilates the design target")
        out.append(np.sqrt(w.shape[1]) / norm * f_ls)
    return np.stack(out)


def finalize_digital(targets: PrecodingTargets, f_rf: np.ndarray) -> np.ndarray:
    """Least-squares digital precoders against the weighted target, power-normalized.

    The VEC target is W[m] = eta F_c[m] + (1-eta) F_s, the weighting of the
    alternating objective.
    """
    eta = targets.eta
    return _normalized_least_squares(
        f_rf, (eta * c + (1.0 - eta) * targets.sense_opt for c in targets.comm_opt))


def vec_hybrid_precoding(targets: PrecodingTargets, switch: SwitchMatrix,
                         max_iter: int = 50, tol: float = 1e-4,
                         rng: np.random.Generator = None) -> PrecoderSet:
    """Alternating digital/analog minimization of the weighted distance objective.

    Iterates until the relative objective change drops below tol or max_iter is
    hit, then replaces the semi-unitary digital precoders with the normalized
    least-squares solution so the transmit power constraint holds per subcarrier.
    The trace records the objective after every half-step.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    f_rf = _random_phase_analog(switch, rng)
    trace = []
    prev_obj = None
    converged = False
    f_bb = None
    for _ in range(max_iter):
        f_bb = vec_digital_update(targets, f_rf)
        trace.append(weighted_objective(targets, f_rf, f_bb))
        f_rf = vec_analog_update(targets, f_bb, switch, prev=f_rf)
        obj = weighted_objective(targets, f_rf, f_bb)
        trace.append(obj)
        if prev_obj is not None and abs(prev_obj - obj) <= tol * max(abs(prev_obj), 1e-30):
            converged = True
            break
        prev_obj = obj
    if not converged:
        warnings.warn(f"alternating loop hit max_iter={max_iter} before tol={tol}",
                      ModelMismatchWarning)
    digital = finalize_digital(targets, f_rf)
    return PrecoderSet(analog=f_rf, digital=digital, switch=switch,
                       converged=converged, objective_trace=trace)


# ---------------------------------------------------------------------------
# SCA one-shot update
# ---------------------------------------------------------------------------

def sca_hybrid_precoding(comm_opt: np.ndarray, codebook: SensingCodebook, q: int,
                         eta: float, comm_analog: np.ndarray,
                         switch: SwitchMatrix) -> PrecoderSet:
    """Codebook-assisted update of a communication-only analog precoder.

    Replaces the ceil(N_c*(1-eta)) closed blocks whose phase profiles are
    closest to the slot-q scan column with the column's (unit-modulus) phases,
    then solves the digital precoders in closed form against the weighted
    target. No per-slot alternating iterations.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    ns = comm_opt.shape[2]
    k_t = switch.k_t
    scan_col = codebook.columns[:, q - 1]
    # unit-modulus phase profile of the scan column
    scan_phases = scan_col / np.abs(scan_col)

    k_s = int(np.ceil(switch.n_closed * (1.0 - eta)))
    errs = []
    for i in range(switch.n_rf):
        for j in range(switch.n_rf):
            if switch.closed[i, j]:
                blk = slice(i * k_t, (i + 1) * k_t)
                errs.append((np.linalg.norm(scan_phases[blk] - comm_analog[blk, j]), i, j))
    errs.sort(key=lambda e: (e[0], e[1], e[2]))

    f_rf = comm_analog.copy()
    for _, i, j in errs[:k_s]:
        f_rf[i * k_t:(i + 1) * k_t, j] = scan_phases[i * k_t:(i + 1) * k_t]

    # SCA weights the amplitudes by sqrt(eta), sqrt(1-eta) and scales each
    # subcarrier's target to power ns before the least-squares fit
    sense_opt = optimal_sensing_precoder(codebook, q, ns)
    weighted = (np.sqrt(eta) * c + np.sqrt(1.0 - eta) * sense_opt for c in comm_opt)
    digital = _normalized_least_squares(
        f_rf, (w * (np.sqrt(ns) / np.linalg.norm(w)) for w in weighted))
    return PrecoderSet(analog=f_rf, digital=digital, switch=switch, converged=True)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def spectral_efficiency(channel: CommChannel, tx: np.ndarray, rx: np.ndarray,
                        rho: float, sigma2: float) -> float:
    """Subcarrier-averaged log-det rate in bits/s/Hz.

    tx and rx hold the effective per-subcarrier precoders (M, nt, ns) and
    combiners (M, nr, ns). The noise covariance sigma^2 C^H C is inverted with
    a trace-scaled ridge when singular.
    """
    m_count, _, ns = tx.shape
    rate = 0.0
    for m in range(m_count):
        c = rx[m]
        hf = channel.apply(m, tx[m])
        eff = c.conj().T @ hf
        r_n = sigma2 * (c.conj().T @ c)
        try:
            r_inv = np.linalg.inv(r_n)
        except np.linalg.LinAlgError:
            warnings.warn("singular combined-noise covariance; ridge added",
                          ModelMismatchWarning)
            r_inv = np.linalg.inv(r_n + 1e-12 * np.trace(r_n).real / ns * np.eye(ns))
        mat = np.eye(ns) + (rho / ns) * r_inv @ eff @ eff.conj().T
        sign, logdet = np.linalg.slogdet(mat)
        rate += logdet / np.log(2.0)
    return rate / m_count


def transmit_beampattern(f_rf: np.ndarray, f_bb: np.ndarray, angles: np.ndarray,
                         geom: UpaGeometry, elevation: float = np.pi / 2,
                         db: bool = True) -> np.ndarray:
    """Per-stream transmit gain over an azimuth grid, in dBi by default.

    gain(theta) = (Nt / (M*Ns)) sum_m ||a^H(theta) F_RF F_BB[m]||^2, which
    averages to 0 dBi over a uniform sin-spaced grid for any power-normalized
    precoder set and peaks at 10 log10(Nt) for a full coherent beam.
    """
    a_grid = steering_many(np.asarray(angles, dtype=float), elevation, geom)
    m_count, _, ns = f_bb.shape
    proj = np.einsum("tg,tr->gr", a_grid.conj(), f_rf)
    resp = np.einsum("gr,mrs->gms", proj, f_bb)
    gain = geom.n_elements / (m_count * ns) * np.sum(np.abs(resp) ** 2, axis=(1, 2))
    if db:
        return 10.0 * np.log10(np.maximum(gain, 1e-30))
    return gain


def sensing_gain_dbi(precoders: PrecoderSet, codebook: SensingCodebook, q: int,
                     geom: UpaGeometry) -> float:
    """Beampattern gain at the slot-q scan direction."""
    angle = codebook.direction_angles[q - 1]
    return float(transmit_beampattern(precoders.analog, precoders.digital,
                                      np.array([angle]), geom, codebook.elevation)[0])
