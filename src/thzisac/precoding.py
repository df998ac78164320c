"""Hybrid precoding for joint communication and scan-beam synthesis.

Two designs for the dynamic array-of-subarray architecture: an alternating
vectorization (VEC) solver of the weighted Frobenius-distance problem, and a
one-shot codebook-assisted (SCA) update that reuses a communication-only analog
precoder. Also the fully digital SVD reference, spectral efficiency, and the
transmit beampattern. Every precoder and combiner, the SVD's included, is a
PrecoderSet: an analog stage and per-subcarrier digital factors.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .channel import CommChannel, ModelMismatchWarning
from .geometry import SensingCodebook, UpaGeometry, steering_factors


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


def _subcarrier_minor(stack: np.ndarray) -> np.ndarray:
    """An (M, n, ns) stack stored in (n, M, ns) order; no copy if it already is."""
    return np.ascontiguousarray(stack.transpose(1, 0, 2)).transpose(1, 0, 2)


def _apply_left(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """mat @ stack[m] for every m, (M, rows, ns), as one product with [stack[0] ... stack[M-1]].

    That n x (M ns) concatenation is a view of a subcarrier-minor stack; any
    other layout is copied into it first.
    """
    m_count, n, ns = stack.shape
    prod = mat @ stack.transpose(1, 0, 2).reshape(n, m_count * ns)
    return prod.reshape(mat.shape[0], m_count, ns).transpose(1, 0, 2)


@dataclass
class PrecoderSet:
    """Analog precoder (nt, n_rf), per-subcarrier digital precoders (M, n_rf, ns)."""

    analog: np.ndarray
    digital: np.ndarray
    converged: bool = True
    objective_trace: list = field(default_factory=list)

    def tx_matrix(self, m: int) -> np.ndarray:
        """Effective transmit precoder F_RF @ F_BB[m]."""
        return self.analog @ self.digital[m]

    def tx_matrices(self) -> np.ndarray:
        """All effective precoders stacked (M, nt, ns), subcarrier-minor."""
        return _apply_left(self.analog, self.digital)

    def beam_response(self, a_t: np.ndarray) -> np.ndarray:
        """Per-subcarrier stream gains a_t^T F_RF F_BB[m] toward steering a_t, (M, ns).

        A stack of rows a_t, (k, nt), gives (M, k, ns); with the rows of A_t^H
        that is the transmit side of the rate, without the (M, nt, ns) product.
        """
        return (a_t @ self.analog) @ self.digital


# ---------------------------------------------------------------------------
# Reference precoders
# ---------------------------------------------------------------------------

def optimal_fully_digital(channel: CommChannel, ns: int):
    """First ns right/left singular vectors of the channel per subcarrier, as dense stacks.

    Works on the channel's path factors, so any array size is fine. Returns
    (F, C, S): arrays of shape (M, nt, ns), (M, nr, ns), (M, ns), the
    tx_matrices() of comm_design's precoders and combiners, F subcarrier-minor.
    """
    f, c, s, _ = _svd_factored(channel, ns)
    return f.tx_matrices(), c.tx_matrices(), s


def comm_design(channel: CommChannel, ns: int):
    """SVD precoders and combiners of the channel, and the precoders as a CommTarget.

    Returns (F, C, target), F and C as PrecoderSets whose analog stage is the
    QR basis of the channel's steering matrix: F[m] = Q_t V[m] and
    C[m] = Q_r U[m], both rank P. The target shares F's arrays. With fewer
    paths than streams one fill pads every subcarrier: analog [Q, fill] and
    digital [[V[m], 0], [0, I]], on each side.
    """
    f, c, _, target = _svd_factored(channel, ns)
    return f, c, target


def _svd_factored(channel: CommChannel, ns: int):
    """(F, C, S, target): comm_design's precoders, combiners and target, and the singular values."""
    a_r, a_t, gains = channel.factors()
    q_r, r_r = np.linalg.qr(a_r)
    q_t, r_t = np.linalg.qr(a_t)
    p = a_r.shape[1]
    if p < ns:
        warnings.warn("channel rank below stream count; zero singular values kept",
                      ModelMismatchWarning)
    m_count, k = gains.shape[1], min(ns, p)
    # left and right singular vectors in the bases [Q, fill], subcarrier-minor
    # (p + ns - k, M, ns): the SVD's in the first p rows, the fill's identity below
    u_out = np.zeros((p + ns - k, m_count, ns), dtype=complex)
    v = np.zeros((p + ns - k, m_count, ns), dtype=complex)
    s_out = np.zeros((m_count, ns))
    for m in range(m_count):
        mid = r_r @ np.diag(gains[:, m]) @ r_t.conj().T
        u, s, vh = np.linalg.svd(mid)
        u_out[:p, m, :k] = u[:, :k]
        v[:p, m, :k] = vh[:k].conj().T
        s_out[m, :k] = s[:k]
    u_out[p:, :, k:] = v[p:, :, k:] = np.eye(ns - k)[:, None, :]
    f = PrecoderSet(np.hstack([q_t, _fill(q_t, ns - k)]), v.transpose(1, 0, 2))
    c = PrecoderSet(np.hstack([q_r, _fill(q_r, ns - k)]), u_out.transpose(1, 0, 2))
    return f, c, s_out, CommTarget(f.analog, f.digital, _frobenius_sq(v))


def _fill(q: np.ndarray, count: int) -> np.ndarray:
    """e_1 ... e_count orthonormalised against span(q), signed for a positive diag(R)."""
    fill, r = np.linalg.qr(np.eye(q.shape[0], count) - q @ q.conj().T[:, :count])
    return fill * np.where(r.diagonal().real < 0, -1.0, 1.0)


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

def _frobenius_sq(a: np.ndarray) -> float:
    flat = a.ravel(order="K")  # a view in memory order, also when subcarrier-minor
    return float(np.vdot(flat, flat).real)


@dataclass(frozen=True)
class CommTarget:
    """Comm target F_c[m] = basis @ coeffs[m], in an orthonormal basis of its span.

    For the SVD precoders the basis is Q_t, padded to ns columns when P < ns,
    so r = max(P, ns), and VEC works in r dimensions instead of nt. ``coeffs``
    is (M, r, ns), stored subcarrier-minor so all M read as one r x (M ns)
    matrix. Factored once, one target serves every design on its channel.
    """

    basis: np.ndarray   # (nt, r)
    coeffs: np.ndarray  # (M, r, ns)
    energy: float       # sum_m ||F_c[m]||_F^2

    @classmethod
    def factor(cls, comm_opt: np.ndarray) -> "CommTarget":
        """Factor a dense (M, nt, ns) target in its own thin QR."""
        m_count, nt, ns = comm_opt.shape
        flat = _subcarrier_minor(comm_opt).transpose(1, 0, 2).reshape(nt, m_count * ns)
        basis, coeffs = np.linalg.qr(flat)
        return cls(basis, coeffs.reshape(-1, m_count, ns).transpose(1, 0, 2), _frobenius_sq(flat))


@dataclass
class PrecodingTargets:
    """Weighted design targets: comm SVD precoders, scan column, and weight eta.

    ``comm_opt`` is a CommTarget, or a dense (M, nt, ns) stack that is
    factored here in its own thin QR.
    """

    comm_opt: InitVar[np.ndarray]
    sense_opt: np.ndarray     # (nt, ns)
    eta: float
    comm: CommTarget = field(init=False, repr=False)
    # sum_m ||F_c[m]||_F^2 and ||F_s||_F^2, the constant terms of the objective
    energies: tuple = field(init=False, repr=False)

    def __post_init__(self, comm_opt):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        self.comm = (comm_opt if isinstance(comm_opt, CommTarget)
                     else CommTarget.factor(comm_opt))
        self.energies = (self.comm.energy, _frobenius_sq(self.sense_opt))


def _rf_projections(targets: PrecodingTargets, f_rf: np.ndarray):
    """F_RF^H F_c[m] = (F_RF^H Q) V[m] (M, n_rf, ns), F_RF^H F_s and the Gram F_RF^H F_RF."""
    f_rf_h, comm = f_rf.conj().T, targets.comm
    return (_apply_left(f_rf_h @ comm.basis, comm.coeffs), f_rf_h @ targets.sense_opt,
            f_rf_h @ f_rf)


def weighted_objective(targets: PrecodingTargets, f_rf: np.ndarray,
                       f_bb: np.ndarray, proj: tuple = None) -> float:
    """(1/M) sum_m eta||F_c - F F_BB||^2 + (1-eta)||F_s - F F_BB||^2.

    Each distance is evaluated in the RF domain as ||F_c||^2 - 2 Re tr(F_c^H F
    F_BB) + tr(F_BB^H F^H F F_BB), from the n_rf x ns projections F^H F_c and
    F^H F_s and the n_rf x n_rf Gram matrix, so no (M, nt, ns) product is formed.
    proj, when given, is _rf_projections(targets, f_rf), formed once by the caller.
    """
    eta, m_count = targets.eta, f_bb.shape[0]
    p_c, p_s, gram = proj or _rf_projections(targets, f_rf)
    power = np.vdot(f_bb, gram @ f_bb).real
    cross_c = np.vdot(p_c, f_bb).real
    cross_s = np.vdot(p_s, f_bb.sum(axis=0)).real
    comm_energy, sense_energy = targets.energies
    e_c = comm_energy - 2.0 * cross_c + power
    e_s = m_count * sense_energy - 2.0 * cross_s + power
    return float((eta * e_c + (1.0 - eta) * e_s) / m_count)


def vec_digital_update(targets: PrecodingTargets, f_rf: np.ndarray,
                       proj: tuple = None) -> np.ndarray:
    """Semi-unitary digital precoders from the orthogonal-Procrustes step.

    For each m, F_BB[m] = V1 U^H with U S V^H the SVD of G[m]^H B, where G
    stacks the sqrt-weighted targets and B the correspondingly weighted analog
    precoder. Returns (M, n_rf, ns). proj is as in weighted_objective.
    """
    eta = targets.eta
    # B^H G = eta F_RF^H F_c + (1-eta) F_RF^H F_s without forming the stacks
    p_c, p_s, _ = proj or _rf_projections(targets, f_rf)
    ghb = (eta * p_c + (1.0 - eta) * p_s).conj().swapaxes(1, 2)
    u, _, vh = np.linalg.svd(ghb, full_matrices=False)
    return vh.conj().swapaxes(1, 2) @ u.conj().swapaxes(1, 2)


def vec_analog_update(targets: PrecodingTargets, f_bb: np.ndarray,
                      switch: SwitchMatrix, prev: np.ndarray = None) -> np.ndarray:
    """Phase-rotation update of the analog precoder on the closed-switch support.

    Each nonzero entry takes the phase of the matched entry of
    sum_m [eta F_c[m] + (1-eta) F_s] F_BB[m]^H; zero-magnitude entries keep
    their previous phase. Exact minimizer when F_BB[m] is square-unitary.
    """
    eta, comm = targets.eta, targets.comm
    m_count, r, ns = comm.coeffs.shape
    # sum_m F_c[m] F_BB[m]^H = Q [V[0] ... V[M-1]] [F_BB[0]^H; ...; F_BB[M-1]^H],
    # the middle factor a view of the subcarrier-minor coefficients
    f_bb_h = f_bb.conj().swapaxes(1, 2)
    t_c = comm.basis @ (comm.coeffs.transpose(1, 0, 2).reshape(r, m_count * ns)
                        @ f_bb_h.reshape(m_count * ns, -1))
    t_s = targets.sense_opt @ f_bb_h.sum(axis=0)
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


def _normalized_least_squares(f_rf: np.ndarray, targets: PrecodingTargets, w_c: float,
                              w_s: float) -> np.ndarray:
    """Digital precoders F_BB[m] = sqrt(ns) F_RF^+ W[m] / ||F_RF F_RF^+ W[m]||_F.

    With F_RF = U S V^H, its singular values cut at max(shape) eps s[0] as
    np.linalg.lstsq cuts them, F_RF^+ W[m] = V S^-1 U^H W[m] and
    F_RF F_RF^+ W[m] = U U^H W[m], so each norm is
    ||U^H W[m]||_F: it cannot cancel to zero or below when F_RF is
    ill-conditioned, as a norm through the Gram matrix F_RF^H F_RF can. The
    weighted target W[m] = w_c F_c[m] + w_s F_s is never formed: U^H applies to
    F_c = Q V as (U^H Q) V, batched over subcarriers, and to F_s separately.
    The result, (M, n_rf, ns), meets ||F_RF F_BB[m]||_F^2 = ns.
    """
    u, s, vh = np.linalg.svd(f_rf, full_matrices=False)
    keep = s > max(f_rf.shape) * np.finfo(float).eps * s[0]
    u_h, comm = u[:, keep].conj().T, targets.comm
    proj = w_c * _apply_left(u_h @ comm.basis, comm.coeffs) + w_s * (u_h @ targets.sense_opt)
    norm_sq = np.sum(np.abs(proj) ** 2, axis=(1, 2))
    if np.any(norm_sq <= 0):
        raise ValueError("analog precoder annihilates the design target")
    f_ls = _apply_left(vh[keep].conj().T / s[keep], proj)
    return np.sqrt(proj.shape[2] / norm_sq)[:, None, None] * f_ls


def finalize_digital(targets: PrecodingTargets, f_rf: np.ndarray) -> np.ndarray:
    """Least-squares digital precoders against the weighted target, power-normalized.

    The VEC target is W[m] = eta F_c[m] + (1-eta) F_s, the weighting of the
    alternating objective.
    """
    return _normalized_least_squares(f_rf, targets, targets.eta, 1.0 - targets.eta)


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
    proj = _rf_projections(targets, f_rf)
    trace = []
    prev_obj = None
    converged = False
    f_bb = None
    for _ in range(max_iter):
        f_bb = vec_digital_update(targets, f_rf, proj)
        trace.append(weighted_objective(targets, f_rf, f_bb, proj))
        f_rf = vec_analog_update(targets, f_bb, switch, prev=f_rf)
        proj = _rf_projections(targets, f_rf)
        obj = weighted_objective(targets, f_rf, f_bb, proj)
        trace.append(obj)
        if prev_obj is not None and abs(prev_obj - obj) <= tol * max(abs(prev_obj), 1e-30):
            converged = True
            break
        prev_obj = obj
    if not converged:
        warnings.warn(f"alternating loop hit max_iter={max_iter} before tol={tol}",
                      ModelMismatchWarning)
    digital = finalize_digital(targets, f_rf)
    return PrecoderSet(analog=f_rf, digital=digital, converged=converged,
                       objective_trace=trace)


# ---------------------------------------------------------------------------
# SCA one-shot update
# ---------------------------------------------------------------------------

def sca_hybrid_precoding(comm_opt: CommTarget, codebook: SensingCodebook, q: int,
                         eta: float, comm_analog: np.ndarray,
                         switch: SwitchMatrix) -> PrecoderSet:
    """Codebook-assisted update of a communication-only analog precoder.

    Replaces the ceil(N_c*(1-eta)) closed blocks whose phase profiles are
    closest to the slot-q scan column with the column's (unit-modulus) phases,
    then solves the digital precoders in closed form against the weighted
    target. No per-slot alternating iterations.
    """
    sense_opt = optimal_sensing_precoder(codebook, q, comm_opt.coeffs.shape[2])
    targets = PrecodingTargets(comm_opt, sense_opt, eta)
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
                err = np.linalg.norm(scan_phases[blk] - comm_analog[blk, j]) / np.sqrt(k_t)
                errs.append((err, i, j))
    # at elevation pi/2 the steering phase is constant along the array's z axis,
    # so the blocks of one column repeat each other and their errors tie up to
    # round-off: compare errors to 1e-9, then by (i, j)
    errs.sort(key=lambda e: (round(e[0], 9), e[1], e[2]))

    f_rf = comm_analog.copy()
    for _, i, j in errs[:k_s]:
        f_rf[i * k_t:(i + 1) * k_t, j] = scan_phases[i * k_t:(i + 1) * k_t]

    # SCA weights the amplitudes by sqrt(eta), sqrt(1-eta)
    digital = _normalized_least_squares(f_rf, targets, np.sqrt(eta), np.sqrt(1.0 - eta))
    return PrecoderSet(analog=f_rf, digital=digital, converged=True)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinedReceiver:
    """The combiner side of the log-det rate, for one (channel, combiner, sigma^2).

    ``paths`` is (C[m]^H A_r) diag(G[:, m]), (M, ns, P), and ``noise_inv`` the
    inverse of sigma^2 C[m]^H C[m], (M, ns, ns). Neither depends on the
    precoders, so one receiver rates every design on its channel.
    """

    paths: np.ndarray
    noise_inv: np.ndarray

    def rate(self, tx_paths: np.ndarray, rho: float) -> float:
        """Subcarrier-averaged log-det rate in bits/s/Hz, given A_t^H F[m] as (M, P, ns)."""
        m_count, _, ns = tx_paths.shape
        eff = self.paths @ tx_paths
        mat = np.eye(ns) + (rho / ns) * self.noise_inv @ eff @ eff.conj().swapaxes(1, 2)
        _, logdet = np.linalg.slogdet(mat)
        return float(np.sum(logdet / np.log(2.0))) / m_count


def combined_receiver(channel: CommChannel, rx: PrecoderSet, sigma2: float) -> CombinedReceiver:
    """The rate's combiner side for combiners C[m] = A D[m], from the channel factors.

    C^H A_r is rx.beam_response(A_r^H) conjugate-transposed, and the noise Gram
    matrix C^H C is D^H (A^H A) D, so no (M, nr, ns) stack is formed. A noise
    covariance sigma^2 C^H C that is singular gets a trace-scaled ridge, with
    one warning per such subcarrier.
    """
    a_r, _, gains = channel.factors()
    d = rx.digital
    ns = d.shape[2]
    left = rx.beam_response(a_r.conj().T).conj().swapaxes(1, 2)
    r_n = sigma2 * (d.conj().swapaxes(1, 2) @ (rx.analog.conj().T @ rx.analog) @ d)
    singular = np.linalg.slogdet(r_n)[0] == 0
    for m in np.flatnonzero(singular):
        warnings.warn("singular combined-noise covariance; ridge added",
                      ModelMismatchWarning)
        r_n[m] += 1e-12 * np.trace(r_n[m]).real / ns * np.eye(ns)
    return CombinedReceiver(paths=left * gains.T[:, None, :], noise_inv=np.linalg.inv(r_n))


def spectral_efficiency(channel: CommChannel, tx: PrecoderSet, rx: PrecoderSet,
                        rho: float, sigma2: float) -> float:
    """Subcarrier-averaged log-det rate in bits/s/Hz of precoders tx and combiners rx.

    The effective channels C^H H[m] F[m] come batched from the channel factors
    as (C^H A_r) diag(G[:, m]) (A_t^H F[m]): the combiner side from
    combined_receiver, which a caller rating many precoders on one channel
    builds once, and the transmit side from tx.beam_response(A_t^H).
    """
    a_t = channel.factors()[1]
    return combined_receiver(channel, rx, sigma2).rate(tx.beam_response(a_t.conj().T), rho)


def transmit_beampattern(f_rf: np.ndarray, f_bb: np.ndarray, angles: np.ndarray,
                         geom: UpaGeometry, elevation: float = np.pi / 2,
                         db: bool = True) -> np.ndarray:
    """Per-stream transmit gain over an azimuth grid, in dBi by default.

    gain(theta) = (Nt / (M*Ns)) sum_m ||a^H(theta) F_RF F_BB[m]||^2, which
    averages to 0 dBi over a uniform sin-spaced grid for any power-normalized
    precoder set and peaks at 10 log10(Nt) for a full coherent beam.
    a^H(theta) F_RF is formed through the Kronecker factors a_z kron a_y(theta):
    conj(a_z) is folded into F_RF once, leaving a (grid, W) by (W, n_rf) product.
    """
    a_z, a_y = steering_factors(angles, elevation, geom)
    m_count, _, ns = f_bb.shape
    # einsum, not tensordot: a real f_rf would be cast to a complex copy first
    f_y = np.einsum("l,lwr->wr", a_z.conj(), f_rf.reshape(a_z.size, a_y.shape[0], -1))
    proj = a_y.conj().T @ f_y
    resp = _apply_left(proj, f_bb)
    gain = geom.n_elements / (m_count * ns) * np.sum(np.abs(resp) ** 2, axis=(0, 2))
    if db:
        return 10.0 * np.log10(np.maximum(gain, 1e-30))
    return gain


def sensing_gain_dbi(precoders: PrecoderSet, codebook: SensingCodebook, q: int,
                     geom: UpaGeometry) -> float:
    """Beampattern gain at the slot-q scan direction."""
    angle = codebook.direction_angles[q - 1]
    return float(transmit_beampattern(precoders.analog, precoders.digital,
                                      np.array([angle]), geom, codebook.elevation)[0])
