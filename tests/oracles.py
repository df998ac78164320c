"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written the slow way (scalar loops, direct
continuous-time sampling, dense matrix builds) so it shares no code path with
the library implementations it checks.
"""

import warnings

import numpy as np

from thzisac.channel import ModelMismatchWarning, check_isi_ici_free
from thzisac.geometry import steering_many, steering_upa
from thzisac.isi_ici import FlatObjectiveError, apply_channel_operator
from thzisac.precoding import (_random_phase_analog, _rf_projections, vec_analog_update,
                               vec_digital_update, weighted_objective)
from thzisac.waveform import FrameConfig


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


def steering_scalar_loop(theta, phi, w_count, l_count):
    """Element-by-element steering vector evaluation, z-major flat index."""
    out = np.empty(w_count * l_count, dtype=complex)
    for l in range(l_count):
        for w in range(w_count):
            phase = np.pi * (w * np.sin(theta) * np.sin(phi) + l * np.cos(phi))
            out[l * w_count + w] = np.exp(1j * phase)
    return out / np.sqrt(w_count * l_count)


def steering_y_closed_form(thetas, phi, w_count):
    """The y-factor a_y of the UPA response as one expression, (w_count, len(thetas)).

    exp(j*pi*outer(w, sin(theta)*sin(phi))) / sqrt(W), with its full-size
    temporaries; the library builds the same table in place.
    """
    thetas = np.asarray(thetas, dtype=float)
    w = np.arange(w_count)
    return np.exp(1j * np.pi * np.outer(w, np.sin(thetas) * np.sin(phi))) / np.sqrt(w_count)


def transmit_beampattern_dense(f_rf, f_bb, angles, geom, elevation=np.pi / 2, db=True):
    """(Nt / (M*Ns)) sum_m ||a^H(theta) F_RF F_BB[m]||^2 from dense (Nt, grid) steering columns."""
    a_grid = steering_many(np.asarray(angles, dtype=float), elevation, geom)
    m_count, _, ns = f_bb.shape
    gain = np.zeros(a_grid.shape[1])
    for m in range(m_count):
        gain += np.sum(np.abs(a_grid.conj().T @ (f_rf @ f_bb[m])) ** 2, axis=1)
    gain *= geom.n_elements / (m_count * ns)
    if db:
        return 10.0 * np.log10(np.maximum(gain, 1e-30))
    return gain


def bruteforce_rx(targets, pair, frame):
    """Continuous-time sampling oracle for the ISI/ICI received signal.

    Builds the previous and current slot waveforms, applies each target's delay
    and Doppler in continuous time, samples after CP removal, and DFTs per
    symbol. ``targets`` is a list of (alpha, tau, nu).
    """
    m_sc, n_sym = frame.m_subcarriers, frame.n_symbols
    s_prev = TxBaseband(pair.x_prev, frame)
    s_curr = TxBaseband(pair.x_curr, frame)
    m = np.arange(m_sc)
    n = np.arange(n_sym)
    t = n[None, :] * frame.t_total + frame.t_cp + m[:, None] / m_sc * frame.t_symbol
    r = np.zeros((m_sc, n_sym), dtype=complex)
    for alpha, tau, nu in targets:
        u = (t - tau).ravel()
        sval = s_curr.sample(u) + s_prev.sample(u + n_sym * frame.t_total)
        r += alpha * np.exp(2j * np.pi * nu * t) * sval.reshape(m_sc, n_sym)
    y = np.fft.fft(r, axis=0) / np.sqrt(m_sc)
    return y.reshape(-1, order="F")


def tackled_objective(y, pair, frame, tau, nu):
    """Normalized correlation |<H(tau,nu)x, y>|^2 / ||H(tau,nu)x||^2 of the full operator."""
    h = apply_channel_operator(tau, nu, pair, frame)
    den = float(np.vdot(h, h).real)
    if den <= 0.0:
        return 0.0
    return float(np.abs(np.vdot(h, y)) ** 2 / den)


def matched_objective(y, pair, frame):
    """tackled_objective as a callable of (tau, nu)."""
    return lambda tau, nu: tackled_objective(y, pair, frame, tau, nu)


def cancel_out_of_place(y, count, detect, response):
    """The successive-cancellation loop with residual = residual - alpha * h.

    The same detect / fit / subtract passes as isi_ici._cancel, each pass
    building a new residual array: the reference for its in-place subtraction.
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


def comm_channel_matrix(chan, m):
    """H_c[m] of a CommChannel materialized as an Nr x Nt matrix."""
    a_r, a_t, gains = chan.factors()
    return (a_r * gains[:, m]) @ a_t.conj().T


def sensing_channel(scene, m, n, q, frame, tx_geom, rx_geom, check_model=True):
    """ISI/ICI-free sensing channel matrix H_s[m, n] at slot q (Nr x Nt).

    H_s = sqrt(Nt*Nr/P) sum_p h_p e^{-j2pi m df tau_p} e^{j2pi((q-1)Ts + n To)nu_p}
          a_r(theta_p) a_t^T(theta_p).
    """
    if check_model:
        check_isi_ici_free(scene, frame)
    h = np.zeros((rx_geom.n_elements, tx_geom.n_elements), dtype=complex)
    if not scene.targets:
        return h
    scale = np.sqrt(tx_geom.n_elements * rx_geom.n_elements / scene.n_targets)
    t_sym = (q - 1) * frame.t_slot + n * frame.t_total
    for tgt in scene.targets:
        if tgt.coeff is None:
            raise ValueError("target coefficient unresolved; call resolve_coeffs first")
        phase = np.exp(-2j * np.pi * m * frame.delta_f * tgt.delay()) \
            * np.exp(2j * np.pi * t_sym * tgt.doppler(frame.fc))
        a_r = steering_upa(tgt.azimuth, tgt.elevation, rx_geom)
        a_t = steering_upa(tgt.azimuth, tgt.elevation, tx_geom)
        h += scale * tgt.coeff * phase * np.outer(a_r, a_t)
    return h


def comm_channel_apply(chan, m, f):
    """H_c[m] @ f from the channel's path factors, without forming H_c[m]."""
    a_r, a_t, gains = chan.factors()
    return (a_r * gains[:, m]) @ (a_t.conj().T @ f)


def ml_profile_direct(y_blocks, xhat_blocks, tau, nu, frame):
    """Direct per-entry evaluation of |sum_u tr((Psi ⊙ Xhat_u)^H Y_u)|^2."""
    if y_blocks.ndim == 2:
        y_blocks = y_blocks[None]
        xhat_blocks = xhat_blocks[None]
    total = 0.0 + 0.0j
    m_sc, n_sym = y_blocks.shape[1:]
    psi = np.empty((m_sc, n_sym), dtype=complex)
    for mm in range(m_sc):
        for nn in range(n_sym):
            psi[mm, nn] = np.exp(-2j * np.pi * mm * frame.delta_f * tau) \
                * np.exp(2j * np.pi * nn * frame.t_total * nu)
    for u in range(y_blocks.shape[0]):
        total += np.sum(np.conj(psi * xhat_blocks[u]) * y_blocks[u])
    return float(np.abs(total) ** 2)


def ml_profile_direct_node(y_blocks, xhat_blocks, tau, nu, frame):
    """Direct objective at one (tau, nu): builds Psi explicitly, no transforms."""
    m_sc, n_sym = y_blocks.shape[1:]
    psi = (np.exp(-2j * np.pi * np.arange(m_sc)[:, None] * frame.delta_f * tau)
           * np.exp(2j * np.pi * np.arange(n_sym)[None, :] * frame.t_total * nu))
    total = sum(np.sum(np.conj(psi * xhat_blocks[u]) * y_blocks[u])
                for u in range(y_blocks.shape[0]))
    return float(np.abs(total) ** 2)


def ml_profile_per_probe(z, tau, nu, frame):
    """The matched objective of an MlProfile's z at one probe, with every phase rate
    rebuilt from arange: the formula MlProfile.__call__ evaluated before it kept
    the rates, in the same operation order."""
    m_idx = np.arange(z.shape[0])
    n_idx = np.arange(z.shape[1])
    psi_tau_c = np.exp(2j * np.pi * m_idx * frame.delta_f * tau)
    psi_nu_c = np.exp(-2j * np.pi * n_idx * frame.t_total * nu)
    return float(np.abs(psi_tau_c @ z @ psi_nu_c) ** 2)


def random_semi_unitary(rows, cols, rng):
    """Haar-ish semi-unitary matrix from a complex Gaussian QR."""
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(a)
    return q[:, :cols]


# ---------------------------------------------------------------------------
# Hybrid precoding: dense textbook definitions, one subcarrier at a time
# ---------------------------------------------------------------------------

def optimal_fully_digital_dense(mats, ns):
    """(F, C, S) from a full SVD of each dense Nr x Nt matrix in turn.

    Shapes (M, nt, ns), (M, nr, ns), (M, ns); singular values past the rank
    are zero, with one ModelMismatchWarning per rank-deficient matrix.
    """
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


def weighted_objective_dense(comm_opt, sense_opt, eta, f_rf, f_bb):
    """(1/M) sum_m eta||F_c[m] - F_RF F_BB[m]||^2 + (1-eta)||F_s - F_RF F_BB[m]||^2."""
    total = 0.0
    for c, d in zip(comm_opt, f_bb):
        prod = f_rf @ d
        total += (eta * np.linalg.norm(c - prod) ** 2
                  + (1.0 - eta) * np.linalg.norm(sense_opt - prod) ** 2)
    return total / len(f_bb)


def procrustes_dense(comm_opt, sense_opt, eta, f_rf):
    """argmin ||G[m] - B F_BB||_F over F_BB^H F_BB = I, from the stacked targets.

    G[m] = [sqrt(eta) F_c[m]; sqrt(1-eta) F_s] and B = [sqrt(eta) F_RF;
    sqrt(1-eta) F_RF]. The minimizer is U V^H with U S V^H the thin SVD of B^H G[m].
    """
    b = np.vstack([np.sqrt(eta) * f_rf, np.sqrt(1.0 - eta) * f_rf])
    out = []
    for c in comm_opt:
        g = np.vstack([np.sqrt(eta) * c, np.sqrt(1.0 - eta) * sense_opt])
        u, _, vh = np.linalg.svd(b.conj().T @ g, full_matrices=False)
        out.append(u @ vh)
    return np.stack(out)


def vec_unshared(targets, switch, rng, max_iter=50, tol=1e-4):
    """vec_hybrid_precoding's loop with each half-step forming its own RF projections.

    Returns (final analog precoder, objective trace). vec_digital_update and
    each weighted_objective get projections formed for them alone, F_RF^H F_c,
    F_RF^H F_s and the Gram: three projections per iteration.
    """
    f_rf = _random_phase_analog(switch, rng)
    trace, prev_obj = [], None
    for _ in range(max_iter):
        f_bb = vec_digital_update(targets, _rf_projections(targets, f_rf))
        trace.append(weighted_objective(targets, _rf_projections(targets, f_rf), f_bb))
        f_rf = vec_analog_update(targets, f_bb, switch, prev=f_rf)
        trace.append(weighted_objective(targets, _rf_projections(targets, f_rf), f_bb))
        if prev_obj is not None and abs(prev_obj - trace[-1]) <= tol * max(abs(prev_obj), 1e-30):
            break
        prev_obj = trace[-1]
    return f_rf, trace


def phase_update_dense(comm_opt, sense_opt, eta, f_bb, mask, prev):
    """Entrywise phase of sum_m (eta F_c[m] + (1-eta) F_s) F_BB[m]^H on the mask.

    Zero-magnitude entries on the mask keep ``prev``; entries off it are zero.
    """
    t = np.zeros(mask.shape, dtype=complex)
    for c, d in zip(comm_opt, f_bb):
        t += (eta * c + (1.0 - eta) * sense_opt) @ d.conj().T
    out = np.zeros(mask.shape, dtype=complex)
    for i, j in zip(*np.nonzero(mask)):
        out[i, j] = t[i, j] / abs(t[i, j]) if t[i, j] != 0 else prev[i, j]
    return out


def normalized_lstsq_dense(f_rf, weighted):
    """sqrt(ns) X[m] / ||F_RF X[m]||_F with X[m] the least-squares solution of F_RF X = W[m]."""
    out = []
    for w in weighted:
        x = np.linalg.lstsq(f_rf, w, rcond=None)[0]
        out.append(np.sqrt(w.shape[1]) * x / np.linalg.norm(f_rf @ x))
    return np.stack(out)


def spectral_efficiency_dense(channel, tx, rx, rho, sigma2):
    """Subcarrier mean of log2 det(I + rho/ns R_n^-1 C^H H F F^H H^H C), dense H[m].

    Zero combiner columns carry neither signal nor noise, so they are dropped
    before the noise covariance R_n = sigma^2 C^H C is inverted.
    """
    ns = tx.shape[2]
    rates = []
    for m in range(tx.shape[0]):
        c = rx[m][:, np.linalg.norm(rx[m], axis=0) > 0]
        eff = c.conj().T @ comm_channel_matrix(channel, m) @ tx[m]
        r_n = sigma2 * c.conj().T @ c
        mat = np.eye(c.shape[1]) + rho / ns * np.linalg.solve(r_n, eff @ eff.conj().T)
        rates.append(np.log2(np.linalg.det(mat).real))
    return float(np.mean(rates))
