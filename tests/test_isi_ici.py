import time
import tracemalloc

import numpy as np
import pytest

from thzisac import isi_ici
from thzisac.channel import SensingScene, SensingTarget, delay_of_range, doppler_of_velocity
from thzisac.isi_ici import (ExtendedTxPair, TxBaseband, _coarse_scan, _half_bin_grid,
                             apply_channel_operator, cp_limited_range,
                             hadamard_model_vec, isi_ici_rx, matched_objective,
                             resolve_collapsed_coeffs, successive_cancellation,
                             tackled_estimate, unaware_estimate_peaks,
                             unaware_successive_cancellation)
from thzisac.waveform import FrameConfig, generate_symbols, ofdm_modulate

from oracles import bruteforce_rx


@pytest.fixture
def frame():
    return FrameConfig(32, 8, 8, 3.84e6, 0.3e12)


def _random_pair(frame, rng):
    shape = (frame.m_subcarriers, frame.n_symbols)
    mk = lambda: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return ExtendedTxPair(mk(), mk())


# ---------------------------------------------------------------------------
# baseband sampler
# ---------------------------------------------------------------------------

def test_tx_baseband_matches_modulator(frame, rng):
    grid = np.zeros((32, 8), dtype=complex)
    grid[5, 2] = 1.0 - 0.5j
    tx = TxBaseband(grid, frame)
    samples = ofdm_modulate(grid, frame)
    m_tot = 32 + frame.m_cp
    for (m, n) in ((0, 2), (7, 2), (31, 2), (3, 0)):
        t = n * frame.t_total + frame.t_cp + m / 32 * frame.t_symbol
        assert np.isclose(tx.sample(t)[0], samples[n * m_tot + frame.m_cp + m],
                          atol=1e-12)


def test_tx_baseband_support(frame, rng):
    grid = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    tx = TxBaseband(grid, frame)
    assert np.all(tx.sample(np.array([-1e-9, 8 * frame.t_total, 1.0])) == 0)
    assert np.all(TxBaseband(np.zeros((32, 8)), frame).sample(
        np.linspace(0, 8 * frame.t_total, 50)) == 0)


# ---------------------------------------------------------------------------
# channel operator
# ---------------------------------------------------------------------------

def test_operator_rejects_delay_outside_slot(frame, rng):
    pair = _random_pair(frame, rng)
    with pytest.raises(ValueError):
        apply_channel_operator(-1e-9, 0.0, pair, frame)
    with pytest.raises(ValueError):
        apply_channel_operator(frame.t_slot * 1.01, 0.0, pair, frame)


def test_operator_identity(frame, rng):
    pair = _random_pair(frame, rng)
    y = apply_channel_operator(0.0, 0.0, pair, frame)
    np.testing.assert_allclose(y, pair.x_curr.reshape(-1, order="F"), atol=1e-12)


def test_operator_linearity(frame, rng):
    p1 = _random_pair(frame, rng)
    p2 = _random_pair(frame, rng)
    tau, nu = 0.4 * frame.t_total, 0.3 * frame.delta_f
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    combo = ExtendedTxPair(a * p1.x_prev + b * p2.x_prev,
                           a * p1.x_curr + b * p2.x_curr)
    lhs = apply_channel_operator(tau, nu, combo, frame)
    rhs = a * apply_channel_operator(tau, nu, p1, frame) \
        + b * apply_channel_operator(tau, nu, p2, frame)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_operator_hadamard_reduction(frame, rng):
    pair = _random_pair(frame, rng)
    tau = 0.8 * frame.t_cp
    y = apply_channel_operator(tau, 0.0, pair, frame)
    model = hadamard_model_vec(pair.x_curr, tau, 0.0, frame)
    assert np.linalg.norm(y - model) < 1e-9 * np.linalg.norm(model)


def test_operator_energy_isometry_inside_cp(frame, rng):
    pair = _random_pair(frame, rng)
    for tau in (0.0, 0.3 * frame.t_cp, frame.t_cp):
        y = apply_channel_operator(tau, 0.0, pair, frame)
        assert np.isclose(np.linalg.norm(y), np.linalg.norm(pair.x_curr), rtol=1e-12)


def test_operator_matches_bruteforce_oracle(frame, rng):
    pair = _random_pair(frame, rng)
    for _ in range(12):
        tau = rng.uniform(0.0, frame.t_slot)
        nu = rng.uniform(-0.99, 0.99) * frame.delta_f
        got = apply_channel_operator(tau, nu, pair, frame)
        want = bruteforce_rx([(1.0, tau, nu)], pair, frame)
        assert np.linalg.norm(got - want) < 1e-8 * np.linalg.norm(want)


def test_rx_multi_target_against_oracle(frame, rng):
    # delays kept away from exact sample boundaries, where the discontinuous
    # waveform makes the boundary sample convention-dependent
    pair = _random_pair(frame, rng)
    triples = [(0.7 + 0.2j, 0.813 * frame.t_total, 0.4 * frame.delta_f),
               (0.1 - 0.4j, 2.637 * frame.t_total, -0.2 * frame.delta_f)]
    targets = []
    for alpha, tau, nu in triples:
        t = SensingTarget(range_m=tau * 299792458.0 / 2,
                          velocity_mps=nu * 299792458.0 / (2 * frame.fc),
                          azimuth=0.0, coeff=alpha)
        targets.append(t)
    scene = SensingScene(targets, noise_power=0.0)
    got = isi_ici_rx(scene, pair, frame, rng)
    want = bruteforce_rx(triples, pair, frame)
    assert np.linalg.norm(got - want) < 1e-8 * np.linalg.norm(want)


def test_operator_runtime_scaling(rng):
    # O(MN log MN): doubling M should scale far below quadratically
    times = {}
    for m_sc in (256, 512):
        frame = FrameConfig(m_sc, 8, 8, 1e6, 1e11)
        pair = ExtendedTxPair(
            rng.standard_normal((m_sc, 8)) + 0j, rng.standard_normal((m_sc, 8)) + 0j)
        tau, nu = 1.3 * frame.t_total, 0.2e6
        apply_channel_operator(tau, nu, pair, frame)  # warm up
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            apply_channel_operator(tau, nu, pair, frame)
            best = min(best, time.perf_counter() - t0)
        times[m_sc] = best
    assert times[512] < 3.0 * times[256]


def test_cp_limited_range_reference_values():
    assert abs(cp_limited_range(FrameConfig(1024, 16, 32, 480e3, 0.3e12)) - 78.0) < 0.2
    assert abs(cp_limited_range(FrameConfig(1024, 16, 32, 3840e3, 0.3e12)) - 9.8) < 0.2
    r1 = cp_limited_range(FrameConfig(64, 16, 32, 1e6, 0.3e12))
    r2 = cp_limited_range(FrameConfig(64, 16, 32, 2e6, 0.3e12))
    assert np.isclose(r1, 2 * r2)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_tackled_noiseless_beyond_cp(frame, rng):
    pair = _random_pair(frame, rng)
    tau = frame.t_cp + 0.6 * frame.t_symbol      # ISI regime
    nu = 0.31 * frame.delta_f                    # strong ICI
    alpha = 0.8 * np.exp(1j * 0.4)
    y = alpha * apply_channel_operator(tau, nu, pair, frame)
    [(est, a_hat)] = successive_cancellation(y, pair, frame, 1, nu_max=0.5 * frame.delta_f)
    d_tau = frame.t_symbol / 32
    assert abs(est.tau_hat - tau) < 1e-4 * d_tau
    assert abs(est.nu_hat - nu) < 1e-3 / (8 * frame.t_total)
    assert abs(a_hat - alpha) < 1e-4


def test_coarse_scan_matches_matched_objective_on_every_node(frame, rng):
    # the whole slot (k > 0, and l > 0 past the CP) against a Doppler span of
    # +-1.5/T_o, wider than the 1/T_o period the scan folds its FFT grid over
    pair = _random_pair(frame, rng)
    y = 0.7 * apply_channel_operator(2.3 * frame.t_total, -0.4 * frame.delta_f, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    _, _, tau_grid, _, nu_grid = _half_bin_grid(frame, nu_max=1.5 / frame.t_total)
    # some node lies past a whole symbol and past the CP within its symbol
    assert np.any((tau_grid >= frame.t_total)
                  & (np.mod(tau_grid, frame.t_total) > frame.t_cp))
    assert nu_grid.min() < 0 and np.ptp(nu_grid) > 1.0 / frame.t_total
    _assert_scan_matches_objective(y, pair, frame, tau_grid, nu_grid)


def _assert_scan_matches_objective(y, pair, frame, tau_grid, nu_grid):
    scan = _coarse_scan(y, pair, frame, tau_grid, nu_grid)
    objective = matched_objective(y, pair, frame)
    direct = np.array([[objective(t, v) for v in nu_grid] for t in tau_grid])
    np.testing.assert_allclose(scan, direct, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("predecessor", ["random", "zero"])
def test_coarse_scan_oracle_one_doppler_node_up_to_slot_end(frame, rng, predecessor):
    # the ISI shape: every delay node of the slot, up to tau = T_slot (lag N*P
    # samples), against a single Doppler node
    pair = _random_pair(frame, rng)
    if predecessor == "zero":
        pair = ExtendedTxPair.with_zero_predecessor(pair.x_curr)
    y = 0.7 * apply_channel_operator(frame.t_cp + 0.4 * frame.t_symbol, 0.0, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    _, _, tau_grid, _, nu_grid = _half_bin_grid(frame, nu_max=0.0)
    assert nu_grid.size == 1
    assert np.isclose(tau_grid[-1], frame.t_slot, rtol=1e-12)
    assert tau_grid.size == 2 * frame.n_symbols * (frame.m_subcarriers + frame.m_cp) + 1
    _assert_scan_matches_objective(y, pair, frame, tau_grid, nu_grid)


@pytest.mark.parametrize("shape", [(32, 8, 8), (24, 5, 5), (16, 4, 0)])
def test_coarse_scan_oracle_narrow_delay_wide_doppler(rng, shape):
    # the ICI shape: a few delay nodes inside the CP against a Doppler span of
    # +-1.5/T_o; frames include a prime symbol length M + m_cp and no CP
    m_sc, n_sym, m_cp = shape
    frame = FrameConfig(m_sc, n_sym, 4, 1e6, 0.3e12, m_cp=m_cp)
    pair = _random_pair(frame, rng)
    y = 0.7 * apply_channel_operator(0.2 * frame.t_symbol / m_sc, 0.4 * frame.delta_f, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    _, _, tau_grid, _, nu_grid = _half_bin_grid(frame, tau_max=2.6 * frame.t_symbol / m_sc,
                                                nu_max=1.5 / frame.t_total)
    assert tau_grid.size == 6 and nu_grid.size == 6 * n_sym + 1
    _assert_scan_matches_objective(y, pair, frame, tau_grid, nu_grid)


def test_coarse_scan_oracle_scattered_lattice_nodes(frame, rng):
    # unsorted, non-contiguous nodes with uneven Doppler steps
    pair = _random_pair(frame, rng)
    y = (rng.standard_normal(32 * 8) + 1j * rng.standard_normal(32 * 8)) / np.sqrt(2)
    d_tau = frame.t_symbol / 64
    d_nu = 1.0 / (16 * frame.t_total)
    last = 2 * 8 * (32 + frame.m_cp)
    tau_grid = d_tau * np.array([7, 0, last, 3, last - 1, 90])
    nu_grid = d_nu * np.array([5, -3, -2, 4, 4, 0, 40])
    _assert_scan_matches_objective(y, pair, frame, tau_grid, nu_grid)


def test_coarse_scan_rejects_nodes_off_the_lattice_or_slot(frame, rng):
    pair = _random_pair(frame, rng)
    y = np.ones(32 * 8, complex)
    d_tau = frame.t_symbol / 64
    with pytest.raises(ValueError, match="delay grid must lie"):
        _coarse_scan(y, pair, frame, np.array([0.3 * d_tau]), np.zeros(1))
    with pytest.raises(ValueError, match="Doppler grid must lie"):
        _coarse_scan(y, pair, frame, np.zeros(1), np.array([0.13 * frame.delta_f]))
    with pytest.raises(ValueError, match="outside"):
        _coarse_scan(y, pair, frame, np.array([frame.t_slot + d_tau]), np.zeros(1))


def test_tackled_estimate_transient_memory_bound():
    # one pass on the short-CP demo grid (M=1024, N=16, 3.84 MHz, 0-55 m,
    # +-30 m/s: 2887 delay nodes x 1 Doppler node); the per-delay scan this
    # replaced peaked at ~2.87e6 traced bytes here
    frame = FrameConfig(1024, 16, 32, 3840e3, 0.3e12)
    rng = np.random.default_rng(11)
    pair = ExtendedTxPair(generate_symbols(frame, 1, rng)[0], generate_symbols(frame, 1, rng)[0])
    tau_max, nu_max = delay_of_range(55.0), doppler_of_velocity(30.0, frame.fc)
    y = 0.3 * apply_channel_operator(delay_of_range(45.0), 1e3, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    tackled_estimate(y, pair, frame, tau_max, nu_max)
    tracemalloc.start()
    try:
        tackled_estimate(y, pair, frame, tau_max, nu_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7e6


def test_tackled_agrees_with_unaware_when_models_coincide(frame, rng):
    pair = _random_pair(frame, rng)
    m0 = 4
    tau = m0 / (32 * frame.delta_f)
    assert tau <= frame.t_cp
    y = apply_channel_operator(tau, 0.0, pair, frame)
    est_t = tackled_estimate(y, pair, frame, tau_max=frame.t_cp)
    est_u = unaware_estimate_peaks(y, pair, frame, 1, tau_max=frame.t_cp)[0]
    d_tau = frame.t_symbol / 32
    assert abs(est_t.tau_hat - est_u.tau_hat) < 1e-6 * d_tau


def test_tackled_flat_signal_raises(frame):
    pair = ExtendedTxPair(np.zeros((32, 8), complex), np.zeros((32, 8), complex))
    with pytest.raises(ValueError):
        tackled_estimate(np.zeros(32 * 8, complex), pair, frame)


def test_successive_cancellation_on_all_zero_input_returns_nothing(frame, rng):
    pair = _random_pair(frame, rng)
    assert successive_cancellation(np.zeros(32 * 8, complex), pair, frame, 2) == []


def test_successive_cancellation_keeps_passes_before_a_flat_one(frame, rng, monkeypatch):
    # the second pass sees an all-zero residual: the first estimate survives
    pair = _random_pair(frame, rng)
    tau = 0.2 * frame.t_total
    y = apply_channel_operator(tau, 0.0, pair, frame)
    real = isi_ici.tackled_estimate
    calls = []

    def second_pass_flat(residual, *args):
        calls.append(residual)
        return real(np.zeros_like(residual) if len(calls) == 2 else residual, *args)

    monkeypatch.setattr(isi_ici, "tackled_estimate", second_pass_flat)
    res = successive_cancellation(y, pair, frame, 3)
    assert len(calls) == 2 and len(res) == 1
    assert abs(res[0][0].tau_hat - tau) < 1e-4 * frame.t_symbol / 32


def test_successive_cancellation_two_targets(frame, rng):
    pair = _random_pair(frame, rng)
    t1 = (1.0 + 0j, 0.2 * frame.t_total, 0.0)
    t2 = (0.25 + 0j, 1.7 * frame.t_total, 0.1 * frame.delta_f)
    y = sum(a * apply_channel_operator(tau, nu, pair, frame) for a, tau, nu in (t1, t2))
    res = successive_cancellation(y, pair, frame, 2, nu_max=0.3 * frame.delta_f)
    taus = sorted(est.tau_hat for est, _ in res)
    # the first pass sees the other target as interference, so accuracy is
    # bounded by the cross-correlation floor rather than the refinement
    assert abs(taus[0] - t1[1]) < 0.02 * frame.t_symbol / 32
    assert abs(taus[1] - t2[1]) < 0.02 * frame.t_symbol / 32


def test_unaware_alias_replica(frame, rng):
    # a target inside the CP shows a replica one delay-ambiguity later
    pair = _random_pair(frame, rng)
    tau = 0.5 * frame.t_cp
    y = apply_channel_operator(tau, 0.0, pair, frame)
    ests = unaware_estimate_peaks(y, pair, frame, 2,
                                  tau_max=tau + 1.2 * frame.t_symbol,
                                  exclusion_m=1.0)
    taus = sorted(e.tau_hat for e in ests)
    assert abs(taus[0] - tau) < 1e-6
    assert abs(taus[1] - (tau + frame.t_symbol)) < 1e-6


def test_unaware_sic_matches_truth_when_model_holds(frame, rng):
    pair = _random_pair(frame, rng)
    t1 = (1.0 + 0j, 0.9 * frame.t_cp, 0.0)
    t2 = (0.2 + 0j, 0.3 * frame.t_cp, 0.0)
    y = sum(a * apply_channel_operator(tau, nu, pair, frame) for a, tau, nu in (t1, t2))
    res = unaware_successive_cancellation(y, pair, frame, 2, tau_max=frame.t_cp)
    taus = sorted(est.tau_hat for est, _ in res)
    assert abs(taus[0] - t2[1]) < 1e-9
    assert abs(taus[1] - t1[1]) < 1e-9


def test_resolve_collapsed_coeffs(rng):
    scene = SensingScene([SensingTarget(range_m=3.0, velocity_mps=0.0, azimuth=0.0,
                                        effective_snr_db=-10.0)], noise_power=4.0)
    resolve_collapsed_coeffs(scene, rng)
    assert np.isclose(abs(scene.targets[0].coeff), np.sqrt(0.1 * 4.0))


def test_successive_cancellation_fits_alpha(frame, rng):
    pair = _random_pair(frame, rng)
    tau, nu = 0.6 * frame.t_total, 0.0
    alpha = 1.2 - 0.7j
    y = alpha * apply_channel_operator(tau, nu, pair, frame)
    [(_, a_hat)] = successive_cancellation(y, pair, frame, 1)
    assert np.isclose(a_hat, alpha, atol=1e-12)
