import time
import tracemalloc

import numpy as np
import pytest

from thzisac import experiments, isi_ici
from thzisac.channel import SensingScene, SensingTarget, delay_of_range, doppler_of_velocity
from thzisac.isi_ici import (ExtendedTxPair, _coarse_scan, _half_bin_grid,
                             apply_channel_operator, cp_limited_range,
                             hadamard_model_vec, isi_ici_rx,
                             resolve_collapsed_coeffs, successive_cancellation,
                             tackled_estimate, unaware_estimate_peaks,
                             unaware_successive_cancellation)
from thzisac.waveform import FrameConfig, generate_symbols, ofdm_modulate

from oracles import (TxBaseband, bruteforce_rx, cancel_out_of_place, matched_objective,
                     tackled_objective)
from test_harness import _tiny_config


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
    d_tau, d_nu, i_nodes, j_nodes = _half_bin_grid(frame, nu_max=1.5 / frame.t_total)
    # some node lies past a whole symbol and past the CP within its symbol
    tau_grid = i_nodes * d_tau
    assert np.any((tau_grid >= frame.t_total)
                  & (np.mod(tau_grid, frame.t_total) > frame.t_cp))
    assert j_nodes.min() < 0 and np.ptp(j_nodes) * d_nu > 1.0 / frame.t_total
    _assert_scan_matches_objective(y, pair, frame, i_nodes, j_nodes)


def _scan(y, pair, frame, i_nodes, j_nodes):
    return _coarse_scan(isi_ici._rx_samples(y, frame), pair, frame, i_nodes, j_nodes)


def _direct_objective(y, pair, frame, i_nodes, j_nodes):
    # the operator-built objective at the lattice nodes (i d_tau, j d_nu)
    d_tau, d_nu = _half_bin_grid(frame)[:2]
    objective = matched_objective(y, pair, frame)
    return np.array([[objective(i * d_tau, j * d_nu) for j in j_nodes] for i in i_nodes])


def _assert_scan_matches_objective(y, pair, frame, i_nodes, j_nodes):
    np.testing.assert_allclose(_scan(y, pair, frame, i_nodes, j_nodes),
                               _direct_objective(y, pair, frame, i_nodes, j_nodes),
                               rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("shape", [(32, 8, 8), (24, 5, 5), (16, 4, 0)])
def test_line_objectives_match_matched_objective(rng, shape):
    # both refinement axes read off the receive samples, against the dense
    # operator: delays inside the CP, past it (l > 0), past whole symbols
    # (k > 0) and at the slot end; Doppler of both signs up to most of a bin
    m_sc, n_sym, m_cp = shape
    frame = FrameConfig(m_sc, n_sym, 4, 1e6, 0.3e12, m_cp=m_cp)
    pair = _random_pair(frame, rng)
    y = 0.7 * apply_channel_operator(1.3 * frame.t_total, -0.2 * frame.delta_f, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    y_t = isi_ici._rx_samples(y, frame)
    objective = matched_objective(y, pair, frame)
    d_tau = frame.t_symbol / m_sc
    taus = [0.0, 0.37 * d_tau, frame.t_cp + 0.4 * frame.t_symbol,
            1.3 * frame.t_total, (n_sym - 1) * frame.t_total + frame.t_cp + 0.6 * frame.t_symbol,
            frame.t_slot]
    nus = [-0.83 * frame.delta_f, -0.2 * frame.delta_f, 0.0, 0.013 * frame.delta_f,
           0.61 * frame.delta_f]
    direct = np.array([[objective(t, v) for v in nus] for t in taus])
    by_doppler = np.array([[isi_ici._doppler_line(y_t, t, pair, frame)(v) for v in nus]
                           for t in taus])
    symbols = isi_ici._read_symbols(pair, frame, frame.t_slot)
    by_delay = np.array([[isi_ici._delay_line(y_t, v, frame, symbols)(t) for t in taus]
                         for v in nus]).T
    assert np.all(direct > 0)
    np.testing.assert_allclose(by_doppler, direct, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(by_delay, direct, rtol=1e-9, atol=0.0)


def test_line_objectives_zero_without_transmit_energy(frame, rng):
    pair = ExtendedTxPair(np.zeros((32, 8), complex), np.zeros((32, 8), complex))
    y_t = isi_ici._rx_samples(rng.standard_normal(32 * 8) + 0j, frame)
    line = isi_ici._delay_line(y_t, 0.1 * frame.delta_f, frame,
                               isi_ici._read_symbols(pair, frame, frame.t_slot))
    assert line(0.3 * frame.t_total) == 0.0
    assert isi_ici._doppler_line(y_t, 0.3 * frame.t_total, pair, frame)(1e3) == 0.0


@pytest.mark.parametrize("m_cp", [0, 8, 32])
def test_delay_line_matches_operator_oracle(rng, m_cp):
    # the closed form in the sub-sample fraction against the operator-built
    # objective: at tau = 0, inside the CP, past it, past whole symbols
    # (n_prev >= 1) and at the slot end, on whole samples and between them
    frame = FrameConfig(32, 6, 4, 1e6, 0.3e12, m_cp=m_cp)
    pair = _random_pair(frame, rng)
    y = 0.7 * apply_channel_operator(1.3 * frame.t_total, 0.3 * frame.delta_f, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    y_t = isi_ici._rx_samples(y, frame)
    d_tau = frame.t_symbol / 32
    taus = [0.0, 0.37 * d_tau, max(0.0, frame.t_cp - 0.41 * d_tau), frame.t_cp,
            frame.t_cp + 5.6 * d_tau, frame.t_total + frame.t_cp + 3.2 * d_tau,
            2.5 * frame.t_total, 4 * frame.t_total + 7 * d_tau, frame.t_slot - 0.3 * d_tau,
            frame.t_slot]
    assert max(isi_ici._sample_lag(t, frame)[2] for t in taus) == frame.n_symbols
    symbols = isi_ici._read_symbols(pair, frame, frame.t_slot)
    # a box that ends at the CP reads no previous symbol and builds no
    # autocorrelation table: every probe's energy is sum ||X_k||^2
    in_cp = [k for k, t in enumerate(taus) if t <= frame.t_cp]
    cp_symbols = isi_ici._read_symbols(pair, frame, frame.t_cp)
    assert cp_symbols.autocorr.shape == (frame.n_symbols, 1)
    for nu in (-0.7 * frame.delta_f, 0.0, 0.45 * frame.delta_f):
        line = isi_ici._delay_line(y_t, nu, frame, symbols)
        want = [tackled_objective(y, pair, frame, t, nu) for t in taus]
        np.testing.assert_allclose([line(t) for t in taus], want, rtol=1e-12, atol=0.0)
        cp_line = isi_ici._delay_line(y_t, nu, frame, cp_symbols)
        np.testing.assert_allclose([cp_line(taus[k]) for k in in_cp], [want[k] for k in in_cp],
                                   rtol=1e-12, atol=0.0)


def test_delay_line_sets_up_once_per_lag(frame, rng, monkeypatch):
    # only a new whole-sample lag pays the per-lag FFT; every other probe is a
    # length-M exp and two dot products, however many land in that lag
    pair = _random_pair(frame, rng)
    y_t = isi_ici._rx_samples(rng.standard_normal(32 * 8) + 1j * rng.standard_normal(32 * 8),
                              frame)
    real, lags = isi_ici._lag_terms, []

    def spy(target, symbols, fr, lag):
        lags.append(lag)
        return real(target, symbols, fr, lag)

    monkeypatch.setattr(isi_ici, "_lag_terms", spy)
    d_tau = frame.t_symbol / 32
    line = isi_ici._delay_line(y_t, 0.2 * frame.delta_f, frame,
                               isi_ici._read_symbols(pair, frame, frame.t_slot))
    for shift in np.linspace(40.05, 41.0, 20):
        line(shift * d_tau)
    assert lags == [41]
    for shift in (3.2, 40.5, 3.7, 4.0, 41.0):
        line(shift * d_tau)
    assert lags == [41, 4]
    # a delay outside the slot, or deeper than the symbols the line was given
    with pytest.raises(ValueError, match="outside"):
        line(frame.t_slot * 1.01)
    shallow = isi_ici._delay_line(y_t, 0.0, frame, isi_ici._read_symbols(pair, frame, frame.t_cp))
    with pytest.raises(ValueError, match="reaches past"):
        shallow(2 * frame.t_total)


@pytest.mark.parametrize("predecessor", ["random", "zero"])
def test_coarse_scan_oracle_one_doppler_node_up_to_slot_end(frame, rng, predecessor):
    # the ISI shape: every delay node of the slot, up to tau = T_slot (lag N*P
    # samples), against a single Doppler node
    pair = _random_pair(frame, rng)
    if predecessor == "zero":
        pair = ExtendedTxPair(np.zeros_like(pair.x_curr), pair.x_curr)
    y = 0.7 * apply_channel_operator(frame.t_cp + 0.4 * frame.t_symbol, 0.0, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    d_tau, _, i_nodes, j_nodes = _half_bin_grid(frame, nu_max=0.0)
    assert j_nodes.tolist() == [0]
    assert np.isclose(i_nodes[-1] * d_tau, frame.t_slot, rtol=1e-12)
    assert i_nodes.size == 2 * frame.n_symbols * (frame.m_subcarriers + frame.m_cp) + 1
    _assert_scan_matches_objective(y, pair, frame, i_nodes, j_nodes)


@pytest.mark.parametrize("shape", [(32, 8, 8), (24, 5, 5), (16, 4, 0)])
def test_coarse_scan_oracle_narrow_delay_wide_doppler(rng, shape):
    # the ICI shape: a few delay nodes inside the CP against a Doppler span of
    # +-1.5/T_o; frames include a prime symbol length M + m_cp and no CP
    m_sc, n_sym, m_cp = shape
    frame = FrameConfig(m_sc, n_sym, 4, 1e6, 0.3e12, m_cp=m_cp)
    pair = _random_pair(frame, rng)
    y = 0.7 * apply_channel_operator(0.2 * frame.t_symbol / m_sc, 0.4 * frame.delta_f, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    _, _, i_nodes, j_nodes = _half_bin_grid(frame, tau_max=2.6 * frame.t_symbol / m_sc,
                                            nu_max=1.5 / frame.t_total)
    assert i_nodes.size == 6 and j_nodes.size == 6 * n_sym + 1
    _assert_scan_matches_objective(y, pair, frame, i_nodes, j_nodes)


def test_coarse_scan_oracle_scattered_lattice_nodes(frame, rng):
    # unsorted, non-contiguous nodes with uneven Doppler steps
    pair = _random_pair(frame, rng)
    y = (rng.standard_normal(32 * 8) + 1j * rng.standard_normal(32 * 8)) / np.sqrt(2)
    last = 2 * 8 * (32 + frame.m_cp)
    _assert_scan_matches_objective(y, pair, frame, np.array([7, 0, last, 3, last - 1, 90]),
                                   np.array([5, -3, -2, 4, 4, 0, 40]))


def test_coarse_scan_rejects_nodes_off_the_lattice_or_slot(frame, rng):
    # integer nodes lie on the lattice by their type; only the slot bounds them
    pair = _random_pair(frame, rng)
    y = np.ones(32 * 8, complex)
    last = 2 * 8 * (32 + frame.m_cp)
    for i_nodes in ([last + 1], [-1, 0]):
        with pytest.raises(ValueError, match="outside"):
            _scan(y, pair, frame, np.array(i_nodes), np.zeros(1, int))


@pytest.mark.parametrize("bounds", [(-1e-9, None), (None, -1.0), (-1.0, -1.0)])
def test_negative_search_bounds_raise(frame, rng, bounds):
    # a negative bound would leave an empty grid: no silent "nothing detected"
    pair = _random_pair(frame, rng)
    y = apply_channel_operator(0.3 * frame.t_total, 0.0, pair, frame)
    calls = (lambda: tackled_estimate(y, pair, frame, *bounds),
             lambda: successive_cancellation(y, pair, frame, 1, *bounds),
             lambda: isi_ici.tackled_range_profile(y, pair, frame, *bounds))
    for call in calls:
        with pytest.raises(ValueError, match="negative search bound"):
            call()


def test_half_bin_grid_node_counts_on_the_demo_grids():
    # the short-CP ISI scan (3.84 MHz), its 480 kHz control and the ICI scan
    grids = [(3840e3, 55.0, 30.0, (2887, 1)), (480e3, 55.0, 30.0, (362, 11)),
             (120e3, 40.0, 55.0, (67, 73))]
    for delta_f, max_range, max_speed, shape in grids:
        frame = FrameConfig(1024, 16, 32, delta_f, 0.3e12)
        d_tau, _, i_nodes, j_nodes = _half_bin_grid(
            frame, delay_of_range(max_range), doppler_of_velocity(max_speed, frame.fc))
        assert (i_nodes.size, j_nodes.size) == shape
        assert np.array_equal(i_nodes, np.arange(shape[0]))
        assert np.array_equal(j_nodes, np.arange(shape[1]) - shape[1] // 2)
        # the float delay nodes the grid used to be built as, bit for bit
        tau_max = min(delay_of_range(max_range), frame.t_slot)
        assert np.array_equal(i_nodes * d_tau, np.arange(0.0, tau_max + d_tau / 2, d_tau))


@pytest.mark.parametrize("symbols, in_cp", [(0.1, True), (3.0, False)])
def test_tackled_estimate_takes_the_receive_samples_once(frame, rng, monkeypatch, symbols,
                                                         in_cp):
    # scan and refinement share one per-symbol IDFT of y, on an in-CP grid and
    # on an overlap-save grid
    pair = _random_pair(frame, rng)
    tau_max = symbols * frame.t_total
    y = apply_channel_operator(0.3 * tau_max, 0.1 * frame.delta_f, pair, frame)
    calls = {name: [] for name in ("_rx_samples", "_scan_in_cp")}
    for name, seen in calls.items():
        real = getattr(isi_ici, name)
        monkeypatch.setattr(isi_ici, name,
                            lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    tackled_estimate(y, pair, frame, tau_max, 0.3 * frame.delta_f)
    assert len(calls["_rx_samples"]) == 1
    assert len(calls["_scan_in_cp"]) == in_cp


def _count_cp_streams(monkeypatch):
    real, calls = isi_ici._cp_stream, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(isi_ici, "_cp_stream", spy)
    return calls


@pytest.mark.parametrize("shape", [(32, 8, 8), (16, 4, 16)])
@pytest.mark.parametrize("past_cp", [0, 1])
def test_coarse_scan_path_follows_the_deepest_lag(rng, monkeypatch, shape, past_cp):
    # a last lag of exactly m_cp is scanned per symbol, one sample more takes
    # the overlap-save path through _cp_stream; both against the oracle over
    # a Doppler span wider than the residue period K (20 and 16 nodes here)
    m_sc, n_sym, m_cp = shape
    frame = FrameConfig(m_sc, n_sym, 4, 1e6, 0.3e12, m_cp=m_cp)
    pair = _random_pair(frame, rng)
    y = 0.7 * apply_channel_operator(0.6 * frame.t_cp, 0.4 * frame.delta_f, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    d_tau = frame.t_symbol / (2 * m_sc)
    _, _, i_nodes, j_nodes = _half_bin_grid(frame, tau_max=(2 * m_cp + past_cp) * d_tau,
                                            nu_max=1.5 / frame.t_total)
    assert (i_nodes[-1] + 1) // 2 == m_cp + past_cp
    calls = _count_cp_streams(monkeypatch)
    scan = _scan(y, pair, frame, i_nodes, j_nodes)
    assert len(calls) == (2 if past_cp else 0)
    np.testing.assert_allclose(scan, _direct_objective(y, pair, frame, i_nodes, j_nodes),
                               rtol=1e-9, atol=0.0)


def test_coarse_scan_of_a_silent_current_slot_is_zero_inside_the_cp(frame, rng):
    # inside the CP only the current slot is read: zero energy on every node
    # gives an all-zero scan (no 0/0) and a flat objective
    pair = ExtendedTxPair(_random_pair(frame, rng).x_prev, np.zeros((32, 8), complex))
    y = rng.standard_normal(32 * 8) + 1j * rng.standard_normal(32 * 8)
    _, _, i_nodes, j_nodes = _half_bin_grid(frame, frame.t_cp, 0.5 * frame.delta_f)
    scan = _scan(y, pair, frame, i_nodes, j_nodes)
    assert scan.shape == (i_nodes.size, j_nodes.size) and np.all(scan == 0.0)
    with pytest.raises(isi_ici.FlatObjectiveError):
        tackled_estimate(y, pair, frame, frame.t_cp, 0.5 * frame.delta_f)


def test_ici_shaped_scan_builds_no_cp_stream(monkeypatch):
    # the ICI demo's grid (120 kHz, 0-40 m, +-55 m/s) ends at lag 33 of m_cp = 256
    frame = FrameConfig(1024, 16, 32, 120e3, 0.3e12)
    rng = np.random.default_rng(5)
    pair = ExtendedTxPair(generate_symbols(frame, 1, rng)[0], generate_symbols(frame, 1, rng)[0])
    y = apply_channel_operator(delay_of_range(30.0), doppler_of_velocity(50.0, frame.fc), pair,
                               frame)
    d_tau, _, i_nodes, j_nodes = _half_bin_grid(frame, delay_of_range(40.0),
                                                doppler_of_velocity(55.0, frame.fc))
    assert (i_nodes.size, j_nodes.size) == (67, 73)
    calls = _count_cp_streams(monkeypatch)
    scan = _scan(y, pair, frame, i_nodes, j_nodes)
    assert calls == []
    i, j = np.unravel_index(np.argmax(scan), scan.shape)
    assert abs(i_nodes[i] * d_tau - delay_of_range(30.0)) <= frame.t_symbol / 2048


@pytest.mark.parametrize("delta_f, max_range, max_speed, target, nu, bound", [
    pytest.param(3840e3, 55.0, 30.0, 45.0, 1e3, 2.7e6, id="3840khz"),
    pytest.param(120e3, 40.0, 55.0, 30.0, doppler_of_velocity(50.0, 0.3e12), 2.3e6, id="120khz"),
    pytest.param(480e3, 55.0, 30.0, 45.0, 1e3, 2.3e6, id="480khz")])
def test_tackled_estimate_transient_memory_bound(delta_f, max_range, max_speed, target, nu,
                                                 bound):
    # one pass on a demo grid (M=1024, N=16): the short-CP one (3.84 MHz,
    # 2887 delay nodes x 1 Doppler node, overlap-save), the ICI one (120 kHz,
    # 67 x 73) and the ISI demo's control (480 kHz, 362 x 11), both scanned
    # per symbol; the per-delay scan that overlap-save replaced peaked at
    # ~2.87e6 traced bytes on the first
    frame = FrameConfig(1024, 16, 32, delta_f, 0.3e12)
    rng = np.random.default_rng(11)
    pair = ExtendedTxPair(generate_symbols(frame, 1, rng)[0], generate_symbols(frame, 1, rng)[0])
    tau_max, nu_max = delay_of_range(max_range), doppler_of_velocity(max_speed, frame.fc)
    y = 0.3 * apply_channel_operator(delay_of_range(target), nu, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    tackled_estimate(y, pair, frame, tau_max, nu_max)
    tracemalloc.start()
    try:
        tackled_estimate(y, pair, frame, tau_max, nu_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_tackled_estimate_probe_count(monkeypatch):
    # every probe of the refinement runs inside isi_ici.golden_section_max;
    # three rounds of fixed 33-step golden sections made ~200 of them
    frame = FrameConfig(1024, 16, 32, 3840e3, 0.3e12)
    rng = np.random.default_rng(11)
    pair = ExtendedTxPair(generate_symbols(frame, 1, rng)[0], generate_symbols(frame, 1, rng)[0])
    tau, nu = delay_of_range(45.0), 1e3
    y = 0.3 * apply_channel_operator(tau, nu, pair, frame)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    real, probes = isi_ici.golden_section_max, []

    def spy(fun, *args):
        return real(lambda x: probes.append(x) or fun(x), *args)

    monkeypatch.setattr(isi_ici, "golden_section_max", spy)
    est = tackled_estimate(y, pair, frame, delay_of_range(55.0),
                           doppler_of_velocity(30.0, frame.fc))
    assert 0 < len(probes) <= 80
    assert abs(est.tau_hat - tau) < 0.05 * frame.t_symbol / 1024


@pytest.mark.parametrize("tau", [0.3, 2.6])
def test_tackled_estimate_builds_a_line_only_when_its_held_coordinate_moves(
        frame, rng, monkeypatch, tau):
    # the start value and round 1 share the delay line at nu0; a later round
    # rebuilds an axis's line only after the other coordinate moved
    pair = _random_pair(frame, rng)
    y = apply_channel_operator(tau * frame.t_total, 0.23 * frame.delta_f, pair, frame)
    y = y + 0.2 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    builds = {"delay": [], "doppler": []}
    real_delay, real_doppler = isi_ici._delay_line, isi_ici._doppler_line

    def delay_spy(y_t, nu, *args):
        builds["delay"].append(nu)
        return real_delay(y_t, nu, *args)

    def doppler_spy(y_t, t, *args):
        builds["doppler"].append(t)
        return real_doppler(y_t, t, *args)

    monkeypatch.setattr(isi_ici, "_delay_line", delay_spy)
    monkeypatch.setattr(isi_ici, "_doppler_line", doppler_spy)
    est = tackled_estimate(y, pair, frame, nu_max=0.5 * frame.delta_f)
    assert abs(est.tau_hat - tau * frame.t_total) < 0.01 * frame.t_symbol / 32
    for held in builds.values():
        assert 1 <= len(held) <= 3
        assert all(a != b for a, b in zip(held, held[1:]))


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


def test_first_pass_range_profile_equals_a_rescan(frame, rng):
    pair = _random_pair(frame, rng)
    y = sum(a * apply_channel_operator(tau, nu, pair, frame)
            for a, tau, nu in ((1.0, 0.2 * frame.t_total, 0.0),
                               (0.25, 1.7 * frame.t_total, 0.1 * frame.delta_f)))
    y = y + 0.1 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    tau_max, nu_max = 2.5 * frame.t_total, 0.3 * frame.delta_f
    (first, _), (second, _) = successive_cancellation(y, pair, frame, 2, tau_max, nu_max)
    nodes, prof = isi_ici.tackled_range_profile(y, pair, frame, tau_max, nu_max)
    assert np.array_equal(first.range_profile[0], nodes)
    assert np.array_equal(first.range_profile[1], prof)
    # later passes scan the residual, not y
    assert not np.array_equal(second.range_profile[1], prof)


def test_demo_runner_takes_the_tackled_profile_from_the_first_pass(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(isi_ici, "tackled_range_profile",
                        lambda *args: calls.append(args))
    experiments.run_ici_demo(_tiny_config(trials=1), str(tmp_path))
    assert calls == []


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
    resolved = resolve_collapsed_coeffs(scene, rng)
    assert np.isclose(abs(resolved.targets[0].coeff), np.sqrt(0.1 * 4.0))
    assert scene.targets[0].coeff is None and resolved.targets[0] is not scene.targets[0]


def test_successive_cancellation_fits_alpha(frame, rng):
    pair = _random_pair(frame, rng)
    tau, nu = 0.6 * frame.t_total, 0.0
    alpha = 1.2 - 0.7j
    y = alpha * apply_channel_operator(tau, nu, pair, frame)
    [(_, a_hat)] = successive_cancellation(y, pair, frame, 1)
    assert np.isclose(a_hat, alpha, atol=1e-12)


@pytest.mark.parametrize("delta_f, max_range, max_speed, targets", [
    # (range m, speed m/s, amplitude): the ISI demo's short-CP frame and the
    # ICI demo's 50 m/s scenario, one weak target close behind a strong one
    pytest.param(3840e3, 55.0, 30.0, ((10.0, 5.0, 0.3), (45.0, 5.0, 0.2)), id="isi"),
    pytest.param(120e3, 40.0, 55.0, ((10.0, 50.0, 0.3), (20.0, 50.0, 0.2), (30.0, 50.0, 3.0)),
                 id="ici")])
def test_cancellation_matches_the_out_of_place_loop_bit_for_bit(delta_f, max_range, max_speed,
                                                               targets):
    frame = FrameConfig(1024, 16, 32, delta_f, 0.3e12)
    rng = np.random.default_rng(4)
    pair = ExtendedTxPair(generate_symbols(frame, 1, rng)[0], generate_symbols(frame, 1, rng)[0])
    tau_max, nu_max = delay_of_range(max_range), doppler_of_velocity(max_speed, frame.fc)
    y = sum(amp * np.exp(2j * np.pi * rng.random())
            * apply_channel_operator(delay_of_range(r), doppler_of_velocity(v, frame.fc), pair,
                                     frame) for r, v, amp in targets)
    y = y + (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    y_before = y.copy()
    count = len(targets)
    cases = [(successive_cancellation(y, pair, frame, count, tau_max, nu_max),
              lambda r: tackled_estimate(r, pair, frame, tau_max, nu_max),
              lambda est: apply_channel_operator(est.tau_hat, est.nu_hat, pair, frame)),
             (unaware_successive_cancellation(y, pair, frame, count, tau_max),
              lambda r: unaware_estimate_peaks(r, pair, frame, 1, tau_max)[0],
              lambda est: hadamard_model_vec(pair.x_curr, est.tau_hat, est.nu_hat, frame))]
    assert np.array_equal(y, y_before)  # the subtraction runs in a copy of y
    for got, detect, response in cases:
        want = cancel_out_of_place(y, count, detect, response)
        assert len(got) == len(want) == count
        for (est, alpha), (ref, ref_alpha) in zip(got, want):
            assert est == ref and alpha == ref_alpha
            if isinstance(est, isi_ici.TackledEstimate):
                for a, b in zip(est.range_profile, ref.range_profile):
                    assert np.array_equal(a, b)
