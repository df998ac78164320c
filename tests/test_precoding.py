import time
import tracemalloc
import warnings

import numpy as np
import pytest

from thzisac import precoding
from thzisac.channel import CommChannel, CommPath, ModelMismatchWarning, sample_comm_channel
from thzisac.geometry import UpaGeometry, dft_codebook
from thzisac.precoding import (CommTarget, PrecoderSet, PrecodingTargets, SwitchMatrix,
                               combined_receiver, comm_design, default_switch_pattern,
                               finalize_digital,
                               optimal_fully_digital, optimal_sensing_precoder,
                               sca_hybrid_precoding, spectral_efficiency,
                               transmit_beampattern, vec_analog_update,
                               vec_digital_update, vec_hybrid_precoding,
                               weighted_objective)
from thzisac.waveform import FrameConfig

from oracles import (comm_channel_matrix, normalized_lstsq_dense, optimal_fully_digital_dense,
                     phase_update_dense, procrustes_dense, random_semi_unitary,
                     spectral_efficiency_dense, transmit_beampattern_dense, vec_unshared,
                     weighted_objective_dense)


@pytest.fixture
def small_setup(rng):
    geom = UpaGeometry(8, 4)  # nt = 32
    frame = FrameConfig(8, 4, 8, 1.92e6, 0.3e12)
    chan = sample_comm_channel(geom, geom, frame, rng, num_nlos=4)
    return geom, frame, chan


def _random_targets(rng, nt, ns, m_count, eta, codebook=None, q=1):
    comm = np.stack([random_semi_unitary(nt, ns, rng) for _ in range(m_count)])
    if codebook is None:
        sense = np.tile(random_semi_unitary(nt, 1, rng), (1, ns))
    else:
        sense = optimal_sensing_precoder(codebook, q, ns)
    return PrecodingTargets(comm, sense, eta)


# ---------------------------------------------------------------------------
# switch patterns
# ---------------------------------------------------------------------------

def test_default_switch_patterns():
    aosa = default_switch_pattern(4, 4, 8)
    assert np.array_equal(aosa.closed, np.eye(4, dtype=bool))
    fc = default_switch_pattern(4, 16, 8)
    assert fc.closed.all()
    mid = default_switch_pattern(4, 8, 8)
    assert mid.n_closed == 8
    assert np.all(np.diag(mid.closed))
    # row-major fill of the extras
    assert mid.closed[0, 1] and mid.closed[0, 2] and mid.closed[0, 3] and mid.closed[1, 0]
    with pytest.raises(ValueError):
        default_switch_pattern(4, 3, 8)


def test_switch_expand():
    sw = SwitchMatrix(closed=np.eye(2, dtype=bool), k_t=3)
    mask = sw.expand()
    assert mask.shape == (6, 2)
    assert mask[:3, 0].all() and not mask[:3, 1].any()


# ---------------------------------------------------------------------------
# fully digital reference
# ---------------------------------------------------------------------------

def _paths_channel(tx_geom, rx_geom, gain, angles):
    """A CommChannel of one path per (aod, aoa) azimuth pair, each with the scalar gain."""
    return CommChannel(paths=[CommPath(np.array([gain]), (aoa, np.pi / 2), (aod, np.pi / 2),
                                       is_los=k == 0)
                              for k, (aod, aoa) in enumerate(angles)],
                       tx_geom=tx_geom, rx_geom=rx_geom)


def test_svd_identity_channel():
    # four paths along the orthogonal DFT directions of a 4 x 1 array on both
    # sides, gamma = 2: H = 2 * 0.5 * sum_k a_k a_k^H = I
    geom = UpaGeometry(4, 1)
    angles = dft_codebook(geom).direction_angles
    chan = _paths_channel(geom, geom, 0.5, zip(angles, angles))
    np.testing.assert_allclose(comm_channel_matrix(chan, 0), np.eye(4), atol=1e-12)
    f, c, s = optimal_fully_digital(chan, 2)
    np.testing.assert_allclose(f[0].conj().T @ f[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(c[0].conj().T @ c[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(s[0], 1.0)
    np.testing.assert_allclose(s, optimal_fully_digital_dense([np.eye(4)], 2)[2], atol=1e-12)


def test_svd_rank_one_channel():
    from thzisac.geometry import steering_upa
    tx, rx = UpaGeometry(8, 1), UpaGeometry(4, 1)
    chan = _paths_channel(tx, rx, 3.0 / np.sqrt(32), [(0.3, -0.2)])  # H = 3 a_r a_t^H
    a_t = steering_upa(0.3, np.pi / 2, tx)
    h = comm_channel_matrix(chan, 0)
    np.testing.assert_allclose(h, 3.0 * np.outer(steering_upa(-0.2, np.pi / 2, rx), a_t.conj()),
                               atol=1e-12)
    f, c, s = optimal_fully_digital(chan, 1)
    # leading right-singular vector collinear with a_t (up to phase)
    corr = np.abs(np.vdot(f[0][:, 0], a_t))
    assert corr > 1 - 1e-10
    assert np.isclose(s[0][0], 3.0)
    assert np.isclose(np.linalg.norm(h @ f[0][:, 0]), s[0][0])
    # one path, two streams: both paths warn and keep a zero singular value,
    # and the padded precoder stays orthonormal
    with pytest.warns(ModelMismatchWarning, match="rank below stream count"):
        f, c, s = optimal_fully_digital(chan, 2)
    with pytest.warns(ModelMismatchWarning, match="rank below stream count"):
        s_dense = optimal_fully_digital_dense([h], 2)[2]
    np.testing.assert_allclose(s, s_dense, atol=1e-12)
    assert s[0][1] == 0.0
    np.testing.assert_allclose(f[0].conj().T @ f[0], np.eye(2), atol=1e-12)


def test_svd_singular_value_consistency(small_setup):
    geom, frame, chan = small_setup
    f, c, s = optimal_fully_digital(chan, 3)
    for m in range(8):
        h = comm_channel_matrix(chan, m)
        for k in range(3):
            assert np.isclose(np.linalg.norm(h @ f[m][:, k]), s[m][k])
            assert np.isclose(np.linalg.norm(h.conj().T @ c[m][:, k]), s[m][k])


def test_svd_factored_matches_dense(small_setup):
    geom, frame, chan = small_setup
    f_f, c_f, s_f = optimal_fully_digital(chan, 4)
    mats = [comm_channel_matrix(chan, m) for m in range(8)]
    f_d, c_d, s_d = optimal_fully_digital_dense(mats, 4)
    np.testing.assert_allclose(s_f, s_d, atol=1e-8)
    for m in range(8):
        # compare subspaces (columns defined up to phase): projector equality
        p1 = f_f[m] @ f_f[m].conj().T
        p2 = f_d[m] @ f_d[m].conj().T
        np.testing.assert_allclose(p1, p2, atol=1e-8)


# ---------------------------------------------------------------------------
# sensing precoder
# ---------------------------------------------------------------------------

def test_optimal_sensing_precoder():
    geom = UpaGeometry(8, 4)
    cb = dft_codebook(geom)
    f_s = optimal_sensing_precoder(cb, 3, 4)
    for k in range(1, 4):
        np.testing.assert_array_equal(f_s[:, 0], f_s[:, k])
    # rank one with commensurate target power (unit-norm columns)
    assert np.isclose(np.linalg.norm(f_s) ** 2, 4.0)
    # matched filter: the scan column wins over every other codebook column
    gains = np.abs(cb.columns.conj().T @ f_s[:, 0])
    assert np.argmax(gains) == 2


# ---------------------------------------------------------------------------
# VEC updates
# ---------------------------------------------------------------------------

def test_digital_update_unitary_case(rng):
    nt, n_rf, ns = 16, 4, 4
    f_rf = random_semi_unitary(nt, n_rf, rng)
    u0 = random_semi_unitary(ns, ns, rng)
    comm = np.repeat((f_rf @ u0.conj().T)[None], 3, axis=0)
    targets = PrecodingTargets(comm, np.zeros((nt, ns)), 1.0)
    f_bb = vec_digital_update(targets, f_rf)
    ghb = u0  # G^H B = eta F_c^H F_RF = u0
    for m in range(3):
        np.testing.assert_allclose(f_bb[m], ghb.conj().T, atol=1e-10)
        gain = np.real(np.trace(f_bb[m].conj().T @ ghb.conj().T @ ghb @ ghb.conj().T))
        # Re tr(F^H B^H G) with B^H G = (G^H B)^H = u0^H
        gain = np.real(np.trace(f_bb[m].conj().T @ u0.conj().T))
        assert np.isclose(gain, ns, atol=1e-9)


def test_digital_update_optimality(rng):
    # Procrustes step beats random semi-unitary candidates
    nt, n_rf, ns, m_count = 12, 4, 4, 2
    f_rf = np.exp(2j * np.pi * rng.random((nt, n_rf)))
    comm = np.stack([random_semi_unitary(nt, ns, rng) for _ in range(m_count)])
    targets = PrecodingTargets(comm, np.tile(random_semi_unitary(nt, 1, rng), (1, ns)), 0.7)
    f_bb = vec_digital_update(targets, f_rf)
    eta = targets.eta
    for m in range(m_count):
        ghb = (eta * comm[m].conj().T @ f_rf
               + (1 - eta) * targets.sense_opt.conj().T @ f_rf)
        best = np.real(np.trace(f_bb[m].conj().T @ ghb.conj().T))
        for _ in range(200):
            cand = random_semi_unitary(n_rf, ns, rng)
            assert np.real(np.trace(cand.conj().T @ ghb.conj().T)) <= best + 1e-9


def test_digital_update_weight_swap(rng):
    # swapping eta <-> 1-eta together with the two targets changes nothing
    nt, n_rf, ns = 12, 4, 4
    f_rf = np.exp(2j * np.pi * rng.random((nt, n_rf)))
    comm_const = random_semi_unitary(nt, ns, rng)
    sense = np.tile(random_semi_unitary(nt, 1, rng), (1, ns))
    t1 = PrecodingTargets(np.repeat(comm_const[None], 2, 0), sense, 0.3)
    t2 = PrecodingTargets(np.repeat(sense[None], 2, 0), comm_const, 0.7)
    np.testing.assert_allclose(vec_digital_update(t1, f_rf),
                               vec_digital_update(t2, f_rf), atol=1e-10)


def test_analog_update_scalar_case():
    comm = np.array([[[0.3 - 0.4j]]])  # M=1, nt=1, ns=1
    targets = PrecodingTargets(comm, np.zeros((1, 1)), 1.0)
    f_bb = np.array([[[1.0 + 0j]]])
    sw = SwitchMatrix(closed=np.ones((1, 1), dtype=bool), k_t=1)
    f_rf = vec_analog_update(targets, f_bb, sw)
    assert np.isclose(f_rf[0, 0], np.exp(1j * np.angle(0.3 - 0.4j)))


def test_analog_update_monotone(rng):
    # with square-unitary digital precoders the phase update cannot increase cost
    nt, n_rf, ns = 16, 4, 4
    sw = default_switch_pattern(n_rf, 7, nt // n_rf)
    for trial in range(10):
        targets = _random_targets(rng, nt, ns, 3, rng.uniform(0, 1))
        mask = sw.expand()
        f_rf = np.where(mask, np.exp(2j * np.pi * rng.random(mask.shape)), 0)
        f_bb = vec_digital_update(targets, f_rf)
        before = weighted_objective(targets, f_rf, f_bb)
        f_rf2 = vec_analog_update(targets, f_bb, sw, prev=f_rf)
        after = weighted_objective(targets, f_rf2, f_bb)
        assert after <= before + 1e-10


def test_analog_update_zero_structure(rng):
    targets = _random_targets(rng, 16, 4, 2, 0.5)
    sw = default_switch_pattern(4, 5, 4)
    f_bb = np.stack([random_semi_unitary(4, 4, rng) for _ in range(2)])
    f_rf = vec_analog_update(targets, f_bb, sw)
    mask = sw.expand()
    assert np.all(f_rf[~mask] == 0)
    np.testing.assert_allclose(np.abs(f_rf[mask]), 1.0, atol=1e-12)


def test_analog_update_tie_break_keeps_previous():
    nt, n_rf, ns = 4, 2, 2
    comm = np.zeros((1, nt, ns), dtype=complex)
    targets = PrecodingTargets(comm, np.zeros((nt, ns)), 1.0)
    f_bb = np.zeros((1, n_rf, ns), dtype=complex)
    sw = SwitchMatrix(closed=np.ones((2, 2), dtype=bool), k_t=2)
    prev = np.exp(1j * 0.7) * sw.expand().astype(complex)
    f_rf = vec_analog_update(targets, f_bb, sw, prev=prev)
    np.testing.assert_allclose(f_rf, prev, atol=1e-14)


# ---------------------------------------------------------------------------
# VEC full loop
# ---------------------------------------------------------------------------

def test_vec_loop_monotone_feasible_power(rng):
    geom = UpaGeometry(8, 4)
    cb = dft_codebook(geom)
    targets = _random_targets(rng, 32, 4, 6, 0.5, codebook=cb, q=2)
    sw = default_switch_pattern(4, 8, 8)
    pre = vec_hybrid_precoding(targets, sw, rng=rng)
    trace = np.array(pre.objective_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    mask = sw.expand()
    assert np.all(pre.analog[~mask] == 0)
    np.testing.assert_allclose(np.abs(pre.analog[mask]), 1.0, atol=1e-12)
    for m in range(6):
        assert abs(np.linalg.norm(pre.tx_matrix(m)) ** 2 - 4) < 1e-9


def test_vec_eta_endpoint_matches_comm_only(rng):
    geom = UpaGeometry(8, 2)
    cb = dft_codebook(geom)
    comm = np.stack([random_semi_unitary(16, 2, rng) for _ in range(4)])
    sense = optimal_sensing_precoder(cb, 1, 2)
    sw = default_switch_pattern(2, 4, 8)
    a = vec_hybrid_precoding(PrecodingTargets(comm, sense, 1.0), sw,
                             rng=np.random.default_rng(3))
    b = vec_hybrid_precoding(PrecodingTargets(comm, np.zeros_like(sense), 1.0), sw,
                             rng=np.random.default_rng(3))
    assert np.isclose(a.objective_trace[-1], b.objective_trace[-1], atol=1e-12)
    np.testing.assert_allclose(a.analog, b.analog, atol=1e-12)


def test_finalize_digital_power(rng):
    targets = _random_targets(rng, 16, 4, 3, 0.4)
    sw = default_switch_pattern(4, 16, 4)
    f_rf = np.exp(2j * np.pi * rng.random((16, 4)))
    f_bb = finalize_digital(targets, f_rf)
    for m in range(3):
        assert np.isclose(np.linalg.norm(f_rf @ f_bb[m]) ** 2, 4.0, atol=1e-9)


# ---------------------------------------------------------------------------
# SCA
# ---------------------------------------------------------------------------

def test_sca_eta_endpoints(rng):
    geom = UpaGeometry(8, 4)
    cb = dft_codebook(geom)
    comm = np.stack([random_semi_unitary(32, 4, rng) for _ in range(4)])
    sw = default_switch_pattern(4, 8, 8)
    mask = sw.expand()
    comm_analog = np.where(mask, np.exp(2j * np.pi * rng.random(mask.shape)), 0)
    s1 = sca_hybrid_precoding(CommTarget.factor(comm), cb, 3, 1.0, comm_analog, sw)
    np.testing.assert_array_equal(s1.analog, comm_analog)
    s0 = sca_hybrid_precoding(CommTarget.factor(comm), cb, 3, 0.0, comm_analog, sw)
    scan = cb.columns[:, 2]
    phases = scan / np.abs(scan)
    for i in range(4):
        for j in range(4):
            if sw.closed[i, j]:
                np.testing.assert_allclose(s0.analog[8 * i:8 * (i + 1), j],
                                           phases[8 * i:8 * (i + 1)], atol=1e-12)
    for pre in (s0, s1):
        for m in range(4):
            assert np.isclose(np.linalg.norm(pre.tx_matrix(m)) ** 2, 4.0, atol=1e-9)


def test_sca_tie_break_lowest_indices(rng):
    # identical block errors everywhere: the first ceil(Nc(1-eta)) blocks in
    # (i, j) order get replaced
    geom = UpaGeometry(2, 2)
    cb = dft_codebook(geom, phi=np.pi / 2)
    sw = SwitchMatrix(closed=np.ones((2, 2), dtype=bool), k_t=2)
    comm_analog = np.ones((4, 2), dtype=complex)
    comm = np.repeat(np.eye(4, 2, dtype=complex)[None], 2, axis=0)
    out = sca_hybrid_precoding(CommTarget.factor(comm), cb, 1, 0.5, comm_analog, sw)  # K_s = 2
    changed = [(i, j) for i in range(2) for j in range(2)
               if not np.allclose(out.analog[2 * i:2 * (i + 1), j],
                                  comm_analog[2 * i:2 * (i + 1), j])]
    assert changed == [(0, 0), (0, 1)]


def test_sca_tie_break_ignores_round_off():
    # blocks whose errors tie up to round-off still go in (i, j) order: the
    # later blocks here sit closer to the scan phases by ~1e-15
    geom = UpaGeometry(2, 2)
    cb = dft_codebook(geom, phi=np.pi / 2)
    sw = SwitchMatrix(closed=np.ones((2, 2), dtype=bool), k_t=2)
    scan = cb.columns[:, 0] / np.abs(cb.columns[:, 0])
    comm_analog = np.ones((4, 2), dtype=complex)
    comm_analog[2:, :] += 1e-15 * (scan[2:, None] - 1)
    comm = np.repeat(np.eye(4, 2, dtype=complex)[None], 2, axis=0)
    out = sca_hybrid_precoding(CommTarget.factor(comm), cb, 1, 0.5, comm_analog, sw)
    changed = [(i, j) for i in range(2) for j in range(2)
               if not np.allclose(out.analog[2 * i:2 * (i + 1), j],
                                  comm_analog[2 * i:2 * (i + 1), j])]
    assert changed == [(0, 0), (0, 1)]


def test_sca_faster_than_vec(rng, monkeypatch):
    # SCA runs no alternating iterations: it calls neither VEC step nor the
    # objective, records no trace, and is faster than VEC best-of-5 for best-of-5
    geom = UpaGeometry(16, 8)
    cb = dft_codebook(geom)
    comm = np.stack([random_semi_unitary(128, 4, rng) for _ in range(16)])
    sense = optimal_sensing_precoder(cb, 2, 4)
    sw = default_switch_pattern(4, 8, 32)
    target = CommTarget.factor(comm)

    def run_vec():
        return vec_hybrid_precoding(PrecodingTargets(comm, sense, 0.5), sw,
                                    rng=np.random.default_rng(1))

    def run_sca():
        return sca_hybrid_precoding(target, cb, 2, 0.5, analog, sw)

    def best_of_5(run):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return min(times)

    def spy(name):
        real = getattr(precoding, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    analog = run_vec().analog
    calls = []
    for name in ("vec_digital_update", "weighted_objective"):
        monkeypatch.setattr(precoding, name, spy(name))
    assert run_vec().objective_trace and calls  # the spies see VEC's iterations
    calls.clear()
    assert run_sca().objective_trace == [] and calls == []
    monkeypatch.undo()
    assert best_of_5(run_sca) < best_of_5(run_vec)


# ---------------------------------------------------------------------------
# spectral efficiency and beampattern
# ---------------------------------------------------------------------------

def test_se_zero_power(small_setup):
    geom, frame, chan = small_setup
    f, c, _ = comm_design(chan, 2)
    assert spectral_efficiency(chan, f, c, 0.0, 1.0) == 0.0


def test_se_scalar_shannon():
    from thzisac.channel import CommChannel, CommPath
    h = 0.8 + 0.1j
    chan = CommChannel(paths=[CommPath(np.array([h]), (0, np.pi / 2), (0, np.pi / 2),
                                       is_los=True)],
                       tx_geom=UpaGeometry(1, 1), rx_geom=UpaGeometry(1, 1))
    tx = PrecoderSet(np.ones((1, 1), dtype=complex), np.ones((1, 1, 1), dtype=complex))
    rx = PrecoderSet(np.ones((1, 1), dtype=complex), np.ones((1, 1, 1), dtype=complex))
    rho, sigma2 = 2.0, 0.5
    se = spectral_efficiency(chan, tx, rx, rho, sigma2)
    assert np.isclose(se, np.log2(1 + rho * abs(h) ** 2 / sigma2))


def test_se_digital_matches_svd_waterless_sum(small_setup):
    geom, frame, chan = small_setup
    ns, rho, sigma2 = 4, 0.3, 1.0
    f, c, _ = comm_design(chan, ns)
    s = optimal_fully_digital(chan, ns)[2]
    se = spectral_efficiency(chan, f, c, rho, sigma2)
    expected = np.mean([np.sum(np.log2(1 + rho * s[m] ** 2 / (ns * sigma2)))
                        for m in range(8)])
    assert np.isclose(se, expected, atol=1e-9)


def test_beampattern_codebook_peak(rng):
    geom = UpaGeometry(16, 4)
    cb = dft_codebook(geom)
    ns, q = 4, 5
    sense = optimal_sensing_precoder(cb, q, ns)
    pat = transmit_beampattern(np.eye(64), np.repeat(sense[None], 4, 0),
                               cb.direction_angles, geom)
    assert np.argmax(pat) == q - 1
    assert np.isclose(pat[q - 1], 10 * np.log10(geom.n_elements), atol=1e-9)


def test_beampattern_power_conservation(rng):
    # sin-uniform average gain stays at the 0 dBi level for power-normalized sets
    geom = UpaGeometry(16, 1)
    cb = dft_codebook(geom)
    comm = np.stack([random_semi_unitary(16, 2, rng) for _ in range(4)])
    sw = default_switch_pattern(2, 4, 8)
    grid = np.arcsin(np.linspace(-1 + 1e-6, 1 - 1e-6, 4001))
    totals = []
    for eta in (0.0, 0.5, 1.0):
        pre = vec_hybrid_precoding(
            PrecodingTargets(comm, optimal_sensing_precoder(cb, 4, 2), eta), sw, rng=rng)
        lin = transmit_beampattern(pre.analog, pre.digital, grid, geom, db=False)
        totals.append(np.mean(lin))
    assert max(totals) / min(totals) < 1.01


@pytest.mark.parametrize("n_closed", (4, 8, 16))  # AoSA, partial, FC on 4 chains
@pytest.mark.parametrize("m_count", (1, 64))
@pytest.mark.parametrize("w_count,l_count,elevation", [(8, 4, 1.2), (4, 8, 0.3), (8, 4, np.pi / 2)])
def test_beampattern_matches_dense_steering(n_closed, m_count, w_count, l_count, elevation, rng):
    # non-square arrays off broadside, so a swapped y/z fold of a_z fails
    geom = UpaGeometry(w_count, l_count)
    nt, ns = geom.n_elements, 2
    mask = default_switch_pattern(4, n_closed, nt // 4).expand()
    f_rf = mask * np.exp(2j * np.pi * rng.uniform(size=mask.shape)) / np.sqrt(nt)
    f_bb = rng.standard_normal((m_count, 4, ns)) + 1j * rng.standard_normal((m_count, 4, ns))
    grid = np.deg2rad(np.arange(-90.0, 90.05, 0.5))
    # a real analog, as criterion 8 passes: eye(nt) with fully digital stacks
    f_full = rng.standard_normal((m_count, nt, ns)) + 1j * rng.standard_normal((m_count, nt, ns))
    for analog, digital in ((f_rf, f_bb), (np.eye(nt), f_full)):
        want = transmit_beampattern_dense(analog, digital, grid, geom, elevation, db=False)
        lin = transmit_beampattern(analog, digital, grid, geom, elevation, db=False)
        in_db = transmit_beampattern(analog, digital, grid, geom, elevation)
        _assert_rel(lin, want, 1e-12)
        _assert_rel(10.0 ** (in_db / 10.0), want, 1e-12)


# ---------------------------------------------------------------------------
# RF-domain kernels against their dense definitions
# ---------------------------------------------------------------------------

ORACLE_RTOL = 1e-10
ETAS = (0.0, 0.3, 1.0)
STRUCTURES = ("aosa", "fc")


def _assert_rel(got, want, rtol=ORACLE_RTOL):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def _oracle_case(rng, eta, structure, n_rf=4, k_t=3, ns=3, m_count=5):
    """Random targets and a random analog precoder on an AoSA or FC switch.

    The sensing target is full rank here, so the Procrustes minimizer is unique
    at every eta; ns < n_rf.
    """
    sw = default_switch_pattern(n_rf, n_rf if structure == "aosa" else n_rf * n_rf, k_t)
    comm = np.stack([random_semi_unitary(sw.n_t, ns, rng) for _ in range(m_count)])
    targets = PrecodingTargets(comm, random_semi_unitary(sw.n_t, ns, rng), eta)
    mask = sw.expand()
    f_rf = np.where(mask, np.exp(2j * np.pi * rng.random(mask.shape)), 0)
    return targets, sw, f_rf, comm


def _random_digital(rng, m_count, n_rf, ns):
    return rng.standard_normal((m_count, n_rf, ns)) + 1j * rng.standard_normal((m_count, n_rf, ns))


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("eta", ETAS)
def test_weighted_objective_matches_dense(eta, structure, rng):
    targets, sw, f_rf, comm = _oracle_case(rng, eta, structure)
    f_bb = _random_digital(rng, 5, sw.n_rf, 3)
    want = weighted_objective_dense(comm, targets.sense_opt, eta, f_rf, f_bb)
    assert np.isclose(weighted_objective(targets, f_rf, f_bb), want, rtol=ORACLE_RTOL, atol=0)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("eta", ETAS)
def test_digital_update_matches_procrustes(eta, structure, rng):
    targets, sw, f_rf, comm = _oracle_case(rng, eta, structure)
    want = procrustes_dense(comm, targets.sense_opt, eta, f_rf)
    _assert_rel(vec_digital_update(targets, f_rf), want)


@pytest.mark.parametrize("n_closed", (4, 9, 16))  # AoSA, partial and FC on 4 chains
@pytest.mark.parametrize("eta", (0.0, 0.4, 1.0))
def test_vec_forms_one_rf_projection_per_analog_precoder(eta, n_closed, rng, monkeypatch):
    # an iteration's two half-steps share each analog precoder's projections,
    # so a design forms them once per iteration and once for its random start;
    # the objective trace and the analog precoder are those of unshared steps
    geom = UpaGeometry(8, 8)
    sw = default_switch_pattern(4, n_closed, geom.n_elements // 4)
    targets = _random_targets(rng, geom.n_elements, 4, 6, eta, dft_codebook(geom), q=3)
    real, calls = precoding._rf_projections, []
    monkeypatch.setattr(precoding, "_rf_projections", lambda *a: calls.append(a) or real(*a))
    for max_iter in (50, 2):
        want_analog, want_trace = vec_unshared(targets, sw, np.random.default_rng(5), max_iter)
        calls.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = vec_hybrid_precoding(targets, sw, max_iter, rng=np.random.default_rng(5))
        assert [w.category for w in caught] == [ModelMismatchWarning] * (not got.converged)
        assert len(calls) == len(got.objective_trace) // 2 + 1
        assert got.objective_trace == want_trace
        assert np.array_equal(got.analog, want_analog)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_digital_update_rank_one_sense_attains_nuclear_norm(structure, rng):
    # at eta = 0 the shipped rank-one scan target leaves the minimizer's null
    # part free; the attained Re tr(F_BB^H F_RF^H F_s) is still the nuclear norm
    targets, sw, f_rf, comm = _oracle_case(rng, 0.0, structure)
    sense = np.tile(random_semi_unitary(sw.n_t, 1, rng), (1, 3))
    targets = PrecodingTargets(comm, sense, 0.0)
    corr = f_rf.conj().T @ sense
    best = np.linalg.svd(corr, compute_uv=False).sum()
    for f_bb in vec_digital_update(targets, f_rf):
        np.testing.assert_allclose(f_bb.conj().T @ f_bb, np.eye(3), atol=1e-12)
        assert np.isclose(np.real(np.trace(f_bb.conj().T @ corr)), best, rtol=ORACLE_RTOL)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("eta", ETAS)
def test_analog_update_matches_dense(eta, structure, rng):
    targets, sw, f_rf, comm = _oracle_case(rng, eta, structure)
    f_bb = _random_digital(rng, 5, sw.n_rf, 3)
    want = phase_update_dense(comm, targets.sense_opt, eta, f_bb,
                              sw.expand(), f_rf)
    _assert_rel(vec_analog_update(targets, f_bb, sw, prev=f_rf), want)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("eta", ETAS)
def test_least_squares_steps_match_dense(eta, structure, rng):
    targets, sw, f_rf, comm = _oracle_case(rng, eta, structure)
    sense = targets.sense_opt
    # VEC weights the targets by (eta, 1-eta)
    _assert_rel(finalize_digital(targets, f_rf),
                normalized_lstsq_dense(f_rf, [eta * c + (1 - eta) * sense for c in comm]))
    # SCA by (sqrt(eta), sqrt(1-eta)), against its codebook scan column
    cb = dft_codebook(UpaGeometry(4, 3))
    pre = sca_hybrid_precoding(targets.comm, cb, 2, eta, f_rf, sw)
    scan = optimal_sensing_precoder(cb, 2, 3)
    want = normalized_lstsq_dense(
        pre.analog, [np.sqrt(eta) * c + np.sqrt(1 - eta) * scan for c in comm])
    _assert_rel(pre.digital, want)


def test_least_squares_on_an_ill_conditioned_analog_precoder(rng):
    # nearly parallel columns, as VEC reaches with ns < n_rf: a norm taken
    # through the Gram matrix F_RF^H F_RF cancelled to zero or below here
    targets, sw, f_rf, comm = _oracle_case(rng, 0.5, "fc")
    f_rf[:, 1:] = f_rf[:, :1] * np.exp(1j * np.array([1e-3, 1e-6, 1e-9]) * rng.random((12, 3)))
    assert np.linalg.cond(f_rf) > 1e8
    f_bb = finalize_digital(targets, f_rf)
    want = normalized_lstsq_dense(f_rf, [0.5 * c + 0.5 * targets.sense_opt for c in comm])
    for m in range(5):
        assert np.isclose(np.linalg.norm(f_rf @ f_bb[m]) ** 2, 3.0, rtol=1e-6)
        _assert_rel(f_rf @ f_bb[m], f_rf @ want[m], rtol=1e-6)


BASES = ("channel-p6", "channel-p2", "qr")


def _basis_case(rng, kind, eta, n_rf=4, k_t=3, ns=3, m_count=5):
    """Targets in a channel's rank-P transmit basis Q_t, or dense ones in their own QR.

    "channel-pP" draws a channel with P paths on a 4x3 array and comm targets
    Q_t V[m] with random V[m]; P = 2 < ns leaves each F_c[m] rank-deficient.
    The switch is FC and the sensing target full rank, so the Procrustes
    minimizer is unique at eta < 1.
    """
    sw = default_switch_pattern(n_rf, n_rf * n_rf, k_t)
    if kind == "qr":
        comm = np.stack([random_semi_unitary(sw.n_t, ns, rng) for _ in range(m_count)])
        target = CommTarget.factor(comm)
    else:
        p = int(kind.rpartition("-p")[2])
        geom = UpaGeometry(4, 3)
        chan = sample_comm_channel(geom, geom, FrameConfig(m_count, 4, 8, 1.92e6, 0.3e12),
                                   rng, num_nlos=p - 1)
        basis = np.linalg.qr(chan.factors()[1])[0]
        coeffs = _random_digital(rng, m_count, p, ns)
        comm = basis @ coeffs
        target = CommTarget(basis, coeffs, float(np.linalg.norm(comm) ** 2))
    targets = PrecodingTargets(target, random_semi_unitary(sw.n_t, ns, rng), eta)
    mask = sw.expand()
    f_rf = np.where(mask, np.exp(2j * np.pi * rng.random(mask.shape)), 0)
    return targets, sw, f_rf, comm


@pytest.mark.parametrize("eta", (0.3, 0.8))
@pytest.mark.parametrize("kind", BASES)
def test_factored_kernels_match_dense(kind, eta, rng):
    targets, sw, f_rf, comm = _basis_case(rng, kind, eta)
    sense = targets.sense_opt
    rank = sw.n_t if kind == "qr" else int(kind.rpartition("-p")[2])
    assert targets.comm.basis.shape == (sw.n_t, rank)
    assert targets.comm.coeffs.shape == (5, rank, 3)
    f_bb = _random_digital(rng, 5, sw.n_rf, 3)
    assert np.isclose(weighted_objective(targets, f_rf, f_bb),
                      weighted_objective_dense(comm, sense, eta, f_rf, f_bb),
                      rtol=ORACLE_RTOL, atol=0)
    _assert_rel(vec_digital_update(targets, f_rf), procrustes_dense(comm, sense, eta, f_rf))
    _assert_rel(vec_analog_update(targets, f_bb, sw, prev=f_rf),
                phase_update_dense(comm, sense, eta, f_bb, sw.expand(), f_rf))
    _assert_rel(finalize_digital(targets, f_rf),
                normalized_lstsq_dense(f_rf, [eta * c + (1 - eta) * sense for c in comm]))
    # SCA's least squares is the same factored step, here on a shared CommTarget
    cb = dft_codebook(UpaGeometry(4, 3))
    pre = sca_hybrid_precoding(targets.comm, cb, 2, eta, f_rf, sw)
    scan = optimal_sensing_precoder(cb, 2, 3)
    _assert_rel(pre.digital, normalized_lstsq_dense(
        pre.analog, [np.sqrt(eta) * c + np.sqrt(1 - eta) * scan for c in comm]))


@pytest.mark.parametrize("ns", (2, 3))
def test_comm_design_factors_the_svd_precoders(ns, rng):
    # P = 2 paths: at ns = 2 the precoders are the SVD's own Q_t V and the
    # combiners Q_r U; at ns = 3 the SVD pads both outside span(Q_t) and
    # span(Q_r) with one shared fill column each. The target shares the
    # precoders' arrays either way
    geom = UpaGeometry(4, 3)
    chan = sample_comm_channel(geom, geom, FrameConfig(5, 4, 8, 1.92e6, 0.3e12), rng,
                               num_nlos=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelMismatchWarning)  # asserted below for ns = 3
        f, c, _ = optimal_fully_digital(chan, ns)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f2, c2, target = comm_design(chan, ns)
    assert len(caught) == (ns > 2)
    np.testing.assert_array_equal(f2.tx_matrices(), f)
    np.testing.assert_array_equal(c2.tx_matrices(), c)
    assert target.basis is f2.analog and target.coeffs is f2.digital
    assert target.basis.shape == (12, ns)
    a_r, a_t, _ = chan.factors()
    basis, basis_r = np.linalg.qr(a_t)[0], np.linalg.qr(a_r)[0]
    if ns == 2:
        np.testing.assert_array_equal(f2.analog, basis)
        np.testing.assert_array_equal(c2.analog, basis_r)
    else:
        # the padded column of each F[m] and C[m] lies wholly outside span(Q)
        for q, stack in ((basis, f), (basis_r, c)):
            outside = stack - q @ (q.conj().T @ stack)
            assert np.isclose(np.linalg.norm(outside) ** 2, 5.0, rtol=1e-12)
    _assert_rel(np.einsum("tr,mrs->mts", target.basis, target.coeffs), f)
    assert np.isclose(target.energy, 5 * ns, rtol=1e-12)


@pytest.mark.parametrize("num_nlos", (0, 1))
def test_padded_comm_design_shares_one_fill(num_nlos, rng):
    # P = 1 or 2 paths for ns = 4 streams: the analog stages are [Q, fill],
    # with the unpadded design's Q and one fill for every subcarrier, and the
    # digital factors are [[V[m], 0], [0, I]], with the unpadded design's V
    geom = UpaGeometry(4, 3)
    chan = sample_comm_channel(geom, geom, FrameConfig(5, 4, 8, 1.92e6, 0.3e12), rng,
                               num_nlos=num_nlos)
    p, ns = num_nlos + 1, 4
    with pytest.warns(ModelMismatchWarning, match="rank below stream count"):
        f, c, target = comm_design(chan, ns)
    f_p, c_p, _ = comm_design(chan, p)
    assert target.basis is f.analog and target.coeffs is f.digital
    assert target.basis.shape == (12, ns)
    identity = np.broadcast_to(np.eye(ns - p), (5, ns - p, ns - p))
    for padded, unpadded in ((f, f_p), (c, c_p)):
        np.testing.assert_array_equal(padded.analog[:, :p], unpadded.analog)
        np.testing.assert_array_equal(padded.digital[:, :p, :p], unpadded.digital)
        np.testing.assert_array_equal(padded.digital[:, p:, p:], identity)
        assert not padded.digital[:, p:, :p].any() and not padded.digital[:, :p, p:].any()
        fill = padded.analog[:, p:]
        np.testing.assert_allclose(fill.conj().T @ fill, np.eye(ns - p), atol=1e-12)
        np.testing.assert_allclose(unpadded.analog.conj().T @ fill, 0, atol=1e-12)
        # fill = e_j minus its projections, over a positive diag(R): fill[j, j] = R_jj > 0
        assert np.all(fill.diagonal().real > 0)
        np.testing.assert_allclose(fill.diagonal().imag, 0, atol=1e-12)
    with pytest.warns(ModelMismatchWarning, match="rank below stream count"):
        f_d, c_d, _ = optimal_fully_digital_dense(
            [comm_channel_matrix(chan, m) for m in range(5)], ns)
    for rho in (0.3, 40.0):
        se = spectral_efficiency(chan, f, c, rho, 0.7)
        assert np.isclose(se, spectral_efficiency_dense(chan, f.tx_matrices(), c.tx_matrices(),
                                                        rho, 0.7), rtol=ORACLE_RTOL, atol=0)
        assert np.isclose(se, spectral_efficiency_dense(chan, f_d, c_d, rho, 0.7),
                          rtol=ORACLE_RTOL, atol=0)


def test_combined_receiver_rates_every_design_like_dense(small_setup, rng):
    # one receiver per (channel, combiner, sigma^2) rates digital, hybrid and
    # random precoders; a singular combiner warns once per subcarrier, at build time
    geom, frame, chan = small_setup
    f, c, comm = comm_design(chan, 3)
    sw = default_switch_pattern(4, 16, 8)
    pre = vec_hybrid_precoding(PrecodingTargets(comm, optimal_sensing_precoder(
        dft_codebook(geom), 2, 3), 0.5), sw, rng=rng)
    tx_sets = [f, pre, PrecoderSet(np.eye(32), _random_digital(rng, 8, 32, 3))]
    a_t_h = chan.factors()[1].conj().T
    singular = PrecoderSet(c.analog, c.digital.copy())
    singular.digital[1, :, 2] = 0
    singular.digital[6, :, 0] = 0
    mask = sw.expand()
    hybrid = np.stack([np.where(mask, np.exp(2j * np.pi * rng.random(mask.shape)), 0)[:, :3]
                       for _ in range(8)])
    for comb, n_singular in ((c, 0), (PrecoderSet(np.eye(32), hybrid), 0), (singular, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            receiver = combined_receiver(chan, comb, 1.3)
            built = len(caught)
            rates = [receiver.rate(tx.beam_response(a_t_h), rho)
                     for tx in tx_sets for rho in (0.3, 40.0)]
        assert built == len(caught) == n_singular
        assert all(issubclass(w.category, ModelMismatchWarning)
                   and "singular combined-noise covariance" in str(w.message) for w in caught)
        want = [spectral_efficiency_dense(chan, tx.tx_matrices(), comb.tx_matrices(), rho, 1.3)
                for tx in tx_sets for rho in (0.3, 40.0)]
        np.testing.assert_allclose(rates, want, rtol=ORACLE_RTOL, atol=0)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_spectral_efficiency_matches_dense(structure, small_setup, rng):
    geom, frame, chan = small_setup
    f, c, comm = comm_design(chan, 3)
    for rho in (0.3, 40.0):
        assert np.isclose(spectral_efficiency(chan, f, c, rho, 0.7),
                          spectral_efficiency_dense(chan, f.tx_matrices(), c.tx_matrices(),
                                                    rho, 0.7), rtol=ORACLE_RTOL)
    sw = default_switch_pattern(4, 4 if structure == "aosa" else 16, 8)
    mask = sw.expand()
    pre = vec_hybrid_precoding(PrecodingTargets(comm, optimal_sensing_precoder(
        dft_codebook(geom), 2, 3), 0.5), sw, rng=rng)
    comb = np.stack([np.where(mask, np.exp(2j * np.pi * rng.random(mask.shape)), 0)[:, :3]
                     for _ in range(8)])
    assert np.isclose(spectral_efficiency(chan, pre, PrecoderSet(np.eye(32), comb), 2.0, 1.3),
                      spectral_efficiency_dense(chan, pre.tx_matrices(), comb, 2.0, 1.3),
                      rtol=ORACLE_RTOL)


def test_spectral_efficiency_zero_column_combiner(small_setup):
    # a combiner with a zero column on subcarriers 1 and 4: one ridge warning
    # each, and the rate of the combiner without that column
    geom, frame, chan = small_setup
    f, c, _ = comm_design(chan, 3)
    c = PrecoderSet(c.analog, c.digital.copy())
    c.digital[1, :, 2] = 0
    c.digital[4, :, 0] = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        se = spectral_efficiency(chan, f, c, 0.3, 1.0)
    ridge = [w for w in caught if issubclass(w.category, ModelMismatchWarning)
             and "singular combined-noise covariance" in str(w.message)]
    assert len(ridge) == 2 and len(caught) == 2
    assert np.isclose(se, spectral_efficiency_dense(chan, f.tx_matrices(), c.tx_matrices(),
                                                    0.3, 1.0), rtol=ORACLE_RTOL)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_precoding_transient_memory_bound():
    # the shipped tradeoff size: 32x32 arrays, M = 64, ns = 4, FC (16 closed);
    # one (M, nt, ns) complex array is 4 MiB. The bounds sit between the
    # measured peaks without and with (M, nt, ns) temporaries: comm_design 0.24
    # against 8.2 MiB (dense F and C), optimal_fully_digital 8.2 (its two
    # outputs) against 16.2, VEC 0.6 against 10.1, the SVD combiner's receiver
    # 0.12 and a rate 0.08
    geom = UpaGeometry(32, 32)
    frame = FrameConfig(64, 16, 32, 1.92e6, 0.3e12)
    chan = sample_comm_channel(geom, geom, frame, np.random.default_rng(5))
    chan.factors()  # cached on the channel, not part of either design
    mib = 2.0 ** 20
    assert _traced_peak(comm_design, chan, 4) <= 1 * mib
    comm_opt = optimal_fully_digital(chan, 4)[0]
    assert _traced_peak(optimal_fully_digital, chan, 4) <= 10 * mib
    targets = PrecodingTargets(comm_opt, optimal_sensing_precoder(dft_codebook(geom), 5, 4), 0.5)
    sw = default_switch_pattern(4, 16, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelMismatchWarning)  # max_iter is not under test
        peak = _traced_peak(vec_hybrid_precoding, targets, sw, max_iter=3,
                            rng=np.random.default_rng(1))
        pre = vec_hybrid_precoding(targets, sw, max_iter=3, rng=np.random.default_rng(1))
    assert peak <= 2 * mib
    # the receiver of the SVD combiner Q_r U reads no (M, nr, ns) stack, and
    # rating a hybrid design reads A_t^H F_RF F_BB[m], (M, P, ns), not its
    # 4 MiB (M, nt, ns) tx_matrices() stack
    comb = comm_design(chan, 4)[1]
    assert _traced_peak(combined_receiver, chan, comb, 1.0) <= 0.5 * mib
    receiver = combined_receiver(chan, comb, 1.0)
    a_t_h = chan.factors()[1].conj().T
    assert _traced_peak(lambda: receiver.rate(pre.beam_response(a_t_h), 0.01)) <= 0.5 * mib
    # the beam-scan pattern over 1801 angles folds a_z into F_RF: its largest
    # array is the (grid, M*ns) response, 7.4 MB, for a 12 MB peak; dense
    # (nt, grid) steering columns and their conjugate read 59 MB
    grid = np.deg2rad(np.arange(-90.0, 90.05, 0.1))
    assert _traced_peak(transmit_beampattern, pre.analog, pre.digital, grid, geom) <= 16 * mib


@pytest.mark.parametrize("num_nlos", (0, 1))
def test_padded_comm_design_memory_bound(num_nlos):
    # the shipped tradeoff size with P = 1 or 2 paths for ns = 4: the padded
    # design is one (nt, ns - P) fill and (M, ns, ns) digital factors, so it
    # peaks near the unpadded design's 0.24 MiB, not at the 24.3 MiB of
    # per-subcarrier padded (M, nt, ns) stacks in their own thin QR
    geom = UpaGeometry(32, 32)
    frame = FrameConfig(64, 16, 32, 1.92e6, 0.3e12)
    chan = sample_comm_channel(geom, geom, frame, np.random.default_rng(5), num_nlos=num_nlos)
    chan.factors()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelMismatchWarning)  # asserted in the test above
        assert _traced_peak(comm_design, chan, 4) <= 2.0 ** 20
        assert comm_design(chan, 4)[2].basis.shape == (1024, 4)
