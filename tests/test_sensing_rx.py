import dataclasses

import numpy as np
import pytest

from thzisac import experiments, isi_ici, sensing_rx
from thzisac.channel import SensingScene, SensingTarget
from thzisac.geometry import (AngularWindow, UpaGeometry, dft_codebook,
                              sensing_window, slot_for_angle, steering_factors,
                              steering_many, steering_upa)
from thzisac.precoding import (PrecoderSet, PrecodingTargets,
                               default_switch_pattern, optimal_sensing_precoder,
                               vec_hybrid_precoding)
from thzisac.sensing_rx import (MlProfile, MusicGrid, ObservationBlock, golden_section_max,
                                gss_refine, music_grid, music_spectrum,
                                receive_combiner, reconstruct_reference, sdft_coarse,
                                simulate_rx, estimate_slot)
from thzisac.waveform import FrameConfig, generate_symbols

from oracles import ml_profile_direct, ml_profile_per_probe, sensing_channel
from test_harness import _tiny_config


@pytest.fixture
def frame():
    return FrameConfig(32, 8, 16, 3.84e6, 0.3e12)


@pytest.fixture
def geom():
    return UpaGeometry(16, 4)  # 64 elements


def _identity_precoders(nt, n_rf, ns, m_count):
    analog = np.zeros((nt, n_rf), dtype=complex)
    analog[:n_rf, :n_rf] = np.eye(n_rf)
    digital = np.repeat(np.eye(n_rf, ns)[None], m_count, axis=0).astype(complex)
    return PrecoderSet(analog=analog, digital=digital)


def _scan_precoders(geom, frame, q, ns, n_rf, rng, eta=0.0, n_closed=None):
    cb = dft_codebook(geom)
    comm = np.stack([np.linalg.qr(rng.standard_normal((geom.n_elements, ns))
                                  + 1j * rng.standard_normal((geom.n_elements, ns)))[0]
                     for _ in range(frame.m_subcarriers)])
    sense = optimal_sensing_precoder(cb, q, ns)
    switch = default_switch_pattern(n_rf, n_closed or n_rf, geom.n_elements // n_rf)
    return vec_hybrid_precoding(PrecodingTargets(comm, sense, eta), switch, rng=rng)


# ---------------------------------------------------------------------------
# combiner
# ---------------------------------------------------------------------------

def test_combiner_degenerate_window_is_matched(geom, rng):
    theta0 = 0.4
    window = AngularWindow(theta0, theta0 + 1e-12)
    comb = receive_combiner(window, 1, geom, rng)
    np.testing.assert_allclose(comb.matrix[:, 0], steering_upa(theta0, np.pi / 2, geom),
                               atol=1e-9)


def test_combiner_unit_norm_and_determinism(geom):
    window = AngularWindow(-0.5, 0.2)
    a = receive_combiner(window, 4, geom, np.random.default_rng(3))
    b = receive_combiner(window, 4, geom, np.random.default_rng(3))
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_allclose(np.linalg.norm(a.matrix, axis=0), 1.0, atol=1e-12)
    assert np.all((a.direction_angles >= -0.5) & (a.direction_angles <= 0.2))


def test_combiner_subarray_mask(geom, rng):
    sw = default_switch_pattern(4, 4, geom.n_elements // 4)
    comb = receive_combiner(AngularWindow(0.0, 0.1), 4, geom, rng, switch=sw)
    mask = sw.expand()
    assert np.all(comb.matrix[~mask[:, :4]] == 0)
    np.testing.assert_allclose(np.linalg.norm(comb.matrix, axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# simulate_rx
# ---------------------------------------------------------------------------

def test_simulate_rx_zero_targets_zero_noise(geom, frame, rng):
    pre = _identity_precoders(geom.n_elements, 4, 4, frame.m_subcarriers)
    sym = generate_symbols(frame, 4, rng)
    comb = receive_combiner(AngularWindow(0.0, 0.5), 4, geom, rng)
    block = simulate_rx(SensingScene([], noise_power=0.0), pre, sym, comb, frame, 1,
                        geom, geom, rng, check_model=False)
    assert np.all(block.y == 0)


def test_simulate_rx_rank_one_noiseless(geom, frame, rng):
    pre = _scan_precoders(geom, frame, 2, 4, 4, rng)
    tgt = SensingTarget(range_m=4.0, velocity_mps=3.0, azimuth=-1.0, coeff=1.0 + 0j)
    sym = generate_symbols(frame, 4, rng)
    comb = receive_combiner(AngularWindow(-1.2, -0.8), 4, geom, rng)
    block = simulate_rx(SensingScene([tgt], noise_power=0.0), pre, sym, comb, frame,
                        2, geom, geom, rng, check_model=False)
    s = np.linalg.svd(block.stacked(), compute_uv=False)
    assert s[1] < 1e-10 * s[0]


def test_simulate_rx_snr_scaling(geom, frame, rng):
    pre = _scan_precoders(geom, frame, 2, 4, 4, rng)
    sym = generate_symbols(frame, 4, rng)
    comb = receive_combiner(AngularWindow(-1.2, -0.8), 4, geom, rng)
    powers = []
    for coeff in (1.0, 2.0):
        tgt = SensingTarget(range_m=4.0, velocity_mps=3.0, azimuth=-1.0, coeff=coeff)
        block = simulate_rx(SensingScene([tgt], noise_power=0.0), pre, sym, comb,
                            frame, 2, geom, geom, rng, check_model=False)
        powers.append(np.mean(np.abs(block.y) ** 2))
    assert np.isclose(powers[1] / powers[0], 4.0, rtol=1e-10)


def test_simulate_rx_matches_dense_channel(geom, frame, rng):
    # factored fast path equals the dense H_s[m,n] product
    pre = _scan_precoders(geom, frame, 2, 2, 4, rng)
    tgt = SensingTarget(range_m=4.0, velocity_mps=30.0, azimuth=-1.0,
                        coeff=0.7 - 0.2j)
    scene = SensingScene([tgt], noise_power=0.0)
    sym = generate_symbols(frame, 2, rng)
    comb = receive_combiner(AngularWindow(-1.2, -0.8), 4, geom, rng)
    block = simulate_rx(scene, pre, sym, comb, frame, 2, geom, geom, rng,
                        check_model=False)
    for (m, n) in ((0, 0), (3, 5), (31, 7)):
        h = sensing_channel(scene, m, n, 2, frame, geom, geom, check_model=False)
        want = comb.matrix.conj().T @ h @ pre.tx_matrices()[m] @ sym[:, m, n]
        np.testing.assert_allclose(block.y[:, m, n], want, atol=1e-10)


# Chance that a correct noise path fails one combiner case, split evenly
# (Bonferroni) over that case's probes; fixed before the test was first run.
NOISE_FALSE_ALARM = 1e-6


def _noise_combiner(case, geom, rng):
    window = AngularWindow(0.1, 0.3)
    k = geom.n_elements // 4
    if case == "aosa":
        return receive_combiner(window, 4, geom, rng, switch=default_switch_pattern(4, 4, k))
    comb = receive_combiner(window, 4, geom, rng, switch=default_switch_pattern(4, 16, k))
    if case == "rank-deficient":
        comb.matrix[:, 2] = comb.matrix[:, 0]  # two identical beams: W^H W is singular
    return comb


@pytest.mark.parametrize("case", ["aosa", "fc", "rank-deficient"])
def test_simulate_rx_noise_covariance(geom, frame, case):
    # With no targets the block is W^H e, e ~ CN(0, s2 I), so every column is
    # CN(0, s2 W^H W). For a probe c with v = c^H s2 W^H W c > 0,
    # 2 sum_k |c^H y_k|^2 / v is chi-square with 2n degrees of freedom over n
    # columns; the probes e_i, (e_i + e_j)/sqrt2 and (e_i + 1j e_j)/sqrt2
    # determine the whole covariance. Directions of a null eigenvalue must
    # carry no noise beyond round-off.
    from scipy.stats import chi2
    rng = np.random.default_rng(4242)
    comb = _noise_combiner(case, geom, rng)
    s2 = 0.7
    pre = _identity_precoders(geom.n_elements, 4, 4, frame.m_subcarriers)
    sym = generate_symbols(frame, 4, rng)
    scene = SensingScene([], noise_power=s2)
    y = np.concatenate([simulate_rx(scene, pre, sym, comb, frame, 1, geom, geom, rng,
                                    check_model=False).stacked() for _ in range(40)], axis=1)
    n = y.shape[1]
    cov = s2 * comb.matrix.conj().T @ comb.matrix
    eye = np.eye(4)
    probes = [eye[i] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            probes += [(eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2)]
    alpha = NOISE_FALSE_ALARM / len(probes)
    lo, hi = chi2.ppf(alpha / 2, 2 * n), chi2.isf(alpha / 2, 2 * n)
    for c in probes:
        v = np.real(c.conj() @ cov @ c)
        assert v > 1e-3 * s2  # no probe of this set falls in a null direction
        stat = 2.0 * np.sum(np.abs(c.conj() @ y) ** 2) / v
        assert lo <= stat <= hi, (c, stat / (2 * n))
    evals, evecs = np.linalg.eigh(cov)
    null = evecs[:, evals < 1e-9 * evals.max()]
    assert null.shape[1] == (1 if case == "rank-deficient" else 0)
    assert np.sum(np.abs(null.conj().T @ y) ** 2) / n <= 1e-12 * s2


# ---------------------------------------------------------------------------
# MUSIC
# ---------------------------------------------------------------------------

def _music_grid(angles, geom, phi=np.pi / 2):
    """A MusicGrid on any angle array, not only a window's arange."""
    return MusicGrid(angles, *steering_factors(angles, phi, geom), phi)


@pytest.mark.parametrize("w_count,l_count", [(8, 4), (4, 8)])
@pytest.mark.parametrize("masked", [False, True])
def test_music_spectrum_matches_dense_manifold(w_count, l_count, masked):
    # the pseudo-spectrum against W^H a(theta) formed from full steering vectors;
    # non-square arrays so a swapped y/z layout fails, elevation off pi/2
    geom = UpaGeometry(w_count, l_count)
    rng = np.random.default_rng(w_count * 10 + masked)
    phi = 1.2
    switch = default_switch_pattern(4, 4, geom.n_elements // 4) if masked else None
    comb = receive_combiner(AngularWindow(-0.6, 0.4), 4, geom, rng, switch=switch,
                            elevation=phi)
    block = ObservationBlock(rng.standard_normal((4, 16, 8))
                             + 1j * rng.standard_normal((4, 16, 8)))
    grid = np.linspace(-1.5, 1.5, 301)
    res = music_spectrum(block, comb, 1, _music_grid(grid, geom, phi))
    y = block.stacked()
    evals, evecs = np.linalg.eigh(y @ y.conj().T / y.shape[1])
    u_n = evecs[:, np.argsort(evals)[::-1][1:]]
    t = comb.matrix.conj().T @ steering_many(grid, phi, geom)
    want = np.sum(np.abs(t) ** 2, axis=0) / np.sum(np.abs(u_n.conj().T @ t) ** 2, axis=0)
    np.testing.assert_allclose(res.spectrum, want, rtol=1e-12)


def _noiseless_block(geom, frame, theta, rng, ns=4, n_rf=4, coeff=1.0 + 0j,
                     velocity=0.0, range_m=4.0, noise=0.0):
    q = slot_for_angle(theta, geom)
    pre = _scan_precoders(geom, frame, q, ns, n_rf, rng)
    tgt = SensingTarget(range_m=range_m, velocity_mps=velocity, azimuth=theta,
                        coeff=coeff)
    sym = generate_symbols(frame, ns, rng)
    window = sensing_window(q, geom).mirrored()
    comb = receive_combiner(window, n_rf, geom, rng)
    block = simulate_rx(SensingScene([tgt], noise_power=noise), pre, sym, comb,
                        frame, q, geom, geom, rng, check_model=False)
    return block, comb, pre, sym, window


def test_music_recovers_single_target(geom, frame, rng):
    theta = np.deg2rad(71.37)
    block, comb, _, _, window = _noiseless_block(geom, frame, theta, rng)
    grid = np.arange(window.lo, window.hi, np.deg2rad(0.01))
    res = music_spectrum(block, comb, 1, _music_grid(grid, geom))
    assert abs(np.rad2deg(res.peak_angles[0] - theta)) < 0.01
    assert res.spectrum.max() > 1e6  # denominator collapses at the true angle


def test_music_covariance_properties(geom, frame, rng):
    theta = np.deg2rad(75.0)
    block, comb, _, _, window = _noiseless_block(geom, frame, theta, rng,
                                                 noise=0.1)
    y = block.stacked()
    r = y @ y.conj().T / y.shape[1]
    np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
    evals = np.linalg.eigvalsh(r)
    assert evals.min() > -1e-10 * evals.max()
    assert np.isclose(np.trace(r).real, np.mean(np.sum(np.abs(y) ** 2, axis=0)),
                      atol=1e-10)
    res = music_spectrum(block, comb, 1, _music_grid(np.arange(window.lo, window.hi, 1e-3), geom))
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def test_music_scale_invariance(geom, frame, rng):
    theta = np.deg2rad(72.0)
    block, comb, _, _, window = _noiseless_block(geom, frame, theta, rng, noise=0.05)
    grid = _music_grid(np.arange(window.lo, window.hi, np.deg2rad(0.05)), geom)
    res1 = music_spectrum(block, comb, 1, grid)
    block.y = block.y * (3.0 - 1.5j)
    res2 = music_spectrum(block, comb, 1, grid)
    assert np.isclose(res1.peak_angles[0], res2.peak_angles[0], atol=1e-12)


def test_music_with_prebuilt_grid_is_bit_identical(monkeypatch, geom, frame, rng):
    # music_grid is the window's arange with its Kronecker factors at the
    # recorded elevation; a grid built once gives the same MusicResult as one
    # built anew, estimate_slot's angles are MUSIC's peaks on it, and its
    # templates are built at the grid's elevation
    theta = np.deg2rad(72.0)
    block, comb, pre, sym, window = _noiseless_block(geom, frame, theta, rng, noise=0.05)
    grid = music_grid(window, 0.05, geom)
    step = np.deg2rad(0.05)
    assert np.array_equal(grid.angles, np.arange(window.lo, window.hi + step / 2, step))
    a_z, a_y = steering_factors(grid.angles, np.pi / 2, geom)
    assert np.array_equal(grid.a_z, a_z) and np.array_equal(grid.a_y, a_y)
    assert grid.elevation == np.pi / 2
    shared = music_spectrum(block, comb, 1, grid)
    fresh = music_spectrum(block, comb, 1, music_grid(window, 0.05, geom))
    for name in ("angles", "spectrum", "peak_angles", "eigenvalues"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name)), name
    ests = estimate_slot(block, comb, pre, sym, frame, grid, 1, geom, geom)
    assert [th for th, _ in ests] == list(shared.peak_angles)
    phis, real = [], sensing_rx.reconstruct_reference
    monkeypatch.setattr(sensing_rx, "reconstruct_reference",
                        lambda theta, phi, *args: phis.append(phi) or real(theta, phi, *args))
    estimate_slot(block, comb, pre, sym, frame, music_grid(window, 0.05, geom, 1.2), 1,
                  geom, geom)
    assert phis == [1.2]


def test_each_estimate_builds_one_profile(monkeypatch, geom, frame, rng):
    # one matched-filter profile serves the coarse grid and the refinement
    built = []

    class CountedProfile(MlProfile):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(sensing_rx, "MlProfile", CountedProfile)
    monkeypatch.setattr(isi_ici, "MlProfile", CountedProfile)
    block, comb, pre, sym, window = _noiseless_block(geom, frame, np.deg2rad(72.0), rng,
                                                     noise=0.05)
    ests = estimate_slot(block, comb, pre, sym, frame, music_grid(window, 0.05, geom), 1,
                         geom, geom)
    assert len(ests) == len(built) == 1
    pair = isi_ici.ExtendedTxPair(generate_symbols(frame, 1, rng)[0],
                                  generate_symbols(frame, 1, rng)[0])
    y = rng.standard_normal(32 * 8) + 1j * rng.standard_normal(32 * 8)
    for passes in (1, 2):
        built.clear()
        assert len(isi_ici.unaware_successive_cancellation(y, pair, frame, passes,
                                                           frame.t_cp)) == passes
        assert len(built) == passes


def test_mc_rmse_builds_music_grid_once_per_slot(monkeypatch, tmp_path):
    # two targets in two slots, two SNRs and two trials: eight MUSIC runs
    cfg = _tiny_config(trials=2)
    cfg.mc_rmse.snr_grid_db = [0.0, 10.0]
    cfg.scene.targets = [dataclasses.replace(cfg.scene.targets[0], azimuth_deg=az)
                         for az in (70.0, 40.0)]
    geom = cfg.arrays.tx_geom()
    slots = {slot_for_angle(np.deg2rad(t.azimuth_deg), geom) for t in cfg.scene.targets}
    assert len(slots) == 2
    real, builds, runs = sensing_rx.steering_factors, [], []
    real_music = sensing_rx.music_spectrum

    def spy(thetas, *args):
        builds.append(np.size(thetas))
        return real(thetas, *args)

    def counted_music(*args, **kwargs):
        runs.append(1)
        return real_music(*args, **kwargs)

    monkeypatch.setattr(sensing_rx, "steering_factors", spy)
    monkeypatch.setattr(sensing_rx, "music_spectrum", counted_music)
    experiments.run_mc_rmse(cfg, str(tmp_path))
    assert len(runs) == 8
    assert len(builds) == 2 and min(builds) > cfg.arrays.n_rf_rx


def test_music_requires_noise_subspace(geom, frame, rng):
    theta = np.deg2rad(72.0)
    block, comb, _, _, window = _noiseless_block(geom, frame, theta, rng)
    with pytest.raises(ValueError):
        music_spectrum(block, comb, 4, _music_grid(np.array([0.1, 0.2]), geom))


# ---------------------------------------------------------------------------
# delay-Doppler objective
# ---------------------------------------------------------------------------

def test_ml_profile_max_at_truth_and_phase_invariance(geom, frame, rng):
    theta = np.deg2rad(70.5)
    tau_r, vel = 5.0, 30.0
    block, comb, pre, sym, _ = _noiseless_block(geom, frame, theta, rng,
                                                velocity=vel, range_m=tau_r)
    xhat = reconstruct_reference(theta, np.pi / 2, comb, pre, sym, geom, geom)
    tgt = SensingTarget(range_m=tau_r, velocity_mps=vel, azimuth=theta, coeff=1.0)
    tau0, nu0 = tgt.delay(), tgt.doppler(frame.fc)
    peak = MlProfile(block.y, xhat, frame)(tau0, nu0)
    for dt in (-0.3, 0.2, 0.45):
        for dv in (-0.4, 0.35):
            off = MlProfile(block.y, xhat, frame)(tau0 + dt / (32 * frame.delta_f),
                                                  nu0 + dv / (8 * frame.t_total))
            assert off < peak
    rotated = block.y * np.exp(1j * 1.234)
    assert np.isclose(MlProfile(rotated, xhat, frame)(tau0, nu0), peak, rtol=1e-12)


def test_ml_profile_doppler_periodicity(geom, frame, rng):
    theta = np.deg2rad(70.5)
    block, comb, pre, sym, _ = _noiseless_block(geom, frame, theta, rng,
                                                velocity=12.0, range_m=5.0)
    xhat = reconstruct_reference(theta, np.pi / 2, comb, pre, sym, geom, geom)
    prof = MlProfile(block.y, xhat, frame)
    tau = 3.3e-9
    for nu in (0.0, 1.7e3, -2.2e4):
        assert np.isclose(prof(tau, nu), prof(tau, nu + 1.0 / frame.t_total),
                          rtol=1e-9)


def test_ml_profile_probe_equals_per_probe_formula(frame, rng):
    y = rng.standard_normal((2, 32, 8)) + 1j * rng.standard_normal((2, 32, 8))
    xh = rng.standard_normal((2, 32, 8)) + 1j * rng.standard_normal((2, 32, 8))
    prof = MlProfile(y, xh, frame)
    d_tau, d_nu = 1 / (32 * frame.delta_f), 1 / (8 * frame.t_total)
    for tau, nu in rng.uniform(-3, 40, (50, 2)) * (d_tau, d_nu):
        assert prof(tau, nu) == ml_profile_per_probe(prof.z, tau, nu, frame)


def test_ml_profile_doppler_line_is_bit_identical(frame, rng):
    # the line keeps the probe's association (psi_tau @ z) @ psi_nu, so
    # gss_refine gives the same estimate on the profile as on a plain callable
    y = rng.standard_normal((2, 32, 8)) + 1j * rng.standard_normal((2, 32, 8))
    xh = rng.standard_normal((2, 32, 8)) + 1j * rng.standard_normal((2, 32, 8))
    prof = MlProfile(y, xh, frame)
    d_tau, d_nu = 1 / (32 * frame.delta_f), 1 / (8 * frame.t_total)
    for tau in rng.uniform(-3, 40, 5) * d_tau:
        line = prof.doppler_line(tau)
        for nu in rng.uniform(-3, 40, 10) * d_nu:
            assert line(nu) == prof(tau, nu) == ml_profile_per_probe(prof.z, tau, nu, frame)
    coarse, _ = sdft_coarse(prof)
    assert gss_refine(prof, coarse, frame) == gss_refine(lambda t, v: prof(t, v), coarse, frame)


def test_ml_denominator_constant(geom, frame, rng):
    # |Psi| = 1 entrywise so the template energy never moves
    xhat = (rng.standard_normal((4, 32, 8)) + 1j * rng.standard_normal((4, 32, 8)))
    m_idx, n_idx = np.arange(32), np.arange(8)
    base = np.sum(np.abs(xhat) ** 2)
    for tau, nu in ((1e-9, 2e3), (3e-8, -4e4), (1.7e-7, 9e5)):
        psi = (np.exp(-2j * np.pi * m_idx[:, None] * frame.delta_f * tau)
               * np.exp(2j * np.pi * n_idx[None, :] * frame.t_total * nu))
        assert np.isclose(np.sum(np.abs(psi[None] * xhat) ** 2), base, rtol=1e-12)


def test_sdft_equals_direct_oracle(geom, frame, rng):
    y = rng.standard_normal((2, 32, 8)) + 1j * rng.standard_normal((2, 32, 8))
    xh = rng.standard_normal((2, 32, 8)) + 1j * rng.standard_normal((2, 32, 8))
    (m0, n0), profile = sdft_coarse(MlProfile(y, xh, frame))
    for mm in range(0, 32, 5):
        for jj in range(8):
            nn = jj - 8 if jj >= 4 else jj
            direct = ml_profile_direct(y, xh, mm / (32 * frame.delta_f),
                                       nn / (8 * frame.t_total), frame)
            assert np.isclose(profile[mm, jj], direct, rtol=1e-9)
    assert profile[m0, n0 % 8] == profile.max()


def test_sdft_on_grid_target(geom, frame, rng):
    xh = rng.standard_normal((1, 32, 8)) + 1j * rng.standard_normal((1, 32, 8))
    m_true, n_true = 11, -3
    tau = m_true / (32 * frame.delta_f)
    nu = n_true / (8 * frame.t_total)
    psi = (np.exp(-2j * np.pi * np.arange(32)[:, None] * frame.delta_f * tau)
           * np.exp(2j * np.pi * np.arange(8)[None, :] * frame.t_total * nu))
    y = 0.8 * psi[None] * xh
    (m0, n0), _ = sdft_coarse(MlProfile(y, xh, frame))
    assert (m0, n0) == (m_true, n_true)


def test_sdft_zero_signal(frame):
    y = np.zeros((1, 32, 8), dtype=complex)
    xh = np.ones((1, 32, 8), dtype=complex)
    _, profile = sdft_coarse(MlProfile(y, xh, frame))
    assert np.all(profile == 0)


# ---------------------------------------------------------------------------
# golden-section refinement
# ---------------------------------------------------------------------------

def test_gss_on_grid_stays_near_coarse(geom, frame, rng):
    xh = rng.standard_normal((1, 32, 8)) + 1j * rng.standard_normal((1, 32, 8))
    tau = 9 / (32 * frame.delta_f)
    nu = 2 / (8 * frame.t_total)
    psi = (np.exp(-2j * np.pi * np.arange(32)[:, None] * frame.delta_f * tau)
           * np.exp(2j * np.pi * np.arange(8)[None, :] * frame.t_total * nu))
    y = psi[None] * xh
    prof = MlProfile(y, xh, frame)
    coarse, _ = sdft_coarse(prof)
    est = gss_refine(prof, coarse, frame)
    assert abs(est.tau_hat - tau) < 0.5 / (32 * frame.delta_f)
    assert abs(est.nu_hat - nu) < 0.5 / (8 * frame.t_total)


def test_gss_off_grid_matches_fine_oracle(geom, frame, rng):
    xh = rng.standard_normal((1, 32, 8)) + 1j * rng.standard_normal((1, 32, 8))
    d_tau = 1 / (32 * frame.delta_f)
    tau = (9 + 0.37) * d_tau
    nu = 0.0
    psi = np.exp(-2j * np.pi * np.arange(32)[:, None] * frame.delta_f * tau) \
        * np.ones((1, 8))
    y = psi[None] * xh
    prof = MlProfile(y, xh, frame)
    coarse, _ = sdft_coarse(prof)
    est = gss_refine(prof, coarse, frame)
    # 1000x oversampled exhaustive search inside the refinement region
    taus = np.linspace((coarse[0] - 1) * d_tau, (coarse[0] + 1) * d_tau, 2001)
    vals = [prof(t, est.nu_hat) for t in taus]
    tau_fine = taus[int(np.argmax(vals))]
    assert abs(est.tau_hat - tau) < 1e-3 * d_tau
    assert abs(est.tau_hat - tau_fine) < 1.5e-3 * d_tau
    assert est.peak_value >= prof(coarse[0] * d_tau, 0.0)


def test_golden_section_max_quadratic():
    x, v = golden_section_max(lambda x: -(x - 0.3) ** 2, -1.0, 1.0, iters=60)
    assert abs(x - 0.3) < 1e-9


def _dirichlet_peak(x):
    # the shape of a delay or Doppler line near its peak: |sum_k e^{j pi k (x - 0.23)}|^2
    return float(abs(np.exp(1j * np.pi * (x - 0.23) * np.arange(16)).sum()) ** 2)


@pytest.mark.parametrize("fun, lo, hi", [
    (_dirichlet_peak, 0.23 - 1 / 16, 0.23 + 1 / 16),
    (lambda x: np.exp(-(x - 0.37) ** 2 / 0.08) + 0.1 * x, -1.0, 1.0),
    (lambda x: x, 0.0, 1.0),                     # maximum on the upper bound
    (lambda x: -np.cosh(x + 3.0), -1.0, 2.0),     # and on the lower one
])
def test_golden_section_max_matches_bounded_brent(fun, lo, hi):
    from scipy.optimize import minimize_scalar
    tol = 1e-6 * (hi - lo)
    ref = minimize_scalar(lambda x: -fun(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-3 * tol})
    x, val = golden_section_max(fun, lo, hi, iters=100, tol=tol)
    assert lo <= x <= hi
    assert abs(x - ref.x) <= 2 * tol
    assert val == fun(x)


def test_golden_section_max_flat_function_and_iteration_cap():
    calls = []

    def flat(x):
        calls.append(x)
        return 2.0

    x, val = golden_section_max(flat, -1.0, 3.0, iters=100, tol=1e-6)
    assert val == 2.0 and -1.0 <= x <= 3.0 and len(calls) <= 101
    for iters in (0, 1, 5):
        calls.clear()
        golden_section_max(lambda x: flat(x) - x ** 2, -1.0, 3.0, iters=iters, tol=0.0)
        assert len(calls) <= iters + 1


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_pipeline_noiseless_accuracy(geom, frame, rng):
    theta = np.deg2rad(70.0)
    block, comb, pre, sym, window = _noiseless_block(
        geom, frame, theta, rng, velocity=20.0, range_m=15.0, noise=0.0)
    with pytest.warns(Warning):
        # 15 m exceeds the CP limit of this numerology; the idealized model warns
        from thzisac.channel import check_isi_ici_free
        check_isi_ici_free(SensingScene([SensingTarget(
            range_m=15.0, velocity_mps=20.0, azimuth=theta, coeff=1.0)]), frame)
    results = estimate_slot(block, comb, pre, sym, frame, music_grid(window, 0.01, geom), 1,
                            geom, geom)
    th, est = results[0]
    assert abs(np.rad2deg(th - theta)) < 1e-2
    assert abs(est.range_hat - 15.0) < 1e-4
    assert abs(est.velocity_hat - 20.0) < 1e-3
