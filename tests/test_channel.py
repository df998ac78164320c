import numpy as np
import pytest

from thzisac.channel import (SPEED_OF_LIGHT, CommChannel, CommPath,
                             ModelMismatchWarning, SensingScene, SensingTarget,
                             awgn, delay_of_range, doppler_of_velocity,
                             resolve_coeffs, sample_comm_channel)
from thzisac.geometry import UpaGeometry, steering_upa
from thzisac.isi_ici import resolve_collapsed_coeffs
from thzisac.waveform import FrameConfig

from oracles import comm_channel_apply, comm_channel_matrix, sensing_channel


@pytest.fixture
def frame():
    return FrameConfig(64, 16, 32, 3.84e6, 0.3e12)


def test_delay_of_range():
    assert np.isclose(delay_of_range(15.0), 30.0 / SPEED_OF_LIGHT)
    assert np.isclose(delay_of_range(15.0), 1.00069e-7, rtol=1e-5)
    with pytest.raises(ValueError):
        delay_of_range(-1.0)


def test_doppler_of_velocity():
    assert doppler_of_velocity(0.0, 0.3e12) == 0.0
    nu = doppler_of_velocity(50.0, 0.3e12)
    assert np.isclose(nu, 2 * 0.3e12 * 50 / SPEED_OF_LIGHT)
    assert np.isclose(nu, 100.07e3, rtol=1e-4)  # comparable to 120 kHz spacing


def _single_los_channel(gains, tx_geom, rx_geom, aod=(0.2, np.pi / 2),
                        aoa=(-0.3, np.pi / 2)):
    return CommChannel(paths=[CommPath(gain_per_subcarrier=gains, aoa=aoa,
                                       aod=aod, is_los=True)],
                       tx_geom=tx_geom, rx_geom=rx_geom)


def test_comm_channel_scalar_case():
    chan = _single_los_channel(np.ones(4), UpaGeometry(1, 1), UpaGeometry(1, 1))
    assert np.isclose(comm_channel_matrix(chan, 0)[0, 0], 1.0)  # gamma = 1 when no NLoS


def test_comm_channel_rank(frame, rng):
    chan = sample_comm_channel(UpaGeometry(4, 2), UpaGeometry(4, 2), frame, rng,
                               num_nlos=3)
    for m in (0, 31):
        rank = np.linalg.matrix_rank(comm_channel_matrix(chan, m), tol=1e-10)
        assert rank <= 4


def test_comm_channel_frobenius_full_array():
    geom = UpaGeometry(32, 32)
    chan = _single_los_channel(np.ones(1), geom, geom)
    fro2 = np.linalg.norm(comm_channel_matrix(chan, 0)) ** 2
    assert np.isclose(fro2, 1024 * 1024, rtol=1e-10)


def test_comm_channel_needs_one_los():
    with pytest.raises(ValueError):
        CommChannel(paths=[CommPath(np.ones(4), (0, np.pi / 2), (0, np.pi / 2),
                                    is_los=False)],
                    tx_geom=UpaGeometry(2, 1), rx_geom=UpaGeometry(2, 1))


def test_comm_channel_rank_one_action(frame, rng):
    # H v = gamma*alpha*(a_t^H v) a_r for a single path
    tx, rx = UpaGeometry(8, 2), UpaGeometry(4, 2)
    gains = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    aod, aoa = (0.4, np.pi / 2), (-0.7, np.pi / 2)
    chan = _single_los_channel(gains, tx, rx, aod, aoa)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    a_t = steering_upa(*aod, tx)
    a_r = steering_upa(*aoa, rx)
    for m in (0, 17):
        expected = chan.gamma * gains[m] * (a_t.conj() @ v) * a_r
        np.testing.assert_allclose(comm_channel_matrix(chan, m) @ v, expected, atol=1e-10)
        np.testing.assert_allclose(comm_channel_apply(chan, m, v[:, None])[:, 0], expected,
                                   atol=1e-10)


def test_apply_matches_matrix(frame, rng):
    # the path factors spectral_efficiency reads against the dense matrix
    chan = sample_comm_channel(UpaGeometry(4, 4), UpaGeometry(4, 2), frame, rng)
    f = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    np.testing.assert_allclose(comm_channel_apply(chan, 3, f), comm_channel_matrix(chan, 3) @ f,
                               atol=1e-12)


def test_sensing_channel_basics(frame):
    tx = rx = UpaGeometry(4, 2)
    tgt = SensingTarget(range_m=3.0, velocity_mps=10.0, azimuth=0.5, coeff=1.0 + 0j)
    scene = SensingScene([tgt], noise_power=1.0)
    h00 = sensing_channel(scene, 0, 0, 1, frame, tx, rx, check_model=False)
    a_r = steering_upa(0.5, np.pi / 2, rx)
    a_t = steering_upa(0.5, np.pi / 2, tx)
    np.testing.assert_allclose(h00, np.sqrt(64) * np.outer(a_r, a_t), atol=1e-12)


def test_sensing_channel_phase_progressions(frame):
    tx = rx = UpaGeometry(4, 1)
    tgt = SensingTarget(range_m=7.0, velocity_mps=25.0, azimuth=-0.2, coeff=0.5 + 0.1j)
    scene = SensingScene([tgt])
    tau, nu = tgt.delay(), tgt.doppler(frame.fc)
    h0 = sensing_channel(scene, 3, 2, 1, frame, tx, rx, check_model=False)
    h_m = sensing_channel(scene, 4, 2, 1, frame, tx, rx, check_model=False)
    h_n = sensing_channel(scene, 3, 3, 1, frame, tx, rx, check_model=False)
    np.testing.assert_allclose(h_m / h0, np.exp(-2j * np.pi * frame.delta_f * tau),
                               atol=1e-10)
    np.testing.assert_allclose(h_n / h0, np.exp(2j * np.pi * frame.t_total * nu),
                               atol=1e-10)
    # r=15m at 3.84 MHz: per-subcarrier phase step 2*pi*0.3843
    step = frame.delta_f * delay_of_range(15.0)
    assert np.isclose(step, 0.38427, atol=1e-4)


def test_sensing_channel_warns_beyond_cp(frame):
    tgt = SensingTarget(range_m=50.0, velocity_mps=0.0, azimuth=0.0, coeff=1.0 + 0j)
    with pytest.warns(ModelMismatchWarning):
        sensing_channel(SensingScene([tgt]), 0, 0, 1, frame,
                        UpaGeometry(2, 1), UpaGeometry(2, 1))


def test_sensing_channel_no_targets(frame):
    h = sensing_channel(SensingScene([]), 0, 0, 1, frame, UpaGeometry(2, 1),
                        UpaGeometry(2, 1), check_model=False)
    assert np.all(h == 0)


def test_awgn_properties(rng):
    assert np.all(awgn((3, 4), 0.0, rng) == 0)
    n = awgn(100_000, 2.5, rng)
    assert abs(np.mean(np.abs(n) ** 2) - 2.5) < 0.05
    a = awgn(16, 1.0, np.random.default_rng(9))
    b = awgn(16, 1.0, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_resolve_coeffs_sets_magnitude(rng):
    tgt = SensingTarget(range_m=5.0, velocity_mps=0.0, azimuth=0.1,
                        effective_snr_db=6.0)
    scene = SensingScene([tgt], noise_power=2.0)
    resolved = resolve_coeffs(scene, tx_gains=np.array([0.5]), nt=64, rng=rng)
    snr_lin = 10 ** 0.6
    assert np.isclose(abs(resolved.targets[0].coeff), np.sqrt(snr_lin * 2.0 * 1 / (64 * 0.5)))


def test_resolve_coeffs_leaves_input_scene_unchanged(rng):
    fixed = SensingTarget(range_m=7.0, velocity_mps=1.0, azimuth=0.2, coeff=0.5j)
    free = SensingTarget(range_m=5.0, velocity_mps=0.0, azimuth=0.1, effective_snr_db=6.0)
    scene = SensingScene([fixed, free], noise_power=2.0)
    resolved = resolve_coeffs(scene, tx_gains=np.array([0.5, 0.5]), nt=64, rng=rng)
    assert scene.targets == [fixed, free] and free.coeff is None
    assert resolved is not scene and resolved.noise_power == 2.0
    assert all(a is not b for a, b in zip(resolved.targets, scene.targets))
    assert resolved.targets[0].coeff == 0.5j and resolved.targets[1].coeff is not None



@pytest.mark.parametrize("resolve", [
    lambda scene, rng: resolve_coeffs(scene, np.array([0.5, 2.0, 0.25]), 64, rng),
    resolve_collapsed_coeffs], ids=["resolve_coeffs", "resolve_collapsed_coeffs"])
def test_coefficient_resolvers_draw_one_phase_per_unresolved_target(resolve):
    # in target order, one uniform phase each for the first and third target,
    # none for the second, whose coefficient is given
    targets = [SensingTarget(range_m=r, velocity_mps=0.0, azimuth=0.0, **kw) for r, kw in
               ((3.0, {"effective_snr_db": -10.0}), (4.0, {"coeff": 0.3 - 0.1j}),
                (5.0, {"effective_snr_db": 5.0}))]
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    got = resolve(SensingScene(targets, noise_power=2.0), rng).targets
    phases = [ref.uniform(0.0, 2.0 * np.pi) for _ in range(2)]
    assert got[1].coeff == 0.3 - 0.1j
    np.testing.assert_allclose(np.angle([got[0].coeff, got[2].coeff]) % (2.0 * np.pi), phases,
                               rtol=1e-12)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_target_validation():
    with pytest.raises(ValueError):
        SensingTarget(range_m=-1.0, velocity_mps=0.0, azimuth=0.0, coeff=1.0)
    with pytest.raises(ValueError):
        SensingTarget(range_m=1.0, velocity_mps=0.0, azimuth=0.0)


def test_sample_comm_channel_structure(frame, rng):
    chan = sample_comm_channel(UpaGeometry(8, 4), UpaGeometry(8, 4), frame, rng,
                               num_nlos=4, nlos_extra_loss_db=15.0)
    assert chan.n_paths == 5
    assert sum(p.is_los for p in chan.paths) == 1
    los = next(p for p in chan.paths if p.is_los)
    np.testing.assert_allclose(np.abs(los.gain_per_subcarrier), 1.0, atol=1e-12)
    for p in chan.paths:
        if not p.is_los:
            np.testing.assert_allclose(np.abs(p.gain_per_subcarrier),
                                       10 ** (-15 / 20), atol=1e-12)
    assert np.isclose(chan.gamma, np.sqrt(32 * 32 / 5))
