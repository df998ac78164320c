import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzisac.geometry import (AngularWindow, UpaGeometry, codebook_direction,
                              dft_codebook, sensing_window, slot_for_angle,
                              steering_factors, steering_many, steering_upa)
from thzisac.sensing_rx import music_grid

from oracles import steering_scalar_loop, steering_y_closed_form


def test_steering_two_element_endfire():
    # sin(90)sin(90)=1 gives phase pi on the second element
    a = steering_upa(np.pi / 2, np.pi / 2, UpaGeometry(2, 1))
    np.testing.assert_allclose(a, np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_steering_z_line_at_90_elevation():
    # cos(90) = 0: all phases vanish regardless of azimuth
    for theta in (-1.0, 0.3, 1.2):
        a = steering_upa(theta, np.pi / 2, UpaGeometry(1, 4))
        np.testing.assert_allclose(a, np.ones(4) / 2.0, atol=1e-15)


def test_steering_30deg_against_scalar_loop():
    geom = UpaGeometry(4, 1)
    a = steering_upa(np.deg2rad(30), np.pi / 2, geom)
    expected = np.exp(1j * np.pi * np.arange(4) * 0.5) / 2.0
    np.testing.assert_allclose(a, expected, atol=1e-14)
    np.testing.assert_allclose(a, steering_scalar_loop(np.deg2rad(30), np.pi / 2, 4, 1),
                               atol=1e-14)


@given(theta=st.floats(-np.pi / 2, np.pi / 2), phi=st.floats(1e-3, np.pi),
       w=st.integers(1, 16), l=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_steering_unit_norm_and_modulus(theta, phi, w, l):
    a = steering_upa(theta, phi, UpaGeometry(w, l))
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    np.testing.assert_allclose(np.abs(a), 1.0 / np.sqrt(w * l), atol=1e-12)


def test_steering_matches_scalar_loop_general(rng):
    geom = UpaGeometry(5, 3)
    for _ in range(10):
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        phi = rng.uniform(0.1, np.pi)
        np.testing.assert_allclose(steering_upa(theta, phi, geom),
                                   steering_scalar_loop(theta, phi, 5, 3), atol=1e-13)


def test_steering_many_matches_single(rng):
    geom = UpaGeometry(8, 4)
    thetas = rng.uniform(-np.pi / 2, np.pi / 2, size=7)
    cols = steering_many(thetas, np.pi / 2, geom)
    for k, th in enumerate(thetas):
        np.testing.assert_allclose(cols[:, k], steering_upa(th, np.pi / 2, geom),
                                   atol=1e-13)


@pytest.mark.parametrize("w_count,l_count", [(8, 4), (4, 8)])
def test_steering_factors_kron_matches_scalar_loop(w_count, l_count, rng):
    # non-square arrays so a swapped y/z layout fails
    thetas = rng.uniform(-np.pi / 2, np.pi / 2, size=5)
    phi = 1.2
    a_z, a_y = steering_factors(thetas, phi, UpaGeometry(w_count, l_count))
    assert a_z.shape == (l_count,) and a_y.shape == (w_count, 5)
    for k, th in enumerate(thetas):
        np.testing.assert_allclose(np.kron(a_z, a_y[:, k]),
                                   steering_scalar_loop(th, phi, w_count, l_count), atol=1e-13)


def _mc_rmse_grid():
    """The shipped mc-rmse MUSIC grid: the 70 deg target's mirrored slot window, 0.01 deg steps."""
    geom = UpaGeometry(32, 32)
    search = sensing_window(slot_for_angle(np.deg2rad(70.0), geom), geom).mirrored()
    angles = music_grid(search, 0.01, geom).angles
    assert angles.size == 2037
    return angles


@pytest.mark.parametrize("w_count,l_count", [(32, 32), (8, 4), (4, 8)])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.2, 0.3])
def test_steering_factors_bitwise_equal_closed_form(w_count, l_count, phi):
    # the in-place build runs the closed form's operations in the same order
    geom = UpaGeometry(w_count, l_count)
    grid = _mc_rmse_grid()
    for thetas in (grid[:1], grid):
        a_y = steering_factors(thetas, phi, geom)[1]
        assert np.array_equal(a_y, steering_y_closed_form(thetas, phi, w_count))


def test_steering_factors_build_memory_bound():
    # one complex table plus its float phase product: 1.63x a_y.nbytes,
    # where exp(...) / sqrt(W) with two full-size complex temporaries reads 2.0x
    grid = _mc_rmse_grid()
    tracemalloc.start()
    try:
        a_y = steering_factors(grid, np.pi / 2, UpaGeometry(32, 32))[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * a_y.nbytes


def test_codebook_direction_grid_value():
    # sin(omega_1) = -1 + 1/32 for W = 32
    assert np.isclose(np.sin(codebook_direction(1, 32)), -0.96875)


def test_codebook_two_element():
    cb = dft_codebook(UpaGeometry(2, 1))
    np.testing.assert_allclose(cb.columns[:, 0],
                               np.array([1, np.exp(-1j * np.pi / 2)]) / np.sqrt(2),
                               atol=1e-15)
    np.testing.assert_allclose(cb.columns[:, 1],
                               np.array([1, np.exp(1j * np.pi / 2)]) / np.sqrt(2),
                               atol=1e-15)
    gram = cb.columns.conj().T @ cb.columns
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)


def test_codebook_orthonormal_full_size():
    geom = UpaGeometry(32, 32)
    cb = dft_codebook(geom)
    gram = cb.columns.conj().T @ cb.columns
    assert np.linalg.norm(gram - np.eye(32)) < 1e-10


def test_codebook_column_equals_steering():
    geom = UpaGeometry(16, 1)
    cb = dft_codebook(geom)
    for q in (1, 5, 16):
        a = steering_upa(cb.direction_angles[q - 1], np.pi / 2, geom)
        np.testing.assert_allclose(cb.columns[:, q - 1], a, atol=1e-12)


def test_sensing_window_values():
    geom = UpaGeometry(32, 32)
    w1 = sensing_window(1, geom)
    assert np.isclose(np.rad2deg(w1.lo), -90.0)
    assert np.isclose(np.rad2deg(w1.hi), np.rad2deg(np.arcsin(-0.9375)))
    assert np.isclose(np.rad2deg(w1.hi), -69.64, atol=0.01)
    w17 = sensing_window(17, geom)
    assert np.isclose(w17.lo, 0.0)
    assert np.isclose(np.rad2deg(w17.hi), np.rad2deg(np.arcsin(0.0625)))
    assert np.isclose(np.rad2deg(w17.hi), 3.58, atol=0.01)


def test_windows_partition_half_space():
    geom = UpaGeometry(32, 1)
    windows = [sensing_window(q, geom) for q in range(1, 33)]
    assert np.isclose(windows[0].lo, -np.pi / 2)
    assert np.isclose(windows[-1].hi, np.pi / 2)
    for a, b in zip(windows, windows[1:]):
        assert np.isclose(a.hi, b.lo)


@given(w=st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_windows_partition_any_width(w):
    geom = UpaGeometry(w, 1)
    windows = [sensing_window(q, geom) for q in range(1, w + 1)]
    assert np.isclose(windows[0].lo, -np.pi / 2)
    assert np.isclose(windows[-1].hi, np.pi / 2)
    assert all(np.isclose(a.hi, b.lo) for a, b in zip(windows, windows[1:]))
    mids = [np.sin(codebook_direction(q, w)) for q in range(1, w + 1)]
    for q, mid in enumerate(mids, start=1):
        assert np.sin(windows[q - 1].lo) <= mid <= np.sin(windows[q - 1].hi)


@pytest.mark.parametrize("q", [0, 33, -1])
def test_window_slot_out_of_range(q):
    with pytest.raises(ValueError):
        sensing_window(q, UpaGeometry(32, 32))


def test_window_mirror_and_contains():
    w = sensing_window(3, UpaGeometry(32, 32))
    m = w.mirrored()
    assert np.isclose(m.lo, -w.hi) and np.isclose(m.hi, -w.lo)
    assert m.lo <= -(w.lo + w.hi) / 2 <= m.hi


def test_slot_for_angle_roundtrip():
    geom = UpaGeometry(32, 32)
    for q in (1, 7, 17, 32):
        omega = codebook_direction(q, geom.w_count)
        # the scan of slot q illuminates the mirror of its own direction
        assert slot_for_angle(-omega, geom) == q
        assert slot_for_angle(omega, geom, mirror=False) == q


def test_invalid_geometry():
    with pytest.raises(ValueError):
        UpaGeometry(0, 4)
    with pytest.raises(ValueError):
        AngularWindow(0.5, 0.5)
