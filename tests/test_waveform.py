import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzisac.waveform import FrameConfig, generate_symbols, ofdm_demodulate, ofdm_modulate


@pytest.fixture
def frame():
    return FrameConfig(m_subcarriers=64, n_symbols=16, q_slots=32,
                       delta_f=3.84e6, fc=0.3e12)


def test_timing_identities(frame):
    assert frame.m_cp == 16
    assert frame.t_symbol == 1.0 / 3.84e6
    assert frame.t_cp == frame.t_symbol / 4
    assert frame.t_total == frame.t_symbol + frame.t_cp
    assert frame.t_slot == 16 * frame.t_total


def test_frame_validation():
    with pytest.raises(ValueError):
        FrameConfig(0, 16, 32, 1e6, 1e12)
    with pytest.raises(ValueError):
        FrameConfig(64, 16, 32, -1e6, 1e12)
    with pytest.raises(ValueError):
        FrameConfig(64, 16, 32, 1e6, 1e12, m_cp=65)


def test_qpsk_alphabet(frame, rng):
    ns = 4
    sym = generate_symbols(frame, ns, rng)
    assert sym.shape == (4, 64, 16)
    expected = {(s1 + 1j * s2) / np.sqrt(2 * ns) for s1 in (-1, 1) for s2 in (-1, 1)}
    seen = set(np.round(sym.ravel(), 12))
    assert seen <= {complex(np.round(e, 12)) for e in expected}


def test_symbol_covariance(rng):
    # vector covariance I/ns over many draws
    frame = FrameConfig(50, 20, 1, 1e6, 1e11)
    ns = 4
    sym = generate_symbols(frame, ns, rng).reshape(ns, -1)
    for _ in range(99):
        extra = generate_symbols(frame, ns, rng).reshape(ns, -1)
        sym = np.hstack([sym, extra])
    cov = sym @ sym.conj().T / sym.shape[1]
    np.testing.assert_allclose(cov, np.eye(ns) / ns, atol=0.02 / ns)


def test_symbols_deterministic(frame):
    a = generate_symbols(frame, 2, np.random.default_rng(5))
    b = generate_symbols(frame, 2, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_modulate_round_trip(frame, rng):
    grid = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    out = ofdm_demodulate(ofdm_modulate(grid, frame), frame)
    assert np.max(np.abs(out - grid)) < 1e-12


@given(m_exp=st.integers(3, 8), n_sym=st.integers(1, 12), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_modulate_round_trip_any_size(m_exp, n_sym, seed):
    m_sc = 2 ** m_exp
    frame = FrameConfig(m_sc, n_sym, 1, 1e6, 1e11)
    g = np.random.default_rng(seed)
    grid = g.standard_normal((m_sc, n_sym)) + 1j * g.standard_normal((m_sc, n_sym))
    out = ofdm_demodulate(ofdm_modulate(grid, frame), frame)
    assert np.max(np.abs(out - grid)) < 1e-12


def test_modulate_single_tone(frame):
    grid = np.zeros((64, 16), dtype=complex)
    m0 = 5
    grid[m0, 0] = 1.0
    samples = ofdm_modulate(grid, frame)
    body = samples[frame.m_cp:frame.m_cp + 64]
    expected = np.exp(2j * np.pi * m0 * np.arange(64) / 64) / np.sqrt(64)
    np.testing.assert_allclose(body, expected, atol=1e-14)


def test_parseval_with_cp(frame, rng):
    grid = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    samples = ofdm_modulate(grid, frame)
    freq_energy = np.sum(np.abs(grid) ** 2)
    time_energy = np.sum(np.abs(samples) ** 2)
    # CP replays m_cp of M samples; per symbol the expected surplus is m_cp/M
    blocks = samples.reshape(16, 80)
    body_energy = np.sum(np.abs(blocks[:, frame.m_cp:]) ** 2)
    assert abs(body_energy - freq_energy) < 1e-10 * freq_energy
    assert time_energy > body_energy


def test_cyclic_prefix_absorbs_delay(frame, rng):
    # delay by d <= m_cp samples acts as a per-subcarrier phase ramp
    grid = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    stream = ofdm_modulate(grid, frame)
    for d in (1, 7, frame.m_cp):
        delayed = np.concatenate([np.zeros(d, dtype=complex), stream])[:stream.size]
        out = ofdm_demodulate(delayed, frame)
        ramp = np.exp(-2j * np.pi * np.arange(64) * d / 64)[:, None]
        np.testing.assert_allclose(out[:, 1:], (grid * ramp)[:, 1:], atol=1e-10)
