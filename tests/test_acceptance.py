"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Full default scale where the criterion demands it; every tolerance is stated
inline next to its assert. Run with `-s` to watch the per-criterion lines.
"""

import numpy as np
import pytest

from thzisac import experiments
from thzisac.channel import sample_comm_channel
from thzisac.config import ExperimentConfig, child_rng
from thzisac.geometry import UpaGeometry, dft_codebook
from thzisac.isi_ici import ExtendedTxPair, apply_channel_operator, cp_limited_range
from thzisac.precoding import (PrecodingTargets, default_switch_pattern,
                               optimal_fully_digital, optimal_sensing_precoder,
                               sensing_gain_dbi, spectral_efficiency,
                               transmit_beampattern, vec_hybrid_precoding)
from thzisac.sensing_rx import sdft_coarse
from thzisac.waveform import FrameConfig

from oracles import bruteforce_rx, ml_profile_direct_node

# No criterion is expected to raise a ModelMismatchWarning, so any one fails
# it. 2 and 3 put delays past the CP and Doppler near the subcarrier spacing
# on purpose, but through the exact ISI/ICI operator, which warns only at
# |nu| >= delta_f (0.83 delta_f at most here); 4 draws |nu| < 0.999 delta_f.
# 6 runs the receiver with the ISI-free model check off (check_model=False).
# Every VEC design in 6, 7 and 8 converges within max_iter at this seed and
# every channel keeps full rank; 1, 5 and 9 have no mismatch check.
pytestmark = pytest.mark.filterwarnings("error::thzisac.channel.ModelMismatchWarning")

SEED = 31337


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_cp_limit():
    r480 = cp_limited_range(FrameConfig(1024, 16, 32, 480e3, 0.3e12))
    r3840 = cp_limited_range(FrameConfig(1024, 16, 32, 3840e3, 0.3e12))
    ok = (abs(r480 - 78.07) < 0.005 and abs(r3840 - 9.76) < 0.005
          and abs(r480 - 78.0) < 0.2 and abs(r3840 - 9.8) < 0.2)
    _report(1, ok, f"cp-limited range {r480:.2f} m @480kHz, {r3840:.2f} m @3840kHz "
                   "(expected 78 m / 9.8 m, tol 0.2 m)")


def test_criterion_2_isi_scenario(tmp_path):
    cfg = ExperimentConfig(seed=SEED, trials=10)
    experiments.run_isi_demo(cfg, str(tmp_path))
    rows = [line.split(",") for line in
            (tmp_path / "isi_demo_estimates.csv").read_text().splitlines()[2:]]
    isi = [r for r in rows if r[0] == "isi_3840khz"]
    tackled = [float(r[6]) for r in isi if r[2] == "tackled"]
    unaware_45 = [float(r[6]) for r in isi
                  if r[2] == "unaware" and float(r[3]) == 45.0]
    ok = max(tackled) < 0.05 and min(unaware_45) > 1.0
    _report(2, ok, f"ISI(3.84MHz, 10/45 m): tackled max err {max(tackled)*1e3:.1f} mm "
                   f"(<50 mm), unaware 45 m err min {min(unaware_45):.1f} m (>1 m) "
                   "over 10 seeded trials")


def test_criterion_3_ici_scenario(tmp_path):
    cfg = ExperimentConfig(seed=SEED, trials=10)
    experiments.run_ici_demo(cfg, str(tmp_path))
    rows = [line.split(",") for line in
            (tmp_path / "ici_demo_estimates.csv").read_text().splitlines()[2:]]
    ici = [r for r in rows if r[0] == "ici_v50"]
    tackled = [float(r[6]) for r in ici if r[2] == "tackled"]
    trials = sorted({int(r[1]) for r in ici})
    weak_fail_each_trial = []
    for t in trials:
        weak = [float(r[6]) for r in ici
                if r[2] == "unaware" and int(r[1]) == t and float(r[3]) in (10.0, 20.0)]
        weak_fail_each_trial.append(max(weak) > 0.3)
    ok = max(tackled) < 0.1 and all(weak_fail_each_trial)
    _report(3, ok, f"ICI(120kHz, 10/20/30 m, v=50): tackled max err "
                   f"{max(tackled)*1e3:.0f} mm (<100 mm); unaware misses/biases a "
                   f"weak target in {sum(weak_fail_each_trial)}/10 trials (>0.3 m)")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        m_sc = int(rng.choice([16, 32, 64]))
        n_sym = int(rng.choice([4, 8]))
        df = float(rng.choice([120e3, 480e3, 1.92e6, 3.84e6]))
        frame = FrameConfig(m_sc, n_sym, 4, df, 0.3e12)
        shape = (m_sc, n_sym)
        pair = ExtendedTxPair(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2),
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2))
        tau = rng.uniform(0.0, frame.t_slot)
        nu = rng.uniform(-0.999, 0.999) * df
        got = apply_channel_operator(tau, nu, pair, frame)
        want = bruteforce_rx([(1.0, tau, nu)], pair, frame)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    ok = worst < 1e-8
    _report(4, ok, f"ISI/ICI operator vs continuous-time oracle: worst relative "
                   f"error {worst:.2e} over 100 random instances (<1e-8)")


def test_criterion_5_sdft_equals_bruteforce():
    rng = np.random.default_rng(SEED)
    frame = FrameConfig(64, 16, 32, 3.84e6, 0.3e12)
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal((4, 64, 16)) + 1j * rng.standard_normal((4, 64, 16))
        xh = rng.standard_normal((4, 64, 16)) + 1j * rng.standard_normal((4, 64, 16))
        _, profile = sdft_coarse(y, xh, frame)
        for m0 in range(64):
            for j in range(16):
                n0 = j - 16 if j >= 8 else j
                direct = ml_profile_direct_node(y, xh, m0 / (64 * frame.delta_f),
                                                n0 / (16 * frame.t_total), frame)
                worst = max(worst, abs(profile[m0, j] - direct) / direct)
    ok = worst < 1e-9
    _report(5, ok, f"grid profile vs direct evaluation on every node: worst "
                   f"relative deviation {worst:.2e} over 20 instances (<1e-9)")


def test_criterion_6_estimation_accuracy(tmp_path):
    cfg = ExperimentConfig(seed=SEED, trials=50)
    cfg.mc_rmse.snr_grid_db = [0.0]  # high end of the calibrated sensing-SNR axis
    summary = experiments.run_mc_rmse(cfg, str(tmp_path))
    pt = summary["points"]["0.0"]
    ok = (pt["reliable"] and pt["n_detected"] >= 45
          and pt["angle_rmse_deg"] <= 0.1
          and pt["range_rmse_m"] <= 5e-3
          and pt["velocity_rmse_mps"] <= 0.5)
    _report(6, ok, f"70deg/15m/20mps at 0 dB, {pt['n_detected']}/50 detected: "
                   f"angle {pt['angle_rmse_deg']*1e3:.1f} mdeg (<=100), range "
                   f"{pt['range_rmse_m']*1e3:.2f} mm (<=5), velocity "
                   f"{pt['velocity_rmse_mps']*1e3:.0f} mm/s (<=500)")


def _fc_setup(seed, realizations):
    geom = UpaGeometry(32, 32)
    frame = FrameConfig(64, 16, 32, 1.92e6, 0.3e12)
    cb = dft_codebook(geom)
    q = int(np.argmin(np.abs(cb.direction_angles - np.deg2rad(-65.0)))) + 1
    switch = default_switch_pattern(4, 16, geom.n_elements // 4)
    out = []
    for r in range(realizations):
        rng = child_rng(seed, "tradeoff", 100 + r)
        chan = sample_comm_channel(geom, geom, frame, rng)
        comm_opt, comb_opt, _ = optimal_fully_digital(chan, 4)
        out.append((chan, comm_opt, comb_opt))
    return geom, frame, cb, q, switch, out


def test_criterion_7_precoding_near_optimality():
    geom, frame, cb, q, switch, setups = _fc_setup(SEED, 20)
    rho = 10.0 ** (-20 / 10.0)
    sense = optimal_sensing_precoder(cb, q, 4)
    se_dig, se_vec = [], []
    for r, (chan, comm_opt, comb_opt) in enumerate(setups):
        se_dig.append(spectral_efficiency(chan, comm_opt, comb_opt, rho, 1.0))
        pre = vec_hybrid_precoding(PrecodingTargets(comm_opt, sense, 1.0), switch,
                                   rng=child_rng(SEED, "tradeoff", 200 + r))
        se_vec.append(spectral_efficiency(chan, pre.tx_matrices(), comb_opt, rho, 1.0))
    ratio = np.mean(se_vec) / np.mean(se_dig)
    ok = ratio >= 0.95
    _report(7, ok, f"VEC FC eta=1 at -20 dB: {np.mean(se_vec):.2f} vs digital "
                   f"{np.mean(se_dig):.2f} bits/s/Hz over 20 realizations, ratio "
                   f"{ratio:.3f} (>=0.95)")


def test_criterion_8_tradeoff_endpoints_and_monotonicity():
    geom, frame, cb, q, switch, setups = _fc_setup(SEED, 5)
    rho_t, rho_30 = 10.0 ** (-20 / 10.0), 10.0 ** (-30 / 10.0)
    ns = 4
    sense = optimal_sensing_precoder(cb, q, ns)
    etas = [round(0.1 * k, 1) for k in range(11)]
    gains = np.zeros(len(etas))
    ses = np.zeros(len(etas))
    se30 = {}
    pure_gain = transmit_beampattern(
        np.eye(geom.n_elements), np.repeat(sense[None], 64, axis=0),
        np.array([cb.direction_angles[q - 1]]), geom)[0]
    for r, (chan, comm_opt, comb_opt) in enumerate(setups):
        for i, eta in enumerate(etas):
            pre = vec_hybrid_precoding(PrecodingTargets(comm_opt, sense, eta), switch,
                                       rng=child_rng(SEED, "tradeoff", 300 + r, i))
            gains[i] += sensing_gain_dbi(pre, cb, q, geom) / len(setups)
            ses[i] += spectral_efficiency(chan, pre.tx_matrices(), comb_opt,
                                          rho_t, 1.0) / len(setups)
            if eta in (0.6, 1.0):
                se30[eta] = se30.get(eta, 0.0) + spectral_efficiency(
                    chan, pre.tx_matrices(), comb_opt, rho_30, 1.0) / len(setups)
    endpoint = abs(gains[0] - pure_gain) < 0.5
    ordering = ses[-1] > ses[0]
    # the front shape: SE rises with eta while the scan gain falls; once the
    # lobe dissolves into sidelobes (down ~25 dB) the gain readout jitters at
    # the fraction-of-a-dB level, hence the pinned slack
    monotone = (np.all(np.diff(ses) >= -0.05) and np.all(np.diff(gains) <= 0.25))
    drop = se30[1.0] - se30[0.6]
    drop_ok = 1.5 <= drop <= 3.5
    ok = endpoint and ordering and monotone and drop_ok
    _report(8, ok, f"eta=0 gain {gains[0]:.2f} vs codebook {pure_gain:.2f} dBi "
                   f"(tol 0.5); SE(1)={ses[-1]:.2f} > SE(0)={ses[0]:.2f}; front "
                   f"monotone={monotone}; SE drop at -30 dB = {drop:.2f} bits "
                   "(2.5 +/- 1.0)")


def test_criterion_9_invariant_suite(capsys):
    ok = experiments.selftest(None)
    out = capsys.readouterr().out
    print(out)
    _report(9, ok and "FAIL" not in out, "selftest invariants "
            "(feasibility, power, monotonicity, orthonormality, PSD, round-trip)")
