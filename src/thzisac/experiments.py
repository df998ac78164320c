"""Experiment runners: tradeoff, SE sweep, beam scan, Monte-Carlo RMSE, ISI/ICI demos.

Each runner consumes an ExperimentConfig, writes one CSV (header row plus a
provenance comment carrying the config hash and seed) and a JSON summary with
headline metrics. Identical config and seed give byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import channel as ch
from . import isi_ici, precoding, sensing_rx
from .config import ExperimentConfig, child_rng, config_digest
from .geometry import dft_codebook, sensing_window, slot_for_angle
from .waveform import generate_symbols


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: str, columns: list, rows: list, cfg: ExperimentConfig,
              experiment: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# thzisac {experiment} config_sha={config_digest(cfg)} seed={cfg.seed}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(path: str, payload: dict, cfg: ExperimentConfig, experiment: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    payload = {"experiment": experiment, "config_sha": config_digest(cfg),
               "seed": cfg.seed, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def map_trials(fn, count: int, threads: int = 1) -> list:
    """Run fn(i) for i in range(count); results in index order regardless of pool."""
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


# ---------------------------------------------------------------------------
# Shared precoding helpers
# ---------------------------------------------------------------------------

def _slot_nearest(codebook, azimuth_rad: float) -> int:
    return int(np.argmin(np.abs(codebook.direction_angles - azimuth_rad))) + 1


def _comm_channel(cfg: ExperimentConfig, tx_geom, rx_geom, frame, rng):
    comm = cfg.comm
    return ch.sample_comm_channel(tx_geom, rx_geom, frame, rng, comm.num_nlos,
                                  comm.nlos_extra_loss_db,
                                  np.deg2rad(comm.path_spread_deg), comm.los_range_m)


def _design_precoders(cfg: ExperimentConfig, comm_opt, codebook, q: int, eta: float,
                      n_closed: int, algorithm: str, rng, comm_analog=None):
    arr = cfg.arrays
    switch = arr.tx_switch(n_closed)
    if algorithm == "vec":
        sense_opt = precoding.optimal_sensing_precoder(codebook, q, arr.n_streams)
        targets = precoding.PrecodingTargets(comm_opt, sense_opt, eta)
        return precoding.vec_hybrid_precoding(targets, switch, rng=rng)
    if algorithm == "sca":
        if comm_analog is None:
            raise ValueError("SCA needs the communication-only analog precoder")
        return precoding.sca_hybrid_precoding(comm_opt, codebook, q, eta,
                                              comm_analog, switch)
    raise ValueError(f"unknown algorithm '{algorithm}'")


def _hybrid_se(chan, precoders, comb_opt, rho, sigma2=1.0):
    return precoding.spectral_efficiency(chan, precoders.tx_matrices(), comb_opt,
                                         rho, sigma2)


# ---------------------------------------------------------------------------
# Tradeoff and SE sweep
# ---------------------------------------------------------------------------

def run_tradeoff(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Spectral efficiency against transmit scan-beam gain over the weight grid."""
    frame = cfg.frame.to_frame()
    tx_geom, rx_geom = cfg.arrays.tx_geom(), cfg.arrays.rx_geom()
    codebook = dft_codebook(tx_geom)
    spec = cfg.tradeoff
    q = _slot_nearest(codebook, np.deg2rad(spec.sensing_azimuth_deg))
    rho = 10.0 ** (spec.snr_db / 10.0)
    ns = cfg.arrays.n_streams

    acc = {}

    def one_realization(r):
        rng = child_rng(cfg.seed, "tradeoff", r)
        chan = _comm_channel(cfg, tx_geom, rx_geom, frame, rng)
        comm_opt, comb_opt, _ = precoding.optimal_fully_digital(chan, ns)
        rows = {}
        rows[("digital", 0, 1.0)] = (
            precoding.spectral_efficiency(chan, comm_opt, comb_opt, rho, 1.0),
            float(precoding.transmit_beampattern(
                np.eye(tx_geom.n_elements), comm_opt,
                np.array([codebook.direction_angles[q - 1]]), tx_geom)[0]))
        for n_c in spec.structures:
            comm_only = None
            for algorithm in spec.algorithms:
                for eta in spec.eta_grid:
                    if algorithm == "sca" and comm_only is None:
                        comm_only = _design_precoders(
                            cfg, comm_opt, codebook, q, 1.0, n_c, "vec",
                            child_rng(cfg.seed, "tradeoff", r, n_c)).analog
                    pre = _design_precoders(
                        cfg, comm_opt, codebook, q, eta, n_c, algorithm,
                        child_rng(cfg.seed, "tradeoff", r, n_c, spec.eta_grid.index(eta)),
                        comm_analog=comm_only)
                    rows[(algorithm, n_c, eta)] = (
                        _hybrid_se(chan, pre, comb_opt, rho),
                        precoding.sensing_gain_dbi(pre, codebook, q, tx_geom))
        return rows

    for rows in map_trials(one_realization, cfg.trials, threads):
        for key, (se, gain) in rows.items():
            acc.setdefault(key, []).append((se, gain))

    out_rows = []
    for (algorithm, n_c, eta), vals in sorted(acc.items()):
        ses, gains = zip(*vals)
        out_rows.append((algorithm, n_c, eta, float(np.mean(ses)), float(np.mean(gains))))
    columns = ["algorithm", "n_closed", "eta", "spectral_efficiency_bits", "sensing_gain_dbi"]
    write_csv(os.path.join(out_dir, "tradeoff.csv"), columns, out_rows, cfg, "tradeoff")

    vec_fc = {eta: (se, g) for alg, n_c, eta, se, g in out_rows
              if alg == "vec" and n_c == max(spec.structures)}
    summary = {
        "slot": q,
        "sensing_direction_deg": float(np.rad2deg(codebook.direction_angles[q - 1])),
        "digital_se_bits": next(se for alg, _, _, se, _ in out_rows if alg == "digital"),
        "vec_fc_eta0_gain_dbi": vec_fc.get(0.0, (None, None))[1],
        "vec_fc_eta1_se_bits": vec_fc.get(1.0, (None, None))[0],
        "rows": len(out_rows),
    }
    write_summary(os.path.join(out_dir, "tradeoff_summary.json"), summary, cfg, "tradeoff")
    return summary


def run_se_sweep(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Spectral efficiency versus SNR for the configured weights and structures."""
    frame = cfg.frame.to_frame()
    tx_geom, rx_geom = cfg.arrays.tx_geom(), cfg.arrays.rx_geom()
    codebook = dft_codebook(tx_geom)
    spec = cfg.se_sweep
    q = _slot_nearest(codebook, np.deg2rad(spec.sensing_azimuth_deg))
    ns = cfg.arrays.n_streams

    acc = {}

    def one_realization(r):
        rng = child_rng(cfg.seed, "se-sweep", r)
        chan = _comm_channel(cfg, tx_geom, rx_geom, frame, rng)
        comm_opt, comb_opt, _ = precoding.optimal_fully_digital(chan, ns)
        rows = {}
        for i_snr, snr in enumerate(spec.snr_grid_db):
            rho = 10.0 ** (snr / 10.0)
            rows[("digital", 0, 1.0, snr)] = precoding.spectral_efficiency(
                chan, comm_opt, comb_opt, rho, 1.0)
        for n_c in spec.structures:
            for eta in spec.etas:
                pre = _design_precoders(cfg, comm_opt, codebook, q, eta, n_c, "vec",
                                        child_rng(cfg.seed, "se-sweep", r, n_c,
                                                  spec.etas.index(eta)))
                for snr in spec.snr_grid_db:
                    rho = 10.0 ** (snr / 10.0)
                    rows[("vec", n_c, eta, snr)] = _hybrid_se(chan, pre, comb_opt, rho)
        return rows

    for rows in map_trials(one_realization, cfg.trials, threads):
        for key, se in rows.items():
            acc.setdefault(key, []).append(se)

    out_rows = [(alg, n_c, eta, snr, float(np.mean(v)))
                for (alg, n_c, eta, snr), v in sorted(acc.items())]
    columns = ["algorithm", "n_closed", "eta", "snr_db", "spectral_efficiency_bits"]
    write_csv(os.path.join(out_dir, "se_sweep.csv"), columns, out_rows, cfg, "se-sweep")

    fc = max(spec.structures)
    def _lookup(eta, snr):
        return next((se for alg, n_c, e, s, se in out_rows
                     if alg == "vec" and n_c == fc and e == eta and s == snr), None)
    drop = None
    if 1.0 in spec.etas and 0.6 in spec.etas and -30 in spec.snr_grid_db:
        drop = _lookup(1.0, -30) - _lookup(0.6, -30)
    summary = {"fc_structure": fc, "se_drop_eta06_at_m30db_bits": drop,
               "rows": len(out_rows)}
    write_summary(os.path.join(out_dir, "se_sweep_summary.json"), summary, cfg, "se-sweep")
    return summary


# ---------------------------------------------------------------------------
# Beam scan
# ---------------------------------------------------------------------------

def run_beam_scan(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Per-slot transmit beampattern: scanning sensing lobe, stable comm lobes."""
    frame = cfg.frame.to_frame()
    tx_geom, rx_geom = cfg.arrays.tx_geom(), cfg.arrays.rx_geom()
    codebook = dft_codebook(tx_geom)
    spec = cfg.beam_scan
    ns = cfg.arrays.n_streams
    rng = child_rng(cfg.seed, "beam-scan", 0)
    chan = _comm_channel(cfg, tx_geom, rx_geom, frame, rng)
    comm_opt, _, _ = precoding.optimal_fully_digital(chan, ns)
    angles_deg = np.arange(-90.0, 90.0 + spec.angle_step_deg / 2, spec.angle_step_deg)
    angles = np.deg2rad(angles_deg)
    los_aod = chan.paths[0].aod[0]

    rows = []
    per_slot = {}
    comm_gain_per_slot = []
    for q in spec.slots:
        pre = _design_precoders(cfg, comm_opt, codebook, q, spec.eta, spec.n_closed,
                                "vec", child_rng(cfg.seed, "beam-scan", q))
        pattern = precoding.transmit_beampattern(pre.analog, pre.digital, angles, tx_geom)
        rows.extend((q, round(a, 6), g) for a, g in zip(angles_deg, pattern))
        window = sensing_window(q, tx_geom)
        peak_idx = int(np.argmax(pattern))
        sense_gain = precoding.sensing_gain_dbi(pre, codebook, q, tx_geom)
        in_window = window.lo - 1e-9 <= angles[peak_idx] <= window.hi + 1e-9
        comm_gain = float(precoding.transmit_beampattern(
            pre.analog, pre.digital, np.array([los_aod]), tx_geom)[0])
        comm_gain_per_slot.append(comm_gain)
        per_slot[q] = {"window_deg": [np.rad2deg(window.lo), np.rad2deg(window.hi)],
                       "peak_angle_deg": float(angles_deg[peak_idx]),
                       "peak_in_window": bool(in_window),
                       "sensing_gain_dbi": sense_gain,
                       "comm_lobe_gain_dbi": comm_gain}
    columns = ["slot", "angle_deg", "gain_dbi"]
    write_csv(os.path.join(out_dir, "beam_scan.csv"), columns, rows, cfg, "beam-scan")
    summary = {"eta": spec.eta, "n_closed": spec.n_closed, "slots": per_slot,
               "comm_lobe_drift_db": float(max(comm_gain_per_slot) - min(comm_gain_per_slot)),
               "los_aod_deg": float(np.rad2deg(los_aod))}
    write_summary(os.path.join(out_dir, "beam_scan_summary.json"), summary, cfg, "beam-scan")
    return summary


# ---------------------------------------------------------------------------
# Monte-Carlo RMSE
# ---------------------------------------------------------------------------

def _target_tx_gains(targets, precoders, tx_geom, ns):
    """Average transmit power toward each target under the designed beams."""
    gains = []
    for tgt in targets:
        a_t = sensing_rx.steering_upa(tgt.azimuth, tgt.elevation, tx_geom)
        g = precoders.beam_response(a_t)
        gains.append(float(np.mean(np.sum(np.abs(g) ** 2, axis=1)) / ns))
    return np.array(gains)


def run_mc_rmse(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Full estimation pipeline RMSE versus sensing SNR."""
    spec = cfg.mc_rmse
    frame = cfg.frame.to_frame(delta_f_khz=spec.delta_f_khz)
    arr = cfg.arrays
    tx_geom, rx_geom = arr.tx_geom(), arr.rx_geom()
    codebook = dft_codebook(tx_geom)
    ns = arr.n_streams
    rng0 = child_rng(cfg.seed, "mc-rmse", 0)
    chan = _comm_channel(cfg, tx_geom, rx_geom, frame, rng0)
    comm_opt, _, _ = precoding.optimal_fully_digital(chan, ns)

    # group targets by the slot whose scan illuminates them
    slot_map = {}
    for t in cfg.scene.targets:
        q = slot_for_angle(np.deg2rad(t.azimuth_deg), tx_geom)
        slot_map.setdefault(q, []).append(t)

    precoders = {q: _design_precoders(cfg, comm_opt, codebook, q, spec.eta,
                                      spec.n_closed, "vec",
                                      child_rng(cfg.seed, "mc-rmse", q, 0))
                 for q in slot_map}
    rx_switch = arr.rx_switch()

    def one_trial(args):
        i_snr, snr_db, trial = args
        rng = child_rng(cfg.seed, "mc-rmse", 1 + i_snr, trial)
        errors = []
        for q, specs in sorted(slot_map.items()):
            pre = precoders[q]
            targets = [ch.SensingTarget(range_m=t.range_m, velocity_mps=t.velocity_mps,
                                        azimuth=np.deg2rad(t.azimuth_deg),
                                        effective_snr_db=snr_db) for t in specs]
            scene = ch.SensingScene(targets=targets, noise_power=cfg.scene.noise_power)
            gains = _target_tx_gains(targets, pre, tx_geom, ns)
            ch.resolve_coeffs(scene, gains, tx_geom.n_elements, rng)
            symbols = generate_symbols(frame, ns, rng)
            search = sensing_window(q, tx_geom).mirrored()
            comb = sensing_rx.receive_combiner(search, arr.n_rf_rx, rx_geom, rng,
                                               switch=rx_switch)
            block = sensing_rx.simulate_rx(scene, pre, symbols, comb, frame, q,
                                           tx_geom, rx_geom, rng, check_model=False)
            ests = sensing_rx.estimate_slot(block, comb, pre, symbols, frame, search,
                                            len(targets), tx_geom, rx_geom,
                                            grid_step_deg=spec.music_step_deg)
            used = set()
            for tgt in targets:
                best, b_i = None, None
                for i, (theta, est) in enumerate(ests):
                    if i in used:
                        continue
                    d = abs(theta - tgt.azimuth)
                    if best is None or d < best:
                        best, b_i = d, i
                if b_i is None:
                    errors.append((np.inf, np.inf, np.inf))
                    continue
                theta, est = ests[b_i]
                used.add(b_i)
                errors.append((np.rad2deg(theta - tgt.azimuth),
                               est.range_hat - tgt.range_m,
                               est.velocity_hat - tgt.velocity_mps))
        return errors

    rows = []
    summary_pts = {}
    for i_snr, snr_db in enumerate(spec.snr_grid_db):
        tasks = [(i_snr, snr_db, t) for t in range(cfg.trials)]
        all_errs = []
        for errs in map_trials(lambda k: one_trial(tasks[k]), len(tasks), threads):
            all_errs.extend(errs)
        e = np.array(all_errs)
        det = ((np.abs(e[:, 0]) <= spec.angle_gate_deg)
               & (np.abs(e[:, 1]) <= spec.range_gate_m)
               & (np.abs(e[:, 2]) <= spec.velocity_gate_mps))
        n_det = int(det.sum())
        if n_det:
            kept = e[det]
            rmse = np.sqrt(np.mean(kept ** 2, axis=0))
            hw = [float(1.96 * np.std(kept[:, k] ** 2) / (2 * rmse[k] * np.sqrt(n_det)))
                  if rmse[k] > 0 else 0.0 for k in range(3)]
        else:
            rmse, hw = np.full(3, np.nan), [np.nan] * 3
        reliable = n_det >= len(e) / 2
        rows.append((snr_db, rmse[0], rmse[1], rmse[2], hw[0], hw[1], hw[2],
                     n_det, len(e), int(reliable)))
        summary_pts[str(snr_db)] = {"angle_rmse_deg": float(rmse[0]),
                                    "range_rmse_m": float(rmse[1]),
                                    "velocity_rmse_mps": float(rmse[2]),
                                    "n_detected": n_det, "n_total": len(e),
                                    "reliable": bool(reliable)}
    columns = ["snr_db", "angle_rmse_deg", "range_rmse_m", "velocity_rmse_mps",
               "angle_hw", "range_hw", "velocity_hw", "n_detected", "n_total", "reliable"]
    write_csv(os.path.join(out_dir, "mc_rmse.csv"), columns, rows, cfg, "mc-rmse")
    summary = {"eta": spec.eta, "points": summary_pts}
    write_summary(os.path.join(out_dir, "mc_rmse_summary.json"), summary, cfg, "mc-rmse")
    return summary


# ---------------------------------------------------------------------------
# ISI / ICI demos
# ---------------------------------------------------------------------------

def _collapsed_scene(target_specs, noise_power, rng):
    targets = [ch.SensingTarget(range_m=t.range_m, velocity_mps=t.velocity_mps,
                                azimuth=0.0, effective_snr_db=t.snr_db)
               for t in target_specs]
    scene = ch.SensingScene(targets=targets, noise_power=noise_power)
    return isi_ici.resolve_collapsed_coeffs(scene, rng)


def _match_estimates(true_ranges, estimates):
    """Greedy nearest-range assignment of estimates to ground truth."""
    pairs = []
    free = list(range(len(estimates)))
    for r in true_ranges:
        if not free:
            pairs.append((r, None))
            continue
        best = min(free, key=lambda i: abs(estimates[i].range_hat - r))
        free.remove(best)
        pairs.append((r, estimates[best]))
    return pairs


def _isi_ici_scenario(cfg, exp_name, frame, target_specs, out_rows, prof_rows,
                      scenario, spec, threads=1):
    """Run one demo scenario: per-trial tackled SIC and unaware peak-picking."""
    tau_max = ch.delay_of_range(spec.max_range_m)
    nu_max = ch.doppler_of_velocity(spec.max_speed_mps, frame.fc)
    p_count = len(target_specs)

    def one_trial(trial):
        rng = child_rng(cfg.seed, exp_name, scenario["index"], trial)
        x_prev = generate_symbols(frame, 1, rng)[0]
        x_curr = generate_symbols(frame, 1, rng)[0]
        pair = isi_ici.ExtendedTxPair(x_prev=x_prev, x_curr=x_curr)
        scene = _collapsed_scene(target_specs, 1.0, rng)
        y = isi_ici.isi_ici_rx(scene, pair, frame, rng)
        tackled = [est for est, _ in isi_ici.successive_cancellation(
            y, pair, frame, p_count, tau_max, nu_max)]
        unaware = [est for est, _ in isi_ici.unaware_successive_cancellation(
            y, pair, frame, p_count, tau_max)]
        return pair, y, tackled, unaware

    results = map_trials(one_trial, cfg.trials, threads)
    true_ranges = [t.range_m for t in target_specs]
    errs = {"tackled": {r: [] for r in true_ranges},
            "unaware": {r: [] for r in true_ranges}}
    for trial, (pair, y, tackled, unaware) in enumerate(results):
        for name, ests in (("tackled", tackled), ("unaware", unaware)):
            for r, est in _match_estimates(true_ranges, ests):
                err = abs(est.range_hat - r) if est is not None else np.inf
                errs[name][r].append(err)
                out_rows.append((scenario["label"], trial, name, r,
                                 est.range_hat if est else np.nan,
                                 est.velocity_hat if est else np.nan, err))

    # range profiles from the first trial
    pair, y, _, _ = results[0]
    taus, unaware_prof = isi_ici.unaware_range_profile(y, pair, frame, tau_max)
    prof_u = unaware_prof.max(axis=1)
    prof_u /= prof_u.max()
    t_nodes, prof_t = isi_ici.tackled_range_profile(y, pair, frame, tau_max, nu_max)
    prof_t = prof_t / prof_t.max()
    for t, v in zip(taus, prof_u):
        prof_rows.append((scenario["label"], "unaware", ch.range_of_delay(t), v))
    for t, v in zip(t_nodes, prof_t):
        prof_rows.append((scenario["label"], "tackled", ch.range_of_delay(t), v))

    return {name: {str(r): {"max_abs_error_m": float(np.max(v)),
                            "median_abs_error_m": float(np.median(v))}
                   for r, v in per.items()}
            for name, per in errs.items()}


def run_isi_demo(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Delay-beyond-CP study: control numerology versus short-CP numerology."""
    spec = cfg.isi_demo
    out_rows, prof_rows, summary = [], [], {}
    for index, (label, df_khz) in enumerate(
            [("control_480khz", spec.delta_f_khz_control),
             ("isi_3840khz", spec.delta_f_khz_isi)]):
        frame = cfg.frame.to_frame(m_subcarriers=spec.m_subcarriers, delta_f_khz=df_khz)
        summary[label] = _isi_ici_scenario(
            cfg, "isi-demo", frame, spec.targets, out_rows, prof_rows,
            {"label": label, "index": index}, spec, threads)
        summary[label]["cp_limited_range_m"] = isi_ici.cp_limited_range(frame)
    write_csv(os.path.join(out_dir, "isi_demo_estimates.csv"),
              ["scenario", "trial", "estimator", "true_range_m", "est_range_m",
               "est_velocity_mps", "abs_range_error_m"],
              out_rows, cfg, "isi-demo")
    write_csv(os.path.join(out_dir, "isi_demo_profiles.csv"),
              ["scenario", "estimator", "range_m", "normalized_profile"],
              prof_rows, cfg, "isi-demo")
    write_summary(os.path.join(out_dir, "isi_demo_summary.json"), summary, cfg, "isi-demo")
    return summary


def run_ici_demo(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Doppler-versus-spacing study: low-mobility control versus strong ICI."""
    spec = cfg.ici_demo
    frame = cfg.frame.to_frame(m_subcarriers=spec.m_subcarriers,
                               delta_f_khz=spec.delta_f_khz)
    out_rows, prof_rows, summary = [], [], {}
    for index, (label, v) in enumerate([("control_v5", spec.velocity_control_mps),
                                        ("ici_v50", spec.velocity_ici_mps)]):
        targets = [dataclasses.replace(t, velocity_mps=v) for t in spec.targets]
        summary[label] = _isi_ici_scenario(
            cfg, "ici-demo", frame, targets, out_rows, prof_rows,
            {"label": label, "index": index}, spec, threads)
    summary["doppler_v50_hz"] = ch.doppler_of_velocity(spec.velocity_ici_mps, frame.fc)
    summary["delta_f_hz"] = frame.delta_f
    write_csv(os.path.join(out_dir, "ici_demo_estimates.csv"),
              ["scenario", "trial", "estimator", "true_range_m", "est_range_m",
               "est_velocity_mps", "abs_range_error_m"],
              out_rows, cfg, "ici-demo")
    write_csv(os.path.join(out_dir, "ici_demo_profiles.csv"),
              ["scenario", "estimator", "range_m", "normalized_profile"],
              prof_rows, cfg, "ici-demo")
    write_summary(os.path.join(out_dir, "ici_demo_summary.json"), summary, cfg, "ici-demo")
    return summary


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

def selftest(cfg: ExperimentConfig = None, verbose: bool = True) -> bool:
    """Fast invariant suite over a shrunk copy of the default configuration."""
    from .geometry import UpaGeometry, dft_codebook as _cb
    from .waveform import FrameConfig, ofdm_demodulate, ofdm_modulate

    checks = []
    rng = np.random.default_rng(7)

    geom = UpaGeometry(8, 8)
    cb = _cb(geom)
    gram = cb.columns.conj().T @ cb.columns
    checks.append(("codebook_orthonormal",
                   np.linalg.norm(gram - np.eye(geom.w_count)) < 1e-10))
    norms = np.linalg.norm(cb.columns, axis=0)
    checks.append(("steering_unit_norm", np.max(np.abs(norms - 1.0)) < 1e-12))

    frame = FrameConfig(m_subcarriers=32, n_symbols=8, q_slots=8, delta_f=1.92e6,
                        fc=0.3e12)
    grid = (rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8)))
    rt = ofdm_demodulate(ofdm_modulate(grid, frame), frame)
    checks.append(("dft_round_trip", np.max(np.abs(rt - grid)) < 1e-12))

    ns, n_rf = 4, 4
    switch = precoding.default_switch_pattern(n_rf, 10, geom.n_elements // n_rf)
    comm_opt = np.linalg.qr(rng.standard_normal((geom.n_elements, ns))
                            + 1j * rng.standard_normal((geom.n_elements, ns)))[0]
    comm_opt = np.repeat(comm_opt[None], 4, axis=0)
    sense_opt = precoding.optimal_sensing_precoder(cb, 3, ns)
    targets = precoding.PrecodingTargets(comm_opt, sense_opt, 0.5)
    pre = precoding.vec_hybrid_precoding(targets, switch, rng=rng)
    mask = switch.expand()
    feas = (np.all(pre.analog[~mask] == 0)
            and np.max(np.abs(np.abs(pre.analog[mask]) - 1.0)) < 1e-12)
    checks.append(("analog_feasibility", bool(feas)))
    power = [abs(np.linalg.norm(pre.tx_matrix(m)) ** 2 - ns) for m in range(4)]
    checks.append(("power_normalization", max(power) < 1e-9))
    trace = np.array(pre.objective_trace)
    checks.append(("vec_objective_monotone", bool(np.all(np.diff(trace) <= 1e-10))))

    y = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    r = y @ y.conj().T / 64
    evals = np.linalg.eigvalsh(r)
    checks.append(("covariance_psd", bool(evals.min() > -1e-10 * evals.max())))

    ok = all(flag for _, flag in checks)
    if verbose:
        for name, flag in checks:
            print(f"{'PASS' if flag else 'FAIL'} {name}")
        print(f"selftest: {'all checks passed' if ok else 'FAILURES present'}")
    return ok
