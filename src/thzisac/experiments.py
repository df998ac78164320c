"""Experiment runners: tradeoff, SE sweep, beam scan, Monte-Carlo RMSE, ISI/ICI demos.

Each runner consumes an ExperimentConfig, writes one CSV (header row plus a
provenance comment carrying the config hash and seed) and a JSON summary with
headline metrics. Identical config and seed give byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import channel as ch
from . import isi_ici, precoding, sensing_rx
from .config import ExperimentConfig, child_rng, config_digest
from .geometry import dft_codebook, sensing_window, slot_for_angle
from .waveform import generate_symbols


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _row_format(row) -> str:
    """%-format line for a row: floats to 12 significant digits, anything else as str."""
    return ",".join("%.12g" if isinstance(v, (float, np.floating)) else "%s" for v in row) + "\n"


def write_csv(path: str, columns: list, rows: list, cfg: ExperimentConfig,
              experiment: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    formats = {}

    def line(row) -> str:
        key = tuple(map(type, row))
        fmt = formats.get(key)
        if fmt is None:
            fmt = formats[key] = _row_format(row)
        return fmt % tuple(row)

    with open(path, "w") as fh:
        fh.write(f"# thzisac {experiment} config_sha={config_digest(cfg)} seed={cfg.seed}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(line, rows))


def _json_ready(value):
    """value with every non-finite float, at any depth, as None: strict JSON has no NaN."""
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return None if isinstance(value, (float, np.floating)) and not np.isfinite(value) else value


def write_summary(path: str, payload: dict, cfg: ExperimentConfig, experiment: str):
    """JSON summary with provenance keys; undefined (non-finite) values are written as null."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    payload = {"experiment": experiment, "config_sha": config_digest(cfg),
               "seed": cfg.seed, **payload}
    with open(path, "w") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True, default=float,
                  allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Shared precoding helpers
# ---------------------------------------------------------------------------

def _slot_nearest(codebook, azimuth_rad: float) -> int:
    return int(np.argmin(np.abs(codebook.direction_angles - azimuth_rad))) + 1


def _comm_draw(cfg: ExperimentConfig, experiment: str, r: int, frame, tx_geom, rx_geom):
    """Draw r, (channel, *comm_design(channel)), from child_rng(seed, experiment, r)."""
    comm = cfg.comm
    chan = ch.sample_comm_channel(tx_geom, rx_geom, frame, child_rng(cfg.seed, experiment, r),
                                  comm.num_nlos, comm.nlos_extra_loss_db,
                                  np.deg2rad(comm.path_spread_deg), comm.los_range_m)
    return (chan, *precoding.comm_design(chan, cfg.arrays.n_streams))


def _design_precoders(cfg: ExperimentConfig, comm, codebook, q: int, eta: float,
                      n_closed: int, rng):
    """VEC hybrid precoders for slot q at weight eta on n_closed closed switches."""
    sense_opt = precoding.optimal_sensing_precoder(codebook, q, cfg.arrays.n_streams)
    targets = precoding.PrecodingTargets(comm, sense_opt, eta)
    return precoding.vec_hybrid_precoding(targets, cfg.arrays.tx_switch(n_closed), rng=rng)


def _draw_means(cfg: ExperimentConfig, experiment: str, frame, tx_geom, rx_geom,
                rows_of) -> list:
    """Rows (*key, *column means) over cfg.trials comm draws, sorted by key.

    rows_of(r, comm, receiver, a_t_h, comm_opt) gives draw r's {key: values};
    receiver is the rate's combiner side, to which each design adds A_t^H F[m],
    and comm_opt the SVD precoders.
    """
    acc = {}
    for r in range(cfg.trials):
        chan, comm_opt, comb_opt, comm = _comm_draw(cfg, experiment, r, frame, tx_geom, rx_geom)
        receiver = precoding.combined_receiver(chan, comb_opt, 1.0)
        a_t_h = chan.factors()[1].conj().T
        for key, values in rows_of(r, comm, receiver, a_t_h, comm_opt).items():
            acc.setdefault(key, []).append(values)
    return [(*key, *(float(np.mean(col)) for col in zip(*vals)))
            for key, vals in sorted(acc.items())]


# ---------------------------------------------------------------------------
# Tradeoff and SE sweep
# ---------------------------------------------------------------------------

def run_tradeoff(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Spectral efficiency against transmit scan-beam gain over the weight grid."""
    frame = cfg.frame.to_frame()
    tx_geom, rx_geom = cfg.arrays.tx_geom(), cfg.arrays.rx_geom()
    codebook = dft_codebook(tx_geom)
    spec = cfg.tradeoff
    q = _slot_nearest(codebook, np.deg2rad(spec.sensing_azimuth_deg))
    rho = 10.0 ** (spec.snr_db / 10.0)

    def rows_of(r, comm, receiver, a_t_h, comm_opt):
        rows = {("digital", 0, 1.0): (receiver.rate(comm_opt.beam_response(a_t_h), rho),
                                      precoding.sensing_gain_dbi(comm_opt, codebook, q, tx_geom))}
        for n_c in spec.structures:
            if "sca" in spec.algorithms:
                # SCA updates the comm-only (eta = 1) VEC analog precoder
                comm_only = _design_precoders(cfg, comm, codebook, q, 1.0, n_c,
                                              child_rng(cfg.seed, "tradeoff", r, n_c)).analog
            for algorithm in spec.algorithms:
                for eta in spec.eta_grid:
                    if algorithm == "sca":
                        pre = precoding.sca_hybrid_precoding(comm, codebook, q, eta, comm_only,
                                                             cfg.arrays.tx_switch(n_c))
                    else:
                        pre = _design_precoders(
                            cfg, comm, codebook, q, eta, n_c,
                            child_rng(cfg.seed, "tradeoff", r, n_c, spec.eta_grid.index(eta)))
                    rows[(algorithm, n_c, eta)] = (
                        receiver.rate(pre.beam_response(a_t_h), rho),
                        precoding.sensing_gain_dbi(pre, codebook, q, tx_geom))
        return rows

    out_rows = _draw_means(cfg, "tradeoff", frame, tx_geom, rx_geom, rows_of)
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


def run_se_sweep(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Spectral efficiency versus SNR for the configured weights and structures."""
    frame = cfg.frame.to_frame()
    tx_geom, rx_geom = cfg.arrays.tx_geom(), cfg.arrays.rx_geom()
    codebook = dft_codebook(tx_geom)
    spec = cfg.se_sweep
    q = _slot_nearest(codebook, np.deg2rad(spec.sensing_azimuth_deg))

    def rows_of(r, comm, receiver, a_t_h, comm_opt):
        designs = {("digital", 0, 1.0): comm_opt.beam_response(a_t_h)}
        for n_c in spec.structures:
            for eta in spec.etas:
                pre = _design_precoders(cfg, comm, codebook, q, eta, n_c,
                                        child_rng(cfg.seed, "se-sweep", r, n_c,
                                                  spec.etas.index(eta)))
                designs[("vec", n_c, eta)] = pre.beam_response(a_t_h)
        return {(*key, snr): (receiver.rate(tx_paths, 10.0 ** (snr / 10.0)),)
                for key, tx_paths in designs.items() for snr in spec.snr_grid_db}

    out_rows = _draw_means(cfg, "se-sweep", frame, tx_geom, rx_geom, rows_of)
    columns = ["algorithm", "n_closed", "eta", "snr_db", "spectral_efficiency_bits"]
    write_csv(os.path.join(out_dir, "se_sweep.csv"), columns, out_rows, cfg, "se-sweep")

    fc = max(spec.structures)
    vec_fc = {(eta, snr): se for alg, n_c, eta, snr, se in out_rows if alg == "vec" and n_c == fc}
    drop = None
    if (1.0, -30) in vec_fc and (0.6, -30) in vec_fc:
        drop = vec_fc[1.0, -30] - vec_fc[0.6, -30]
    summary = {"fc_structure": fc, "se_drop_eta06_at_m30db_bits": drop,
               "rows": len(out_rows)}
    write_summary(os.path.join(out_dir, "se_sweep_summary.json"), summary, cfg, "se-sweep")
    return summary


# ---------------------------------------------------------------------------
# Beam scan
# ---------------------------------------------------------------------------

def run_beam_scan(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Per-slot transmit beampattern: scanning sensing lobe, stable comm lobes."""
    frame = cfg.frame.to_frame()
    tx_geom, rx_geom = cfg.arrays.tx_geom(), cfg.arrays.rx_geom()
    codebook = dft_codebook(tx_geom)
    spec = cfg.beam_scan
    chan, _, _, comm = _comm_draw(cfg, "beam-scan", 0, frame, tx_geom, rx_geom)
    angles_deg = np.arange(-90.0, 90.0 + spec.angle_step_deg / 2, spec.angle_step_deg)
    angles = np.deg2rad(angles_deg)
    los_aod = chan.paths[0].aod[0]

    rows, per_slot, comm_gain_per_slot = [], {}, []
    for q in spec.slots:
        pre = _design_precoders(cfg, comm, codebook, q, spec.eta, spec.n_closed,
                                child_rng(cfg.seed, "beam-scan", q))
        pattern = precoding.transmit_beampattern(pre.analog, pre.digital, angles, tx_geom)
        rows.extend((q, round(a, 6), g) for a, g in zip(angles_deg, pattern))
        window = sensing_window(q, tx_geom)
        peak_idx = int(np.argmax(pattern))
        comm_gain = float(precoding.transmit_beampattern(
            pre.analog, pre.digital, np.array([los_aod]), tx_geom)[0])
        comm_gain_per_slot.append(comm_gain)
        per_slot[q] = {"window_deg": [np.rad2deg(window.lo), np.rad2deg(window.hi)],
                       "peak_angle_deg": float(angles_deg[peak_idx]),
                       "peak_in_window": bool(window.lo - 1e-9 <= angles[peak_idx]
                                              <= window.hi + 1e-9),
                       "sensing_gain_dbi": precoding.sensing_gain_dbi(pre, codebook, q, tx_geom),
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

def _greedy_match(truths, candidates, distance) -> list:
    """Greedy assignment: each truth in turn takes the free candidate nearest to it.

    Nearness is distance(truth, candidate), ties go to the earlier candidate,
    and a truth left with no free candidate gets None.
    """
    free = list(range(len(candidates)))
    matches = []
    for truth in truths:
        best = min(free, key=lambda i: distance(truth, candidates[i]), default=None)
        if best is not None:
            free.remove(best)
        matches.append(None if best is None else candidates[best])
    return matches


def _target_tx_gains(azimuths, precoders, tx_geom, ns):
    """Average transmit power toward each target azimuth, at elevation pi/2, under the beams."""
    gains = []
    for azimuth in azimuths:
        a_t = sensing_rx.steering_upa(azimuth, np.pi / 2, tx_geom)
        g = precoders.beam_response(a_t)
        gains.append(float(np.mean(np.sum(np.abs(g) ** 2, axis=1)) / ns))
    return np.array(gains)


def run_mc_rmse(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Full estimation pipeline RMSE versus sensing SNR."""
    spec = cfg.mc_rmse
    frame = cfg.frame.to_frame(delta_f_khz=spec.delta_f_khz)
    arr = cfg.arrays
    tx_geom, rx_geom = arr.tx_geom(), arr.rx_geom()
    codebook = dft_codebook(tx_geom)
    ns, rx_switch = arr.n_streams, arr.rx_switch()
    _, _, _, comm = _comm_draw(cfg, "mc-rmse", 0, frame, tx_geom, rx_geom)

    # group targets by the slot whose scan illuminates them
    slot_map = {}
    for t in cfg.scene.targets:
        q = slot_for_angle(np.deg2rad(t.azimuth_deg), tx_geom)
        slot_map.setdefault(q, []).append(t)

    # what each slot's trials share: precoders, the targets' transmit gains
    # under them, the mirrored search window and MUSIC's grid over it
    slots = {}
    for q, specs in sorted(slot_map.items()):
        pre = _design_precoders(cfg, comm, codebook, q, spec.eta, spec.n_closed,
                                child_rng(cfg.seed, "mc-rmse", q, 0))
        azimuths = [np.deg2rad(t.azimuth_deg) for t in specs]
        search = sensing_window(q, tx_geom).mirrored()
        slots[q] = (specs, azimuths, pre, _target_tx_gains(azimuths, pre, tx_geom, ns),
                    search, sensing_rx.music_grid(search, spec.music_step_deg, rx_geom))

    def one_trial(i_snr, snr_db, trial):
        rng = child_rng(cfg.seed, "mc-rmse", 1 + i_snr, trial)
        errors = []
        for q, (specs, azimuths, pre, gains, search, grid) in slots.items():
            targets = [ch.SensingTarget(range_m=t.range_m, velocity_mps=t.velocity_mps,
                                        azimuth=azimuth, effective_snr_db=snr_db)
                       for t, azimuth in zip(specs, azimuths)]
            scene = ch.SensingScene(targets=targets, noise_power=cfg.scene.noise_power)
            scene = ch.resolve_coeffs(scene, gains, tx_geom.n_elements, rng)
            symbols = generate_symbols(frame, ns, rng)
            comb = sensing_rx.receive_combiner(search, arr.n_rf_rx, rx_geom, rng,
                                               switch=rx_switch)
            block = sensing_rx.simulate_rx(scene, pre, symbols, comb, frame, q,
                                           tx_geom, rx_geom, rng, check_model=False)
            ests = sensing_rx.estimate_slot(block, comb, pre, symbols, frame, grid,
                                            len(targets), tx_geom, rx_geom)
            nearest = _greedy_match(targets, ests, lambda t, e: abs(e[0] - t.azimuth))
            for tgt, match in zip(targets, nearest):
                if match is None:
                    errors.append((np.inf, np.inf, np.inf))
                    continue
                theta, est = match
                errors.append((np.rad2deg(theta - tgt.azimuth),
                               est.range_hat - tgt.range_m,
                               est.velocity_hat - tgt.velocity_mps))
        return errors

    rows, summary_pts = [], {}
    for i_snr, snr_db in enumerate(spec.snr_grid_db):
        e = np.array([err for trial in range(cfg.trials)
                      for err in one_trial(i_snr, snr_db, trial)])
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

def _median(values) -> float:
    """np.median of a list, bit for bit, without the numpy.ma import np.median makes."""
    v, mid = sorted(values), len(values) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


def _isi_ici_scenario(cfg, experiment, frame, target_specs, label, index, spec):
    """Run one demo scenario: per-trial tackled SIC and unaware peak-picking.

    Returns (estimate rows, trial 0's profile rows, summary of range errors).
    """
    tau_max = ch.delay_of_range(spec.max_range_m)
    nu_max = ch.doppler_of_velocity(spec.max_speed_mps, frame.fc)
    true_ranges = [t.range_m for t in target_specs]
    # the spatially collapsed scene; each trial draws its coefficients' phases
    scene = ch.SensingScene(targets=[
        ch.SensingTarget(range_m=t.range_m, velocity_mps=t.velocity_mps, azimuth=0.0,
                         effective_snr_db=t.snr_db) for t in target_specs], noise_power=1.0)
    errs = {name: {r: [] for r in true_ranges} for name in ("tackled", "unaware")}
    rows, profiles = [], []
    for trial in range(cfg.trials):
        rng = child_rng(cfg.seed, experiment, index, trial)
        pair = isi_ici.ExtendedTxPair(x_prev=generate_symbols(frame, 1, rng)[0],
                                      x_curr=generate_symbols(frame, 1, rng)[0])
        y = isi_ici.isi_ici_rx(isi_ici.resolve_collapsed_coeffs(scene, rng), pair, frame, rng)
        tackled = [est for est, _ in isi_ici.successive_cancellation(
            y, pair, frame, len(true_ranges), tau_max, nu_max)]
        unaware = [est for est, _ in isi_ici.unaware_successive_cancellation(
            y, pair, frame, len(true_ranges), tau_max)]
        for name, ests in (("tackled", tackled), ("unaware", unaware)):
            nearest = _greedy_match(true_ranges, ests, lambda r, e: abs(e.range_hat - r))
            for r, est in zip(true_ranges, nearest):
                err = abs(est.range_hat - r) if est is not None else np.inf
                errs[name][r].append(err)
                rows.append((label, trial, name, r, est.range_hat if est else np.nan,
                             est.velocity_hat if est else np.nan, err))
        if trial == 0:
            # range profiles; the tackled one comes with the first cancellation
            # pass, which scanned y itself
            taus, unaware_prof = isi_ici.unaware_range_profile(y, pair, frame, tau_max)
            prof_u = unaware_prof.max(axis=1)
            t_nodes, prof_t = tackled[0].range_profile
            for estimator, nodes, prof in (("unaware", taus, prof_u / prof_u.max()),
                                           ("tackled", t_nodes, prof_t / prof_t.max())):
                profiles += [(label, estimator, ch.range_of_delay(t), v)
                             for t, v in zip(nodes, prof)]

    return rows, profiles, {
        name: {str(r): {"max_abs_error_m": float(np.max(v)),
                        "median_abs_error_m": _median(v)}
               for r, v in per.items()}
        for name, per in errs.items()}


def _run_demo(cfg: ExperimentConfig, out_dir: str, experiment: str, spec, scenarios,
              summary: dict) -> dict:
    """Run the (label, frame, targets) scenarios and write the demo's CSVs and summary.

    Each scenario's errors go under its label, ahead of the demo's own keys there.
    """
    est_rows, prof_rows = [], []
    for index, (label, frame, targets) in enumerate(scenarios):
        rows, profiles, errors = _isi_ici_scenario(cfg, experiment, frame, targets,
                                                   label, index, spec)
        est_rows += rows
        prof_rows += profiles
        summary[label] = {**errors, **summary.get(label, {})}
    stem = os.path.join(out_dir, experiment.replace("-", "_"))
    write_csv(stem + "_estimates.csv", ["scenario", "trial", "estimator", "true_range_m",
              "est_range_m", "est_velocity_mps", "abs_range_error_m"], est_rows, cfg, experiment)
    write_csv(stem + "_profiles.csv", ["scenario", "estimator", "range_m", "normalized_profile"],
              prof_rows, cfg, experiment)
    write_summary(stem + "_summary.json", summary, cfg, experiment)
    return summary


def run_isi_demo(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Delay-beyond-CP study: control numerology versus short-CP numerology."""
    spec = cfg.isi_demo
    frames = {label: cfg.frame.to_frame(m_subcarriers=spec.m_subcarriers, delta_f_khz=df_khz)
              for label, df_khz in (("control_480khz", spec.delta_f_khz_control),
                                    ("isi_3840khz", spec.delta_f_khz_isi))}
    return _run_demo(cfg, out_dir, "isi-demo", spec,
                     [(label, frame, spec.targets) for label, frame in frames.items()],
                     {label: {"cp_limited_range_m": isi_ici.cp_limited_range(frame)}
                      for label, frame in frames.items()})


def run_ici_demo(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Doppler-versus-spacing study: low-mobility control versus strong ICI."""
    spec = cfg.ici_demo
    frame = cfg.frame.to_frame(m_subcarriers=spec.m_subcarriers,
                               delta_f_khz=spec.delta_f_khz)
    scenarios = [(label, frame, [dataclasses.replace(t, velocity_mps=v) for t in spec.targets])
                 for label, v in (("control_v5", spec.velocity_control_mps),
                                  ("ici_v50", spec.velocity_ici_mps))]
    return _run_demo(cfg, out_dir, "ici-demo", spec, scenarios,
                     {"doppler_v50_hz": ch.doppler_of_velocity(spec.velocity_ici_mps, frame.fc),
                      "delta_f_hz": frame.delta_f})


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

def selftest(verbose: bool = True) -> bool:
    """Fast invariant suite on small fixed geometries, frames and precoders."""
    from .geometry import UpaGeometry
    from .waveform import FrameConfig, ofdm_demodulate, ofdm_modulate

    checks = []
    rng = np.random.default_rng(7)

    geom = UpaGeometry(8, 8)
    cb = dft_codebook(geom)
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
    power = np.linalg.norm(pre.tx_matrices(), axis=(1, 2)) ** 2
    checks.append(("power_normalization", bool(np.max(np.abs(power - ns)) < 1e-9)))
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
