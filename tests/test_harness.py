import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

from thzisac.cli import main as cli_main
from thzisac.config import (ConfigError, ExperimentConfig, child_rng,
                            config_digest, config_from_dict, load_config)
from thzisac import experiments


def test_defaults_reference_numerology():
    cfg = ExperimentConfig()
    assert cfg.frame.fc_ghz == 300.0
    assert cfg.frame.m_subcarriers == 64 and cfg.isi_demo.m_subcarriers == 1024
    assert cfg.frame.n_symbols == 16 and cfg.frame.q_slots == 32
    arr = cfg.arrays
    assert arr.tx_geom().n_elements == 1024 and arr.rx_geom().n_elements == 1024
    assert arr.w_tx == 32 and arr.l_tx == 32
    assert arr.n_rf_tx == 4 and arr.n_rf_rx == 4 and arr.n_streams == 4
    frame = cfg.frame.to_frame()
    assert frame.m_cp * 4 == frame.m_subcarriers  # quarter-symbol CP


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="frame.delta_f_mhz"):
        config_from_dict({"frame": {"delta_f_mhz": 1.92}})
    with pytest.raises(ConfigError, match="scene.targets\\[0\\].rng_m"):
        config_from_dict({"scene": {"targets": [{"rng_m": 10.0}]}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"frames": {}})


def test_validation_errors():
    with pytest.raises(ConfigError, match="n_streams"):
        config_from_dict({"arrays": {"n_streams": 8}})
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict({"trials": 0})
    with pytest.raises(ConfigError, match="beam_scan: closed-switch count 2"):
        config_from_dict({"beam_scan": {"n_closed": 2}})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="trials must be an integer, got '3'"):
        config_from_dict({"trials": "3"})
    with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
        config_from_dict({"seed": 1.5})
    with pytest.raises(ConfigError, match="trials must be an integer, got True"):
        config_from_dict({"trials": True})
    with pytest.raises(ConfigError, match=r"tradeoff: unknown algorithms \['svd'\]"):
        config_from_dict({"tradeoff": {"algorithms": ["vec", "svd"]}})
    for slot in (0, 33):
        with pytest.raises(ConfigError, match=rf"beam_scan: slots \[{slot}\] outside 1..32"):
            config_from_dict({"beam_scan": {"slots": [3, slot]}})
    with pytest.raises(ConfigError, match="angle_step_deg must be > 0"):
        config_from_dict({"beam_scan": {"angle_step_deg": 0}})
    with pytest.raises(ConfigError, match="music_step_deg must be > 0"):
        config_from_dict({"mc_rmse": {"music_step_deg": 0}})
    with pytest.raises(ConfigError, match=r"cp_fraction 2 outside \[0, 1\]"):
        config_from_dict({"frame": {"cp_fraction": 2}})
    with pytest.raises(ConfigError, match="n_closed_rx: closed-switch count 99"):
        config_from_dict({"arrays": {"n_closed_rx": 99}})
    # one slot reaches 780.7 m at 3.84 MHz and 24.98 km at 120 kHz (M = 1024, N = 16)
    with pytest.raises(ConfigError, match="isi_demo: max_range_m 800 beyond the 780.7 m"):
        config_from_dict({"isi_demo": {"max_range_m": 800}})
    with pytest.raises(ConfigError, match="ici_demo: max_range_m 25000 beyond the 2.498e"):
        config_from_dict({"ici_demo": {"max_range_m": 25000}})
    with pytest.raises(ConfigError, match="isi_demo: range must be >= 0"):
        config_from_dict({"isi_demo": {"max_range_m": -1}})
    config_from_dict({"isi_demo": {"max_range_m": 780}, "ici_demo": {"max_range_m": 24900}})


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({
        "seed": 7, "trials": 3,
        "frame": {"delta_f_khz": 480.0},
        "scene": {"targets": [{"range_m": 30.0, "velocity_mps": 5.0,
                               "azimuth_deg": -20.0, "snr_db": 10.0}]}}))
    cfg = load_config(str(path))
    assert cfg.seed == 7 and cfg.trials == 3
    assert cfg.frame.delta_f_khz == 480.0
    assert cfg.scene.targets[0].range_m == 30.0
    over = load_config(str(path), {"seed": 99, "trials": None})
    assert over.seed == 99 and over.trials == 3


def test_child_rng_stable_across_trial_counts():
    a = child_rng(5, "mc-rmse", 0, 3).standard_normal(4)
    b = child_rng(5, "mc-rmse", 0, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = child_rng(5, "mc-rmse", 0, 4).standard_normal(4)
    assert not np.allclose(a, c)
    d = child_rng(5, "isi-demo", 0, 3).standard_normal(4)
    assert not np.allclose(a, d)


def test_config_digest_changes_with_content():
    a = config_digest(ExperimentConfig())
    b = config_digest(ExperimentConfig(seed=1))
    assert a != b and len(a) == 12


def _tiny_config(**kw):
    cfg = ExperimentConfig(seed=11, trials=2)
    cfg.arrays.w_tx = cfg.arrays.l_tx = 8     # 64 elements
    cfg.arrays.w_rx = cfg.arrays.l_rx = 8
    cfg.frame.m_subcarriers = 16
    cfg.frame.n_symbols = 8
    # beams are 4x wider at W=8 than at the full aperture: keep the comm paths
    # clear of the scan direction or the eta ordering loses its meaning
    cfg.comm.path_spread_deg = 30.0
    cfg.tradeoff.eta_grid = [0.0, 0.5, 1.0]
    cfg.tradeoff.structures = [4]
    cfg.se_sweep.snr_grid_db = [-30, -20]
    cfg.se_sweep.structures = [4]
    cfg.beam_scan.slots = [3, 4]
    cfg.beam_scan.angle_step_deg = 0.5
    cfg.mc_rmse.snr_grid_db = [10.0]
    cfg.mc_rmse.music_step_deg = 0.05
    cfg.isi_demo.m_subcarriers = 128
    cfg.isi_demo.targets = cfg.isi_demo.targets[:1]
    cfg.isi_demo.max_range_m = 30.0
    cfg.isi_demo.targets[0].range_m = 12.0
    cfg.ici_demo.m_subcarriers = 128
    cfg.ici_demo.targets = cfg.ici_demo.targets[:2]
    cfg.ici_demo.max_range_m = 35.0
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_tradeoff_reproducible_csv(tmp_path):
    cfg = _tiny_config()
    experiments.run_tradeoff(cfg, str(tmp_path / "a"))
    experiments.run_tradeoff(cfg, str(tmp_path / "b"))
    csv_a = (tmp_path / "a" / "tradeoff.csv").read_bytes()
    csv_b = (tmp_path / "b" / "tradeoff.csv").read_bytes()
    assert csv_a == csv_b
    head = csv_a.decode().splitlines()
    assert head[0].startswith("# thzisac tradeoff config_sha=")
    assert head[1] == "algorithm,n_closed,eta,spectral_efficiency_bits,sensing_gain_dbi"
    # monotone endpoint ordering for the vec rows
    rows = [line.split(",") for line in head[2:]]
    vec = {float(r[2]): float(r[3]) for r in rows if r[0] == "vec"}
    assert vec[1.0] >= vec[0.0]


def test_se_sweep_and_summary(tmp_path):
    cfg = _tiny_config()
    summary = experiments.run_se_sweep(cfg, str(tmp_path))
    data = json.loads((tmp_path / "se_sweep_summary.json").read_text())
    assert data["experiment"] == "se-sweep"
    lines = (tmp_path / "se_sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    se = {(r[0], float(r[2]), float(r[3])): float(r[4]) for r in rows}
    # SE grows with SNR and digital upper-bounds the hybrid
    assert se[("vec", 1.0, -20.0)] >= se[("vec", 1.0, -30.0)]
    assert se[("digital", 1.0, -20.0)] >= se[("vec", 1.0, -20.0)] - 1e-9


def test_beam_scan_summary(tmp_path):
    # the <1 dB comm-lobe stability claim belongs to the full aperture (see
    # test_acceptance); the shrunk array only checks structure and lobe placement
    cfg = _tiny_config()
    summary = experiments.run_beam_scan(cfg, str(tmp_path))
    for q, info in summary["slots"].items():
        assert info["peak_in_window"]
    assert np.isfinite(summary["comm_lobe_drift_db"])


def test_mc_rmse_output(tmp_path):
    cfg = _tiny_config()
    summary = experiments.run_mc_rmse(cfg, str(tmp_path))
    pt = summary["points"]["10.0"]
    assert pt["n_total"] == cfg.trials
    assert pt["n_detected"] >= 1
    lines = (tmp_path / "mc_rmse.csv").read_text().splitlines()
    assert lines[1].startswith("snr_db,angle_rmse_deg")


def test_isi_demo_small(tmp_path):
    cfg = _tiny_config(trials=1)
    summary = experiments.run_isi_demo(cfg, str(tmp_path))
    assert "control_480khz" in summary and "isi_3840khz" in summary
    prof = (tmp_path / "isi_demo_profiles.csv").read_text().splitlines()
    values = [float(r.split(",")[3]) for r in prof[2:]]
    assert max(values) <= 1.0 + 1e-12  # profiles normalized to peak 1


def test_threaded_trials_reproduce_serial(tmp_path):
    cfg = _tiny_config(trials=3)
    experiments.run_se_sweep(cfg, str(tmp_path / "serial"), threads=1)
    experiments.run_se_sweep(cfg, str(tmp_path / "pool"), threads=2)
    assert (tmp_path / "serial" / "se_sweep.csv").read_bytes() == \
        (tmp_path / "pool" / "se_sweep.csv").read_bytes()


def test_selftest_passes(capsys):
    assert experiments.selftest(None)
    out = capsys.readouterr().out
    assert "PASS codebook_orthonormal" in out
    assert "FAIL" not in out


def test_cli_selftest_exit_zero():
    assert cli_main(["selftest"]) == 0


def test_cli_config_error_exit_two(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("frame:\n  delta_f_mhz: 1.92\n")
    assert cli_main(["se-sweep", "--config", str(bad)]) == 2
    bad.write_text('trials: "3"\n')
    assert cli_main(["selftest", "--config", str(bad)]) == 2
    bad.write_text("frame:\n  cp_fraction: 2\n")
    assert cli_main(["selftest", "--config", str(bad)]) == 2
    assert cli_main(["se-sweep", "--config", str(tmp_path / "missing.yaml")]) == 2


@pytest.mark.parametrize("argv", [["mc-rmse", "--trials", "0"],
                                  ["tradeoff", "--trials", "0"],
                                  ["beam-scan", "--seed", "-1"],
                                  ["selftest", "--seed", "-1"]])
def test_cli_bad_override_exit_two(argv, tmp_path, capsys):
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_runs_experiment(tmp_path):
    cfg_path = tmp_path / "tiny.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "trials": 1,
        "arrays": {"w_tx": 8, "l_tx": 8, "w_rx": 8, "l_rx": 8},
        "frame": {"m_subcarriers": 16, "n_symbols": 8},
        "beam_scan": {"slots": [4], "angle_step_deg": 1.0},
    }))
    rc = cli_main(["beam-scan", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out"), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "out" / "beam_scan.csv").exists()
    assert (tmp_path / "out" / "beam_scan_summary.json").exists()


def test_cli_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "thzisac.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "selftest: all checks passed" in proc.stdout
