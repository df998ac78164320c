import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from thzisac.cli import RUNNERS, main as cli_main
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
    with pytest.raises(ConfigError, match=r"tradeoff.algorithms\[1\] must be one of "
                                          r"\('vec', 'sca'\), got 'svd'"):
        config_from_dict({"tradeoff": {"algorithms": ["vec", "svd"]}})
    with pytest.raises(ConfigError, match=r"beam_scan.slots\[1\] must be >= 1, got 0"):
        config_from_dict({"beam_scan": {"slots": [3, 0]}})
    with pytest.raises(ConfigError, match=r"beam_scan: slots \[33\] beyond arrays.w_tx = 32"):
        config_from_dict({"beam_scan": {"slots": [3, 33]}})
    with pytest.raises(ConfigError, match="angle_step_deg must be >= 0.01, got 0"):
        config_from_dict({"beam_scan": {"angle_step_deg": 0}})
    with pytest.raises(ConfigError, match="music_step_deg must be >= 0.001, got 0"):
        config_from_dict({"mc_rmse": {"music_step_deg": 0}})
    with pytest.raises(ConfigError, match="frame.cp_fraction must be <= 1, got 2"):
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
    # the floors themselves, and a Doppler bound just below the spacing, are accepted
    config_from_dict({"beam_scan": {"angle_step_deg": 0.01}, "mc_rmse": {"music_step_deg": 0.001},
                      "ici_demo": {"max_speed_mps": 59.9}})
    # inputs the runners would otherwise trip over partway through a run
    for data, message in (
            ({"scene": {"noise_power": -1}}, "scene.noise_power must be > 0, got -1"),
            ({"scene": {"targets": []}}, "scene.targets must not be empty"),
            ({"isi_demo": {"targets": []}}, "isi_demo.targets must not be empty"),
            ({"ici_demo": {"targets": []}}, "ici_demo.targets must not be empty"),
            ({"mc_rmse": {"delta_f_khz": 0}}, "mc_rmse: delta_f and fc must be positive"),
            ({"arrays": {"n_rf_tx": 0}}, "arrays.n_rf_tx must be >= 1, got 0"),
            ({"beam_scan": {"slots": []}}, "beam_scan.slots must not be empty"),
            ({"tradeoff": {"structures": []}}, "tradeoff.structures must not be empty"),
            ({"se_sweep": {"structures": []}}, "se_sweep.structures must not be empty"),
            ({"tradeoff": {"eta_grid": []}}, "tradeoff.eta_grid must not be empty"),
            ({"se_sweep": {"snr_grid_db": []}}, "se_sweep.snr_grid_db must not be empty"),
            ({"mc_rmse": {"snr_grid_db": []}}, "mc_rmse.snr_grid_db must not be empty"),
            ({"scene": {"targets": [{}, {"azimuth_deg": 170}]}},
             r"scene.targets\[1\].azimuth_deg must be <= 90, got 170"),
            ({"tradeoff": {"sensing_azimuth_deg": -95}},
             "tradeoff.sensing_azimuth_deg must be >= -90, got -95"),
            ({"se_sweep": {"sensing_azimuth_deg": 90.5}},
             "se_sweep.sensing_azimuth_deg must be <= 90, got 90.5"),
            ({"comm": {"path_spread_deg": -1}}, "comm.path_spread_deg must be >= 0, got -1"),
            ({"ici_demo": {"max_speed_mps": -1}}, "ici_demo.max_speed_mps must be >= 0, got -1"),
            ({"isi_demo": {"targets": [{"range_m": 0}]}},
             r"isi_demo.targets\[0\].range_m must be > 0, got 0"),
            ({"scene": {"targets": [{}, {"range_m": -1}]}},
             r"scene.targets\[1\].range_m must be > 0, got -1"),
            ({"isi_demo": {"delta_f_khz_control": 0}},
             "isi_demo: delta_f and fc must be positive"),
            ({"frame": {"cp_fraction": -0.5}}, "frame.cp_fraction must be >= 0, got -0.5"),
            ({"scene": {"targets": [{"azimuth_deg": -90.5}]}},
             r"scene.targets\[0\].azimuth_deg must be >= -90, got -90.5"),
            ({"isi_demo": {"targets": [{"azimuth_deg": 95}]}},
             r"isi_demo.targets\[0\].azimuth_deg must be <= 90, got 95"),
            ({"tradeoff": {"sensing_azimuth_deg": 95}},
             "tradeoff.sensing_azimuth_deg must be <= 90, got 95"),
            ({"se_sweep": {"sensing_azimuth_deg": -90.5}},
             "se_sweep.sensing_azimuth_deg must be >= -90, got -90.5"),
            ({"arrays": {"n_rf_tx": 3, "n_streams": 3}},
             "arrays: transmit elements not divisible by n_rf_tx"),
            ({"arrays": {"n_rf_rx": 3, "n_closed_rx": 4}},
             "arrays: receive elements not divisible by n_rf_rx"),
            # steps whose grids would not fit in memory (1e-9 deg: 1.8e11 angles)
            ({"beam_scan": {"angle_step_deg": 1e-9}},
             "beam_scan.angle_step_deg must be >= 0.01, got 1e-09"),
            ({"mc_rmse": {"music_step_deg": 1e-9}},
             "mc_rmse.music_step_deg must be >= 0.001, got 1e-09"),
            # the demos' Doppler bound must stay below every subcarrier spacing
            ({"ici_demo": {"delta_f_khz": 0.5}},
             "ici_demo: max_speed_mps 55.0 gives Doppler 110.1 kHz, not below the 0.5 kHz"),
            ({"ici_demo": {"max_speed_mps": 60}},
             "ici_demo: max_speed_mps 60 gives Doppler 120.1 kHz, not below the 120.0 kHz"),
            ({"isi_demo": {"delta_f_khz_control": 0.5}},
             "isi_demo: max_speed_mps 30.0 gives Doppler 60.04 kHz, not below the 0.5 kHz"),
            ({"isi_demo": {"delta_f_khz_isi": 50, "max_range_m": 10}},
             "isi_demo: max_speed_mps 30.0 gives Doppler 60.04 kHz, not below the 50 kHz"),
            ({"frame": {"fc_ghz": 400}},
             "ici_demo: max_speed_mps 55.0 gives Doppler 146.8 kHz, not below the 120.0 kHz")):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)
    # every numeric field and list entry is checked against its declared type
    for data, message in (
            ({"frame": {"cp_fraction": "x"}}, "frame.cp_fraction must be a number, got 'x'"),
            ({"beam_scan": {"slots": ["a"]}}, r"beam_scan.slots\[0\] must be an integer"),
            ({"mc_rmse": {"eta": "x"}}, "mc_rmse.eta must be a number, got 'x'"),
            ({"tradeoff": {"eta_grid": [0.5, "a"]}}, r"tradeoff.eta_grid\[1\] must be a number"),
            ({"tradeoff": {"snr_db": "x"}}, "tradeoff.snr_db must be a number, got 'x'"),
            ({"frame": {"m_subcarriers": 64.5}}, "frame.m_subcarriers must be an integer, got 64.5"),
            ({"beam_scan": {"eta": True}}, "beam_scan.eta must be a number, got True"),
            ({"tradeoff": {"structures": [4, True]}}, r"tradeoff.structures\[1\] must be an int"),
            ({"tradeoff": {"eta_grid": 0.5}}, "tradeoff.eta_grid must be a list, got 0.5"),
            ({"scene": {"targets": [{"range_m": "far"}]}},
             r"scene.targets\[0\].range_m must be a number, got 'far'")):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)
    # an integer is a valid value for a float field
    assert config_from_dict({"se_sweep": {"snr_grid_db": [-32.5, -30]},
                             "frame": {"cp_fraction": 0}}).frame.cp_fraction == 0


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


def test_write_csv_matches_per_value_formatting(tmp_path):
    # the writer's %-format per row type gives what formatting each value on
    # its own gave: 12 significant digits for floats, str for everything else
    def per_value(v):
        return f"{v:.12g}" if isinstance(v, (float, np.floating)) else str(v)

    rows = [("vec", 3, 0.1, float("nan"), -float("inf")),
            ("vec", 3, 1 / 3, 2.5e-300, float("inf")),
            (np.int64(7), np.float64(-0.0), np.float32(0.1), True, np.bool_(False)),
            ("50%", None, 1e22, np.float64(123456789.123456789), np.int32(-4)),
            ("a,b", 0, 1.0, np.float64("nan"), 12),
            (),
            [0.30000000000000004, "x"]]
    path = tmp_path / "out.csv"
    experiments.write_csv(str(path), ["a", "b"], rows, _tiny_config(), "test")
    lines = path.read_text().splitlines(keepends=True)[2:]
    assert lines == [",".join(per_value(v) for v in row) + "\n" for row in rows]


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


def test_summary_without_detections_is_strict_json(tmp_path):
    # a 1.5 kHz spacing leaves the target undetected, so its RMSEs are undefined:
    # NaN in the CSV, null in the summary, and never a bare NaN token
    cfg = _tiny_config(trials=1)
    cfg.mc_rmse.delta_f_khz = 1.5
    experiments.run_mc_rmse(cfg, str(tmp_path))

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    data = json.loads((tmp_path / "mc_rmse_summary.json").read_text(), parse_constant=reject)
    pt = data["points"]["10.0"]
    assert pt["n_detected"] == 0
    assert pt["angle_rmse_deg"] is None and pt["velocity_rmse_mps"] is None
    row = (tmp_path / "mc_rmse.csv").read_text().splitlines()[2].split(",")
    assert row[1:4] == ["nan", "nan", "nan"]


def test_sca_rows_do_not_depend_on_vec_rows(tmp_path):
    # SCA starts from its own comm-only VEC analog precoder, whichever
    # algorithms run beside it
    def rows(algorithms):
        cfg = _tiny_config(trials=1)
        cfg.tradeoff.algorithms = algorithms
        out = tmp_path / "-".join(algorithms)
        experiments.run_tradeoff(cfg, str(out))
        return [r for r in (out / "tradeoff.csv").read_text().splitlines()[2:]
                if r.startswith("sca,")]

    sca_alone = rows(["sca"])
    assert len(sca_alone) == 3
    assert sca_alone == rows(["vec", "sca"])


def test_beam_scan_single_stream(tmp_path):
    # one stream on four RF chains drives VEC's analog columns nearly parallel,
    # and the least-squares step must still normalize
    cfg = _tiny_config(trials=1)
    cfg.arrays.n_streams = 1
    summary = experiments.run_beam_scan(cfg, str(tmp_path))
    assert np.isfinite(summary["comm_lobe_drift_db"])


def test_isi_demo_small(tmp_path):
    cfg = _tiny_config(trials=1)
    summary = experiments.run_isi_demo(cfg, str(tmp_path))
    assert "control_480khz" in summary and "isi_3840khz" in summary
    prof = (tmp_path / "isi_demo_profiles.csv").read_text().splitlines()
    values = [float(r.split(",")[3]) for r in prof[2:]]
    assert max(values) <= 1.0 + 1e-12  # profiles normalized to peak 1


def test_trial_rows_do_not_depend_on_trial_count(tmp_path):
    # each trial draws from its own (experiment, trial) stream, so a second trial
    # leaves trial 0's estimates and the trial-0 range profiles as they were;
    # the provenance line differs because the config hash covers the trial count
    def rows(trials, name):
        return (tmp_path / str(trials) / name).read_text().splitlines()[1:]

    for trials in (1, 2):
        experiments.run_isi_demo(_tiny_config(trials=trials), str(tmp_path / str(trials)))
    by_trial = {trials: [r.split(",") for r in rows(trials, "isi_demo_estimates.csv")[1:]]
                for trials in (1, 2)}
    assert {r[1] for r in by_trial[2]} == {"0", "1"}
    assert by_trial[1] == [r for r in by_trial[2] if r[1] == "0"]
    assert rows(1, "isi_demo_profiles.csv") == rows(2, "isi_demo_profiles.csv")


def test_selftest_passes(capsys):
    assert experiments.selftest()
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
    bad.write_text("tradeoff:\n  eta_grid: [0.5, a]\n")
    assert cli_main(["tradeoff", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert cli_main(["se-sweep", "--config", str(tmp_path / "missing.yaml")]) == 2
    for command, text in (("tradeoff", "arrays:\n  n_rf_tx: 0\n"),
                          ("mc-rmse", "scene:\n  targets: []\n"),
                          ("se-sweep", "se_sweep:\n  structures: []\n"),
                          ("mc-rmse", "scene:\n  targets:\n    - azimuth_deg: 170\n")):
        bad.write_text(text)
        assert cli_main([command, "--config", str(bad), "--out", str(tmp_path),
                         "--trials", "1"]) == 2


def _config_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    return lines[0]


def test_cli_malformed_yaml_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("frame: {m_subcarriers: [\n")
    assert cli_main(["se-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "while parsing a flow node" in _config_error_line(capsys)


def test_cli_config_directory_exit_two(tmp_path, capsys):
    assert cli_main(["se-sweep", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert str(tmp_path) in _config_error_line(capsys)


def test_duplicate_yaml_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("frame:\n  m_subcarriers: 16\n  m_subcarriers: 32\n")
    with pytest.raises(ConfigError, match="found duplicate key 'm_subcarriers'"):
        load_config(str(bad))
    assert cli_main(["se-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    _config_error_line(capsys)
    # the same key in two mappings is not a duplicate
    bad.write_text("frame:\n  m_subcarriers: 16\nisi_demo:\n  m_subcarriers: 128\n")
    assert load_config(str(bad)).isi_demo.m_subcarriers == 128


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


def test_cli_unusable_out_exit_two(tmp_path, capsys, monkeypatch):
    # an --out that is a file, or lies below one, is reported in one line with
    # exit 2 before the experiment runs
    blocker = tmp_path / "file"
    blocker.write_text("")
    ran = []
    monkeypatch.setitem(RUNNERS, "beam-scan", lambda cfg, out: ran.append(out) or {})
    for out in (blocker, blocker / "below"):
        assert cli_main(["beam-scan", "--trials", "1", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("output error: "), lines
        assert str(out) in lines[0]
    assert ran == []
    assert blocker.read_text() == ""


def test_package_imports_neither_scipy_nor_a_pool():
    # the package depends on numpy and PyYAML only and runs trials serially; the
    # test oracles import scipy into this process, so only a fresh interpreter can tell
    code = ("import sys, thzisac, thzisac.config, thzisac.experiments, thzisac.cli; "
            "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runners_leave_numpy_ma_unimported(tmp_path):
    # np.median imports all of numpy.ma (about 1.3 MB of peak RSS) on first
    # use; a fresh interpreter runs each shipped config at one trial
    code = ("import os, sys\n"
            "from thzisac.cli import RUNNERS\n"
            "from thzisac.config import load_config\n"
            "configs, out = sys.argv[1:]\n"
            "for name, run in RUNNERS.items():\n"
            "    os.makedirs(os.path.join(out, name))\n"
            "    cfg = os.path.join(configs, name.replace('-', '_') + '.yaml')\n"
            "    run(load_config(cfg, {'trials': 1}), os.path.join(out, name))\n"
            "print(sorted(os.listdir(out)), 'numpy.ma' in sys.modules)\n")
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    proc = subprocess.run([sys.executable, "-c", code, str(configs), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{sorted(RUNNERS)} False"


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0], [0.25, 4.0, 1.0 / 3.0, 2.0], [0.7], [0.1, 0.2],
    [1.0, np.inf, 0.5], [np.inf, 2.0], [np.inf, np.inf], [0.0, np.inf, np.inf, 1.0],
    [np.float64(0.1), 0.7, np.float64(1e-3), 0.30000000000000004],
    [np.float64(2.0) / 3.0, np.float64(5.0) / 7.0]])
def test_summary_median_equals_np_median_bit_for_bit(values):
    got = experiments._median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(np.median(values)).tobytes()


def test_summary_median_equals_np_median_on_random_lists():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        values = list(rng.exponential(rng.choice([1e-3, 1.0, 1e3]), rng.integers(1, 13)))
        values = [np.inf if rng.random() < 0.1 else float(v) if rng.random() < 0.5 else v
                  for v in values]
        assert np.float64(experiments._median(values)).tobytes() == \
            np.float64(np.median(values)).tobytes(), values


def test_cli_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "thzisac.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "selftest: all checks passed" in proc.stdout
