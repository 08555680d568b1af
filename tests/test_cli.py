import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from setloc import cli, scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    return cli.main(list(args))


@pytest.fixture()
def parking_cfg(tmp_path):
    path = tmp_path / "parking.cfg"
    path.write_text(scenario.builtin_config_text("parking"), encoding="utf-8")
    return path


def test_validate_ok(parking_cfg, capsys):
    assert run_cli("validate", "--config", str(parking_cfg)) == 0
    out = capsys.readouterr().out
    assert "21 sensors" in out


def test_validate_rejects_broken_containment(parking_cfg, tmp_path, capsys):
    text = parking_cfg.read_text() + "\n"
    text = text.replace("[initial_sets]",
                        "[initial_sets]\nmarker_center_dx = 9.0")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    assert run_cli("validate", "--config", str(bad)) == 1
    err = capsys.readouterr().err
    assert "initial containment" in err


def test_run_corrupted_config_names_key(tmp_path, capsys):
    bad = tmp_path / "broken.cfg"
    bad.write_text(scenario.builtin_config_text("parking").replace(
        "dt = 0.5", "dt = soon"), encoding="utf-8")
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "dt" in capsys.readouterr().err


def test_run_writes_outputs_and_summary(parking_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(parking_cfg), "--out", str(out),
                   "--steps", "8", "--estimator", "set")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "containment_rate=100.0%" in stdout
    metrics = (out / "metrics.csv").read_text()
    assert metrics.splitlines()[0] == ",".join(scenario.CSV_COLUMNS)
    assert len(metrics.splitlines()) == 9
    assert (out / "geometry.ndjson").exists()


def test_run_deterministic_bytes(parking_cfg, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("run", "--config", str(parking_cfg), "--out", str(out),
                       "--steps", "6", "--seed", "7") == 0
    assert (out1 / "metrics.csv").read_bytes() == \
        (out2 / "metrics.csv").read_bytes()
    assert (out1 / "geometry.ndjson").read_bytes() == \
        (out2 / "geometry.ndjson").read_bytes()


def test_sweep_row_count(parking_cfg, tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--config", str(parking_cfg),
                   "--parameter", "eps_wa", "--values", "0.5,1,2,4",
                   "--seeds", "5", "--steps", "3", "--out", str(out))
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 5 * 2


def test_sweep_bad_values(parking_cfg, tmp_path, capsys):
    code = run_cli("sweep", "--config", str(parking_cfg),
                   "--parameter", "eps_wa", "--values", "a,b",
                   "--out", str(tmp_path / "s"))
    assert code == 1
    assert "sweep values" in capsys.readouterr().err


def test_dump_defaults(tmp_path):
    assert run_cli("dump-defaults", "--out", str(tmp_path)) == 0
    assert (tmp_path / "parking.cfg").exists()
    assert (tmp_path / "omni.cfg").exists()
    cfg = scenario.load_config(str(tmp_path / "parking.cfg"))
    assert scenario.validate_config(cfg) == []


def test_run_fault_exit_code(tmp_path, capsys):
    # overlapping marker sets make the correspondence ambiguous, so a cap of
    # one assignment aborts the run under the default fault policy
    text = scenario.builtin_config_text("parking")
    text = text.replace("marker_area = 1.0", "marker_area = 25.0")
    text = text.replace("assignment_cap = 1000", "assignment_cap = 1")
    cfg = tmp_path / "ambiguous.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--steps", "10")
    assert code == 2
    assert "fault" in capsys.readouterr().err
    # the fallback policy turns the same run into a clean exit
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                   "--steps", "10", "--fallback-predict")
    assert code == 0


def test_run_skips_sensors_whose_cone_is_too_wide(tmp_path, capsys):
    # a 200 degree orientation interval leaves every bearing cone without a
    # bounded convex superset: validate accepts it, and run must not crash
    text = scenario.builtin_config_text("parking").replace(
        "sensor_theta_deg = 2.0", "sensor_theta_deg = 200")
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(text, encoding="utf-8")
    # both commands warn once per sensor and keep their exit codes
    assert run_cli("validate", "--config", str(cfg)) == 0
    err = capsys.readouterr().err
    assert err.count("WARNING setloc") == 21
    assert "[sensor.21]" in err and "skipped" in err
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--estimator", "set")
    captured = capsys.readouterr()
    assert code == 0
    assert "containment_rate=100.0%" in captured.out
    assert captured.err.count("WARNING setloc") == 21


@pytest.mark.parametrize("name, old, new, key", [
    ("parking", "particles = 100", "particles = 0", "particles"),
    ("parking", "particles = 100", "particles = -3", "particles"),
    ("parking", "assignment_cap = 1000", "assignment_cap = 0",
     "assignment_cap"),
    ("omni", "body_radius = 0.12", "body_radius = -0.5", "body_radius"),
    ("parking", "sensor_theta_deg = 2.0", "sensor_theta_deg = -2",
     "sensor_theta_deg"),
    ("parking", "sensor_theta_deg = 2.0", "sensor_theta_deg = 720",
     "sensor_theta_deg"),
    # non-finite numbers: NaN passes every `x < 0` check
    ("parking", "eps_range = 0.1", "eps_range = nan", "eps_range"),
    ("parking", "eps_bearing_deg = 1.0", "eps_bearing_deg = nan",
     "eps_bearing_deg"),
    ("parking", "dt = 0.5", "dt = inf", "dt"),
    ("parking", "eps_v = 0.1", "eps_v = nan", "eps_v"),
    ("parking", "theta0_deg = 0.0", "theta0_deg = -inf", "theta0_deg"),
    ("parking", "marker_area = 1.0", "marker_area = nan", "marker_area"),
    ("parking", "x = 4.48", "x = nan", "[sensor.2] x"),
    ("parking", "seg01 = 20 1.0 0.0", "seg01 = 20 nan 0.0", "seg01"),
    ("omni", "v_max = 0.10", "v_max = inf", "v_max"),
    # negative sizes: the initial boxes would silently become points
    ("parking", "marker_area = 1.0", "marker_area = -1",
     "[initial_sets] marker_area"),
    ("parking", "sensor_area = 0.01", "sensor_area = -0.01",
     "[initial_sets] sensor_area"),
    ("parking", "body_length = 4.0", "body_length = -4.0",
     "[robot] body_length"),
    ("parking", "body_width = 1.8", "body_width = -1.8", "[robot] body_width"),
    # counts below one: a negative count would slice legs off the end
    ("omni", "seed = 0", "seed = 0\nsteps = -500", "[scenario] steps"),
    ("parking", "seed = 0", "seed = 0\nsteps = 0", "[scenario] steps"),
    ("parking", "seed = 0", "seed = -1", "[scenario] seed"),
])
def test_validate_rejects_what_run_cannot_run(tmp_path, capsys, name, old,
                                              new, key):
    text = scenario.builtin_config_text(name)
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert run_cli("validate", "--config", str(cfg)) == 1
    assert key in capsys.readouterr().err
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--steps", "2")
    err = capsys.readouterr().err
    assert code == 1
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("old, new, key", [
    # a marker's distance over the wheelbase overflows when the motion
    # bounds square it
    ("wheelbase = 2.1", "wheelbase = 1e-155", "[robot] wheelbase"),
])
def test_every_command_rejects_what_the_estimator_cannot_start(
        parking_cfg, tmp_path, capsys, old, new, key):
    text = parking_cfg.read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "o"
    for args in (["validate"],
                 ["run", "--out", str(out), "--steps", "2"],
                 ["sweep", "--out", str(out), "--parameter", "eps_wa",
                  "--values", "1", "--seeds", "1", "--steps", "2"]):
        assert run_cli(*args, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edits", [
    # no bearing noise and no initial sensor uncertainty: each sensor set
    # is the box about a point and each sector the box about a segment
    (("eps_bearing_deg = 1.0", "eps_bearing_deg = 0.0"),
     ("sensor_area = 0.01", "sensor_area = 0"),
     ("sensor_theta_deg = 2.0", "sensor_theta_deg = 0.0")),
    # so far from the origin that a float step is 16 km
    (("x0 = 8.0", "x0 = 1e20"),),
], ids=["exact sensors", "x0 = 1e20"])
def test_every_command_runs_exact_sensors_and_far_coordinates(
        parking_cfg, tmp_path, capsys, edits):
    text = parking_cfg.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text, encoding="utf-8")
    # the swept range noise leaves the bearing noise as it is
    for args in (["validate"],
                 ["run", "--out", str(tmp_path / "o"), "--steps", "40",
                  "--estimator", "set"],
                 ["sweep", "--out", str(tmp_path / "s"), "--parameter",
                  "eps_wr", "--values", "0.1", "--seeds", "1", "--steps",
                  "2"]):
        assert run_cli(*args, "--config", str(cfg)) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if args[0] == "run":
            assert "containment_rate=100.0%" in out


@pytest.mark.parametrize("name, args, key", [
    ("omni", ["run", "--steps", "-3"], "steps"),
    ("omni", ["run", "--steps", "0"], "steps"),
    ("parking", ["run", "--steps", "2", "--seed", "-1"], "seed"),
    ("parking", ["sweep", "--seeds", "0"], "seeds"),
    ("parking", ["sweep", "--seeds", "1", "--jobs", "-1"], "jobs"),
    ("parking", ["sweep", "--seeds", "1", "--steps", "0"], "steps"),
])
def test_counts_below_one_are_config_errors(tmp_path, capsys, name, args, key):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(scenario.builtin_config_text(name), encoding="utf-8")
    sweep = ["--parameter", "eps_wa", "--values", "1", "--estimator", "set"] \
        if args[0] == "sweep" else []
    out = tmp_path / "o"
    code = run_cli(*args, *sweep, "--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert "config error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


def test_run_survives_range_noise_larger_than_the_range(tmp_path, capsys):
    # with eps_range above the sensors' distances a noisy reading falls
    # below zero; it is clamped to 0, which the feasible region still covers
    text = scenario.builtin_config_text("parking").replace(
        "eps_range = 0.1", "eps_range = 10")
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli("validate", "--config", str(cfg)) == 0
    capsys.readouterr()
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--steps", "4")
    captured = capsys.readouterr()
    assert code == 0
    assert "containment_rate=100.0%" in captured.out
    assert "Traceback" not in captured.err


def test_run_survives_speed_noise_that_turns_a_full_circle(tmp_path, capsys):
    # with eps_v = 80 one step may turn the body by more than 2 pi, so the
    # rigid step's rotation interval is wider than the circle
    text = scenario.builtin_config_text("parking").replace(
        "eps_v = 0.1", "eps_v = 80")
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli("validate", "--config", str(cfg)) == 0
    capsys.readouterr()
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--steps", "40")
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err


def test_sweep_warns_about_sensors_whose_cone_is_too_wide(tmp_path, capsys):
    text = scenario.builtin_config_text("parking").replace(
        "sensor_theta_deg = 2.0", "sensor_theta_deg = 200")
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = run_cli("sweep", "--config", str(cfg), "--parameter", "eps_wa",
                   "--values", "1", "--seeds", "1", "--steps", "1",
                   "--estimator", "set", "--out", str(tmp_path / "s"))
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("WARNING setloc") == 21
    assert "[sensor.21]" in err and "skipped" in err


def test_sweep_warns_about_every_swept_value_whose_cone_is_too_wide(
        parking_cfg, tmp_path, capsys):
    # the base config's cones are narrow; 89 degrees of bearing noise plus
    # the 1 degree orientation half-width reaches 90 at every sensor
    code = run_cli("sweep", "--config", str(parking_cfg), "--parameter",
                   "eps_wa", "--values", "1,89", "--seeds", "1", "--steps",
                   "1", "--estimator", "set", "--out", str(tmp_path / "s"))
    assert code == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("WARNING setloc")]
    assert len(warnings) == 21
    assert all("eps_wa = 89: [sensor." in w and "skipped" in w
               for w in warnings)


@pytest.mark.parametrize("parameter, values, key", [
    ("eps_wa", "1,nan", "eps_wa = nan"),
    ("eps_wr", "-0.1", "eps_wr = -0.1"),
    ("V_Pi0", "inf", "[initial_sets] marker_area"),
    ("eps_v", "nan", "eps_v"),
])
def test_sweep_rejects_values_the_models_cannot_take(parking_cfg, tmp_path,
                                                     capsys, parameter,
                                                     values, key):
    code = run_cli("sweep", "--config", str(parking_cfg), "--parameter",
                   parameter, "--values", values, "--seeds", "1", "--steps",
                   "1", "--estimator", "set", "--out", str(tmp_path / "s"))
    err = capsys.readouterr().err
    assert code == 1
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("validate", "--config", str(tmp_path / "nope.cfg")) == 1


def test_console_entry_point():
    # the subprocess does not inherit pytest's pythonpath setting, so point
    # it at this checkout's sources; an installed package is not needed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "setloc.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


@pytest.mark.parametrize("value, level", [("debug", logging.DEBUG),
                                          ("BASIC_FORMAT", logging.WARNING),
                                          ("nonsense", logging.WARNING)])
def test_log_level_names_a_level_or_falls_back_to_warning(
        parking_cfg, monkeypatch, capsys, value, level):
    # BASIC_FORMAT is an attribute of logging, but a format, not a level
    monkeypatch.setenv("SETLOC_LOG", value)
    assert run_cli("validate", "--config", str(parking_cfg)) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert cli.log.level == level
