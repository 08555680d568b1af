import concurrent.futures
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from setloc import estimator as est
from setloc import geom2d, scenario
from geom_checks import arc_from_endpoints
from setloc.geom2d import AngleInterval, ConvexPolygon
from setloc.kinematics import RobotModel, RobotPose
from setloc.scenario import (ConfigError, ScenarioFault, SensorSite,
                             body_polygon, compute_metrics,
                             corner_marker_offsets, load_builtin, parse_config,
                             sensitivity_sweep, simulate_run, validate_config)
from setloc.sensing import (ANGLE_ONLY, ANGLE_RANGE, Measurement,
                            SensorModel, SensorPose, measure)


@pytest.fixture(scope="module")
def parking():
    return load_builtin("parking")


def mini_cfg(parking, **kw):
    """Trimmed parking config for quick runs."""
    cfg = replace(parking, trajectory=parking.trajectory[:25], **kw)
    return cfg


def shrink_demo_config(seed=0):
    """Sensor-calibration demonstration: poorly known sensors, well-known robot.

    Eight wide-angle sensors ring a short straight drive at close range; their
    position sets start at 25 m^2 and orientation intervals at 20 degrees
    while the marker sets start tiny, so every measurement batch pays down
    sensor uncertainty.
    """
    base = load_builtin("parking")
    model = SensorModel(ANGLE_RANGE, math.radians(0.5), 0.05,
                        math.radians(140.0), 20.0)
    ring = []
    for i in range(8):
        ang = 2.0 * math.pi * i / 8.0
        x = 10.0 + 4.2 * math.cos(ang)
        y = 6.0 + 4.2 * math.sin(ang)
        ring.append(SensorSite(SensorPose(x, y, math.atan2(6.0 - y, 10.0 - x)),
                               model))
    return replace(base, sensors=tuple(ring), initial_sensor_area=25.0,
                   initial_sensor_theta=math.radians(20.0),
                   initial_marker_area=0.0025, estimators="set", seed=seed,
                   trajectory=tuple([(0.4, 0.0)] * 15))


def pooled_stats(rows, value, estimator):
    """Pooled (mean_m1, std_m1, mean_m2) of a sweep's rows across seeds via
    total variance."""
    sel = [r for r in rows if r.estimator == estimator
           and math.isclose(r.value, value) and r.steps > 0]
    if not sel:
        return math.nan, math.nan, math.nan
    weights = np.array([r.steps for r in sel], dtype=float)
    means = np.array([r.mean_m1 for r in sel])
    stds = np.array([r.std_m1 for r in sel])
    w = weights / weights.sum()
    mean = float((w * means).sum())
    var = float((w * (stds ** 2)).sum() + (w * (means - mean) ** 2).sum())
    mean_m2 = float((w * np.array([r.mean_m2 for r in sel])).sum())
    return mean, math.sqrt(max(var, 0.0)), mean_m2


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_builtin_configs_parse_and_validate():
    for name in ("parking", "omni"):
        cfg = load_builtin(name)
        assert validate_config(cfg) == []
    assert load_builtin("parking").n_sensors == 21
    assert len(load_builtin("parking").trajectory) == 150
    assert len(load_builtin("omni").trajectory) >= 500


def test_corner_offsets_geometry():
    robot = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8)
    offs = corner_marker_offsets(robot)
    assert len(offs) == 4
    pts = [o.body_xy() for o in offs]
    xs = sorted({round(p[0], 9) for p in pts})
    assert xs == [-0.95, 3.05]
    assert sorted({round(p[1], 9) for p in pts}) == [-0.9, 0.9]


def test_parse_errors_name_the_key():
    with pytest.raises(ConfigError, match=r"\[robot\].*dt"):
        parse_config("[scenario]\nmode = bicycle\n[robot]\nx0 = 1\ny0 = 2\n"
                     "[initial_sets]\n[trajectory]\n")
    good = scenario.builtin_config_text("parking")
    with pytest.raises(ConfigError, match="wheelbase"):
        parse_config(good.replace("wheelbase = 2.1", "wheelbase = green"))


def test_validate_rejects_offcenter_truth(parking):
    cfg = replace(parking, marker_center_offset=(5.0, 0.0))
    problems = validate_config(cfg)
    assert any("initial containment" in p for p in problems)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_exact_rectangle():
    robot = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8)
    rect = body_polygon(RobotPose(3, 2, 0.4), robot)
    m = compute_metrics(rect, AngleInterval(0.4, 0.0), rect, 0.4)
    assert m.m1 == pytest.approx(1.0)
    assert m.m2 == pytest.approx(0.0, abs=1e-12)
    assert m.contained_body and m.contained_heading


def test_metrics_disjoint_zero():
    a = ConvexPolygon.box(0, 1, 0, 1)
    b = ConvexPolygon.box(5, 6, 5, 6)
    m = compute_metrics(a, AngleInterval(0.0, 0.1), b, 3.0)
    assert m.m1 == 0.0
    assert not m.contained_body and not m.contained_heading


def test_metrics_interval_deviation():
    truth = ConvexPolygon.box(0, 1, 0, 1)
    est = arc_from_endpoints(0.5 - 0.2, 0.5 + 0.3)
    m = compute_metrics(truth, est, truth, 0.5)
    assert m.m2 == pytest.approx(0.5)


@pytest.mark.parametrize("case", ["omni disk", "rectangle on the boundary"])
def test_scoring_an_estimate_that_holds_the_truth_cuts_nothing(case,
                                                               monkeypatch):
    # the overlap is the true body clipped by the estimate: no line of an
    # estimate that contains the truth cuts it, and m1 is the area ratio
    if case == "omni disk":
        disk = geom2d.ball_outer_polygon(0.12, 32)
        truth = geom2d.translate(disk, 1.3, 0.7)
        marker = ConvexPolygon.from_points([(1.2, 0.65), (1.45, 0.6),
                                            (1.4, 0.9), (1.25, 0.8)])
        body = geom2d.minkowski_sum(marker, disk)
    else:
        robot = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0,
                           body_width=1.8)
        truth = body_polygon(RobotPose(3, 2, 0.4), robot)
        body = ConvexPolygon.from_points([*truth.vertices, (9.0, 5.0)])
    cuts = []
    clip = geom2d._clip_poly_halfplane

    def counting_clip(pts, *line):
        out = clip(pts, *line)
        if out is not pts:
            cuts.append(line)
        return out

    monkeypatch.setattr(geom2d, "_clip_poly_halfplane", counting_clip)
    m = compute_metrics(body, AngleInterval(0.4, 0.1), truth, 0.4)
    assert m.contained_body
    assert cuts == []
    assert m.m1 == geom2d.area(truth) / geom2d.area(body)


def _clipped_metrics(body_est, heading_est, truth_region, truth_theta):
    """compute_metrics as it was before it reused its containment test: the
    overlap is always the clip of the true body by the estimate."""
    est_area = geom2d.area(body_est)
    overlap = geom2d.intersect(truth_region, body_est)
    m1 = 0.0 if overlap is None or est_area <= 0.0 \
        else geom2d.area(overlap) / est_area
    hi_dev = abs(geom2d.wrap_angle(heading_est.hi - truth_theta))
    lo_dev = abs(geom2d.wrap_angle(heading_est.lo - truth_theta))
    m2 = hi_dev + lo_dev if not heading_est.is_full else 2.0 * math.pi
    return scenario.Metrics(m1, m2,
                            geom2d.contains_polygon(body_est, truth_region),
                            heading_est.contains(truth_theta), est_area)


@pytest.mark.parametrize("name", ["omni", "parking"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reused_containment_scores_as_the_clip(name, seed, monkeypatch):
    # every scored body, the set estimator's and FastSLAM's: the overlap
    # ratio from the containment test equals the clip's to the last bit,
    # for bodies that hold the truth and bodies that do not
    held = {True: 0, False: 0}
    overlap_ratio = scenario._overlap_ratio
    metrics = scenario.compute_metrics

    def checked_ratio(body_est, truth_region, holds_truth, est_area):
        assert holds_truth == geom2d.contains_polygon(body_est, truth_region)
        assert est_area == geom2d.area(body_est)
        got = overlap_ratio(body_est, truth_region, holds_truth, est_area)
        want = _clipped_metrics(body_est, geom2d.FULL_CIRCLE,
                                truth_region, 0.0).m1
        assert got.hex() == want.hex()
        held[holds_truth] += 1
        return got

    def checked_metrics(*args):
        got = metrics(*args)
        assert repr(got) == repr(_clipped_metrics(*args))
        return got

    monkeypatch.setattr(scenario, "_overlap_ratio", checked_ratio)
    monkeypatch.setattr(scenario, "compute_metrics", checked_metrics)
    omni = name == "omni"
    cfg = replace(load_builtin(name), seed=seed,
                  estimators="set" if omni else "both")
    rec = simulate_run(cfg, steps=None if omni else 60)
    assert held[True] > 0
    if not omni:
        assert held[False] > 0
        assert not all(r.fs_metrics.contained_body for r in rec.rows)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_zero_noise_run_perfect_metrics(parking):
    sensors = tuple(SensorSite(s.pose, replace(s.model, eps_bearing=0.0,
                                               eps_range=0.0))
                    for s in parking.sensors)
    cfg = replace(parking, sensors=sensors,
                  robot=replace(parking.robot, eps_v=0.0, eps_delta=0.0),
                  initial_marker_area=0.0, initial_sensor_area=0.0,
                  initial_sensor_theta=0.0, estimators="set",
                  trajectory=tuple([(1.0, 0.0)] * 30))
    rec = simulate_run(cfg)
    for r in rec.rows:
        assert r.set_metrics.m1 == pytest.approx(1.0, abs=1e-6)
        assert r.set_metrics.m2 == pytest.approx(0.0, abs=1e-6)
    assert rec.containment_rate() == 1.0


def scaled_noise(cfg, s):
    """cfg with every noise bound, the initial orientation width and the
    square root of each initial area multiplied by s."""
    r = cfg.robot
    sensors = tuple(SensorSite(site.pose, replace(
        site.model, eps_bearing=s * site.model.eps_bearing,
        eps_range=s * site.model.eps_range)) for site in cfg.sensors)
    return replace(cfg, sensors=sensors,
                   robot=replace(r, eps_v=s * r.eps_v,
                                 eps_delta=s * r.eps_delta, eps_f=s * r.eps_f),
                   initial_marker_area=s * s * cfg.initial_marker_area,
                   initial_sensor_area=s * s * cfg.initial_sensor_area,
                   initial_sensor_theta=s * cfg.initial_sensor_theta)


def assert_holds_the_truth_at_tol_0(cfg, steps):
    """Step the estimator on simulate_run's world and measurement streams,
    and check that every set holds its truth without any tolerance."""
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_proc, rng_meas, rng_shuf, _ = (np.random.default_rng(c)
                                       for c in streams)
    models, state, trajectory = scenario._start_tracker(cfg, steps)
    noise_bounds = scenario._noise_bounds(cfg.sensors, cfg.n_markers)
    for k, u, truth in scenario._bicycle_world(cfg, trajectory, rng_proc):
        batches = scenario._measurement_batches(truth.markers, cfg.sensors,
                                                noise_bounds, rng_meas,
                                                rng_shuf)
        state = est.step(state, u, batches, models)
        for j, (p, t) in enumerate(zip(state.markers, truth.markers)):
            assert geom2d.contains(p, t, tol=0.0), (k, f"marker {j}")
        for i, site in enumerate(cfg.sensors):
            assert geom2d.contains(state.sensor_xy[i], site.pose.xy,
                                   tol=0.0), (k, f"sensor {i} position")
            assert state.sensor_theta[i].contains(site.pose.theta, tol=0.0), \
                (k, f"sensor {i} orientation")
        assert state.heading.contains(truth.heading, tol=0.0), (k, "heading")


# at s = 1e-8 the initial marker boxes have side 1e-8 m, ten times
# EPS_GEOM; at 1e-9 and 1e-10 they are thinner than 2 EPS_GEOM, and
# ConvexPolygon.box widens them to that
@pytest.mark.parametrize("s, seed", [
    pytest.param(s, seed, id=str(seed) if s == 1e-8 else f"s={s:g}-{seed}")
    for s in (1e-8, 1e-9, 1e-10) for seed in range(5)])
def test_scaled_noise_keeps_the_truth_at_tol_0(parking, s, seed):
    assert_holds_the_truth_at_tol_0(
        replace(scaled_noise(parking, s), seed=seed, estimators="set"), 40)


def exact_sensors(cfg):
    """cfg with no bearing noise and no initial sensor uncertainty: each
    sensor set is the box about a point and each sector the box about a
    segment."""
    sensors = tuple(SensorSite(site.pose, replace(site.model, eps_bearing=0.0))
                    for site in cfg.sensors)
    return replace(cfg, sensors=sensors, initial_sensor_area=0.0,
                   initial_sensor_theta=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_exact_sensors_keep_the_truth_at_tol_0(parking, seed):
    assert_holds_the_truth_at_tol_0(
        replace(exact_sensors(parking), seed=seed, estimators="set"), 40)


@pytest.mark.parametrize("seed", [0, 7])
def test_noise_free_parking_keeps_the_truth_at_tol_0(parking, seed):
    # every noise bound and initial size 0, on the bundled trajectory
    assert_holds_the_truth_at_tol_0(
        replace(scaled_noise(parking, 0.0), seed=seed, estimators="set"), 150)


@pytest.mark.parametrize("seed", [0, 7])
def test_omni_without_a_body_radius_scores_m1_0(seed):
    # the true body is the robot's centre, which no set is widened about:
    # it covers no area of any estimate
    cfg = replace(scenario.load_builtin("omni"), seed=seed, omni_radius=0.0)
    rec = simulate_run(cfg, steps=200)
    assert all(r.set_metrics.m1 == 0.0 for r in rec.rows)
    assert rec.containment_rate() == 1.0


def test_parking_defaults_containment(parking):
    rec = simulate_run(replace(parking, seed=123))
    assert rec.containment_rate() == 1.0
    assert rec.containment_rate() == 1.0
    assert all(r.set_metrics.m1 > 0.0 for r in rec.rows)


def test_run_reproducible(parking):
    cfg = mini_cfg(parking, seed=7)
    a = simulate_run(cfg)
    b = simulate_run(cfg)
    assert a.to_csv() == b.to_csv()


def test_run_seed_changes_stream(parking):
    a = simulate_run(mini_cfg(parking, seed=1))
    b = simulate_run(mini_cfg(parking, seed=2))
    assert a.to_csv() != b.to_csv()


def test_csv_schema(parking):
    rec = simulate_run(mini_cfg(parking, seed=3, estimators="set"))
    lines = rec.to_csv().strip().splitlines()
    assert lines[0] == ",".join(scenario.CSV_COLUMNS)
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert len(first) == len(scenario.CSV_COLUMNS)
    assert first[0] == "1"
    # fastslam columns empty when not selected
    assert first[-1] == ""


def test_geometry_dump_lines(parking):
    rec = simulate_run(mini_cfg(parking, seed=3, estimators="set"),
                       steps=2, record_geometry=True)
    import json
    ids = set()
    for line in rec.geometry:
        obj = json.loads(line)
        assert "step" in obj and "id" in obj
        ids.add(obj["id"])
    assert "set/marker1" in ids
    assert "truth/body" in ids
    assert "set/sensor1/theta" in ids


def _fresh_geometry_line(step, obj_id, poly=None, interval=None, pose=None):
    """A geometry.ndjson record formatted afresh, one f-string per number,
    as every line was written before sensors' lines were reused."""
    def fmt(v):
        return f"{v:.17g}"
    parts = [f'"step": {step}', f'"id": "{obj_id}"']
    if poly is not None:
        vs = ", ".join(f"[{fmt(x)}, {fmt(y)}]" for x, y in poly.vertices)
        parts.append(f'"vertices": [{vs}]')
    if interval is not None:
        parts.append(f'"interval": [{fmt(interval.lo)}, {fmt(interval.hi)}]')
    if pose is not None:
        parts.append(f'"pose": [{", ".join(fmt(x) for x in pose)}]')
    return "{" + ", ".join(parts) + "}"


def _fresh_geometry(k, state, truth):
    line = _fresh_geometry_line
    out = [line(k, "truth/pose", pose=truth.pose),
           line(k, "truth/body", poly=truth.region)]
    out += [line(k, f"set/marker{j + 1}", poly=p)
            for j, p in enumerate(state.markers)]
    for i, p in enumerate(state.sensor_xy):
        out += [line(k, f"set/sensor{i + 1}/xy", poly=p),
                line(k, f"set/sensor{i + 1}/theta",
                     interval=state.sensor_theta[i])]
    return out + [line(k, "set/body", poly=state.body),
                  line(k, "set/heading", interval=state.heading)]


def _recorded_episode(cfg, monkeypatch, **kw):
    """simulate_run(cfg, **kw) and every estimator state it steps through,
    the initial one first."""
    states = []
    step = est.step

    def recording_step(state, *args):
        if not states:
            states.append(state)
        states.append(step(state, *args))
        return states[-1]

    monkeypatch.setattr(est, "step", recording_step)
    return simulate_run(cfg, **kw), states


def test_reused_sensor_lines_and_checks_are_made_afresh(parking, monkeypatch):
    # the whole parking episode of world seed 7000: its sensors' sets are
    # handed on unchanged at most steps, and made anew at others
    cfg = replace(parking, seed=7000, estimators="set")
    rec, states = _recorded_episode(cfg, monkeypatch, record_geometry=True)
    assert len(states) == len(cfg.trajectory) + 1

    rng_proc = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    truths = [scenario._bicycle_truth(cfg.start, cfg)] + [
        truth for _, _, truth in scenario._bicycle_world(cfg, cfg.trajectory,
                                                         rng_proc)]
    want = [line for k, (state, truth) in enumerate(zip(states, truths))
            for line in _fresh_geometry(k, state, truth)]
    assert len(rec.geometry) == len(want)
    for k, (got, line) in enumerate(zip(rec.geometry, want)):
        assert got == line, k

    for row, state in zip(rec.rows, states[1:]):
        assert row.set_contained_sensors == all(
            geom2d.contains(state.sensor_xy[i], site.pose.xy)
            and state.sensor_theta[i].contains(site.pose.theta)
            for i, site in enumerate(cfg.sensors)), row.k
    made = [(a, b) for before, after in zip(states, states[1:])
            for a, b in zip(before.sensor_theta, after.sensor_theta)
            if a is not b]
    kept = sum(a is b for before, after in zip(states, states[1:])
               for a, b in zip(before.sensor_theta, after.sensor_theta))
    assert kept > len(made)
    assert any(a != b for a, b in made)


def test_orientation_sets_are_made_anew_only_where_they_narrow(parking,
                                                               monkeypatch):
    # the parking episode of world seed 7000 runs 519 exact orientation
    # phases; 132 of them change the arc, and each of the others hands on
    # the predicted object, so its sensor's records are reused
    cfg = replace(parking, seed=7000, estimators="set")
    phases = []
    narrow = est._narrow_orientation

    def counting_narrow(*args):
        phases.append(args)
        return narrow(*args)

    monkeypatch.setattr(est, "_narrow_orientation", counting_narrow)
    _, states = _recorded_episode(cfg, monkeypatch)
    pairs = [(a, b) for before, after in zip(states, states[1:])
             for a, b in zip(before.sensor_theta, after.sensor_theta)]
    # a new object where a bit changed (repr tells -0.0 from 0.0), else
    # the same one
    assert all((a is b) == (repr(a) == repr(b)) for a, b in pairs)
    assert len(phases) == 519
    assert sum(a is not b for a, b in pairs) == 132


def test_omni_run_containment():
    cfg = load_builtin("omni")
    rec = simulate_run(cfg, steps=120)
    assert all(r.set_metrics.contained_body for r in rec.rows)
    assert all(r.set_contained_markers for r in rec.rows)


def test_shrink_demo_tracks_sensor_sets():
    cfg = shrink_demo_config(seed=0)
    rec = simulate_run(cfg, record_measurements=True)
    states = scenario.replay_run(cfg, rec.measurements)
    assert len(states) == 15
    areas0 = [geom2d.area(p) for p in states[0].sensor_xy]
    areas_end = [geom2d.area(p) for p in states[-1].sensor_xy]
    assert all(a <= b + 1e-12 for a, b in zip(areas_end, areas0))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_single_cell_consistency(parking):
    cfg = mini_cfg(parking, estimators="set")
    rows = sensitivity_sweep(cfg, "eps_wa", [1.0], 1, steps=10)
    assert len(rows) == 1
    row = rows[0]
    rec = simulate_run(replace(scenario.apply_parameter(cfg, "eps_wa", 1.0),
                               seed=cfg.seed), steps=10)
    assert row.mean_m1 == pytest.approx(float(np.mean(rec.set_m1())))
    assert row.std_m1 == pytest.approx(float(np.std(rec.set_m1())))


def test_sweep_row_count_and_order(parking):
    cfg = mini_cfg(parking)
    rows = sensitivity_sweep(cfg, "eps_wr", [0.05, 0.1], 2, steps=5)
    assert len(rows) == 2 * 2 * 2   # values x seeds x estimators
    keys = [(r.value, r.seed, r.estimator) for r in rows]
    assert keys == sorted(keys)


def test_sweep_cell_that_fell_back_shows_as_faulted(parking):
    # wide initial marker sets and a cap of one hypothesis make every update
    # fail, so each step keeps only its prediction
    cfg = replace(parking, initial_marker_area=25.0, assignment_cap=1,
                  estimators="set")
    rows = sensitivity_sweep(cfg, "eps_wa", [1.0], 1, steps=4)
    assert [(r.estimator, r.steps, r.faulted) for r in rows] == [("set", 4, True)]
    cell = replace(scenario.apply_parameter(cfg, "eps_wa", 1.0), seed=cfg.seed)
    assert simulate_run(cell, steps=4, fallback_predict=True).set_fallbacks == 4
    assert scenario.sweep_to_csv(rows).splitlines()[1].endswith(",4,1")


def test_sweep_unknown_parameter(parking):
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        sensitivity_sweep(parking, "nope", [1.0], 1)


def test_sweep_unknown_estimators_selection(parking):
    # a selection that names no estimator gives the sweep no tasks
    with pytest.raises(ConfigError, match="unknown estimators selection"):
        sensitivity_sweep(replace(parking, estimators="nope"), "eps_wa",
                          [1.0], 1, steps=2)


def test_measurement_serialization_roundtrip():
    from setloc.sensing import Measurement
    m = Measurement(0.123456789012345, 7.5, sensor_id=3, slot=1)
    line = scenario.measurement_to_line(9, m)
    step, back = scenario.measurement_from_line(line)
    assert step == 9 and back == m
    m2 = Measurement(-2.5, None, sensor_id=0, slot=0)
    _, back2 = scenario.measurement_from_line(scenario.measurement_to_line(1, m2))
    assert back2 == m2
    with pytest.raises(ConfigError, match="measurement record"):
        scenario.measurement_from_line('{"step": 1}')


@pytest.mark.parametrize("field", ["bearing", "range"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"nan"'])
def test_measurement_records_must_be_finite(field, value):
    fields = {"step": "1", "sensor": "0", "slot": "0", "bearing": "0.5",
              "range": "3.0", field: value}
    line = "{%s}" % ", ".join(f'"{k}": {v}' for k, v in fields.items())
    with pytest.raises(ConfigError, match="bad measurement record .*must be finite"):
        scenario.measurement_from_line(line)


@pytest.mark.parametrize("field, value", [
    ("step", "1e999"), ("step", "1.0"), ("step", '"1"'), ("step", "true"),
    ("sensor", "0.7"), ("sensor", '"0"'), ("slot", "true"), ("slot", "false"),
    ("bearing", "true"), ("range", "false")])
def test_measurement_records_take_integers_and_numbers(field, value):
    # step, sensor and slot are JSON integers; bearing and range are numbers
    fields = {"step": "1", "sensor": "0", "slot": "0", "bearing": "0.5",
              "range": "3.0", field: value}
    line = "{%s}" % ", ".join(f'"{k}": {v}' for k, v in fields.items())
    with pytest.raises(ConfigError, match="bad measurement record") as err:
        scenario.measurement_from_line(line)
    assert repr(line) in str(err.value)


def record(step=1, sensor=0, slot=0, bearing="0.5", rng="3.0"):
    return (f'{{"step": {step}, "sensor": {sensor}, "slot": {slot}, '
            f'"bearing": {bearing}, "range": {rng}}}')


@pytest.mark.parametrize("records, bad", [
    ([record(bearing='"0.5"')], 0),
    ([record(rng='" 3e0 "')], 0),
    ([record(bearing="1" + "0" * 400)], 0),
    ([record(slot=-5)], 0),
    ([record(slot=4)], 0),
    ([record(slot=7), record(slot=7, bearing="0.6")], 0),
    ([record(slot=1), record(slot=2), record(slot=1, bearing="0.6")], 2),
], ids=["string bearing", "string range", "huge bearing", "negative slot",
        "slot past the markers", "slot 7 twice", "slot 1 twice"])
def test_replay_records_are_strict(records, bad):
    # bearing and range are finite JSON numbers; the slots of one batch are
    # distinct markers of the run.  The error names the record at fault.
    with pytest.raises(ConfigError) as err:
        scenario.batches_from_lines(records, n_steps=2, n_sensors=2,
                                    n_markers=4)
    assert repr(records[bad]) in str(err.value)


def test_replay_matches_recorded_run(parking):
    cfg = mini_cfg(parking, estimators="set", seed=11)
    rec = simulate_run(cfg, steps=20, record_measurements=True)
    states = scenario.replay_run(cfg, rec.measurements, steps=20)
    assert len(states) == 20
    for row, state in zip(rec.rows, states):
        assert geom2d.area(state.body) == row.set_metrics.area
        assert state.heading.width == row.set_heading_width


def test_replay_matches_recorded_omni_run():
    cfg = load_builtin("omni")
    rec = simulate_run(cfg, steps=40, record_measurements=True)
    states = scenario.replay_run(cfg, rec.measurements, steps=40)
    ball = geom2d.ball_outer_polygon(cfg.omni_radius)
    for row, state in zip(rec.rows, states):
        body = geom2d.minkowski_sum(state.markers[0], ball)
        assert geom2d.area(body) == row.set_metrics.area


@pytest.mark.parametrize("name", ["parking", "omni"])
def test_fault_policy_is_the_same_in_both_modes(name, monkeypatch):
    cfg = replace(load_builtin(name), estimators="set")
    real_update = est.update
    calls = []

    def update_failing_at_step_3(predicted, batches, models):
        calls.append(predicted.k)
        if len(calls) == 3:
            raise est.EmptySetFault("injected")
        return real_update(predicted, batches, models)

    monkeypatch.setattr(est, "update", update_failing_at_step_3)
    with pytest.raises(ScenarioFault) as info:
        simulate_run(cfg, steps=5)
    assert info.value.step == 3
    assert isinstance(info.value.cause, est.EmptySetFault)
    calls.clear()
    rec = simulate_run(cfg, steps=5, fallback_predict=True)
    assert [r.k for r in rec.rows] == [1, 2, 3, 4, 5]
    assert rec.set_fallbacks == 1
    assert rec.containment_rate() == 1.0


def test_replay_of_corrupted_stream_faults_at_its_step(parking):
    cfg = mini_cfg(parking, estimators="set", seed=11)
    rec = simulate_run(cfg, steps=6, record_measurements=True)
    lines = list(rec.measurements)
    q = next(i for i, line in enumerate(lines) if json.loads(line)["step"] == 4)
    obj = json.loads(lines[q])
    obj["bearing"] = geom2d.wrap_angle(obj["bearing"] + math.pi)
    lines[q] = json.dumps(obj)
    with pytest.raises(ScenarioFault) as info:
        scenario.replay_run(cfg, lines, steps=6)
    assert info.value.step == 4


def test_replay_rejects_more_measurements_than_markers():
    cfg = load_builtin("omni")
    rec = simulate_run(cfg, steps=5, record_measurements=True)
    obj = json.loads(rec.measurements[-1])
    obj["slot"] += 1
    lines = rec.measurements + [json.dumps(obj)]
    with pytest.raises(ConfigError, match=f"step {obj['step']}, "
                                          f"sensor {obj['sensor']}"):
        scenario.replay_run(cfg, lines, steps=5)


def test_sweep_initial_uncertainty_claim(parking):
    # over a horizon long enough for the baseline to drift, the guaranteed
    # estimator keeps a higher mean overlap at every initial-set size
    rows = sensitivity_sweep(parking, "V_Pi0", [1.0, 4.0], 2, steps=100)
    for v in (1.0, 4.0):
        set_m1, _, _ = pooled_stats(rows, v, "set")
        fs_m1, _, _ = pooled_stats(rows, v, "fastslam")
        assert set_m1 >= fs_m1


def test_sweep_parallel_jobs_deterministic(parking):
    cfg = mini_cfg(parking)
    serial = sensitivity_sweep(cfg, "eps_wa", [0.5, 1.0], 2, steps=5, jobs=1)
    parallel = sensitivity_sweep(cfg, "eps_wa", [0.5, 1.0], 2, steps=5, jobs=2)
    assert serial == parallel


def test_sweep_pool_has_no_more_workers_than_cells(parking, monkeypatch):
    # a pool that runs its cells in this process and records its size: the
    # test starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = mini_cfg(parking, estimators="set")
    serial = sensitivity_sweep(cfg, "eps_wa", [0.5, 1.0], 2, steps=2, jobs=1)
    assert sizes == []
    assert sensitivity_sweep(cfg, "eps_wa", [0.5, 1.0], 2, steps=2,
                             jobs=5000) == serial
    assert sizes == [4]
    one = sensitivity_sweep(cfg, "eps_wa", [0.5], 1, steps=2, jobs=8)
    assert sizes == [4]
    assert one == [r for r in serial if r.value == 0.5 and r.seed == cfg.seed]


def test_apply_parameter_routing(parking):
    out = scenario.apply_parameter(parking, "eps_wa", 2.0)
    assert out.sensors[0].model.eps_bearing == pytest.approx(math.radians(2.0))
    out = scenario.apply_parameter(parking, "eps_wr", 0.2)
    assert out.sensors[5].model.eps_range == 0.2
    out = scenario.apply_parameter(parking, "V_Pi0", 2.5)
    assert out.initial_marker_area == 2.5
    out = scenario.apply_parameter(parking, "eps_v", 0.2)
    assert out.robot.eps_v == 0.2
    out = scenario.apply_parameter(parking, "eps_delta", 1.0)
    assert out.robot.eps_delta == pytest.approx(math.radians(1.0))


def test_replay_rejects_a_config_validate_rejects():
    cfg = load_builtin("omni")
    rec = simulate_run(cfg, steps=3, record_measurements=True)
    bad = replace(cfg, omni_v_max=-1.0)
    assert validate_config(bad)
    with pytest.raises(ConfigError, match="omni v_max must be >= 0"):
        scenario.replay_run(bad, rec.measurements, steps=3)


# ---------------------------------------------------------------------------
# the world's measurement draws
# ---------------------------------------------------------------------------

def _measurement_batches_loop(markers, sensors, rng_meas, rng_shuffle):
    """The scalar-draw measurement loop that one draw per step replaced,
    copied verbatim (name aside)."""
    batches: list[list[Measurement]] = []
    for i, site in enumerate(sensors):
        model = site.model
        found = []
        for pt in markers:
            w_a = rng_meas.uniform(-model.eps_bearing, model.eps_bearing)
            w_r = rng_meas.uniform(-model.eps_range, model.eps_range)
            m = measure(site.pose, model, pt, w_a, w_r, sensor_id=i)
            if m is not None:
                found.append(m)
        order = rng_shuffle.permutation(len(found))
        batch = [replace(found[q], slot=slot) for slot, q in enumerate(order)]
        batches.append(batch)
    return batches


@pytest.mark.parametrize("n", [0, 1])
def test_a_permutation_of_zero_or_one_draws_nothing(n):
    # _measurement_batches does not ask numpy to order a batch of 0 or 1;
    # its outputs equal the shuffled ones only while numpy draws nothing
    # for those
    used, fresh = np.random.default_rng(9), np.random.default_rng(9)
    assert used.permutation(n).tolist() == list(range(n))
    assert used.random() == fresh.random()


def _one_angle_only_sensor(parking):
    """Parking seen by one narrow angle-only sensor: most markers are out of
    its view at most steps."""
    site = parking.sensors[0]
    model = SensorModel(ANGLE_ONLY, math.radians(2.0), 0.0,
                        math.radians(20.0), 12.0)
    return replace(parking, sensors=(SensorSite(site.pose, model),))


@pytest.mark.parametrize("name", ["parking", "omni", "angle-only"])
def test_measurement_batches_are_the_scalar_draws(name, parking):
    cfg = _one_angle_only_sensor(parking) if name == "angle-only" \
        else load_builtin(name)
    world = scenario._omni_world if cfg.mode == scenario.MODE_OMNI \
        else scenario._bicycle_world
    rngs = [[np.random.default_rng(seed) for seed in (5, 6)] for _ in range(2)]
    noise_bounds = scenario._noise_bounds(cfg.sensors, cfg.n_markers)
    seen = unseen = 0
    for _, _, truth in world(cfg, cfg.trajectory[:60],
                             np.random.default_rng(4)):
        got = scenario._measurement_batches(truth.markers, cfg.sensors,
                                            noise_bounds, *rngs[0])
        want = _measurement_batches_loop(truth.markers, cfg.sensors, *rngs[1])
        assert repr(got) == repr(want)
        assert all(type(m.bearing) is float for b in got for m in b)
        seen += sum(len(b) for b in got)
        unseen += len(truth.markers) * len(got) - sum(len(b) for b in got)
    assert rngs[0][0].random() == rngs[1][0].random()
    assert rngs[0][1].random() == rngs[1][1].random()
    assert seen > 0
    assert unseen > 0 or name == "omni"
