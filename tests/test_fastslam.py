import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setloc import fastslam as fs
from setloc import geom2d
from setloc.estimator import RigidBodySpec
from setloc.geom2d import AngleInterval, ConvexPolygon
from setloc.kinematics import Control, RobotModel, RobotPose, place_marker
from setloc.scenario import corner_marker_offsets
from setloc.sensing import (ANGLE_ONLY, ANGLE_RANGE, Measurement, SensorModel,
                            SensorPose, measure)

ROBOT = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8,
                   eps_v=0.1, eps_delta=math.radians(0.5))
OFFSETS = corner_marker_offsets(ROBOT)
SPEC = RigidBodySpec.from_offsets(OFFSETS)
SENSOR = SensorModel(ANGLE_RANGE, math.radians(1.0), 0.1, 2 * math.pi, 40.0)


def point_sets(pose, sensors):
    markers = [ConvexPolygon.from_points([place_marker(pose, o)])
               for o in OFFSETS]
    sxy = [ConvexPolygon.from_points([sp.xy]) for sp in sensors]
    sth = [AngleInterval(sp.theta, 0.0) for sp in sensors]
    return markers, sxy, sth


def test_init_point_sets_identical_particles():
    # identical up to the set of one point, the box of side 2 EPS_GEOM
    # about it
    pose = RobotPose(1.0, 2.0, 0.3)
    sensors = [SensorPose(0, 0, 0)]
    markers, sxy, sth = point_sets(pose, sensors)
    ps = fs.init_particles(markers, sxy, sth, 50, np.random.default_rng(0))
    assert np.ptp(ps.markers, axis=0).max() <= 2.0 * geom2d.EPS_GEOM + 1e-15
    assert np.ptp(ps.sensor_xy, axis=0).max() <= 2.0 * geom2d.EPS_GEOM + 1e-15
    for k in range(50):
        for j, poly in enumerate(markers):
            assert geom2d.contains(poly, tuple(ps.markers[k, j]), tol=0.0)


def test_init_uniform_statistics():
    box = ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)
    ps = fs.init_particles([box], [ConvexPolygon.from_points([(0, 0)])],
                           [AngleInterval(0, 0)], 100,
                           np.random.default_rng(1))
    mean = ps.markers[:, 0, :].mean(axis=0)
    # empirical mean within 3 sigma of the box center
    sigma = math.sqrt(1.0 / 12.0) / math.sqrt(100)
    assert abs(mean[0] - 0.5) < 3 * sigma
    assert abs(mean[1] - 0.5) < 3 * sigma


def test_init_deterministic_under_seed():
    box = ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)
    a = fs.init_particles([box], [box], [AngleInterval(0, 0.1)], 30,
                          np.random.default_rng(7))
    b = fs.init_particles([box], [box], [AngleInterval(0, 0.1)], 30,
                          np.random.default_rng(7))
    assert np.array_equal(a.markers, b.markers)
    assert np.array_equal(a.sensor_theta, b.sensor_theta)


def test_weights_uniform_when_exact():
    pose = RobotPose(0.0, 0.0, 0.0)
    sensors = [SensorPose(10.0, 0.0, math.pi)]
    markers, sxy, sth = point_sets(pose, sensors)
    ps = fs.init_particles(markers, sxy, sth, 20, np.random.default_rng(2))
    batch = []
    for pt in [place_marker(pose, o) for o in OFFSETS]:
        m = measure(sensors[0], SENSOR, pt, 0.0, 0.0, sensor_id=0)
        batch.append(replace(m, slot=len(batch)))
    out = fs.weight_update(ps, [batch], (SENSOR,))
    assert out.weights == pytest.approx(np.full(20, 1 / 20))


def test_resample_preserves_count_and_mass():
    rng = np.random.default_rng(3)
    box = ConvexPolygon.box(0, 1, 0, 1)
    ps = fs.init_particles([box], [box], [AngleInterval(0, 0.1)], 64, rng)
    ps = replace(ps, weights=rng.dirichlet(np.ones(64)))
    out = fs.resample(ps, rng)
    assert out.size == 64
    assert out.weights.sum() == pytest.approx(1.0)
    assert np.ptp(out.weights) == 0.0


def test_single_particle_tracks_truth_exactly():
    # zero noise bounds: the lone particle's markers must follow the
    # closed-form marker step bit for bit
    from setloc.kinematics import marker_step
    pose = RobotPose(0.0, 0.0, 0.0)
    sensors = [SensorPose(15.0, 0.0, math.pi), SensorPose(0.0, 15.0, -1.0)]
    robot = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8)
    markers, sxy, sth = point_sets(pose, sensors)
    ps = fs.init_particles(markers, sxy, sth, 1, np.random.default_rng(4))
    truth = [tuple(ps.markers[0, j]) for j in range(4)]
    rng = np.random.default_rng(5)
    for _ in range(40):
        u = Control(0.4, 0.1)
        heading = fs._particle_headings(ps.markers, SPEC)[0]
        truth = [marker_step(p, u, (0.0, 0.0, (0.0, 0.0)), heading, off, robot)
                 for p, off in zip(truth, OFFSETS)]
        ps = fs.predict(ps, u, robot, OFFSETS, SPEC, rng)
        for j in range(4):
            assert ps.markers[0, j, 0] == pytest.approx(truth[j][0], abs=1e-9)
            assert ps.markers[0, j, 1] == pytest.approx(truth[j][1], abs=1e-9)
    h = fs.heading_interval_particles(ps, SPEC)
    assert h.width < 1e-9


def test_heading_interval_after_resampling_matches_every_particle():
    # resampling leaves many copies of few particles; the interval over the
    # distinct headings must equal the one over every particle's heading
    rng = np.random.default_rng(12)
    pose = RobotPose(5.0, 5.0, 3.0)
    boxes = [geom2d.translate(ConvexPolygon.box(-0.5, 0.5, -0.5, 0.5),
                              *place_marker(pose, o)) for o in OFFSETS]
    ps = fs.init_particles(boxes, [ConvexPolygon.from_points([(0, 0)])],
                           [AngleInterval(0, 0)], 100, rng)
    ps = fs.resample(replace(ps, weights=rng.dirichlet(np.full(100, 0.1))), rng)
    headings = fs._particle_headings(ps.markers, SPEC)
    assert len(set(headings.tolist())) < 50
    every = geom2d.enclose_angles([AngleInterval(h, 0.0) for h in headings])
    assert fs.heading_interval_particles(ps, SPEC) == every


def test_particle_hull_area_band_at_start():
    # hull of 100 particles sampled from the initial boxes lands in a
    # predictable band relative to the hull of the boxes themselves
    pose = RobotPose(5.0, 5.0, 0.2)
    boxes = [geom2d.translate(ConvexPolygon.box(-0.5, 0.5, -0.5, 0.5),
                              *place_marker(pose, o)) for o in OFFSETS]
    outer = geom2d.convex_hull(boxes)
    ps = fs.init_particles(boxes, [ConvexPolygon.from_points([(0, 0)])],
                           [AngleInterval(0, 0)], 100,
                           np.random.default_rng(11))
    hull = fs.estimate_body_particles(ps)
    assert geom2d.contains_polygon(outer, hull)
    assert geom2d.area(hull) >= 0.5 * geom2d.area(outer)


def test_estimate_body_particles_hull():
    pose = RobotPose(2.0, 1.0, 0.7)
    sensors = [SensorPose(0, 0, 0)]
    markers, sxy, sth = point_sets(pose, sensors)
    ps = fs.init_particles(markers, sxy, sth, 1, np.random.default_rng(6))
    body = fs.estimate_body_particles(ps)
    truth = ConvexPolygon.from_points([place_marker(pose, o)
                                       for o in OFFSETS])
    # each particle's marker is drawn within the box of half-side EPS_GEOM
    # about the true one, at most sqrt(2) EPS_GEOM from it
    tol = 2.0 * geom2d.EPS_GEOM
    assert geom2d.contains_polygon(body, truth, tol=tol)
    assert geom2d.contains_polygon(truth, body, tol=tol)


# coordinates where the particle hull's sort and deduplication decide:
# signed zeros (equal, and the first of them stays) and near-equal values
_HULL_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-10, -1e-10, 3.0]),
    st.floats(-20.0, 20.0, allow_subnormal=False))
_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -2.0), (-0.5, 3.0)]


@st.composite
def _particle_clouds(draw):
    """(S, n, 2) marker arrays: free points, or every point on one line
    exactly (integer steps along a direction, -0.0 among them), then
    perhaps resampled so that particles repeat."""
    s, n = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        ux, uy = draw(st.sampled_from(_DIRECTIONS))
        t = np.array(draw(st.lists(st.integers(-5, 5), min_size=s * n,
                                   max_size=s * n)), dtype=float)
        markers = np.stack([t * ux, t * uy], axis=-1).reshape(s, n, 2)
    else:
        markers = np.array(draw(st.lists(
            _HULL_COORDS, min_size=2 * s * n, max_size=2 * s * n))
        ).reshape(s, n, 2)
    if draw(st.booleans()):
        markers = markers[draw(st.lists(st.integers(0, s - 1), min_size=s,
                                        max_size=s))]
    return markers


@settings(max_examples=600, deadline=None)
@given(_particle_clouds())
# one particle whose four markers are a canonical ring as listed, or one
# once rotated: from_points takes its canonical walk
@example(np.array([[[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]]))
@example(np.array([[[2.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [2.0, 0.0]]]))
@example(np.array([[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 2.0]]]))
def test_particle_hull_is_the_hull_of_every_marker_point(markers):
    s = markers.shape[0]
    ps = fs.ParticleSet(np.zeros((s, 1, 2)), np.zeros((s, 1)), markers,
                        np.full(s, 1.0 / s))
    got = fs.estimate_body_particles(ps)
    want = ConvexPolygon.from_points(markers.reshape(-1, 2).tolist())
    # repr tells -0.0 from 0.0
    assert repr(got.vertices) == repr(want.vertices)


def test_kept_headings_are_the_headings_of_the_markers():
    rng = np.random.default_rng(21)
    pose = RobotPose(5.0, 5.0, 3.0)
    sensors = [SensorPose(15.0, 5.0, math.pi)]
    boxes = [geom2d.translate(ConvexPolygon.box(-0.5, 0.5, -0.5, 0.5),
                              *place_marker(pose, o)) for o in OFFSETS]
    ps = fs.init_particles(boxes, [ConvexPolygon.from_points([sensors[0].xy])],
                           [AngleInterval(math.pi, 0.0)], 64, rng)
    batch = []
    for pt in [place_marker(pose, o) for o in OFFSETS]:
        m = measure(sensors[0], SENSOR, pt, 0.0, 0.0, sensor_id=0)
        batch.append(replace(m, slot=len(batch)))

    def kept(ps):
        got = fs.particle_headings(ps, SPEC)
        want = fs._particle_headings(ps.markers, SPEC)
        return np.array_equal(got.view(np.int64), want.view(np.int64))

    computed = mock.Mock(wraps=fs._particle_headings)
    for step in range(4):
        with mock.patch.object(fs, "_particle_headings", computed):
            ps = fs.predict(ps, Control(0.4, 0.1), ROBOT, OFFSETS, SPEC, rng)
            ps = fs.resample(fs.weight_update(ps, [batch], (SENSOR,)), rng)
            fs.heading_interval_particles(ps, SPEC)
        # once a step: the heading interval's headings serve the next
        # predict (the first predict reads a set that has none yet)
        assert computed.call_count == step + 2
        assert kept(ps)
    assert kept(fs.predict(ps, Control(0.4, 0.1), ROBOT, OFFSETS, SPEC, rng))
    assert kept(fs.weight_update(ps, [batch], (SENSOR,)))
    # a set with other markers starts afresh, and the filter's markers
    # cannot be edited in place under the headings kept for them
    mirrored = replace(ps, markers=ps.markers * np.array([1.0, -1.0]))
    assert kept(mirrored)
    with pytest.raises(ValueError):
        ps.markers[0, 0, 0] = 0.0


def test_unexplainable_measurement_skipped():
    pose = RobotPose(0.0, 0.0, 0.0)
    sensors = [SensorPose(10.0, 0.0, math.pi)]
    markers, sxy, sth = point_sets(pose, sensors)
    ps = fs.init_particles(markers, sxy, sth, 10, np.random.default_rng(8))
    # a bearing no particle can explain carries no information: weights stay
    bogus = Measurement(math.pi / 2, 30.0, 0, 0)
    out = fs.weight_update(ps, [[bogus]], (SENSOR,))
    assert out.degenerate_resets == 0
    assert out.weights == pytest.approx(np.full(10, 0.1))


def test_degenerate_weights_reset_counted():
    # each measurement is explainable by some particle, but no particle
    # explains both: the whole set dies and resets to uniform
    sensor = SensorPose(0.0, 0.0, 0.0)
    ps = fs.init_particles([ConvexPolygon.from_points([(10.0, 0.0)])],
                           [ConvexPolygon.from_points([(0.0, 0.0)])],
                           [AngleInterval(0.0, 0.0)], 2,
                           np.random.default_rng(9))
    markers = ps.markers.copy()
    markers[1, 0] = (0.0, 10.0)
    ps = replace(ps, markers=markers)
    batch = [Measurement(0.0, 10.0, 0, 0), Measurement(math.pi / 2, 10.0, 0, 1)]
    out = fs.weight_update(ps, [batch], (SENSOR,))
    assert out.degenerate_resets == 1
    assert out.weights == pytest.approx(np.full(2, 0.5))


# ---------------------------------------------------------------------------
# the batched weight update against the per-measurement loop
# ---------------------------------------------------------------------------

TRUNCATION_GATE = fs.TRUNCATION_GATE


def _weight_update_loop(ps, batches, models):
    """The per-measurement weight update that the batched one replaced,
    copied verbatim (name aside)."""
    s = ps.size
    log_w = np.log(np.maximum(ps.weights, 1e-300))
    for i, batch in enumerate(batches):
        if not batch:
            continue
        model = models[i]
        sx = ps.sensor_xy[:, i, 0][:, None]
        sy = ps.sensor_xy[:, i, 1][:, None]
        st = ps.sensor_theta[:, i][:, None]
        dx = ps.markers[:, :, 0] - sx
        dy = ps.markers[:, :, 1] - sy
        pred_bearing = np.arctan2(dy, dx) - st
        pred_range = np.hypot(dx, dy)
        sig_a = model.eps_bearing / 3.0
        sig_r = model.eps_range / 3.0
        for meas in batch:
            da = np.abs(np.remainder(pred_bearing - meas.bearing + np.pi,
                                     2.0 * np.pi) - np.pi)
            ll = np.where(da <= TRUNCATION_GATE * model.eps_bearing,
                          -0.5 * (da / max(sig_a, 1e-12)) ** 2, -np.inf)
            if model.kind == ANGLE_RANGE and meas.range is not None:
                dr = np.abs(pred_range - meas.range)
                ll = ll + np.where(dr <= TRUNCATION_GATE * model.eps_range,
                                   -0.5 * (dr / max(sig_r, 1e-12)) ** 2, -np.inf)
            best = ll.max(axis=1)        # nearest-feasible association
            if np.all(np.isinf(best)):
                continue
            log_w += best
    resets = ps.degenerate_resets
    if np.all(np.isinf(log_w)) or np.all(np.isnan(log_w)):
        weights = np.full(s, 1.0 / s)
        resets += 1
    else:
        log_w -= log_w[np.isfinite(log_w)].max(initial=-np.inf)
        weights = np.exp(log_w)
        total = weights.sum()
        if total <= 0.0 or not np.isfinite(total):
            weights = np.full(s, 1.0 / s)
            resets += 1
        else:
            weights = weights / total
    return replace(ps, weights=weights, degenerate_resets=resets)


# angles where wrapping decides: both ends of [-pi, pi], the float next to
# them, and beyond a full turn either way
_EDGE_ANGLES = [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                math.nextafter(-math.pi, 0.0), 2.0 * math.pi, -2.0 * math.pi,
                2.0 * math.pi + 0.3, -2.0 * math.pi - 1.1, 7.5, -9.0, 0.0]


_ANGLES = st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(-10.0, 10.0))


@st.composite
def _weigh_cases(draw):
    s = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    coords = st.floats(-15.0, 15.0)
    markers = np.array(draw(st.lists(coords, min_size=2 * s * n,
                                     max_size=2 * s * n))).reshape(s, n, 2)
    sensor_xy = np.array(draw(st.lists(coords, min_size=2 * s * m,
                                       max_size=2 * s * m))).reshape(s, m, 2)
    sensor_theta = np.array(draw(st.lists(_ANGLES, min_size=s * m,
                                          max_size=s * m))).reshape(s, m)
    raw_w = draw(st.lists(st.sampled_from([0.0, 1e-320, 0.5, 1.0, 3.0]),
                          min_size=s, max_size=s))
    weights = np.array(raw_w) / max(sum(raw_w), 1.0)
    ps = fs.ParticleSet(sensor_xy, sensor_theta, markers, weights,
                        draw(st.integers(0, 2)))
    noise = st.sampled_from([0.0, 1e-3, math.radians(1.0), 0.2])
    models = tuple(SensorModel(draw(st.sampled_from([ANGLE_ONLY, ANGLE_RANGE])),
                               draw(noise), draw(noise)) for _ in range(m))
    batches = []
    for i in range(m):
        batch = []
        for slot in range(draw(st.integers(0, 4))):
            # mostly near what one particle predicts for one marker, so
            # measurements pass the gates of some particles and not others
            p, j = draw(st.integers(0, s - 1)), draw(st.integers(0, n - 1))
            dx, dy = markers[p, j] - sensor_xy[p, i]
            near = math.atan2(dy, dx) - sensor_theta[p, i]
            bearing = draw(st.one_of(
                st.sampled_from([near, near + 2.0 * math.pi, near - 4.0 * math.pi]),
                st.builds(lambda d: near + d, st.floats(-0.05, 0.05)),
                _ANGLES))
            rng = draw(st.one_of(
                st.none(), st.floats(0.0, 30.0),
                st.builds(lambda d: max(0.0, math.hypot(dx, dy) + d),
                          st.floats(-0.3, 0.3))))
            batch.append(Measurement(bearing, rng, i, slot))
        batches.append(batch)
    budget = draw(st.integers(1, 3 * s * n))
    return ps, batches, models, budget


def _one_sensor_case(markers, readings, budget=64):
    """Particles with the given (S, n, 2) markers and one sensor at the
    origin facing along x; one measurement per (bearing, range) reading,
    with bearing noise 0.01 and range noise 0.1 (gates 0.1 and 1.0)."""
    markers = np.array(markers, dtype=float)
    s = markers.shape[0]
    ps = fs.ParticleSet(np.zeros((s, 1, 2)), np.zeros((s, 1)), markers,
                        np.full(s, 1.0 / s))
    batch = [Measurement(b, r, 0, k) for k, (b, r) in enumerate(readings)]
    return ps, [batch], (SensorModel(ANGLE_RANGE, 0.01, 0.1),), budget


# two particles predicting bearing 0 and ranges 10 and 10.5 exactly.
# Bearings a few ulps either side of the gate, counted in ulps of the gate
# and of pi (the computed gap is a few ulps of pi off the reading); ranges a
# few ulps either side of each particle's range plus or minus the gate,
# where its likelihood is cut off and, at the outer two, the gate drops
_GATE_A, _GATE_R = TRUNCATION_GATE * 0.01, TRUNCATION_GATE * 0.1
_AT_THE_GATES = _one_sensor_case(
    [[[10.0, 0.0]], [[10.5, 0.0]]],
    [(sign * (_GATE_A + k * ulp), 10.0)
     for sign in (1.0, -1.0) for k in (-2, -1, 0, 1, 2)
     for ulp in (math.ulp(_GATE_A), math.ulp(math.pi))]
    + [(0.0, r + k * math.ulp(r))
       for r in (10.0 - _GATE_R, 10.5 - _GATE_R, 10.0 + _GATE_R, 10.5 + _GATE_R)
       for k in (-2, -1, 0, 1, 2)])


@settings(max_examples=600, deadline=None)
@given(_weigh_cases())
@example((fs.ParticleSet(np.zeros((1, 1, 2)), np.zeros((1, 1)),
                         np.array([[[10.0, 0.0]]]), np.ones(1)),
          [[Measurement(math.pi, None, 0, 0), Measurement(0.0, 10.0, 0, 1)]],
          (SensorModel(ANGLE_RANGE, 0.01, 0.1),), 1))
@example(_AT_THE_GATES)
# predicted bearings either side of +-pi: least and greatest are almost a
# full turn apart, though every particle's is within 0.001 of the turn
@example(_one_sensor_case([[[-10.0, 0.01]], [[-10.0, -0.01]], [[-10.0, 0.0]]],
                          [(math.pi, 10.0), (-math.pi + 0.05, 10.0),
                           (3.0, 10.0), (0.0, 10.0)]))
# one pair per pass, and a measurement two markers both explain
@example(_one_sensor_case([[[10.0, 0.0], [10.0, 0.2]], [[10.0, 0.1], [9.0, 0.0]]],
                          [(0.01, 10.0), (0.0, 9.5), (0.02, None)], budget=1))
def test_weight_update_is_the_per_measurement_loop(case):
    ps, batches, models, budget = case
    with mock.patch.object(fs, "BUDGET", budget):
        got = fs.weight_update(ps, batches, models)
    want = _weight_update_loop(ps, batches, models)
    assert np.array_equal(got.weights.view(np.int64),
                          want.weights.view(np.int64))
    assert got.degenerate_resets == want.degenerate_resets
    assert got.markers is ps.markers and got.sensor_xy is ps.sensor_xy


def test_weight_update_resets_a_set_that_all_measurements_kill():
    # two particles, each explaining a different one of two measurements,
    # weighed one measurement per chunk: the chunks together kill both
    ps = fs.ParticleSet(np.zeros((2, 1, 2)), np.zeros((2, 1)),
                        np.array([[[10.0, 0.0]], [[0.0, 10.0]]]),
                        np.full(2, 0.5))
    batch = [Measurement(0.0, 10.0, 0, 0), Measurement(math.pi / 2, 10.0, 0, 1)]
    with mock.patch.object(fs, "BUDGET", 1):
        got = fs.weight_update(ps, [batch], (SENSOR,))
    assert got.degenerate_resets == 1
    assert _weight_update_loop(ps, [batch], (SENSOR,)).degenerate_resets == 1


def _every_log_likelihood(pred_bearing, pred_range, table):
    """(markers, measurements, particles) log-likelihoods of every pair,
    formed as the weight update formed them before the pair gate."""
    col = table[:, 0].astype(np.intp)
    bearing, gate_a, sig_a, rng, gate_r, sig_r, miss_r = \
        (table[:, k, None] for k in range(1, 8))
    da = fs._angle_gap(pred_bearing.take(col, axis=1), bearing)
    ll = np.where(da <= gate_a, -0.5 * (da / sig_a) ** 2, -np.inf)
    dr = np.abs(pred_range.take(col, axis=1) - rng)
    ll += np.where(dr <= gate_r, -0.5 * (dr / sig_r) ** 2, miss_r)
    return ll


@settings(max_examples=600, deadline=None)
@given(_weigh_cases())
@example(_AT_THE_GATES)
def test_a_pair_the_gate_drops_is_minus_inf_for_every_particle(case):
    ps, batches, models, _ = case
    seen = [i for i, batch in enumerate(batches) if batch]
    if not seen:
        return
    pred_bearing, pred_range = fs._predictions(ps, seen)
    table = fs._measurement_table(batches, models, seen)
    live = fs._live_pairs(pred_bearing, pred_range, table)
    assert live.shape == (len(table), ps.markers.shape[1])
    ll = _every_log_likelihood(pred_bearing, pred_range, table)
    assert np.isneginf(ll[~live.T]).all()


@settings(max_examples=300, deadline=None)
@given(_weigh_cases())
@example(_AT_THE_GATES)
def test_each_pass_takes_the_most_whole_measurements_within_the_budget(case):
    ps, batches, models, budget = case
    passes = []
    real = fs._max_per_measurement

    def spy(ll, bounds):
        assert bounds[0] == 0 and len(ll) == bounds[-1]
        passes.append(np.diff(bounds).tolist())
        return real(ll, bounds)

    with mock.patch.object(fs, "BUDGET", budget), \
            mock.patch.object(fs, "_max_per_measurement", spy):
        fs.weight_update(ps, batches, models)
    seen = [i for i, batch in enumerate(batches) if batch]
    counts = []
    if seen:
        pred_bearing, pred_range = fs._predictions(ps, seen)
        live = fs._live_pairs(pred_bearing, pred_range,
                              fs._measurement_table(batches, models, seen))
        counts = [c for c in live.sum(axis=1).tolist() if c]
    # the passes take the measurements with live pairs, in order, each
    # whole; a pass of several stays within the budget, and each pass but
    # the last leaves out a next one only where it would not fit
    assert [c for p in passes for c in p] == counts
    cap = max(1, budget // ps.size)
    for p, after in zip(passes, passes[1:] + [None]):
        assert len(p) == 1 or sum(p) <= cap
        if after is not None:
            assert sum(p) + after[0] > cap
