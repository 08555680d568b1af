import math
from dataclasses import replace

import numpy as np
import pytest

from setloc import fastslam as fs
from setloc import geom2d
from setloc.estimator import RigidBodySpec
from setloc.geom2d import AngleInterval, ConvexPolygon
from setloc.kinematics import Control, RobotModel, RobotPose, place_marker
from setloc.scenario import corner_marker_offsets
from setloc.sensing import ANGLE_RANGE, Measurement, SensorModel, SensorPose, measure

ROBOT = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8,
                   eps_v=0.1, eps_delta=math.radians(0.5))
OFFSETS = corner_marker_offsets(ROBOT)
SPEC = RigidBodySpec.from_offsets(OFFSETS)
SENSOR = SensorModel(ANGLE_RANGE, math.radians(1.0), 0.1, 2 * math.pi, 40.0)


def point_sets(pose, sensors):
    markers = [ConvexPolygon.point(*place_marker(pose, o)) for o in OFFSETS]
    sxy = [ConvexPolygon.point(*sp.xy) for sp in sensors]
    sth = [AngleInterval(sp.theta, 0.0) for sp in sensors]
    return markers, sxy, sth


def test_init_point_sets_identical_particles():
    pose = RobotPose(1.0, 2.0, 0.3)
    sensors = [SensorPose(0, 0, 0)]
    markers, sxy, sth = point_sets(pose, sensors)
    ps = fs.init_particles(markers, sxy, sth, 50, np.random.default_rng(0))
    assert np.ptp(ps.markers, axis=0).max() == 0.0
    assert np.ptp(ps.sensor_xy, axis=0).max() == 0.0


def test_init_uniform_statistics():
    box = ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)
    ps = fs.init_particles([box], [ConvexPolygon.point(0, 0)],
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
    ps = fs.init_particles(boxes, [ConvexPolygon.point(0, 0)],
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
    ps = fs.init_particles(boxes, [ConvexPolygon.point(0, 0)],
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
    truth = geom2d.convex_hull([ConvexPolygon.point(*place_marker(pose, o))
                                for o in OFFSETS])
    assert geom2d.contains_polygon(body, truth, tol=1e-9)
    assert geom2d.contains_polygon(truth, body, tol=1e-9)


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
    ps = fs.init_particles([ConvexPolygon.point(10.0, 0.0)],
                           [ConvexPolygon.point(0.0, 0.0)],
                           [AngleInterval(0.0, 0.0)], 2,
                           np.random.default_rng(9))
    markers = ps.markers.copy()
    markers[1, 0] = (0.0, 10.0)
    ps = replace(ps, markers=markers)
    batch = [Measurement(0.0, 10.0, 0, 0), Measurement(math.pi / 2, 10.0, 0, 1)]
    out = fs.weight_update(ps, [batch], (SENSOR,))
    assert out.degenerate_resets == 1
    assert out.weights == pytest.approx(np.full(2, 0.5))
