import math
from dataclasses import replace

import numpy as np
import pytest

from setloc import estimator as est
from setloc import correspondence, geom2d, sensing
from setloc.correspondence import CapExceeded, InconsistentBatch
from setloc.estimator import (EmptySetFault, EstimatorModels,
                              RigidBodySpec, StepFault, estimate_heading,
                              make_state, propagate, propagate_omnidirectional,
                              refine_rigid_body, step, update)
from setloc.geom2d import AngleInterval, ConvexPolygon
from setloc.kinematics import (Control, MarkerOffset, RobotModel, RobotPose,
                               bicycle_step, place_marker)
from setloc.scenario import corner_marker_offsets
from setloc.sensing import (ANGLE_ONLY, ANGLE_RANGE, Measurement, SensorModel,
                            SensorPose, measure)

ROBOT = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8,
                   eps_v=0.1, eps_delta=math.radians(0.5))
OFFSETS = corner_marker_offsets(ROBOT)
SPEC = RigidBodySpec.from_offsets(OFFSETS)

EXACT_ROBOT = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0,
                         body_width=1.8)
PANORAMIC = SensorModel(ANGLE_RANGE, math.radians(1.0), 0.1, 2 * math.pi, 40.0)
EXACT_SENSOR = SensorModel(ANGLE_RANGE, 0.0, 0.0, 2 * math.pi, 100.0)


def point_state(pose, sensor_poses, spec=SPEC, offsets=OFFSETS):
    markers = [ConvexPolygon.from_points([place_marker(pose, o)])
               for o in offsets]
    sxy = [ConvexPolygon.from_points([sp.xy]) for sp in sensor_poses]
    sth = [AngleInterval(sp.theta, 0.0) for sp in sensor_poses]
    return make_state(markers, sxy, sth, spec)


def boxed_state(rng, pose, sensor_poses, marker_half, sensor_half, theta_half,
                spec=SPEC, offsets=OFFSETS):
    """Sets containing the truth at a uniformly random interior location."""
    def off_box(cx, cy, h):
        ox, oy = rng.uniform(-h, h, 2)
        return ConvexPolygon.box(cx - h + ox, cx + h + ox,
                                 cy - h + oy, cy + h + oy)
    markers = [off_box(*place_marker(pose, o), marker_half) for o in offsets]
    sxy = [off_box(sp.x, sp.y, sensor_half) for sp in sensor_poses]
    sth = [AngleInterval(sp.theta + rng.uniform(-theta_half, theta_half),
                         theta_half) for sp in sensor_poses]
    return make_state(markers, sxy, sth, spec)


def world_measurements(rng, pose, sensor_poses, models, offsets=OFFSETS):
    markers = [place_marker(pose, o) for o in offsets]
    batches = []
    for i, (sp, model) in enumerate(zip(sensor_poses, models)):
        batch = []
        for pt in markers:
            w_a = rng.uniform(-model.eps_bearing, model.eps_bearing)
            w_r = rng.uniform(-model.eps_range, model.eps_range)
            m = measure(sp, model, pt, w_a, w_r, sensor_id=i)
            if m is not None:
                batch.append(m)
        order = rng.permutation(len(batch))
        batches.append([replace(batch[q], slot=s)
                        for s, q in enumerate(order)])
    return batches


def assert_containment(state, pose, sensor_poses, offsets=OFFSETS):
    for j, off in enumerate(offsets):
        assert geom2d.contains(state.markers[j], place_marker(pose, off)), \
            f"marker {j} escaped"
    for i, sp in enumerate(sensor_poses):
        assert geom2d.contains(state.sensor_xy[i], sp.xy), f"sensor {i} escaped"
        assert state.sensor_theta[i].contains(sp.theta), \
            f"sensor {i} orientation escaped"
    assert state.heading.contains(pose.theta)
    assert geom2d.contains_polygon(state.body, ConvexPolygon.from_points(
        [place_marker(pose, o) for o in offsets]))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_stationary_exact_unchanged():
    pose = RobotPose(3.0, 2.0, 0.4)
    sensors = [SensorPose(0.0, 0.0, 0.0)]
    state = point_state(pose, sensors)
    models = EstimatorModels(EXACT_ROBOT, OFFSETS, (EXACT_SENSOR,))
    out = propagate(state, Control(0.0, 0.0), models)
    assert out.markers == state.markers


def test_propagate_straight_translation():
    pose = RobotPose(0.0, 0.0, 0.3)
    sensors = [SensorPose(0.0, 0.0, 0.0)]
    markers = [geom2d.translate(ConvexPolygon.box(-0.1, 0.1, -0.1, 0.1),
                                *place_marker(pose, o)) for o in OFFSETS]
    state = make_state(markers, [ConvexPolygon.from_points([(0, 0)])],
                       [AngleInterval(0.0, 0.0)], None)
    state = replace(state, heading=AngleInterval(0.3, 0.0))
    models = EstimatorModels(EXACT_ROBOT, OFFSETS, (EXACT_SENSOR,))
    out = propagate(state, Control(1.0, 0.0), models)
    dx = 0.5 * math.cos(0.3)
    dy = 0.5 * math.sin(0.3)
    for before, after in zip(state.markers, out.markers):
        expect = geom2d.translate(before, dx, dy)
        assert geom2d.contains_polygon(after, expect, tol=1e-9)
        # a displacement interval a few ulps wide is widened to 2 EPS_GEOM
        # (ConvexPolygon.box): each side moves out by EPS_GEOM and an ulp
        assert geom2d.contains_polygon(expect, after,
                                       tol=geom2d.EPS_GEOM + 1e-15)


def test_propagate_area_monotone():
    rng = np.random.default_rng(77)
    models = EstimatorModels(ROBOT, OFFSETS,
                             (PANORAMIC,))
    for _ in range(1000):
        pose = RobotPose(rng.uniform(-5, 5), rng.uniform(-5, 5),
                         rng.uniform(-math.pi, math.pi))
        state = boxed_state(rng, pose, [SensorPose(0, 0, 0)],
                            rng.uniform(0.05, 0.6), 0.05,
                            rng.uniform(0.0, 0.1))
        u = Control(rng.uniform(-1, 2), rng.uniform(-0.6, 0.6))
        out = propagate(state, u, models)
        for before, after in zip(state.markers, out.markers):
            assert geom2d.area(after) >= geom2d.area(before) - 1e-12


# ---------------------------------------------------------------------------
# measurement update
# ---------------------------------------------------------------------------

def test_update_exact_fixed_point():
    pose = RobotPose(5.0, 3.0, 0.7)
    sensors = [SensorPose(0.0, 0.0, 0.2), SensorPose(10.0, 0.0, 2.0)]
    state = point_state(pose, sensors)
    models = EstimatorModels(EXACT_ROBOT, OFFSETS,
                             (EXACT_SENSOR, EXACT_SENSOR))
    rng = np.random.default_rng(1)
    batches = world_measurements(rng, pose, sensors,
                                 (EXACT_SENSOR, EXACT_SENSOR))
    out = update(state, batches, models)
    for got, off in zip(out.markers, OFFSETS):
        assert geom2d.contains(got, place_marker(pose, off), tol=1e-9)
        assert geom2d.area(got) < 1e-15
    for i in range(2):
        assert geom2d.contains(out.sensor_xy[i], sensors[i].xy, tol=1e-9)
        assert out.sensor_theta[i].contains(sensors[i].theta, tol=1e-9)
        assert out.sensor_theta[i].width <= 1e-9


def test_update_contracts():
    rng = np.random.default_rng(5)
    mono = SensorModel(ANGLE_ONLY, math.radians(1.0), 0.0, 2 * math.pi, 40.0)
    models = EstimatorModels(ROBOT, OFFSETS, (mono,))
    for _ in range(50):
        pose = RobotPose(rng.uniform(-3, 3), rng.uniform(-3, 3),
                         rng.uniform(-math.pi, math.pi))
        sensors = [SensorPose(rng.uniform(8, 12), rng.uniform(-4, 4),
                              rng.uniform(-math.pi, math.pi))]
        state = boxed_state(rng, pose, sensors, 0.4, 0.2, 0.05)
        batches = world_measurements(rng, pose, sensors, (mono,))
        batches[0] = batches[0][:1]
        if not batches[0]:
            continue
        out = update(state, batches, models)
        for got, want in zip(out.markers, state.markers):
            assert geom2d.contains_polygon(want, got)
        for i in range(1):
            assert geom2d.contains_polygon(state.sensor_xy[i],
                                           out.sensor_xy[i])
            assert out.sensor_theta[i].width <= state.sensor_theta[i].width + 1e-12
        assert_containment(out, pose, sensors)


def test_update_monte_carlo_containment():
    # the pointwise core of the containment proof, 1000 randomized steps
    rng = np.random.default_rng(42)
    models = EstimatorModels(ROBOT, OFFSETS, (PANORAMIC, PANORAMIC))
    faults = 0
    for trial in range(1000):
        pose = RobotPose(rng.uniform(-3, 3), rng.uniform(-3, 3),
                         rng.uniform(-math.pi, math.pi))
        sensors = [SensorPose(rng.uniform(6, 14), rng.uniform(-8, 8),
                              rng.uniform(-math.pi, math.pi)),
                   SensorPose(rng.uniform(-14, -6), rng.uniform(-8, 8),
                              rng.uniform(-math.pi, math.pi))]
        state = boxed_state(rng, pose, sensors,
                            rng.uniform(0.1, 0.5), rng.uniform(0.03, 0.15),
                            rng.uniform(0.005, 0.08))
        u = Control(rng.uniform(-1.0, 2.0), rng.uniform(-0.5, 0.5))
        w_v = rng.uniform(-ROBOT.eps_v, ROBOT.eps_v)
        w_d = rng.uniform(-ROBOT.eps_delta, ROBOT.eps_delta)
        pose = bicycle_step(pose, u, w_v, w_d, ROBOT)
        batches = world_measurements(rng, pose, sensors,
                                     (PANORAMIC, PANORAMIC))
        new_state = step(state, u, batches, models)
        assert_containment(new_state, pose, sensors)
        assert new_state.k == state.k + 1
    assert faults == 0


def test_update_order_insensitive_soundness():
    rng = np.random.default_rng(6)
    models_fwd = EstimatorModels(ROBOT, OFFSETS, (PANORAMIC, PANORAMIC))
    for _ in range(40):
        pose = RobotPose(rng.uniform(-2, 2), rng.uniform(-2, 2),
                         rng.uniform(-math.pi, math.pi))
        sensors = [SensorPose(8.0, rng.uniform(-4, 4), 0.0),
                   SensorPose(-8.0, rng.uniform(-4, 4), 1.0)]
        state = boxed_state(rng, pose, sensors, 0.3, 0.1, 0.03)
        batches = world_measurements(rng, pose, sensors,
                                     (PANORAMIC, PANORAMIC))
        out_fwd = update(state, batches, models_fwd)
        assert_containment(out_fwd, pose, sensors)
        # relabel the sensors in reverse order: soundness must not care
        state_rev = make_state(state.markers, state.sensor_xy[::-1],
                               state.sensor_theta[::-1], SPEC)
        out_rev = update(state_rev, batches[::-1], models_fwd)
        assert_containment(out_rev, pose, sensors[::-1])


# ---------------------------------------------------------------------------
# rigid-body refinement
# ---------------------------------------------------------------------------

def test_refine_exact_points_idempotent():
    pose = RobotPose(1.0, 2.0, 0.5)
    state = point_state(pose, [SensorPose(0, 0, 0)])
    out = refine_rigid_body(state, SPEC)
    for got, want in zip(out.markers, state.markers):
        assert geom2d.contains(got, want.vertices[0], tol=1e-9)
        assert geom2d.area(got) <= 1e-15


def test_refine_shrinks_huge_set():
    pose = RobotPose(0.0, 0.0, 0.0)
    markers = [ConvexPolygon.from_points([place_marker(pose, o)])
               for o in OFFSETS]
    markers[0] = ConvexPolygon.box(-50, 50, -50, 50)
    state = make_state(markers, [ConvexPolygon.from_points([(100, 0)])],
                       [AngleInterval(0, 0)], None)
    out = refine_rigid_body(state, SPEC)
    r01 = SPEC.distances[0][1]
    allowed = geom2d.minkowski_sum(markers[1],
                                   geom2d.ball_outer_polygon(r01))
    assert geom2d.contains_polygon(allowed, out.markers[0], tol=1e-9)
    assert geom2d.contains(out.markers[0], place_marker(pose, OFFSETS[0]))


def test_refine_containment_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        pose = RobotPose(rng.uniform(-3, 3), rng.uniform(-3, 3),
                         rng.uniform(-math.pi, math.pi))
        state = boxed_state(rng, pose, [SensorPose(0, 0, 0)],
                            rng.uniform(0.05, 1.0), 0.05, 0.02)
        out = refine_rigid_body(state, SPEC)
        for j, off in enumerate(OFFSETS):
            assert geom2d.contains(out.markers[j], place_marker(pose, off))
            assert geom2d.contains_polygon(state.markers[j], out.markers[j])


# ---------------------------------------------------------------------------
# body and heading reconstruction
# ---------------------------------------------------------------------------

def test_estimates_exact_points():
    pose = RobotPose(2.0, -1.0, 1.1)
    state = point_state(pose, [SensorPose(0, 0, 0)])
    body = state.body
    truth = geom2d.convex_hull([
        ConvexPolygon.from_points([place_marker(pose, o)]) for o in OFFSETS])
    assert geom2d.contains_polygon(body, truth, tol=1e-9)
    assert geom2d.contains_polygon(truth, body, tol=1e-9)
    heading = estimate_heading(state, SPEC)
    assert heading.contains(pose.theta, tol=1e-9)
    assert heading.width <= 1e-9


def test_estimates_inflated_boxes():
    rng = np.random.default_rng(12)
    pose = RobotPose(0.0, 0.0, 0.9)
    markers = [geom2d.translate(ConvexPolygon.box(-0.1, 0.1, -0.1, 0.1),
                                *place_marker(pose, o)) for o in OFFSETS]
    state = make_state(markers, [ConvexPolygon.from_points([(0, 0)])],
                       [AngleInterval(0, 0)], SPEC)
    body = state.body
    for j in range(4):
        assert geom2d.contains_polygon(body, state.markers[j])
    heading = estimate_heading(state, SPEC)
    assert heading.width > 0.0
    assert heading.contains(pose.theta)
    # heading interval covers samples consistent with the rigid layout
    for _ in range(200):
        th = rng.uniform(heading.lo, heading.hi)
        assert heading.contains(th)


# ---------------------------------------------------------------------------
# full step
# ---------------------------------------------------------------------------

def test_step_zero_noise_straight_regression():
    pose = RobotPose(0.0, 0.0, 0.0)
    sensors = [SensorPose(20.0, -5.0, math.pi), SensorPose(20.0, 5.0, math.pi),
               SensorPose(40.0, 0.0, math.pi)]
    models = EstimatorModels(EXACT_ROBOT, OFFSETS,
                             (EXACT_SENSOR,) * 3)
    state = point_state(pose, sensors)
    rng = np.random.default_rng(2)
    for k in range(150):
        u = Control(0.25, 0.0)
        pose = bicycle_step(pose, u, 0.0, 0.0, EXACT_ROBOT)
        batches = world_measurements(rng, pose, sensors, (EXACT_SENSOR,) * 3)
        state = step(state, u, batches, models)
        for j, off in enumerate(OFFSETS):
            truth = place_marker(pose, off)
            vx, vy = state.markers[j].vertices[0]
            assert math.hypot(vx - truth[0], vy - truth[1]) < 1e-6
            assert geom2d.area(state.markers[j]) < 1e-10
        assert state.heading.contains(pose.theta, tol=1e-6)
        assert state.heading.width < 1e-6
    assert state.k == 150


def test_step_fallback_returns_prediction():
    # a step that cannot use its measurements raises StepFault carrying the
    # step's prediction, the bound a fallback policy keeps
    pose = RobotPose(0.0, 0.0, 0.0)
    sensors = [SensorPose(10.0, 0.0, math.pi)]
    models = EstimatorModels(ROBOT, OFFSETS, (PANORAMIC,))
    state = boxed_state(np.random.default_rng(3), pose, sensors,
                        0.2, 0.05, 0.02)
    u = Control(0.0, 0.0)
    predicted = replace(propagate(state, u, models), k=state.k + 1)
    # an impossible measurement batch: bearing pointing away from every marker
    bogus = [[Measurement(math.pi, 5.0, 0, 0)]]
    with pytest.raises(StepFault) as info:
        step(state, u, bogus, models)
    assert isinstance(info.value.cause, (EmptySetFault, InconsistentBatch))
    assert info.value.predicted == predicted
    # marker sets that each cover every marker make all 4! assignments
    # consistent, so a cap of one (CapExceeded) raises the same fault
    big = ConvexPolygon.box(-4.0, 4.0, -4.0, 4.0)
    state = make_state([big] * 4, [ConvexPolygon.from_points([sensors[0].xy])],
                       [AngleInterval(sensors[0].theta, 0.0)], SPEC)
    batches = world_measurements(np.random.default_rng(4), pose, sensors,
                                 (PANORAMIC,))
    capped = EstimatorModels(ROBOT, OFFSETS, (PANORAMIC,), assignment_cap=1)
    with pytest.raises(StepFault) as info:
        step(state, u, batches, capped)
    assert isinstance(info.value.cause, CapExceeded)
    assert info.value.predicted.k == state.k + 1


def test_marker_fault_names_the_sensor_that_empties_the_set():
    # three sensors about one marker set each read a range that meets the
    # set alone; sensors 0 and 2 see the marker 0.5 m right of the set's
    # middle, sensor 1 sees it 0.5 m left, which misses what sensor 0 left.
    # The marker phase clips once, after every sensor, and the fault still
    # names the first sensor whose lines empty the set
    model = SensorModel(ANGLE_RANGE, 0.001, 0.01, 2 * math.pi, 40.0)
    sensors = [SensorPose(-10.0, 0.0, 0.0), SensorPose(10.0, 0.0, math.pi),
               SensorPose(0.5, -10.0, 0.5 * math.pi)]
    models = EstimatorModels(EXACT_ROBOT, (MarkerOffset(0.0, 0.0),),
                             (model,) * 3, omni_v_max=0.0)
    state = make_state(
        [ConvexPolygon.box(-1.0, 1.0, -1.0, 1.0)],
        [ConvexPolygon.from_points([sp.xy]) for sp in sensors],
        [AngleInterval(sp.theta, 0.0) for sp in sensors], None)
    batches = [[Measurement(0.0, r, i, 0)]
               for i, r in enumerate((10.5, 10.5, 10.0))]
    for i in range(3):
        alone = [b if k == i else [] for k, b in enumerate(batches)]
        assert geom2d.area(step(state, None, alone, models).markers[0]) < 0.01
    with pytest.raises(StepFault) as info:
        step(state, None, batches, models)
    cause = info.value.cause
    assert isinstance(cause, EmptySetFault)
    assert (cause.what, cause.sensor, cause.marker) == ("marker update", 1, 0)


def test_propagate_omnidirectional():
    p = ConvexPolygon.box(-0.1, 0.1, -0.1, 0.1)
    state = make_state([p], [ConvexPolygon.from_points([(5, 5)])],
                       [AngleInterval(0, 0)], None)
    out = propagate_omnidirectional(state, 0.0, 0.2)
    assert out.markers[0] == p
    out = propagate_omnidirectional(state, 0.10, 0.2)
    expect = ConvexPolygon.box(-0.12, 0.12, -0.12, 0.12)
    assert geom2d.contains_polygon(out.markers[0], expect, tol=1e-9)
    assert geom2d.contains_polygon(expect, out.markers[0], tol=1e-9)
    # reachability: any point at speed <= v_max for dt stays inside
    rng = np.random.default_rng(4)
    for _ in range(1000):
        sx, sy = geom2d.sample_uniform(p, rng, 1)[0]
        ang = rng.uniform(-math.pi, math.pi)
        sp = rng.uniform(0, 0.10)
        assert geom2d.contains(out.markers[0],
                               (sx + sp * 0.2 * math.cos(ang),
                                sy + sp * 0.2 * math.sin(ang)))


def test_propagate_omnidirectional_adds_a_growth_below_the_tolerance():
    # 0.9e-9 a step is below EPS_GEOM, ten steps are not: a truth that starts
    # on the set's edge and moves straight out at full speed stays inside
    r = 0.9e-9
    state = make_state([ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)],
                       [ConvexPolygon.from_points([(5, 5)])],
                       [AngleInterval(0, 0)], None)
    x = 1.0
    for _ in range(10):
        state = propagate_omnidirectional(state, r, 1.0)
        x += r
        assert geom2d.contains(state.markers[0], (x, 0.5))


def test_propagate_omnidirectional_keeps_a_growth_box_below_the_tolerance():
    # a growth box of half-side 0.6e-9 keeps four corners, widened to
    # half-side EPS_GEOM: the hull would merge them into a diagonal, and a
    # truth moving out through the corner at full speed would leave the set
    r = 0.6e-9
    e = geom2d.EPS_GEOM
    assert ConvexPolygon.box(-r, r, -r, r).vertices == (
        (-e, -e), (e, -e), (e, e), (-e, e))
    state = make_state([ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)],
                       [ConvexPolygon.from_points([(5, 5)])],
                       [AngleInterval(0, 0)], None)
    x = y = 1.0
    for _ in range(10):
        state = propagate_omnidirectional(state, r, 1.0)
        x += r / math.sqrt(2.0)
        y += r / math.sqrt(2.0)
        assert geom2d.contains(state.markers[0], (x, y))


def test_propagate_adds_a_disturbance_below_the_tolerance():
    # standing still, a marker may still drift by eps_f a step in each axis
    robot = RobotModel(wheelbase=2.1, dt=0.5, eps_f=0.9e-9)
    models = EstimatorModels(robot, (MarkerOffset(0.0, 0.0),), (EXACT_SENSOR,))
    state = make_state([ConvexPolygon.box(0.0, 1.0, 0.0, 1.0)],
                       [ConvexPolygon.from_points([(5, 5)])],
                       [AngleInterval(0, 0)], None)
    x = y = 1.0
    for _ in range(10):
        state = propagate(state, Control(0.0, 0.0), models)
        x += robot.eps_f
        y += robot.eps_f
        assert geom2d.contains(state.markers[0], (x, y))


def test_stationary_repeated_updates_monotone():
    rng = np.random.default_rng(9)
    center = (2.0, 1.0)
    sensors = [SensorPose(-1.0, -1.0, 0.3), SensorPose(5.0, -1.0, 2.0),
               SensorPose(2.0, 4.0, -1.5)]
    model = SensorModel(ANGLE_RANGE, math.radians(8.05), 0.073,
                        2 * math.pi, 8.0)
    models = EstimatorModels(RobotModel(wheelbase=1.0, dt=0.2),
                             (MarkerOffset(0.0, 0.0),), (model,) * 3)
    state = make_state([geom2d.translate(ConvexPolygon.box(-0.25, 0.25,
                                                           -0.25, 0.25),
                                         *center)],
                       [ConvexPolygon.from_points([sp.xy]) for sp in sensors],
                       [AngleInterval(sp.theta, 0.0) for sp in sensors], None)
    prev_area = geom2d.area(state.markers[0])
    for _ in range(25):
        state = propagate_omnidirectional(state, 0.0, 0.2)
        batches = []
        for i, sp in enumerate(sensors):
            w_a = rng.uniform(-model.eps_bearing, model.eps_bearing)
            w_r = rng.uniform(-model.eps_range, model.eps_range)
            m = measure(sp, model, center, w_a, w_r, sensor_id=i)
            batches.append([replace(m, slot=0)] if m else [])
        state = update(state, batches, models)
        a = geom2d.area(state.markers[0])
        assert a <= prev_area + 1e-12
        prev_area = a
        assert geom2d.contains(state.markers[0], center)


@pytest.mark.parametrize("theta_half, builds", [(0.0, 1), (0.3, 2)])
def test_update_builds_sectors_again_only_when_the_orientation_narrows(
        monkeypatch, theta_half, builds):
    # update builds each measurement's sector under the predicted orientation
    # for the candidate matrix, and a second time, for the position and
    # marker phases, only when the orientation interval narrows: an exact
    # orientation cannot narrow, a 0.3 rad half-width does; each build
    # computes the measurement's cone once, and no sensor sector is built
    # at all
    rng = np.random.default_rng(3)
    pose = RobotPose(5.0, 3.0, 0.7)
    sensors = [SensorPose(0.0, 0.0, 0.2), SensorPose(12.0, -1.0, 2.0)]
    state = boxed_state(rng, pose, sensors, 0.3, 0.05, theta_half)
    models = EstimatorModels(ROBOT, OFFSETS, (PANORAMIC, PANORAMIC))
    batches = world_measurements(rng, pose, sensors, (PANORAMIC, PANORAMIC))
    calls = {"sector_outer_polygon": 0, "measurement_cone": 0,
             "feasible_marker_region": 0, "feasible_sensor_region": 0}
    for name in calls:
        owner = geom2d if name == "sector_outer_polygon" else sensing
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    out = update(state, batches, models)
    assert all(b for b in batches)
    assert [new != old for new, old in zip(out.sensor_theta,
                                           state.sensor_theta)] == \
        [builds == 2] * len(sensors)
    sectors = builds * sum(map(len, batches))
    assert calls == {"sector_outer_polygon": sectors,
                     "measurement_cone": sectors,
                     "feasible_marker_region": 0, "feasible_sensor_region": 0}
    assert_containment(out, pose, sensors)


def test_feasibility_and_bearing_spans_build_no_polygon(monkeypatch):
    # for sets with an area, the candidate matrix clips each marker set by
    # the support lines of sensor set + sector, and a bearing span is read
    # from the raw edge-merge ring: neither builds a sum or hulls a cloud
    rng = np.random.default_rng(3)
    pose = RobotPose(5.0, 3.0, 0.7)
    sensors = [SensorPose(0.0, 0.0, 0.2), SensorPose(12.0, -1.0, 2.0)]
    state = boxed_state(rng, pose, sensors, 0.3, 0.05, 0.0)
    batches = world_measurements(rng, pose, sensors, (PANORAMIC, PANORAMIC))
    sectors = [est._sectors(batch, PANORAMIC, theta)[1]
               for batch, theta in zip(batches, state.sensor_theta)]
    assert all(p.n >= 3 for p in (*state.markers, *state.sensor_xy,
                                  *sectors[0], *sectors[1]))
    # what the built polygons give, before any counting
    expect_rows = [tuple(tuple(geom2d.intersect(m, geom2d.minkowski_sum(
        sxy, sector)) is not None for m in state.markers) for sector in row)
        for row, sxy in zip(sectors, state.sensor_xy)]
    built_spans = [geom2d.angular_hull(geom2d.minkowski_sum(
        m, geom2d.negate(sxy))) for sxy in state.sensor_xy
        for m in state.markers]
    builds = {"minkowski_sum": 0, "from_points": 0}
    real_sum, real_from_points = geom2d.minkowski_sum, ConvexPolygon.from_points

    def counted_sum(*args):
        builds["minkowski_sum"] += 1
        return real_sum(*args)

    def counted_from_points(cls, points):
        builds["from_points"] += 1
        return real_from_points(points)

    monkeypatch.setattr(geom2d, "minkowski_sum", counted_sum)
    monkeypatch.setattr(ConvexPolygon, "from_points",
                        classmethod(counted_from_points))
    rows = [correspondence.build_candidate_matrix(
        [geom2d.sum_boundary(sxy, s) for s in row], state.markers,
        sensor_id=i).rows
        for i, (row, sxy) in enumerate(zip(sectors, state.sensor_xy))]
    spans = [geom2d.angular_hull_sum(m, geom2d.negate(sxy))
             for sxy in state.sensor_xy for m in state.markers]
    estimate_heading(state, SPEC)
    assert builds == {"minkowski_sum": 0, "from_points": 0}
    assert rows == expect_rows
    for span, built in zip(spans, built_spans):
        assert span.center == built.center
        assert span.half_width == built.half_width


def test_estimator_calls_geom2d_only_through_its_public_operations():
    # the estimator states its phases in geom2d's public calls; how a set
    # is stored, and the kernel's own constants and fast paths, stay behind
    # them, so another set representation is a change to geom2d alone
    import ast
    from pathlib import Path

    tree = ast.parse(Path(est.__file__).read_text())
    internals = {"vertices", "bbox", "inner_disk", "lines"}
    hidden = {"V_MAX", "INNER_MARGIN", "Line", "sector_inner_rectangle",
              "translate", "minkowski_sum"}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in internals, (node.lineno, node.attr)
            owner = getattr(node.value, "id", getattr(node.value, "attr", ""))
            if isinstance(node.value, ast.Name) and owner == "geom2d":
                named.add(node.attr)
            assert (owner, node.attr) != ("ConvexPolygon", "box"), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "geom2d":
            named.update(alias.name for alias in node.names)
    assert named, "the estimator names no geom2d operation"
    assert not {n for n in named if n.startswith("_") or n in hidden}
