import math

import numpy as np
import pytest

from setloc.geom2d import AngleInterval, wrap_angle
from setloc.kinematics import (Control, MarkerOffset, RobotModel, RobotPose,
                               bicycle_step, displacement_bounds,
                               marker_displacement, place_marker)

ROBOT = RobotModel(wheelbase=2.1, dt=0.5, body_length=4.0, body_width=1.8,
                   eps_v=0.1, eps_delta=math.radians(0.5))


def marker_step(p, u, noise, heading, offset, model):
    """Advance a marker position by one noisy step plus disturbance w_f,
    noise = (w_v, w_delta, w_f), along the closed form."""
    w_v, w_delta, w_f = noise
    d, theta_i = marker_displacement(Control(u.v + w_v, u.delta + w_delta),
                                     heading, offset, model)
    return (p[0] + d * math.cos(theta_i) + w_f[0],
            p[1] + d * math.sin(theta_i) + w_f[1])


def rigid_velocity_oracle(u, heading, offset, model):
    """Marker displacement via rigid-body velocity composition.

    The rear axle translates at v*cos(delta) along the heading while the body
    rotates at (v/ell)*sin(delta); the marker's velocity is the rigid sum,
    scaled by dt.  Independent of the closed-form trigonometry.
    """
    wz = (u.v / model.wheelbase) * math.sin(u.delta)
    mx = offset.delta_l * math.cos(heading + offset.delta_theta)
    my = offset.delta_l * math.sin(heading + offset.delta_theta)
    vx = u.v * math.cos(u.delta) * math.cos(heading) - wz * my
    vy = u.v * math.cos(u.delta) * math.sin(heading) + wz * mx
    return model.dt * math.hypot(vx, vy), math.atan2(vy, vx)


# ---------------------------------------------------------------------------
# pose step
# ---------------------------------------------------------------------------

def test_bicycle_zero_velocity():
    pose = RobotPose(1.0, 2.0, 0.3)
    out = bicycle_step(pose, Control(0.0, 0.2), 0.0, 0.0, ROBOT)
    assert out == pose


def test_bicycle_straight_line():
    pose = RobotPose(0.0, 0.0, 0.0)
    out = bicycle_step(pose, Control(1.0, 0.0), 0.0, 0.0, ROBOT)
    assert out.x == pytest.approx(0.5)
    assert out.y == 0.0
    assert out.theta == 0.0


def test_bicycle_numeric_case():
    d10 = math.radians(10)
    out = bicycle_step(RobotPose(0, 0, 0), Control(1.0, d10), 0.0, 0.0, ROBOT)
    assert out.theta == pytest.approx((0.5 / 2.1) * math.sin(d10))
    assert out.x == pytest.approx(0.5 * math.cos(0.0) * math.cos(d10))
    assert out.y == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# marker displacement
# ---------------------------------------------------------------------------

def test_marker_displacement_rear_axle_marker():
    u = Control(1.2, math.radians(17))
    d, th = marker_displacement(u, 0.4, MarkerOffset(0.0, 0.0), ROBOT)
    assert d == pytest.approx(1.2 * 0.5 * abs(math.cos(u.delta)))
    assert th == pytest.approx(0.4)


def test_marker_displacement_straight():
    off = MarkerOffset(2.46, 0.43)
    d, th = marker_displacement(Control(1.0, 0.0), -0.7, off, ROBOT)
    assert d == pytest.approx(0.5)
    assert th == pytest.approx(-0.7)


def test_marker_displacement_matches_rigid_oracle():
    u = Control(1.0, math.radians(10))
    off = MarkerOffset(2.46, 0.43)
    d, th = marker_displacement(u, 0.0, off, ROBOT)
    d_ref, th_ref = rigid_velocity_oracle(u, 0.0, off, ROBOT)
    assert d == pytest.approx(d_ref, abs=1e-9)
    assert abs(wrap_angle(th - th_ref)) * max(d, 1.0) < 1e-9


def test_marker_displacement_oracle_fuzz():
    # reversing gives a signed magnitude along the forward direction, so the
    # agreement check compares displacement vectors
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        model = RobotModel(wheelbase=rng.uniform(0.5, 4.0),
                           dt=rng.uniform(0.05, 1.0))
        u = Control(rng.uniform(-2.0, 3.0), rng.uniform(-1.3, 1.3))
        heading = rng.uniform(-math.pi, math.pi)
        off = MarkerOffset(rng.uniform(0.0, 5.0),
                           rng.uniform(-math.pi, math.pi))
        d, th = marker_displacement(u, heading, off, model)
        d_ref, th_ref = rigid_velocity_oracle(u, heading, off, model)
        assert d * math.cos(th) == pytest.approx(d_ref * math.cos(th_ref),
                                                 abs=1e-9)
        assert d * math.sin(th) == pytest.approx(d_ref * math.sin(th_ref),
                                                 abs=1e-9)
        assert abs(d) == pytest.approx(d_ref, abs=1e-9)


def test_marker_displacement_periodic_in_heading():
    u = Control(0.8, 0.3)
    off = MarkerOffset(1.5, 2.0)
    d1, t1 = marker_displacement(u, 0.9, off, ROBOT)
    d2, t2 = marker_displacement(u, 0.9 + 2 * math.pi, off, ROBOT)
    assert d1 == d2
    assert wrap_angle(t1 - t2) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# marker step
# ---------------------------------------------------------------------------

def test_marker_step_stationary():
    p = (3.0, 4.0)
    out = marker_step(p, Control(0.0, 0.1), (0.0, 0.0, (0.0, 0.0)), 0.2,
                      MarkerOffset(1.0, 0.5), ROBOT)
    assert out == pytest.approx(p)


def test_marker_step_straight_line():
    p = (3.0, 4.0)
    out = marker_step(p, Control(1.0, 0.0), (0.0, 0.0, (0.0, 0.0)), 0.5,
                      MarkerOffset(1.0, 0.5), ROBOT)
    assert out[0] == pytest.approx(3.0 + 0.5 * math.cos(0.5))
    assert out[1] == pytest.approx(4.0 + 0.5 * math.sin(0.5))


def test_marker_step_rigidity_over_straight_run():
    # on a straight run the marker step and the rigid pose step coincide, so
    # the axle-to-marker distance stays put over a long horizon
    off = MarkerOffset(2.46, 0.43)
    pose = RobotPose(0.0, 0.0, 0.4)
    p = place_marker(pose, off)
    controls = [Control(1.0, 0.0)] * 60 + [Control(0.0, 0.0)] * 10 \
        + [Control(-0.5, 0.0)] * 30
    for u in controls:
        p = marker_step(p, u, (0.0, 0.0, (0.0, 0.0)), pose.theta, off, ROBOT)
        pose = bicycle_step(pose, u, 0.0, 0.0, ROBOT)
    assert math.hypot(p[0] - pose.x, p[1] - pose.y) == pytest.approx(
        off.delta_l, abs=1e-6)


# ---------------------------------------------------------------------------
# displacement bounds
# ---------------------------------------------------------------------------

def _grid_oracle(u, heading_set, offset, model, n=50):
    vs = np.linspace(u.v - model.eps_v, u.v + model.eps_v, n)
    ds = np.linspace(u.delta - model.eps_delta, u.delta + model.eps_delta, n)
    ths = np.linspace(heading_set.lo, heading_set.hi, n)
    v, d, th = np.meshgrid(vs, ds, ths, indexing="ij", sparse=True)
    ell = model.wheelbase
    dl, dth = offset.delta_l, offset.delta_theta
    g = ((dl * np.sin(d) / ell) ** 2 + np.cos(d) ** 2
         - (dl / ell) * math.sin(dth) * np.sin(2 * d))
    dist = v * model.dt * np.sqrt(np.maximum(g, 0.0))
    ang = th + dth + np.arctan2(dl * np.tan(d) - ell * math.sin(dth),
                                ell * math.cos(dth))
    dx = dist * np.cos(ang)
    dy = dist * np.sin(ang)
    return (float(dx.min()), float(dx.max())), (float(dy.min()), float(dy.max()))


def test_displacement_bounds_exact_when_certain():
    model = RobotModel(wheelbase=2.1, dt=0.5)
    u = Control(1.0, math.radians(10))
    off = MarkerOffset(2.46, 0.43)
    dx, dy = displacement_bounds(u, AngleInterval(0.3, 0.0), off, model)
    d, th = marker_displacement(u, 0.3, off, model)
    assert dx.lo == pytest.approx(d * math.cos(th), abs=1e-12)
    assert dx.hi == pytest.approx(d * math.cos(th), abs=1e-12)
    assert dy.lo == pytest.approx(d * math.sin(th), abs=1e-12)
    assert dy.hi == pytest.approx(d * math.sin(th), abs=1e-12)


def test_displacement_bounds_zero_speed():
    model = RobotModel(wheelbase=2.1, dt=0.5, eps_v=0.0,
                       eps_delta=math.radians(3))
    dx, dy = displacement_bounds(Control(0.0, 0.2), AngleInterval(0.0, 0.2),
                                 MarkerOffset(2.0, 1.0), model)
    assert dx.lo == dx.hi == 0.0
    assert dy.lo == dy.hi == 0.0


def test_displacement_bounds_grid_oracle_with_inflation_cap():
    model = RobotModel(wheelbase=2.1, dt=0.5, eps_v=0.1,
                       eps_delta=math.radians(0.5))
    u = Control(1.0, 0.0)
    off = MarkerOffset(2.46, 0.43)
    heading = AngleInterval(0.0, math.radians(1.0))
    dx, dy = displacement_bounds(u, heading, off, model)
    (gx_lo, gx_hi), (gy_lo, gy_hi) = _grid_oracle(u, heading, off, model)
    assert dx.lo <= gx_lo and dx.hi >= gx_hi
    assert dy.lo <= gy_lo and dy.hi >= gy_hi
    assert dx.width <= 1.2 * (gx_hi - gx_lo)
    assert dy.width <= 1.2 * (gy_hi - gy_lo)


def test_displacement_bounds_containment_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        model = RobotModel(wheelbase=rng.uniform(0.8, 3.5),
                           dt=rng.uniform(0.1, 1.0),
                           eps_v=rng.uniform(0.0, 0.3),
                           eps_delta=rng.uniform(0.0, 0.05))
        u = Control(rng.uniform(-1.5, 2.5), rng.uniform(-1.2, 1.2))
        off = MarkerOffset(rng.uniform(0.0, 4.0),
                           rng.uniform(-math.pi, math.pi))
        heading = AngleInterval(rng.uniform(-math.pi, math.pi),
                                rng.uniform(0.0, 0.3))
        dx, dy = displacement_bounds(u, heading, off, model)
        (gx_lo, gx_hi), (gy_lo, gy_hi) = _grid_oracle(u, heading, off, model)
        assert dx.lo <= gx_lo + 1e-12 and dx.hi >= gx_hi - 1e-12
        assert dy.lo <= gy_lo + 1e-12 and dy.hi >= gy_hi - 1e-12


def assert_rigid_cover_contains_pose_steps(model, seed):
    """The rigid-step box covers the displacement of a marker placed rigidly
    before and after 300 random noisy pose steps."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        u = Control(rng.uniform(-1.0, 2.0), rng.uniform(-0.9, 0.9))
        off = MarkerOffset(rng.uniform(0.0, 3.2), rng.uniform(-math.pi, math.pi))
        theta = rng.uniform(-math.pi, math.pi)
        heading = AngleInterval(theta, rng.uniform(0.0, 0.05))
        dx, dy = displacement_bounds(u, heading, off, model,
                                     cover_rigid_step=True)
        w_v = rng.uniform(-model.eps_v, model.eps_v)
        w_d = rng.uniform(-model.eps_delta, model.eps_delta)
        pose = RobotPose(0.0, 0.0, theta)
        p0 = place_marker(pose, off)
        p1 = place_marker(bicycle_step(pose, u, w_v, w_d, model), off)
        assert dx.contains(p1[0] - p0[0], tol=1e-9)
        assert dy.contains(p1[1] - p0[1], tol=1e-9)


def test_displacement_bounds_rigid_cover_contains_pose_step():
    # with the rigid-step flag the box also covers the displacement of a
    # marker placed rigidly before and after the pose update
    assert_rigid_cover_contains_pose_steps(
        RobotModel(wheelbase=2.1, dt=0.5, eps_v=0.1,
                   eps_delta=math.radians(0.5)), 123)


def test_displacement_bounds_rigid_cover_takes_rotations_beyond_a_full_circle():
    # at eps_v = 80 the rigid step's rotation interval is wider than 2 pi;
    # its phase is then the whole circle, which still covers every pose step
    assert_rigid_cover_contains_pose_steps(
        RobotModel(wheelbase=2.1, dt=0.5, eps_v=80.0,
                   eps_delta=math.radians(0.5)), 321)
