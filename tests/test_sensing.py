import math

import numpy as np
import pytest

from setloc import geom2d
from setloc.geom2d import wrap_angle
from setloc.sensing import (ANGLE_ONLY, ANGLE_RANGE, SensorModel, SensorPose,
                            feasible_marker_region, feasible_sensor_region,
                            measure)

STEREO = SensorModel(ANGLE_RANGE, math.radians(1.0), 0.1,
                     math.radians(70.0), 20.0)
MONO = SensorModel(ANGLE_ONLY, math.radians(1.0), 0.0,
                   math.radians(70.0), 20.0)


# ---------------------------------------------------------------------------
# the measurement map
# ---------------------------------------------------------------------------

def test_measure_ahead():
    m = measure(SensorPose(0, 0, 0), STEREO, (1.0, 0.0), 0.0, 0.0)
    assert m.bearing == pytest.approx(0.0)
    assert m.range == pytest.approx(1.0)


def test_measure_above_needs_wide_fov():
    wide = SensorModel(ANGLE_RANGE, 0.0, 0.0, 2 * math.pi, 20.0)
    m = measure(SensorPose(0, 0, 0), wide, (0.0, 1.0), 0.0, 0.0)
    assert m.bearing == pytest.approx(math.pi / 2)
    assert m.range == pytest.approx(1.0)


def test_measure_rotated_sensor():
    m = measure(SensorPose(0, 0, math.pi / 4), STEREO, (1.0, 1.0), 0.0, 0.0)
    assert m.bearing == pytest.approx(0.0)
    assert m.range == pytest.approx(math.sqrt(2.0))


def test_measure_gating():
    # outside the 70 degree field of view
    assert measure(SensorPose(0, 0, 0), STEREO, (0.0, 1.0), 0.0, 0.0) is None
    # beyond maximum range
    assert measure(SensorPose(0, 0, 0), STEREO, (25.0, 0.0), 0.0, 0.0) is None
    # angle-only sensors report no range
    m = measure(SensorPose(0, 0, 0), MONO, (3.0, 0.0), 0.0)
    assert m.range is None


# ---------------------------------------------------------------------------
# feasible regions
# ---------------------------------------------------------------------------

def test_feasible_sensor_region_exact_point():
    exact = SensorModel(ANGLE_RANGE, 0.0, 0.0, 2 * math.pi, 20.0)
    region = feasible_sensor_region(0.0, 1.0, exact, 0.0, 0.0)
    # the box of half-side EPS_GEOM about the one sensor position
    e = geom2d.EPS_GEOM
    assert geom2d.contains(region, (-1.0, 0.0), tol=0.0)
    assert region.bbox == pytest.approx((-1.0 - e, -1.0 + e, -e, e),
                                        abs=1e-15)


def test_feasible_marker_region_exact_point():
    exact = SensorModel(ANGLE_RANGE, 0.0, 0.0, 2 * math.pi, 20.0)
    region = feasible_marker_region(math.pi / 2, 2.0, exact, 0.0, 0.0)
    # the box of half-side EPS_GEOM about the one marker position
    e = geom2d.EPS_GEOM
    x, y = 2.0 * math.cos(math.pi / 2), 2.0
    assert geom2d.contains(region, (x, y), tol=0.0)
    assert region.bbox == pytest.approx((x - e, x + e, y - e, y + e),
                                        abs=1e-15)


def test_mirror_property():
    region_m = feasible_marker_region(0.3, 5.0, STEREO, 0.1, math.radians(2))
    region_s = feasible_sensor_region(0.3, 5.0, STEREO, 0.1, math.radians(2))
    assert geom2d.negate(region_m) == region_s


def test_angle_only_region_inversion_sampler():
    # every sensor placement consistent with the measured bearing is obtained
    # by inverting the measurement map over the noise and orientation ranges;
    # all of them must fall inside the region
    rng = np.random.default_rng(8)
    alpha = 0.4
    d_theta = math.radians(1.0)
    region = feasible_sensor_region(alpha, None, MONO, 0.0, d_theta)
    for _ in range(10_000):
        theta = rng.uniform(-d_theta, d_theta)
        w_a = rng.uniform(-MONO.eps_bearing, MONO.eps_bearing)
        dist = rng.uniform(0.0, MONO.max_range)
        to_marker = alpha + theta - w_a   # direction from sensor to marker
        lx, ly = -dist * math.cos(to_marker), -dist * math.sin(to_marker)
        pred = wrap_angle(math.atan2(-ly, -lx) - theta + w_a)
        assert abs(wrap_angle(pred - alpha)) < 1e-9 or dist < 1e-12
        assert geom2d.contains(region, (lx, ly), tol=1e-9)


def test_stereo_region_rejection_sampler():
    rng = np.random.default_rng(9)
    alpha, r = 0.3, 5.0
    d_theta = math.radians(1.0)
    region = feasible_marker_region(alpha, r, STEREO, 0.0, d_theta)
    kept = 0
    while kept < 10_000:
        theta = rng.uniform(-d_theta, d_theta)
        w_a = rng.uniform(-STEREO.eps_bearing, STEREO.eps_bearing)
        w_r = rng.uniform(-STEREO.eps_range, STEREO.eps_range)
        # invert the measurement for this noise draw
        bearing_world = alpha - w_a + theta
        dist = r - w_r
        px, py = dist * math.cos(bearing_world), dist * math.sin(bearing_world)
        kept += 1
        assert geom2d.contains(region, (px, py), tol=1e-9)


def test_forward_backward_consistency():
    # core of the update soundness: with in-bound noise the true sensor lies
    # in marker + sensor-region and the true marker in sensor + marker-region
    rng = np.random.default_rng(10)
    model = SensorModel(ANGLE_RANGE, math.radians(2.0), 0.15, 2 * math.pi, 30.0)
    trials = 0
    while trials < 10_000:
        sx, sy = rng.uniform(-5, 5, 2)
        st = rng.uniform(-math.pi, math.pi)
        mx, my = rng.uniform(-5, 5, 2)
        dist = math.hypot(mx - sx, my - sy)
        if dist > model.max_range or dist <= model.eps_range:
            continue
        w_a = rng.uniform(-model.eps_bearing, model.eps_bearing)
        w_r = rng.uniform(-model.eps_range, model.eps_range)
        m = measure(SensorPose(sx, sy, st), model, (mx, my), w_a, w_r)
        if m is None:
            continue
        trials += 1
        d_theta = rng.uniform(0.0, math.radians(3.0))
        theta_c = st + rng.uniform(-d_theta, d_theta)
        sensor_region = feasible_sensor_region(m.bearing, m.range, model,
                                               theta_c, d_theta)
        marker_region = feasible_marker_region(m.bearing, m.range, model,
                                               theta_c, d_theta)
        assert geom2d.contains(sensor_region, (sx - mx, sy - my), tol=1e-9)
        assert geom2d.contains(marker_region, (mx - sx, my - sy), tol=1e-9)


def test_region_wrap_invariance():
    # the same bearing and orientation a turn apart, with turns that add
    # exactly (2.9 + 2*pi would round to another angle)
    a = feasible_marker_region(3.0, 4.0, STEREO, -3.2, math.radians(2))
    b = feasible_marker_region(3.0 - 2 * math.pi, 4.0, STEREO,
                               -3.2 + 2 * math.pi, math.radians(2))
    assert a == b


def test_angle_only_region_inside_range_disk():
    region = feasible_marker_region(0.2, None, MONO, 0.0, math.radians(5))
    for x, y in region.vertices:
        # circumscribed arc may poke out radially by the chord factor only
        assert math.hypot(x, y) <= MONO.max_range / math.cos(
            math.pi / 32) + 1e-9


def test_sector_too_wide_propagates():
    with pytest.raises(ValueError):
        feasible_marker_region(0.0, 5.0, STEREO, 0.0, math.pi / 2)
