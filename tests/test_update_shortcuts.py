"""Property tests: the inner-bound tests that settle update's phases.

``estimator.update`` skips its orientation phase when ``_keeps_orientation``
shows that the phase would return the predicted interval, and a position
clip when ``_keeps_position`` shows that it would return the predicted set.
Both rest on inner bounds: ``ConvexPolygon.inner_disk`` and
``geom2d.sector_inner_rectangle``, which must lie inside their sets at
tol = 0.  Whenever a test passes, the exact phase must return the predicted
value: the equal interval, without a degenerate angle intersection, or the
predicted set itself.
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from setloc import estimator as est
from setloc import geom2d, sensing
from setloc.geom2d import AngleInterval, ConvexPolygon, Interval
from setloc.sensing import ANGLE_ONLY, ANGLE_RANGE, Measurement, SensorModel

scales = st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 30.0, 1e3])
offsets = st.sampled_from([0.0, 1.0, -25.0, 1e3, -1e4])
unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def polygons(draw, min_size=1):
    """Hulls of clouds of up to 12 points: points, segments, slivers and
    rings at scales 1e-9 to 1e3, placed up to 1e4 from the origin."""
    s = draw(scales)
    dx, dy = draw(offsets), draw(offsets)
    pts = draw(st.lists(st.tuples(unit, unit), min_size=min_size,
                        max_size=12))
    return ConvexPolygon.from_points([(dx + s * x, dy + s * y)
                                      for x, y in pts])


def ring(cx, cy, r, k=16):
    """The regular k-gon around the disk of radius r at (cx, cy)."""
    return geom2d.translate(geom2d.ball_outer_polygon(r, k), cx, cy)


# --- the inner bounds ------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(polygons())
@example(ConvexPolygon.point(1.0, 2.0))
@example(ConvexPolygon.from_points([(0.0, 0.0), (3.0, 1.0)]))
@example(ConvexPolygon.box(1e3, 1e3 + 1e-6, -1e4, -1e4 + 1e-6))
def test_inner_disk_lies_in_its_polygon(p):
    disk = p.inner_disk
    if p.n < 3:
        assert disk is None
        return
    if disk is None:
        return
    cx, cy, rho = disk
    assert rho > 0.0
    # the point of the circle nearest each edge, and 16 more around it
    v = p.vertices
    points = [(cx + rho * (by - ay) / math.hypot(bx - ax, by - ay),
               cy - rho * (bx - ax) / math.hypot(bx - ax, by - ay))
              for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1])]
    points += [(cx + rho * math.cos(k * math.pi / 8.0),
                cy + rho * math.sin(k * math.pi / 8.0)) for k in range(16)]
    for q in points:
        assert geom2d.contains(p, q, tol=0.0)


def test_inner_disk_of_a_box_is_its_inscribed_disk():
    cx, cy, rho = ConvexPolygon.box(1.0, 3.0, -1.0, 0.0).inner_disk
    assert (cx, cy) == (2.0, -0.5)
    assert 0.5 - 1e-11 < rho < 0.5


half_widths = st.one_of(
    st.floats(0.0, 0.5 * math.pi, exclude_max=True),
    st.sampled_from([0.0, 1e-16, 1e-15, 1e-12,
                     math.nextafter(0.5 * math.pi, 0.0), 0.5 * math.pi - 1e-9]))
radii_scales = st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 20.0, 1e3])


@st.composite
def sector_cases(draw):
    """A measurement, a sensor model and an orientation interval, with the
    inner radius a rectangle may take: radii.lo when positive, else any
    radius up to radii.hi (angle-only sensors and ranges below eps_range)."""
    s = draw(radii_scales)
    kind = draw(st.sampled_from([ANGLE_ONLY, ANGLE_RANGE]))
    w = draw(half_widths)
    d_theta = draw(st.floats(0.0, 1.0)) * w
    eps_range = s * draw(st.sampled_from([0.0, 0.01, 0.5, 1.0, 2.0]))
    r = s * draw(st.floats(0.0, 1.0))
    model = SensorModel(kind, w - d_theta, eps_range,
                        max_range=s * draw(st.floats(0.01, 1.0)))
    m = Measurement(draw(st.floats(-math.pi, math.pi)),
                    r if kind == ANGLE_RANGE else None)
    theta_c = draw(st.floats(-math.pi, math.pi))
    cone, radii = sensing.measurement_cone(m.bearing, m.range, model,
                                           theta_c, d_theta)
    assume(cone.half_width < 0.5 * math.pi)    # else the sector is refused
    share = draw(st.floats(0.0, 1.0, exclude_min=True))
    inner = radii.lo or share * radii.hi
    if radii.lo and draw(st.booleans()):
        inner += share * (radii.hi - radii.lo)
    return m, model, theta_c, d_theta, cone, radii, inner


@settings(max_examples=800, deadline=None)
@given(sector_cases())
def test_sector_rectangle_lies_in_the_sector_polygon(case):
    m, model, theta_c, d_theta, cone, radii, inner = case
    sector = sensing.feasible_marker_region(m.bearing, m.range, model,
                                            theta_c, d_theta)
    rect = geom2d.sector_inner_rectangle(cone, radii, inner)
    if rect is None:
        return
    assert sector.n >= 3
    u_lo, u_hi, h = rect
    assert 0.0 < u_lo < u_hi and h > 0.0
    c, s = math.cos(cone.center), math.sin(cone.center)
    for u in (u_lo, u_hi):
        for v in (-h, h):
            assert geom2d.contains(sector, (u * c - v * s, u * s + v * c),
                                   tol=0.0), (u, v)


def test_sector_rectangle_needs_room():
    cone, wide = AngleInterval(0.0, 0.1), AngleInterval(0.0, 1.5)
    rect = geom2d.sector_inner_rectangle
    # a ring of zero width, a sector within a few EPS_GEOM and a rectangle
    # too wide for the ring
    assert rect(cone, Interval(5.0, 5.0), 5.0) is None
    assert rect(cone, Interval(0.0, 1e-8), 0.5e-8) is None
    assert rect(wide, Interval(1.0, 2.0), 1.0) is None
    u_lo, u_hi, h = rect(cone, Interval(4.0, 6.0), 4.0)
    assert 4.0 < u_lo < 4.0 + 1e-7
    assert 4.0 * math.tan(0.1) - 1e-7 < h < 4.0 * math.tan(0.1)
    assert 36.0 - 1e-6 < u_hi ** 2 + h ** 2 < 36.0


# --- a passing test concludes what the exact phase returns ------------------


# marker radii as shares of the distance: mostly clear of the sensor set
radius_shares = st.one_of(st.floats(0.0, 0.6), st.floats(0.0, 1.2))


@st.composite
def orientation_cases(draw):
    """A sensor set, matched marker sets and the hypotheses of a batch that
    measured them under an orientation inside theta, within the bearing
    noise: mostly cases the test can settle, some near its bounds."""
    s = draw(st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 1e3]))
    ox, oy = draw(offsets), draw(offsets)
    sensor = draw(st.one_of(
        polygons(min_size=3),
        st.builds(lambda r: ring(ox, oy, r * s), st.floats(0.001, 0.2))))
    n = draw(st.integers(1, 3))
    markers, batch = [], []
    theta = AngleInterval(draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(0.0, 0.3)))
    eps_bearing = draw(st.floats(0.0, 1.2))
    assume(not est.bearing_cone_too_wide(SensorModel(ANGLE_ONLY, eps_bearing),
                                         theta))
    sx, sy = sensor.vertices[0]
    for _ in range(n):
        d = s * draw(st.floats(0.05, 3.0))
        a = draw(st.floats(-math.pi, math.pi))
        mx, my = sx + d * math.cos(a), sy + d * math.sin(a)
        markers.append(ring(mx, my, d * draw(radius_shares),
                            draw(st.sampled_from([4, 5, 16]))))
        orientation = theta.center + theta.half_width * draw(unit)
        noise = eps_bearing * draw(st.floats(-1.3, 1.3))
        batch.append(Measurement(geom2d.wrap_angle(a - orientation + noise),
                                 None))
    hypotheses = [tuple(range(n))]
    if n >= 2 and draw(st.booleans()):
        hypotheses.append((1, 0) + tuple(range(2, n)))
    return theta, sensor, markers, batch, hypotheses, eps_bearing


def exact_orientation(theta, sensor, markers, batch, hypotheses, eps_bearing):
    """The orientation phase without its shortcut, with the degenerate
    intersections it counts; None when it raises."""
    before = geom2d.degenerate_intersection_count()
    with mock.patch.object(est, "_keeps_orientation", lambda *args: False):
        try:
            out = est._narrow_orientation(theta, sensor, markers, batch,
                                          hypotheses, eps_bearing, 0)
        except est.EmptySetFault:
            out = None
    return out, geom2d.degenerate_intersection_count() - before


def keeps_orientation(theta, sensor, markers, batch, hypotheses, eps_bearing):
    pairs = {(q, j) for a in hypotheses for q, j in enumerate(a)}
    return est._keeps_orientation(theta, sensor, markers, pairs, batch,
                                  eps_bearing)


@settings(max_examples=500, deadline=None)
@given(orientation_cases())
def test_kept_orientation_is_what_the_exact_phase_returns(case):
    if not keeps_orientation(*case):
        return
    theta = case[0]
    out, degenerate = exact_orientation(*case)
    assert out is not None
    assert (out.center, out.half_width) == (theta.center, theta.half_width)
    assert degenerate == 0


def wide_arcs():
    """Two marker sets on opposite sides of a small sensor set, measured
    straight ahead with 1.43 rad of bearing noise: each candidate interval
    is wider than a half circle, so they meet in two pieces, and the
    orientation interval near pi/2 lies in both inner arcs."""
    sensor = ring(0.0, 0.0, 0.01)
    markers = [ring(3.0, 0.0, 0.5), ring(-3.0, 0.0, 0.5)]
    batch = [Measurement(0.0, None), Measurement(0.0, None)]
    return (AngleInterval(0.5 * math.pi, 0.01), sensor, markers, batch,
            [(0, 1)], 1.43)


def test_orientation_test_declines_where_the_exact_phase_splits():
    case = wide_arcs()
    theta, sensor, markers, batch, _, eps_bearing = case
    # the inner arcs alone would settle it
    sx, sy, rho_s = sensor.inner_disk
    for marker, m in zip(markers, batch):
        mx, my, rho_m = marker.inner_disk
        inner = math.asin((rho_s + rho_m) / math.hypot(mx - sx, my - sy))
        off = abs(geom2d.wrap_angle(math.atan2(my - sy, mx - sx) - m.bearing
                                    - theta.center))
        assert off + theta.half_width < inner + eps_bearing - 1e-3
    _, degenerate = exact_orientation(*case)
    assert degenerate == 1
    assert not keeps_orientation(*case)


@st.composite
def position_cases(draw):
    """A sensor set, a marker set and one measurement of a marker in it,
    taken from a point of the sensor set, with its cone and radii under an
    orientation interval that holds the true orientation."""
    s = draw(st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 1e3]))
    sensor = draw(polygons())
    sx, sy = sensor.vertices[draw(st.integers(0, sensor.n - 1))]
    d = s * draw(st.floats(0.01, 3.0))
    a = draw(st.floats(-math.pi, math.pi))
    mx, my = sx + d * math.cos(a), sy + d * math.sin(a)
    marker = draw(st.one_of(
        st.builds(lambda r, k: ring(mx, my, r * d, k), st.floats(0.0, 1.5),
                  st.sampled_from([4, 5, 16])),
        polygons(min_size=3).map(lambda p: geom2d.translate(p, mx, my))))
    kind = draw(st.sampled_from([ANGLE_ONLY, ANGLE_RANGE]))
    model = SensorModel(kind, draw(st.floats(0.0, 0.5)),
                        d * draw(st.floats(0.0, 0.5)), max_range=3.0 * d)
    theta = AngleInterval(draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(0.0, 0.3)))
    orientation = theta.center + theta.half_width * draw(unit)
    noise = model.eps_bearing * draw(unit)
    r = d * draw(st.floats(0.5, 1.5)) if kind == ANGLE_RANGE else None
    m = Measurement(geom2d.wrap_angle(a - orientation + noise), r)
    cone, radii = sensing.measurement_cone(m.bearing, m.range, model,
                                           theta.center, theta.half_width)
    return sensor, marker, m, model, theta, cone, radii


@settings(max_examples=500, deadline=None)
@given(position_cases())
def test_kept_position_is_what_the_exact_clip_returns(case):
    sensor, marker, m, model, theta, cone, radii = case
    if not est._keeps_position(sensor, marker, cone, radii):
        return
    sector = sensing.feasible_marker_region(m.bearing, m.range, model,
                                            theta.center, theta.half_width)
    assert geom2d.sum_boundary(marker, geom2d.negate(sector)).clip(sensor) \
        is sensor


@st.composite
def update_cases(draw):
    """One sensor's predicted sets and a batch that measured each marker
    from a point of the sensor set, under an orientation inside its
    interval and within the noise bounds, shuffled."""
    s = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    sensor = draw(st.one_of(
        polygons(min_size=3),
        st.builds(lambda r: ring(0.0, 0.0, r * s), st.floats(0.001, 0.2))))
    kind = draw(st.sampled_from([ANGLE_ONLY, ANGLE_RANGE]))
    theta = AngleInterval(draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(0.0, 0.3)))
    model = SensorModel(kind, draw(st.floats(0.0, 1.2)) * (
        0.5 * math.pi - theta.half_width), s * draw(st.floats(0.0, 0.5)),
        max_range=1e4)
    sx, sy = sensor.vertices[draw(st.integers(0, sensor.n - 1))]
    orientation = theta.center + theta.half_width * draw(unit)
    markers, batch = [], []
    for _ in range(draw(st.integers(1, 3))):
        d = s * draw(st.floats(0.05, 3.0))
        a = draw(st.floats(-math.pi, math.pi))
        mx, my = sx + d * math.cos(a), sy + d * math.sin(a)
        markers.append(ring(mx, my, d * draw(st.floats(0.0, 1.2)),
                            draw(st.sampled_from([4, 5, 16]))))
        bearing = a - orientation + model.eps_bearing * draw(unit)
        r = max(0.0, d + model.eps_range * draw(unit))
        batch.append(Measurement(geom2d.wrap_angle(bearing),
                                 r if kind == ANGLE_RANGE else None))
    batch = draw(st.permutations(batch))
    return markers, sensor, theta, model, batch


@settings(max_examples=200, deadline=None)
@given(update_cases())
def test_update_is_the_update_without_its_shortcuts(case):
    markers, sensor, theta, model, batch = case
    models = est.EstimatorModels(est.RobotModel(2.0, 0.1), (), (model,))
    state = est.EstimatorState(tuple(markers), (sensor,), (theta,),
                               AngleInterval.full())

    def run():
        before = geom2d.degenerate_intersection_count()
        try:
            out = est.update(state, [batch], models)
        except est.EmptySetFault as exc:
            out = str(exc)
        return out, geom2d.degenerate_intersection_count() - before

    fast = run()
    with mock.patch.object(est, "_keeps_orientation", lambda *a: False), \
            mock.patch.object(est, "_keeps_position", lambda *a: False):
        exact = run()
    assert fast == exact
