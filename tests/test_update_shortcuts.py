"""Property tests: the inner-bound pass that settles update's phases.

``estimator.update`` makes one pass over each batch's (slot, marker) pairs,
``geom2d.settle_by_inner_bounds``; it skips the orientation phase when the
pass shows that the phase would return the predicted interval, and a
position clip when it shows that the clip would return the predicted set.  Both rest on inner
bounds: ``ConvexPolygon.inner_disk`` (or the vertex mean of a set too thin
for one) and ``geom2d.sector_inner_rectangle``, which must lie inside their
sets at tol = 0.  Whenever the pass keeps a value, the exact phase must
return it: the equal interval, without a degenerate angle intersection, or
the predicted set itself.  The marker phase clips each marker set once per
update, by the lines of every sensor that measured it; its sets must be
those of a clip, hull and simplification after each sensor, to the last
bit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from setloc import correspondence, geom2d, scenario, sensing
from setloc import estimator as est
from setloc.geom2d import AngleInterval, ConvexPolygon, Interval
from setloc.sensing import ANGLE_ONLY, ANGLE_RANGE, Measurement, SensorModel

scales = st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 30.0, 1e3])
offsets = st.sampled_from([0.0, 1.0, -25.0, 1e3, -1e4])
unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def polygons(draw, min_size=1):
    """Hulls of clouds of up to 12 points: the boxes about points and
    segments, slivers and rings at scales 1e-9 to 1e3, placed up to 1e4
    from the origin."""
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
@example(ConvexPolygon.from_points([(1.0, 2.0)]))
@example(ConvexPolygon.from_points([(0.0, 0.0), (3.0, 1.0)]))
@example(ConvexPolygon.box(1e3, 1e3 + 1e-6, -1e4, -1e4 + 1e-6))
@example(ConvexPolygon.box(1e3, 1e3, -1e4, -1e4))
def test_inner_disk_lies_in_its_polygon(p):
    disk = p.inner_disk
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
    # a ring of zero width and a rectangle too wide for the ring
    assert rect(cone, Interval(5.0, 5.0), 5.0) is None
    assert rect(wide, Interval(1.0, 2.0), 1.0) is None
    # a sector within a few EPS_GEOM is the box about its ring, which holds
    # the rectangle
    tiny = Interval(0.0, 1e-8)
    u_lo, u_hi, h = rect(cone, tiny, 0.5e-8)
    sector = geom2d.sector_outer_polygon(cone, tiny)
    for u in (u_lo, u_hi):
        for v in (-h, h):
            assert geom2d.contains(sector, (u, v), tol=0.0), (u, v)
    u_lo, u_hi, h = rect(cone, Interval(4.0, 6.0), 4.0)
    assert 4.0 < u_lo < 4.0 + 1e-7
    assert 4.0 * math.tan(0.1) - 1e-7 < h < 4.0 * math.tan(0.1)
    assert 36.0 - 1e-6 < u_hi ** 2 + h ** 2 < 36.0


# --- a kept value is what the exact phase returns ---------------------------


# marker radii as shares of the distance: mostly clear of the sensor set
radius_shares = st.one_of(st.floats(0.0, 0.6), st.floats(0.0, 1.2))


@st.composite
def orientation_cases(draw):
    """A sensor set (a polygon, a disk, the box about a point or a segment),
    matched marker sets, the sensor model and the hypotheses of a batch that
    measured them under an orientation inside theta, within the bearing
    noise: mostly cases the pass can settle, some near its bounds; with
    two or more markers, sometimes a second hypothesis that swaps the
    first two."""
    s = draw(st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 1e3]))
    ox, oy = draw(offsets), draw(offsets)
    sensor = draw(st.one_of(
        polygons(min_size=3), polygons(),
        st.builds(lambda r: ring(ox, oy, r * s), st.floats(0.001, 0.2)),
        st.builds(lambda a, b: ConvexPolygon.from_points(
            [(ox, oy), (ox + 0.2 * s * a, oy + 0.2 * s * b)]), unit, unit)))
    n = draw(st.integers(1, 3))
    markers, batch = [], []
    theta = AngleInterval(draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(0.0, 0.3)))
    kind = draw(st.sampled_from([ANGLE_ONLY, ANGLE_RANGE]))
    model = SensorModel(kind, draw(st.floats(0.0, 1.2)),
                        s * draw(st.floats(0.0, 0.5)),
                        max_range=s * draw(st.floats(0.5, 4.0)))
    assume(not est.bearing_cone_too_wide(model, theta))
    sx, sy = sensor.vertices[0]
    for _ in range(n):
        d = s * draw(st.floats(0.05, 3.0))
        a = draw(st.floats(-math.pi, math.pi))
        mx, my = sx + d * math.cos(a), sy + d * math.sin(a)
        markers.append(ring(mx, my, d * draw(radius_shares),
                            draw(st.sampled_from([4, 5, 16]))))
        orientation = theta.center + theta.half_width * draw(unit)
        noise = model.eps_bearing * draw(st.floats(-1.3, 1.3))
        r = max(0.0, d + model.eps_range * draw(st.floats(-1.3, 1.3)))
        batch.append(Measurement(geom2d.wrap_angle(a - orientation + noise),
                                 r if kind == ANGLE_RANGE else None))
    hypotheses = [tuple(range(n))]
    if n >= 2 and draw(st.booleans()):
        hypotheses.append((1, 0) + tuple(range(2, n)))
    return theta, sensor, markers, batch, hypotheses, model


def settle(theta, sensor, markers, batch, hypotheses, model):
    """The pass over the hypotheses' pairs, under the cones of theta: the
    orientation decision, the kept pairs and the sectors."""
    cones, sectors = est._sectors(batch, model, theta)
    pairs = {(q, j) for a in hypotheses for q, j in enumerate(a)}
    keeps, kept = geom2d.settle_by_inner_bounds(
        theta, sensor, markers, pairs, [m.bearing for m in batch], cones,
        model.eps_bearing)
    return keeps, kept, sectors


def exact_orientation(theta, sensor, markers, batch, hypotheses, model):
    """The orientation phase, with the degenerate intersections it counts;
    None when it raises."""
    before = geom2d.degenerate_intersection_count()
    try:
        out = est._narrow_orientation(theta, sensor, markers, batch,
                                      hypotheses, model.eps_bearing, 0)
    except est.EmptySetFault:
        out = None
    return out, geom2d.degenerate_intersection_count() - before


@settings(max_examples=500, deadline=None)
@given(orientation_cases())
def test_kept_orientation_is_what_the_exact_phase_returns(case):
    if not settle(*case)[0]:
        return
    theta = case[0]
    out, degenerate = exact_orientation(*case)
    assert out is not None
    assert (out.center, out.half_width) == (theta.center, theta.half_width)
    assert degenerate == 0


def exact_position(sensor, markers, sectors, hypotheses, kept):
    try:
        return est._narrow_position(sensor, markers, sectors, hypotheses,
                                    kept, 0)
    except est.EmptySetFault:
        return None


@settings(max_examples=300, deadline=None)
@given(orientation_cases())
def test_kept_pairs_of_a_batch_are_what_the_exact_clips_return(case):
    theta, sensor, markers, batch, hypotheses, model = case
    _, kept, sectors = settle(*case)
    for q, j in kept:
        assert geom2d.sum_boundary(markers[j], geom2d.negate(sectors[q])) \
            .clip(sensor) is sensor
    assert exact_position(sensor, markers, sectors, hypotheses, kept) == \
        exact_position(sensor, markers, sectors, hypotheses, set())


def test_a_point_or_segment_sensor_set_can_keep_its_orientation():
    # each is the box about it, grown to sides of 2 EPS_GEOM where thinner:
    # the pass takes that box's inner disk and outer radius
    markers = [ring(3.0, 0.0, 0.5), ring(0.0, 4.0, 0.5)]
    theta = AngleInterval(0.2, 0.01)
    batch = [Measurement(-0.2, None),
             Measurement(geom2d.wrap_angle(0.5 * math.pi - 0.2), None)]
    model = SensorModel(ANGLE_ONLY, 0.05)
    for sensor in (ConvexPolygon.from_points([(0.0, 0.0)]),
                   ConvexPolygon.from_points([(-0.01, 0.0), (0.01, 0.005)])):
        case = (theta, sensor, markers, batch, [(0, 1)], model)
        assert settle(*case)[0]
        out, degenerate = exact_orientation(*case)
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
            [(0, 1)], SensorModel(ANGLE_ONLY, 1.43))


def test_orientation_test_declines_where_the_exact_phase_splits():
    case = wide_arcs()
    theta, sensor, markers, batch, _, model = case
    # the inner arcs alone would settle it
    sx, sy, rho_s = sensor.inner_disk
    for marker, m in zip(markers, batch):
        mx, my, rho_m = marker.inner_disk
        inner = math.asin((rho_s + rho_m) / math.hypot(mx - sx, my - sy))
        off = abs(geom2d.wrap_angle(math.atan2(my - sy, mx - sx) - m.bearing
                                    - theta.center))
        assert off + theta.half_width < inner + model.eps_bearing - 1e-3
    _, degenerate = exact_orientation(*case)
    assert degenerate == 1
    assert not settle(*case)[0]


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
    _, kept = geom2d.settle_by_inner_bounds(
        theta, sensor, [marker], [(0, 0)], [m.bearing], [(cone, radii)],
        model.eps_bearing)
    if not kept:
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
    phases = {"_narrow_orientation": 0, "_narrow_position": 0}

    def counted(name):
        real = getattr(est, name)

        def phase(*args):
            phases[name] += 1
            return real(*args)
        return mock.patch.object(est, name, phase)

    def run():
        before = geom2d.degenerate_intersection_count()
        try:
            out = est.update(state, [batch], models)
        except est.EmptySetFault as exc:
            out = str(exc)
        return out, geom2d.degenerate_intersection_count() - before

    fast = run()
    # without the pass nothing is kept, and both phases run for the batch
    with mock.patch.object(geom2d, "settle_by_inner_bounds",
                           lambda *a, **k: (False, set())), \
            counted("_narrow_orientation"), counted("_narrow_position"):
        exact = run()
    assert fast == exact
    if est.bearing_cone_too_wide(model, theta):
        assert phases == {"_narrow_orientation": 0, "_narrow_position": 0}
    elif isinstance(exact[0], est.EstimatorState):
        assert phases == {"_narrow_orientation": 1, "_narrow_position": 1}


# --- the marker phase clips once per update --------------------------------


def per_sensor_markers(predicted, batches, models, updated):
    """The marker phase as a clip after each sensor: in sensor order, each
    marker set a sensor measured under every hypothesis is clipped by the
    sensor's set in updated plus the sector, or the hull of the sectors,
    of the slots that measured it, then hulled and simplified."""
    markers = list(predicted.markers)
    for i, batch in enumerate(batches):
        model, theta = models.sensors[i], predicted.sensor_theta[i]
        if not batch or est.bearing_cone_too_wide(model, theta):
            continue
        cmat = correspondence.build_candidate_matrix(
            [geom2d.sum_boundary(predicted.sensor_xy[i], s)
             for s in est._sectors(batch, model, theta)[1]],
            predicted.markers)
        assigns = correspondence.enumerate_assignments(
            cmat, models.assignment_cap)
        sectors = est._sectors(batch, model, updated.sensor_theta[i])[1]
        for j in correspondence.markers_with_certain_measurement(
                assigns, len(markers)):
            slots = sorted({a.index(j) for a in assigns})
            cone = sectors[slots[0]] if len(slots) == 1 else \
                geom2d.convex_hull([sectors[q] for q in slots])
            narrowed = geom2d.sum_boundary(updated.sensor_xy[i],
                                           cone).clip(markers[j])
            assert narrowed is not None
            markers[j] = geom2d.simplify_outer(narrowed)
    return markers


@pytest.mark.parametrize("eps_wa, seeds, steps",
                         [(None, range(5), 40), (8.0, range(3), 10)],
                         ids=["parking", "eps_wa-8"])
def test_one_clip_per_marker_is_the_clip_after_each_sensor(eps_wa, seeds,
                                                           steps):
    # on parking, and with 8 degrees of bearing noise (batches with several
    # hypotheses, markers clipped by the hull of their slots' sectors), the
    # marker sets of every update are those of the per-sensor clips to the
    # last bit
    cfg = scenario.load_builtin("parking")
    if eps_wa is not None:
        cfg = scenario.apply_parameter(cfg, "eps_wa", eps_wa)
    real = est.update
    compared = []

    def checked(predicted, batches, models):
        out = real(predicted, batches, models)
        ref = per_sensor_markers(predicted, batches, models, out)
        assert repr([m.vertices for m in out.markers]) == \
            repr([m.vertices for m in ref])
        compared.append(predicted.k)
        return out

    with mock.patch.object(est, "update", checked):
        for seed in seeds:
            scenario.simulate_run(replace(cfg, seed=seed, estimators="set"),
                                  steps=steps)
    assert len(compared) == len(seeds) * steps


def test_marker_phase_reuses_the_candidate_boundaries(monkeypatch):
    # update sums the sensor set with each sector once, for the candidate
    # matrix, and clips a marker of one slot by that sum wherever the
    # sensor's set and orientation stayed the predicted ones.  The count is
    # that of the first 40 steps of parking world seed 7000 with this reuse;
    # a marker phase that builds its own sums makes more.
    real = geom2d.sum_boundary
    calls = []

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(geom2d, "sum_boundary", counted)
    cfg = replace(scenario.load_builtin("parking"), seed=7000,
                  estimators="set")
    scenario.simulate_run(cfg, steps=40)
    assert len(calls) == 2957
