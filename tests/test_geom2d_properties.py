"""Property tests: the hull-free geom2d operations against hull references.

Every operation that keeps polygons canonical by construction must return
exactly the vertices the generic hull (``ConvexPolygon.from_points``) would
return for the same point cloud.  The strategies aim at the inputs where an
edge merge or a clip goes wrong first: the boxes about points, segments and
collinear runs, boxes (parallel edges in both operands) and large coordinate
offsets.  The arc operations are checked against what they must enclose.
Every set has an area, however degenerate its input.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geom_checks import validate
from setloc import geom2d
from setloc.geom2d import (FULL_CIRCLE, TWO_PI, AngleInterval, ConvexPolygon,
                           Interval, wrap_angle)

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                  allow_infinity=False, allow_subnormal=False)
offset = st.sampled_from([0.0, 1e6, -1e6])


@st.composite
def cloud(draw, min_size=1, max_size=10):
    pts = draw(st.lists(st.tuples(coord, coord), min_size=min_size,
                        max_size=max_size))
    dx, dy = draw(offset), draw(offset)
    return [(x + dx, y + dy) for x, y in pts]


@st.composite
def collinear_run(draw):
    x0, y0, ux, uy = (draw(coord) for _ in range(4))
    ts = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0,
                                 allow_subnormal=False), min_size=1, max_size=6))
    dx = draw(offset)
    return [(x0 + dx + t * ux, y0 + t * uy) for t in ts]


@st.composite
def box(draw):
    x0, x1 = sorted((draw(coord), draw(coord)))
    y0, y1 = sorted((draw(coord), draw(coord)))
    dx, dy = draw(offset), draw(offset)
    return [(x0 + dx, y0 + dy), (x1 + dx, y0 + dy),
            (x1 + dx, y1 + dy), (x0 + dx, y1 + dy)]


hulls = st.one_of(
    cloud(),
    cloud(min_size=1, max_size=1),           # boxes about points
    cloud(min_size=2, max_size=2),           # boxes about segments
    collinear_run(),
    box(),
).map(ConvexPolygon.from_points)


@st.composite
def translated(draw):
    """A hull moved by a translate, whose rounding can break strict
    convexity (propagate translates a set that does not grow)."""
    p = draw(hulls)
    return geom2d.translate(p, draw(coord) + draw(offset), draw(coord))


polygons = st.one_of(hulls, translated())


def reference_sum(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Hull of all n*m pairwise vertex sums."""
    return ConvexPolygon.from_points([(px + qx, py + qy)
                                      for px, py in a.vertices
                                      for qx, qy in b.vertices])


@settings(max_examples=400, deadline=None)
@given(polygons, polygons)
def test_minkowski_sum_matches_hull_of_pairwise_sums(a, b):
    out = geom2d.minkowski_sum(a, b)
    assert out == reference_sum(a, b)
    validate(out)


@settings(max_examples=300, deadline=None)
@given(polygons)
def test_negate_matches_hull_of_negated_vertices(p):
    out = geom2d.negate(p)
    assert out == ConvexPolygon.from_points([(-x, -y) for x, y in p.vertices])
    assert geom2d.negate(out) == p


@settings(max_examples=400, deadline=None)
@given(polygons, polygons)
@example(  # the clip collapses to two points 5.6e-16 apart
    ConvexPolygon.from_points([(0.0, 0.0), (0.0, -1.0), (1.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 1.0), (0.0625, 0.0),
                               (-6.0, 1.5175369318688041)]))
def test_intersect_matches_hull_of_clip_output(a, b):
    out = geom2d.intersect(a, b)
    pts = geom2d._clip_ring(a.vertices, a.bbox, geom2d._edge_lines(b.vertices))
    if pts is None:
        assert out is None
    elif pts is a.vertices:
        # no line of b cuts a
        assert out is a
    else:
        assert out == hull_of_cut(a, pts)
        validate(out)


def hull_of_cut(s: ConvexPolygon, pts) -> ConvexPolygon:
    """The hull of a cut ring, where the ring collapses (fewer than three
    vertices left by _prune) the box about it or s, whichever has the
    smaller area."""
    hull = ConvexPolygon.from_points(pts)
    if len(geom2d._prune(geom2d._hull_chain(sorted(set(pts))))) < 3 and \
            geom2d.area(s) <= geom2d.area(hull):
        return s
    return hull


def within(p: ConvexPolygon, q: ConvexPolygon, tol: float) -> bool:
    """Every vertex of p within tol of q (of each edge's half-plane, when q
    has an area)."""
    return all(geom2d.contains(q, v, tol) for v in p.vertices)


NUDGES = [0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6, 2e-3, -2e-3]


@st.composite
def inside(draw, outer: ConvexPolygon) -> ConvexPolygon:
    """A set inside outer, with its vertices (convex combinations of outer's)
    nudged by up to 2e-3 in x and y: across outer's boundary, onto it, or
    within the tolerances the predicates use."""
    n = outer.n
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        w = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
        if not any(w):
            w[draw(st.integers(0, n - 1))] = 1
        x = sum(wi * vx for wi, (vx, _) in zip(w, outer.vertices)) / sum(w)
        y = sum(wi * vy for wi, (_, vy) in zip(w, outer.vertices)) / sum(w)
        pts.append((x + draw(st.sampled_from(NUDGES)),
                    y + draw(st.sampled_from(NUDGES))))
    return ConvexPolygon.from_points(pts)


@st.composite
def outer_and_inner(draw):
    """(outer, inner): two independent sets, or inner drawn inside outer
    (the scorer's case: the true body inside the estimate)."""
    outer = draw(polygons)
    if draw(st.booleans()):
        return outer, draw(inside(outer))
    return outer, draw(polygons)


def contains_reference(p: ConvexPolygon, q, tol: float) -> bool:
    """contains of one point, written out apart from the loop it shares
    with angular_hull_sum: one edge length per edge and point."""
    ax, ay = p.vertices[-1]
    for bx, by in p.vertices:
        ex, ey = bx - ax, by - ay
        if ex * (q[1] - ay) - ey * (q[0] - ax) < -tol * math.hypot(ex, ey):
            return False
        ax, ay = bx, by
    return True


@settings(max_examples=1000, deadline=None)
@given(outer_and_inner(),
       st.sampled_from([0.0, geom2d.EPS_GEOM, 1e-3, -geom2d.EPS_GEOM, -1e-3]))
def test_contains_polygon_is_contains_of_every_vertex(case, tol):
    outer, inner = case
    got = geom2d.contains_polygon(outer, inner, tol)
    assert got == all(geom2d.contains(outer, v, tol) for v in inner.vertices)
    assert got == all(contains_reference(outer, v, tol)
                      for v in inner.vertices)


def local_area(p: ConvexPolygon, x0: float, y0: float) -> float:
    """Shoelace area about (x0, y0): at 1e6 offsets the products of the
    plain formula round by about 1e-4."""
    return geom2d.area(ConvexPolygon(tuple((x - x0, y - y0)
                                           for x, y in p.vertices)))


def perimeter(p: ConvexPolygon) -> float:
    v = p.vertices
    return sum(math.hypot(bx - ax, by - ay)
               for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]))


def cuts(lines, p: ConvexPolygon) -> bool:
    """Whether some line leaves a vertex of p beyond the clips' slack."""
    return any((bx - ax) * (y - ay) - (by - ay) * (x - ax)
               < -geom2d.EPS_GEOM * math.hypot(bx - ax, by - ay)
               for ax, ay, bx, by in lines for x, y in p.vertices)


@settings(max_examples=1000, deadline=None)
@given(outer_and_inner(), st.booleans())
@example(  # only the slack keeps (0, 7) from a's last line, which cuts
    # (-1, 6): the line's crossing on that edge lies off it, at (1/3, 22/3)
    (ConvexPolygon.from_points([(0.0, 0.0), (0.0, 7.0), (-1.0, 6.0)]),
     ConvexPolygon(((-1.0, 5.999999998), (0.0, 0.0), (5e-10, 7.0)))),
    False)
@example(  # (999952, -38), kept by intersect(b, a), is 1.03e-9 outside the
    # rounded crossing that intersect(a, b) puts on a's first edge
    (ConvexPolygon(((999952.0, -38.0), (1000000.0, 0.0), (1000000.0, 1.0),
                    (999964.0, 3.0))),
     ConvexPolygon(((999952.0, -38.000000002), (1000000.0, 1.0),
                    (999974.8, 2.4)))),
    False)
@example(  # _prune drops a point that lies in both operands
    (ConvexPolygon(((-1e-09, -9.99e-07), (2e-09, 5e-10), (-2e-10, 2e-10))),
     ConvexPolygon.from_points([(0.0, 0.0)])),
    False).xfail(raises=AssertionError,
                 reason="_prune moves inward; ROADMAP item 11 mends it")
def test_intersect_does_not_depend_on_the_order_of_its_operands(case, swap):
    """intersect(a, b) clips a by b's lines and intersect(b, a) b by a's;
    both keep EPS_GEOM of slack past each line, so they agree up to it.  A
    clip whose points have no area is the box about them, or the clipped
    operand where that is smaller: only its points are held to both
    operands."""
    b, a = case
    if swap:
        a, b = b, a
    ab, ba = geom2d.intersect(a, b), geom2d.intersect(b, a)
    if not cuts(geom2d._edge_lines(b.vertices), a):
        assert ab is a
    tol = 2 * geom2d.EPS_GEOM
    collapsed = False
    for r, (p, q) in ((ab, (a, b)), (ba, (b, a))):
        if r is None:
            continue
        held = r.vertices
        pts = geom2d._clip_ring(p.vertices, p.bbox,
                                geom2d._edge_lines(q.vertices))
        if len(geom2d._prune(geom2d._hull_chain(sorted(set(pts))))) < 3:
            collapsed = True
            assert r == hull_of_cut(p, pts)
            held = pts
        assert all(geom2d.contains(a, v, tol) and geom2d.contains(b, v, tol)
                   for v in held)
    if (ab is None) != (ba is None):
        # one is empty only where the overlap is no deeper than 2 EPS_GEOM
        c = centroid(ab if ba is None else ba)
        assert not (geom2d.contains(a, c, -tol) and geom2d.contains(b, c, -tol))
        return
    if ab is None or collapsed:
        return
    x0, y0 = a.vertices[0]
    area_ab, area_ba = local_area(ab, x0, y0), local_area(ba, x0, y0)
    # the slack band of one operand's lines holds at most EPS_GEOM times
    # their length of area that the other clip leaves out
    floor = 4 * geom2d.EPS_GEOM * (perimeter(a) + perimeter(b))
    assert abs(area_ab - area_ba) <= 1e-12 * max(area_ab, area_ba) + floor
    # a vertex one clip keeps by the slack lies EPS_GEOM past a line whose
    # crossing the other clip rounds (by 1.2e-10 at 1e6 offsets), so each
    # is inside the other within 2 EPS_GEOM
    assert within(ab, ba, tol) and within(ba, ab, tol)


@settings(max_examples=400, deadline=None)
@given(polygons, polygons, polygons)
@example(  # a sliver sum whose tip (0, 0) the hull's pruning used to drop
    ConvexPolygon.from_points([(0.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (0.0, 1.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (3.2826778072258016e-101, 1.0)]))
@example(  # the boxes about a segment and two points
    ConvexPolygon.from_points([(0.0, 0.0), (0.0, -2.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]))
@example(  # s crosses the sum of the boxes about two segments at a shallow
    # angle
    ConvexPolygon.from_points([(0.0, 0.0), (0.0, 1.0)]),
    ConvexPolygon.from_points([(0.0, 1.0), (1.0, -1.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]))
@example(  # the sum of the boxes about a point and a segment touches s at a
    # vertex
    ConvexPolygon.from_points([(0.0, 0.0), (0.0, 1.0), (2.0, 1.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (1.0, 0.0)]))
@example(  # the clip collapses to a sliver; at 1e6 the shoelace areas of
    # its box and of s both come out 0.0, so clip_by keeps s whole
    ConvexPolygon.from_points([(-1e6, 1e6), (-1e6, 1e6 + 1.0)]),
    ConvexPolygon.from_points([(-1e6, 1e6), (-1e6, 1e6 + 1.0)]),
    ConvexPolygon.from_points([(0.0, 1.0)])).xfail(
        raises=AssertionError,
        reason="clip_by compares collapsed areas that cancel to 0.0 at "
               "large coordinates; ROADMAP item 3")
def test_intersect_sum_matches_intersect_of_the_sum(s, a, b):
    """Equal up to the clips' slack: both keep EPS_GEOM past every line, and
    where s crosses a line at a shallow angle that slack stretches along s,
    so the two results are compared by containment, not vertex distance."""
    total = geom2d.minkowski_sum(a, b)
    out = geom2d.sum_boundary(a, b).clip(s)
    ref = geom2d.intersect(s, total)
    assert (out is None) == (ref is None)
    if out is None:
        return
    tol = 2 * geom2d.EPS_GEOM
    assert within(ref, out, tol)
    assert within(out, s, tol) and within(out, total, tol)
    validate(out)


@st.composite
def inside_sum(draw):
    """(s, a, b) with s inside a + b: the sum itself, or b moved by a vertex
    of a."""
    a, b = draw(polygons), draw(polygons)
    va = draw(st.sampled_from(a.vertices))
    s = draw(st.sampled_from([geom2d.minkowski_sum(a, b),
                              geom2d.translate(b, *va)]))
    return s, a, b


@settings(max_examples=400, deadline=None)
@given(inside_sum())
@example((  # a sum that intersect would round (4.7e-92 to 0.0)
    ConvexPolygon.from_points([(-1.0, 0.0), (4.6949326410541904e-92, 0.0)]),
    ConvexPolygon.from_points([(4.6949326410541904e-92, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (-1.0, 0.0)])))
def test_intersect_sum_returns_a_set_inside_the_sum_itself(case):
    s, a, b = case
    assert geom2d.sum_boundary(a, b).clip(s) is s


@settings(max_examples=2000, deadline=None)
@given(polygons, polygons, polygons, st.integers(0, 2**32 - 1),
       st.sampled_from(["as drawn", "moved onto the witness", "the witness"]))
# the boxes about a point or a segment against the sum of the boxes about
# two segments (seed 7 puts the witness in p, except where p and the sum
# are disjoint)
@example(  # crossing segments
    ConvexPolygon.from_points([(-1.0, 0.5), (1.0, 0.5)]),
    ConvexPolygon.from_points([(0.0, -1.0), (0.0, 1.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]), 7, "moved onto the witness")
@example(  # collinear overlapping segments
    ConvexPolygon.from_points([(-1.0, 0.0), (0.5, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (1.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]), 7, "moved onto the witness")
@example(  # parallel disjoint segments
    ConvexPolygon.from_points([(0.0, 1.0), (1.0, 1.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (1.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0)]), 7, "as drawn")
@example(  # a point on a segment sum
    ConvexPolygon.from_points([(0.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (1.0, 2.0)]),
    ConvexPolygon.from_points([(0.0, 0.0), (-3.0, 1.0)]), 7, "the witness")
def test_intersects_sum_never_misses_a_witness(p, a, b, seed, where):
    """A point s + t of a + b (s in a, t in b) that lies in p makes p
    feasible: a false "no" would cut the truth."""
    rng = np.random.default_rng(seed)
    s, t = geom2d.sample_uniform(a, rng)[0], geom2d.sample_uniform(b, rng)[0]
    w = (float(s[0] + t[0]), float(s[1] + t[1]))
    if where == "the witness":
        p = ConvexPolygon.from_points([w])
    elif where == "moved onto the witness":
        u = geom2d.sample_uniform(p, rng)[0]
        p = geom2d.translate(p, w[0] - float(u[0]), w[1] - float(u[1]))
    if geom2d.contains(p, w, 0.0):
        assert geom2d.sum_boundary(a, b).meets(p)


@st.composite
def near_sum(draw):
    """(s, a, b) with s drawn inside a + b, or made of copies of one point
    of its boundary (a vertex or an edge's midpoint), nudged across the
    boundary, onto it, or within the clips' slack of it."""
    a, b = draw(polygons), draw(polygons)
    total = geom2d.minkowski_sum(a, b)
    if draw(st.booleans()):
        return draw(inside(total)), a, b
    v = total.vertices
    i = draw(st.integers(0, len(v) - 1))
    (ax, ay), (bx, by) = v[i], v[(i + 1) % len(v)]
    t = draw(st.sampled_from([0.0, 0.5]))
    x, y = ax + t * (bx - ax), ay + t * (by - ay)
    nudge = st.sampled_from(NUDGES)
    pts = [(x + draw(nudge), y + draw(nudge))
           for _ in range(draw(st.integers(1, 3)))]
    return ConvexPolygon.from_points(pts), a, b


@settings(max_examples=1000, deadline=None)
@given(near_sum())
def test_intersects_sum_is_the_twin_on_the_sum_boundary(case):
    # the kept-vertex "yes" and the clip's "no" meet where a vertex of s
    # sits within rounding of a line of the sum
    s, a, b = case
    boundary = geom2d.sum_boundary(a, b)
    assert boundary.meets(s) == (boundary.clip(s) is not None)


def centroid(p: ConvexPolygon) -> tuple[float, float]:
    return (sum(x for x, _ in p.vertices) / p.n,
            sum(y for _, y in p.vertices) / p.n)


@settings(max_examples=400, deadline=None)
@given(polygons, polygons, polygons)
def test_intersects_sum_agrees_with_intersect_of_the_sum(s, a, b):
    boundary = geom2d.sum_boundary(a, b)
    got = boundary.meets(s)
    # the boolean twin of the clip, exactly
    assert got == (boundary.clip(s) is not None)
    total = geom2d.minkowski_sum(a, b)
    ref = geom2d.intersect(s, total)
    if got == (ref is not None):
        return
    tol = 2 * geom2d.EPS_GEOM
    if ref is None:
        # a false "yes" only where s comes within 2 EPS_GEOM of the sum
        grown = geom2d.minkowski_sum(total, ConvexPolygon.box(-tol, tol,
                                                              -tol, tol))
        assert geom2d.intersect(s, grown) is not None
    else:
        # a "no" only where the overlap is no deeper than 2 EPS_GEOM
        c = centroid(ref)
        assert not (geom2d.contains(s, c, -tol)
                    and geom2d.contains(total, c, -tol))


def hull_path(pts) -> ConvexPolygon:
    """What from_points returns through the sort-and-chain hull."""
    return ConvexPolygon(geom2d._chain_hull(
        sorted({(float(x), float(y)) for x, y in pts})))


def rotated(pts, k: int):
    k %= len(pts)
    return list(pts[k:]) + list(pts[:k])


@settings(max_examples=400, deadline=None)
@given(hulls, hulls, st.integers(0, 63))
def test_ring_fast_path_equals_the_hull_path(p, q, k):
    # canonical polygons and the edge merge's candidates are convex rings
    for ring in (rotated(p.vertices, k),
                 rotated(geom2d._merge_edges(p.vertices, q.vertices), k)):
        assert ConvexPolygon.from_points(ring) == hull_path(ring)
    assert geom2d._left_turn_lines(rotated(p.vertices, k)) is not None


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


@settings(max_examples=300, deadline=None)
@given(hulls, st.integers(0, 63))
def test_rings_that_are_not_convex_take_the_hull_path(p, k):
    v = list(p.vertices)
    if len(v) >= 5:
        # pentagram order: every turn is left, but the ring winds twice
        odd = v[:len(v) - 1 + len(v) % 2]
        star = [odd[2 * i % len(odd)] for i in range(len(odd))]
        n = len(star)
        assert all(_cross(*star[i - 1], *star[i], *star[(i + 1) % n]) > 0
                   for i in range(n))
        rings = [star]
    else:
        rings = []
    rings += [v[::-1],                                   # clockwise
              v[:1] + v]                                 # duplicate vertex
    for ring in rings:
        ring = rotated(ring, k)
        assert geom2d._canonical_ring(ring) is None
        assert ConvexPolygon.from_points(ring) == hull_path(ring)


lines = st.lists(st.tuples(coord, coord, coord, coord), max_size=12)


@settings(max_examples=400, deadline=None)
@given(polygons, st.one_of(polygons.map(lambda p: geom2d._edge_lines(p.vertices)),
                           lines))
def test_clip_ring_skips_only_lines_that_cut_nothing(p, clip_lines):
    ring = p.vertices
    plain = ring
    for line in clip_lines:
        plain = geom2d._clip_poly_halfplane(plain, *line)
        if not plain:
            plain = None
            break
    out = geom2d._clip_ring(ring, p.bbox, clip_lines)
    assert out == plain
    assert (out is ring) == (plain is ring)


def assert_float_pairs_and_box(p: ConvexPolygon) -> None:
    for v in p.vertices:
        assert type(v) is tuple and len(v) == 2
        assert type(v[0]) is float and type(v[1]) is float
    xs, ys = zip(*p.vertices)
    assert p.bbox == (min(xs), max(xs), min(ys), max(ys))


@settings(max_examples=400, deadline=None)
@given(cloud(), polygons, polygons, polygons, coord, coord, st.integers(3, 8))
def test_operations_return_float_pairs_and_their_bounding_box(
        pts, s, a, b, dx, dy, v_max):
    total = geom2d.minkowski_sum(a, b)
    results = [
        ConvexPolygon.from_points(pts),
        # from_points converts ints and numpy scalars to Python floats
        ConvexPolygon.from_points([(round(x), round(y)) for x, y in pts]),
        ConvexPolygon.from_points(np.asarray(pts)),
        total,
        geom2d.intersect(s, a),
        geom2d.sum_boundary(a, b).clip(s),
        geom2d.negate(a),
        geom2d.translate(a, dx, dy),
        geom2d.simplify_outer(total, v_max),
    ]
    for out in results:
        if out is not None:
            assert_float_pairs_and_box(out)


# --- arcs ------------------------------------------------------------------

ARC_TOL = 1e-12
# multiples of pi/4 make ties between starts, where the input order must
# not choose among them
quarters = st.sampled_from([k * math.pi / 4.0 for k in range(-4, 5)])
arcs = st.builds(
    AngleInterval,
    st.one_of(quarters,
              st.floats(min_value=-10.0, max_value=10.0,
                        allow_subnormal=False)),
    st.one_of(st.just(0.0), st.just(math.pi), quarters.map(abs),
              st.floats(min_value=0.0, max_value=math.pi,
                        allow_subnormal=False)))


def covers(outer: AngleInterval, inner: AngleInterval, tol: float) -> bool:
    """Whether outer contains the whole arc inner, up to tol radians."""
    if outer.is_full:
        return True
    d = (inner.lo - outer.lo) % geom2d.TWO_PI
    if d > geom2d.TWO_PI - tol:
        d -= geom2d.TWO_PI
    return d >= -tol and d + inner.width <= outer.width + tol


@settings(max_examples=400, deadline=None)
@given(st.lists(arcs, min_size=1, max_size=8))
def test_enclose_angles_covers_every_arc(items):
    out = geom2d.enclose_angles(items)
    assert all(covers(out, a, ARC_TOL) for a in items)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(arcs, st.integers(1, 3)), min_size=1, max_size=6),
       st.lists(st.integers(0, 63), max_size=4))
@example(  # both starts need pi; a later repeat must not move the answer
    [(AngleInterval(0.0, 0.0), 1), (AngleInterval(math.pi, 0.0), 1)], [0])
def test_enclose_angles_ignores_duplicates(counted, tail):
    # repeats after an arc's first occurrence, in place or at the end, leave
    # the result unchanged to the last bit
    distinct = [a for a, _ in counted]
    repeated = [a for a, k in counted for _ in range(k)]
    repeated += [distinct[k % len(distinct)] for k in tail]
    assert geom2d.enclose_angles(repeated) == geom2d.enclose_angles(distinct)


def enclose_angles_reference(arcs):
    """enclose_angles as it was before its scans stopped early: every start
    is scanned against every arc."""
    if not arcs:
        raise ValueError("enclose_angles needs at least one interval")
    if any(a.is_full for a in arcs):
        return FULL_CIRCLE
    los = [wrap_angle(a.lo) for a in arcs]
    widths = [a.width for a in arcs]
    best_width = math.inf
    best_start = 0.0
    for i, start in enumerate(los):
        need = 0.0
        ok = True
        for j, lo_j in enumerate(los):
            d = lo_j - start
            d -= TWO_PI * math.floor(d / TWO_PI)  # into [0, 2*pi)
            reach = d + widths[j]
            if reach >= TWO_PI - 1e-12:
                ok = False
                break
            need = max(need, reach)
        if ok and need < best_width:
            best_width = need
            best_start = start
    if not math.isfinite(best_width):
        return FULL_CIRCLE
    return AngleInterval(best_start + 0.5 * best_width, 0.5 * best_width)


def scan_needs(arcs):
    """The need of each start in enclose_angles_reference's scan, ascending:
    its largest reach, or inf where an arc reaches 2*pi - 1e-12 from it."""
    los = [wrap_angle(a.lo) for a in arcs]
    needs = []
    for start in set(los):
        need = 0.0
        for lo_j, a in zip(los, arcs):
            d = lo_j - start
            d -= TWO_PI * math.floor(d / TWO_PI)  # into [0, 2*pi)
            need = max(need, d + a.width)
        needs.append(need if need < TWO_PI - 1e-12 else math.inf)
    return sorted(needs)


# centres on the wrap seam, and offsets that put starts within 1e-9 of each
# other and reaches within a few 1e-12 of the full circle's cut-off
SEAM = [math.pi, -math.pi, math.nextafter(-math.pi, 0.0)]
NEAR = [0.0, 1e-13, -1e-13, 1e-12, -1e-12, 3e-12, -3e-12, 1e-9, -1e-9]
NEAR_FULL = [math.pi - 1.5e-12, math.pi - 3e-12, 0.5 * math.pi - 1e-12,
             0.5 * math.pi + 1e-12]


@st.composite
def crowded_arcs(draw):
    """Up to 100 arcs, most of them near a few shared anchors."""
    anchors = draw(st.lists(
        st.one_of(quarters, st.sampled_from(SEAM),
                  st.floats(min_value=-10.0, max_value=10.0,
                            allow_subnormal=False)),
        min_size=1, max_size=4))
    halves = st.one_of(st.just(0.0), quarters.map(abs),
                       st.sampled_from(NEAR_FULL),
                       st.floats(min_value=0.0, max_value=math.pi,
                                 allow_subnormal=False))
    n = draw(st.integers(1, 100))
    return [AngleInterval(draw(st.sampled_from(anchors))
                          + draw(st.sampled_from(NEAR)), draw(halves))
            for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(crowded_arcs(), st.lists(arcs, min_size=1, max_size=100)))
@example([AngleInterval(0.0, 0.0), AngleInterval(math.pi, 0.0)])
@example([AngleInterval(1.0, 0.0)] * 3)
@example(  # both gaps are 0.7e-12 wide: no start covers short of the cut-off
    [AngleInterval(0.0, math.pi - 1.2e-12), AngleInterval(math.pi, 0.5e-12)])
# about 100 headings across the seam, with pi and -pi (one start) repeated
@example([AngleInterval(h, 0.0) for h in
          [math.pi - 0.02 * k for k in range(45)]
          + [-math.pi + 0.02 * k for k in range(1, 45)]
          + [math.pi, -math.pi] * 5])
# two gaps tie: the scan starts after the first in input order (centre
# -1.3208), the sweep after the first in sorted order (centre +1.3208)
@example([AngleInterval(h, 0.0) for h in
          [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
           math.nextafter(-math.pi, 0.0), 0.5, -0.5] * 16])
# a start a few ulps past another, where d / 2*pi underflows to -0.0: the
# scan puts both starts at one point and returns (5e-324, 0), which misses
# -1e-323 at tol 0; the sweep returns (0.0, 1e-323), which holds both
@example([AngleInterval(5e-324, 0.0), AngleInterval(-1e-323, 0.0)] * 4)
def test_enclose_angles_is_the_full_scan(items):
    # where one start needs less than every other by more than 1e-9, the
    # answer is the scan's to the last bit (repr tells -0.0 from 0.0); where
    # starts tie, the sweep may start after another of the tied gaps, and
    # its cover holds every arc and is no wider than the scan's but for
    # rounding
    got = geom2d.enclose_angles(items)
    want = enclose_angles_reference(items)
    needs = scan_needs(items)
    if len(needs) == 1 or not needs[1] - needs[0] <= 1e-9:
        assert repr(got) == repr(want)
    else:
        assert all(covers(got, a, ARC_TOL) for a in items)
        assert got.width <= want.width + 1e-15


@settings(max_examples=400, deadline=None)
@given(st.one_of(crowded_arcs(), st.lists(arcs, min_size=1, max_size=100)),
       st.randoms(use_true_random=False))
@example([AngleInterval(h, 0.0) for h in
          [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
           math.nextafter(-math.pi, 0.0), 0.5, -0.5] * 16], None)
@example([AngleInterval(0.0, 0.0), AngleInterval(-0.0, 0.0),
          AngleInterval(5e-324, 0.0), AngleInterval(-1e-323, 0.0)], None)
def test_enclose_angles_does_not_depend_on_the_input_order(items, rand):
    shuffled = items[::-1]
    if rand is not None:
        rand.shuffle(shuffled)
    assert repr(geom2d.enclose_angles(shuffled)) == repr(
        geom2d.enclose_angles(items))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), 0.0, -0.0])),
    min_size=1, max_size=120))
def test_zero_width_spans_are_enclosed_as_their_arcs(headings):
    # the particle filter passes its wrapped headings as the starts of
    # zero-width spans: the answer is that of their arcs to the last bit
    got = geom2d.enclose_spans([geom2d.wrap_angle(h) for h in headings],
                               [0.0] * len(headings))
    want = geom2d.enclose_angles([AngleInterval(h, 0.0) for h in headings])
    assert repr(got) == repr(want)


# --- outer polygons of disks and sectors within a few EPS_GEOM -------------

# parts of a radius or a half-width at which sample points are taken: both
# ends, kept 1e-6 (relative) inside so that rounding of the point cannot
# put it across the polygon's boundary
SAMPLE_PARTS = (1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6)
tiny_radii = st.one_of(
    st.sampled_from([2e-9, 1.5e-9, 1e-9, 0.5e-9, 1e-8]),
    st.floats(min_value=0.0, max_value=1e-8, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(tiny_radii, st.floats(min_value=0.0, max_value=0.9),
       st.one_of(st.sampled_from([1.0, 1.25]),
                 st.floats(min_value=0.01, max_value=1.5)),
       st.floats(min_value=-4.0, max_value=4.0),
       st.sampled_from([4, 8, 16, 32]))
@example(2e-9, 0.0, 1.0, 1.0, 16)
@example(2e-9, 0.0, 1.25, 1.0, 16)
def test_tiny_disks_and_sectors_keep_every_point_at_tol_0(r_hi, lo_part, w,
                                                          c, k):
    # a disk or an annular sector of radius at most 1e-8 lies inside its
    # outer polygon with no tolerance at all: no vertex of it is merged or
    # dropped as too close to another
    ball = geom2d.ball_outer_polygon(r_hi, k)
    sector = geom2d.sector_outer_polygon(AngleInterval(c, w),
                                         Interval(lo_part * r_hi, r_hi))
    r_lo = lo_part * r_hi
    for part in SAMPLE_PARTS:
        r = r_lo + part * (r_hi - r_lo)
        for turn in SAMPLE_PARTS:
            a = c + (2.0 * turn - 1.0) * w
            q = (r * math.cos(a), r * math.sin(a))
            assert geom2d.contains(sector, q, tol=0.0), (part, turn)
            b = turn * TWO_PI
            q = (part * r_hi * math.cos(b), part * r_hi * math.sin(b))
            assert geom2d.contains(ball, q, tol=0.0), (part, turn)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
       st.floats(min_value=0.0, max_value=1e-8),
       st.floats(min_value=-4.0, max_value=4.0),
       st.sampled_from([0.0, 1e-16, 1e-15]))
@example(1.0, 5e-10, 0.3, 0.0)
@example(1.0, 5e-10, 0.0, 0.0)
def test_segment_sectors_keep_both_ends_at_tol_0(r_lo, gap, c, w):
    # a sector of half-width up to 1e-15 is the box about its segment; where
    # its radii are closer than EPS_GEOM, both of its ends still lie in it
    # at tol 0
    cone = AngleInterval(c, w)
    sector = geom2d.sector_outer_polygon(cone, Interval(r_lo, r_lo + gap))
    u = (math.cos(cone.center), math.sin(cone.center))
    for r in (r_lo, r_lo + gap):
        assert geom2d.contains(sector, (r * u[0], r * u[1]), tol=0.0), r


# --- every set has an area --------------------------------------------------

# lengths at and below EPS_GEOM, and offsets out to where a float step is
# 0.125 m
SMALL = [0.0, 1e-300, 1e-15, 1e-12, 5e-10, 1e-9, 1.5e-9, 2e-9]
far = st.sampled_from([0.0, 1.0, -7.5, 1e6, -1e6, 1e15])
small = st.sampled_from(SMALL)


@st.composite
def degenerate_hulls(draw):
    """from_points of copies of up to three points, of a collinear run, or
    of points closer than EPS_GEOM to each other (which _prune merges into
    one); with its points."""
    kind = draw(st.sampled_from(["repeated", "collinear", "crowded"]))
    if kind == "repeated":
        pts = draw(st.lists(st.sampled_from(draw(cloud(max_size=3))),
                            min_size=1, max_size=8))
    elif kind == "collinear":
        pts = draw(collinear_run())
    else:
        x, y = draw(coord) + draw(far), draw(coord) + draw(far)
        near = st.sampled_from(SMALL[:5])
        pts = [(x + draw(near), y + draw(near))
               for _ in range(draw(st.integers(1, 5)))]
    return ConvexPolygon.from_points(pts), pts


@st.composite
def thin_boxes(draw):
    """A box with a side of zero or below EPS_GEOM; with its corners."""
    x, y = draw(coord) + draw(far), draw(coord) + draw(far)
    x1 = x + draw(small)
    y1 = y + draw(st.sampled_from(SMALL + [1.0]))
    if draw(st.booleans()):
        x, x1, y, y1 = y, y1, x, x1
    return (ConvexPolygon.box(x, x1, y, y1),
            [(x, y), (x1, y), (x1, y1), (x, y1)])


@st.composite
def tiny_disks_and_sectors(draw):
    """A disk or an annular sector of radius 0 to EPS_GEOM, or a sector of
    no width out to 1e3; with points of it (the ends of a sector without
    width, otherwise kept inside by SAMPLE_PARTS)."""
    if draw(st.booleans()):
        r_hi = draw(st.one_of(small, st.floats(0.0, geom2d.EPS_GEOM)))
        w = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    else:
        r_hi = draw(st.one_of(st.sampled_from([1.0, 1e3]),
                              st.floats(0.0, 1e3)))
        w = 0.0
    if draw(st.booleans()):
        k = draw(st.sampled_from([4, 16, 32]))
        return geom2d.ball_outer_polygon(r_hi, k), [
            (part * r_hi * math.cos(turn * TWO_PI),
             part * r_hi * math.sin(turn * TWO_PI))
            for part in SAMPLE_PARTS for turn in SAMPLE_PARTS]
    cone = AngleInterval(draw(st.floats(-4.0, 4.0)), w)
    r_lo = draw(st.sampled_from([0.0, 0.5, 1.0])) * r_hi
    c = cone.center
    if w == 0.0:
        pts = [(r * math.cos(c), r * math.sin(c)) for r in (r_lo, r_hi)]
    else:
        pts = [((r_lo + part * (r_hi - r_lo)) * math.cos(a),
                (r_lo + part * (r_hi - r_lo)) * math.sin(a))
               for part in SAMPLE_PARTS
               for a in (c + (2.0 * t - 1.0) * w for t in SAMPLE_PARTS)]
    return geom2d.sector_outer_polygon(cone, Interval(r_lo, r_hi)), pts


@st.composite
def collapsing_clips(draw):
    """intersect of two boxes that share only an edge or a corner, in
    either order; with the shared corners."""
    x0, y0 = draw(coord) + draw(far), draw(coord) + draw(far)
    w, h = draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0))
    a = ConvexPolygon.box(x0, x0 + w, y0, y0 + h)
    x1, y1 = x0 + w, y0 + h
    if draw(st.booleans()):
        b = ConvexPolygon.box(x1, x1 + 1.0, y0, y1)
        shared = [(x1, y0), (x1, y1)]
    else:
        b = ConvexPolygon.box(x1, x1 + 1.0, y1, y1 + 1.0)
        shared = [(x1, y1)]
    if draw(st.booleans()):
        a, b = b, a
    return geom2d.intersect(a, b), shared


@st.composite
def collapsing_sums(draw):
    """minkowski_sum of the sets of two points or segments, and of their
    sums with a box without width; with the sums of their points."""
    p, q = draw(cloud(max_size=2)), draw(cloud(max_size=2))
    total = geom2d.minkowski_sum(ConvexPolygon.from_points(p),
                                 ConvexPolygon.from_points(q))
    pts = [(px + qx, py + qy) for px, py in p for qx, qy in q]
    return draw(st.sampled_from([
        (total, pts),
        (geom2d.minkowski_sum(total, ConvexPolygon.box(0.0, 0.0, 0.0, 1.0)),
         pts)]))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(degenerate_hulls(), thin_boxes(), tiny_disks_and_sectors(),
                 collapsing_clips(), collapsing_sums()))
@example((ConvexPolygon.box(999, 1000, 2e-10, 3e-10),
          [(999, 2e-10), (1000, 3e-10)]))
@example((ConvexPolygon.from_points([(1e15, 0.0)] * 3), [(1e15, 0.0)]))
@example((geom2d.sector_outer_polygon(AngleInterval(0.7, 0.0),
                                      Interval(0.0, 0.0)), [(0.0, 0.0)]))
@example((geom2d.ball_outer_polygon(0.0), [(0.0, 0.0)]))
def test_every_set_has_an_area(case):
    """Every set that the kernel returns, from inputs without an area, has
    three or more vertices in strictly convex CCW order, and holds each of
    its input points with no tolerance at all."""
    out, pts = case
    assert out.n >= 3
    validate(out)
    for q in pts:
        assert geom2d.contains(out, q, tol=0.0), q


@st.composite
def near_origin(draw):
    """A polygon with the origin inside, outside, on a vertex or an edge, or
    just off it (by less or more than EPS_GEOM)."""
    p = draw(hulls)
    v = p.vertices
    i = draw(st.integers(0, len(v) - 1))
    (ax, ay), (bx, by) = v[i], v[(i + 1) % len(v)]
    t = draw(st.sampled_from([0.0, 0.5, 1.0]))
    x, y = ax + t * (bx - ax), ay + t * (by - ay)
    jitter = st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6])
    dx, dy = draw(jitter), draw(jitter)
    return draw(st.sampled_from([p, geom2d.translate(p, dx - x, dy - y)]))


def direction_tol(p: ConvexPolygon, q) -> float:
    """Angle error of q's direction from rounding at p's coordinate scale."""
    scale = max(max(abs(x), abs(y)) for x, y in p.vertices)
    return ARC_TOL + 1e-14 * scale / math.hypot(*q)


@settings(max_examples=400, deadline=None)
@given(near_origin(), st.lists(st.integers(0, 10), min_size=1, max_size=12))
def test_angular_hull_contains_every_direction(p, weights):
    out = geom2d.angular_hull(p)
    v = p.vertices
    points = list(v)
    # an interior point: a convex combination of the vertices (integer
    # weights, so the combination rounds only at the coordinates' scale)
    w = [weights[k % len(weights)] for k in range(len(v))]
    if sum(w) > 0.0:
        points.append((sum(wk * x for wk, (x, _) in zip(w, v)) / sum(w),
                       sum(wk * y for wk, (_, y) in zip(w, v)) / sum(w)))
    for q in points:
        if math.hypot(*q) > geom2d.EPS_GEOM:
            assert out.contains(math.atan2(q[1], q[0]), direction_tol(p, q))


@settings(max_examples=400, deadline=None)
@given(near_origin())
def test_angular_hull_is_full_exactly_when_the_origin_is_in_the_set(p):
    assert geom2d.angular_hull(p).is_full == geom2d.contains(
        p, (0.0, 0.0), geom2d.EPS_GEOM)


@settings(max_examples=400, deadline=None)
@given(polygons, polygons)
def test_angular_hull_sum_contains_the_arc_of_the_built_sum(m, sensor):
    back = geom2d.negate(sensor)
    out = geom2d.angular_hull_sum(m, back)
    assert covers(out, geom2d.angular_hull(geom2d.minkowski_sum(m, back)),
                  ARC_TOL)


# --- outer simplification ----------------------------------------------------

@st.composite
def parallelograms(draw):
    """A, A + u, A + u + v, A + v for any u and v that are not parallel."""
    ax, ay, ux, uy, vx, vy = (draw(coord) for _ in range(6))
    dx, dy = draw(offset), draw(offset)
    ax, ay = ax + dx, ay + dy
    return ConvexPolygon.from_points([(ax, ay), (ax + ux, ay + uy),
                                      (ax + ux + vx, ay + uy + vy),
                                      (ax + vx, ay + vy)])


@settings(max_examples=400, deadline=None)
@given(st.one_of(hulls, parallelograms()), st.integers(3, 12))
@example(ConvexPolygon.box(0.0, 1.0, 0.0, 1.0), 3)
@example(ConvexPolygon.from_points([(0.0, 0.0), (2.0, 1.0), (3.0, 4.0),
                                    (1.0, 3.0)]), 3)
def test_simplify_outer_holds_its_input_within_the_budget(p, v_max):
    out = geom2d.simplify_outer(p, v_max)
    assert out.n <= v_max
    assert geom2d.contains_polygon(out, p)


@settings(max_examples=300, deadline=None)
@given(parallelograms())
@example(ConvexPolygon.box(0.0, 1.0, 0.0, 1.0))
# edges that converge only by rounding once put a corner near 1e16
@example(ConvexPolygon.from_points([(0.0, 0.0), (17.0, 0.0), (17.4, 1.0),
                                    (0.4, 1.0)]))
def test_simplify_outer_encloses_a_parallelogram_in_a_triangle(p):
    if p.n < 4:                 # pruned to a triangle: returned as it is
        return
    out = geom2d.simplify_outer(p, 3)
    assert out.n <= 3
    assert geom2d.contains_polygon(out, p, tol=0.0)
