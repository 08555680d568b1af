"""Property tests: the hull-free geom2d operations against hull references.

Every operation that keeps polygons canonical by construction must return
exactly the vertices the generic hull (``ConvexPolygon.from_points``) would
return for the same point cloud.  The strategies aim at the inputs where an
edge merge or a clip goes wrong first: points, segments, collinear runs,
boxes (parallel edges in both operands) and large coordinate offsets.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from setloc import geom2d
from setloc.geom2d import ConvexPolygon

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
    cloud(min_size=1, max_size=1),           # points
    cloud(min_size=2, max_size=2),           # segments
    collinear_run(),
    box(),
).map(ConvexPolygon.from_points)


@st.composite
def translated(draw):
    """A hull moved by a translate, whose rounding can break strict
    convexity (minkowski_sum translates by a point operand)."""
    p = draw(hulls)
    return geom2d.translate(p, draw(coord) + draw(offset), draw(coord))


polygons = st.one_of(hulls, translated())


def reference_sum(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Hull of all n*m pairwise vertex sums."""
    return ConvexPolygon.from_points([(p.x + q.x, p.y + q.y)
                                      for p in a.vertices for q in b.vertices])


@settings(max_examples=400, deadline=None)
@given(polygons, polygons)
def test_minkowski_sum_matches_hull_of_pairwise_sums(a, b):
    out = geom2d.minkowski_sum(a, b)
    if a.is_point or b.is_point:
        # a point operand translates without re-hulling
        (p,) = (a if a.is_point else b).vertices
        other = b if a.is_point else a
        assert out == geom2d.translate(other, p.x, p.y)
    else:
        assert out == reference_sum(a, b)
    out.validate()


@settings(max_examples=300, deadline=None)
@given(polygons)
def test_negate_matches_hull_of_negated_vertices(p):
    out = geom2d.negate(p)
    assert out == ConvexPolygon.from_points([(-v.x, -v.y) for v in p.vertices])
    assert geom2d.negate(out) == p


@settings(max_examples=400, deadline=None)
@given(polygons, polygons)
@example(  # the clip collapses to two points 5.6e-16 apart
    ConvexPolygon.from_points([(0.0, 0.0), (0.0, -1.0), (1.0, 0.0)]),
    ConvexPolygon.from_points([(0.0, 1.0), (0.0625, 0.0),
                               (-6.0, 1.5175369318688041)]))
def test_intersect_matches_hull_of_clip_output(a, b):
    out = geom2d.intersect(a, b)
    assert geom2d.intersects(a, b) == (out is not None)
    if a.n < 3 or b.n < 3:
        return
    pts = geom2d._clip(a, b)
    if pts is None:
        assert out is None
    else:
        assert out == ConvexPolygon.from_points(pts)
        out.validate()
