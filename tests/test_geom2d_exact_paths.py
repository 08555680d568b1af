"""Property tests: each shortcut of geom2d against the general path it skips.

The shortcuts must not move a single output bit, so every test compares
exactly (``==`` on float tuples).  The general paths are kept here as they
were before the shortcuts: the sort-and-chain hull (``_hull_chain`` and
``_prune``), the sector through that hull where its ring is canonical,
the edge merge with modular indices and the angle intersection that
deduplicates every list of pieces.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from geom_checks import validate
from setloc import geom2d
from setloc.geom2d import (EPS_GEOM, TWO_PI, AngleInterval, ConvexPolygon,
                           Interval)

# --- the general paths -----------------------------------------------------


def bounding_box(pts) -> ConvexPolygon:
    xs, ys = zip(*pts)
    return ConvexPolygon.box(min(xs), max(xs), min(ys), max(ys))


def general_hull(pts):
    """_hull_vertices without the canonical-ring shortcut: the sort-and-chain
    hull, or where it leaves fewer than three vertices, the box about the
    points."""
    hull = geom2d._prune(geom2d._hull_chain(sorted(set(pts))))
    if len(hull) < 3:
        return bounding_box(pts).vertices
    return geom2d._canonical(hull)


def general_sector(angle: AngleInterval, rng: Interval) -> ConvexPolygon:
    """sector_outer_polygon's ring, hulled by general_hull where the ring is
    canonical as built; where it is not (a sector within a few EPS_GEOM of
    the sensor, a segment or a point), the box about the ring."""
    r_lo, r_hi = rng.lo, rng.hi
    c, w = angle.center, angle.half_width
    m = max(2, math.ceil(2.0 * w / geom2d._SECTOR_MAX_STEP))
    step = 2.0 * w / m
    rc = r_hi / math.cos(0.5 * step)
    inner = r_lo > EPS_GEOM
    pts = [(r_lo * math.cos(c - w), r_lo * math.sin(c - w)) if inner
           else (0.0, 0.0)]
    for j in range(m + 1):
        a = c - w + j * step
        pts.append((rc * math.cos(a), rc * math.sin(a)))
    if inner:
        pts.append((r_lo * math.cos(c + w), r_lo * math.sin(c + w)))
    if geom2d._canonical_ring(pts) is None:
        return bounding_box(pts)
    return ConvexPolygon(general_hull(pts))


def general_merge(a, b):
    """The edge merge walking both rings with modular indices."""
    n, m = len(a), len(b)
    out = []
    i = j = 0
    while i < n or j < m:
        (pax, pay), (pbx, pby) = a[i % n], b[j % m]
        out.append((pax + pbx, pay + pby))
        if i == n:
            j += 1
            continue
        if j == m:
            i += 1
            continue
        (qax, qay), (qbx, qby) = a[(i + 1) % n], b[(j + 1) % m]
        c = (qax - pax) * (qby - pby) - (qay - pay) * (qbx - pbx)
        if c >= 0.0:
            i += 1
        if c <= 0.0:
            j += 1
    return out


def general_intersect_angles(a: AngleInterval, b: AngleInterval):
    """intersect_angles deduplicating every list of pieces."""
    if a.is_full:
        return b
    if b.is_full:
        return a
    s = geom2d.wrap_angle(b.center - a.center)
    pieces = []
    for k in (-1, 0, 1):
        lo = max(-a.half_width, s - b.half_width + k * TWO_PI)
        hi = min(a.half_width, s + b.half_width + k * TWO_PI)
        if hi >= lo - 1e-15:
            pieces.append((lo, hi))
    uniq = []
    for p in pieces:
        if not any(abs(math.remainder(p[0] - q[0], TWO_PI)) < 1e-12
                   and abs((p[1] - p[0]) - (q[1] - q[0])) < 1e-12 for q in uniq):
            uniq.append(p)
    if not uniq:
        return None
    arcs = [AngleInterval(a.center + 0.5 * (lo + hi), max(0.0, 0.5 * (hi - lo)))
            for lo, hi in uniq]
    return arcs[0] if len(arcs) == 1 else geom2d.enclose_angles(arcs)


def same_bits(p, q) -> bool:
    return repr(p) == repr(q)


# --- strategies ------------------------------------------------------------

scales = st.sampled_from([10.0 ** k for k in range(-9, 3)])
offsets = st.sampled_from([0.0, 1.0, -7.5, 1e3])


@st.composite
def convex_rings(draw):
    """A CCW ring of points on an ellipse, at a scale from 1e-9 to 1e2, with
    near-duplicate and collinear vertices mixed in and any start vertex."""
    n = draw(st.integers(3, 12))
    angles = sorted(draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                                  min_size=n, max_size=n, unique=True)))
    scale, ox, oy = draw(scales), draw(offsets), draw(offsets)
    rx, ry = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    ring = [(ox + scale * rx * math.cos(t), oy + scale * ry * math.sin(t))
            for t in angles]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(ring) - 1))
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % len(ring)]
        kind = draw(st.sampled_from(["duplicate", "collinear"]))
        if kind == "duplicate":
            d = draw(st.sampled_from([0.0, 1e-12, 0.5 * EPS_GEOM, 2 * EPS_GEOM]))
            ring.insert(i + 1, (ax + d, ay - d))
        else:
            ring.insert(i + 1, (0.5 * (ax + bx), 0.5 * (ay + by)))
    k = draw(st.integers(0, len(ring) - 1))
    return ring[k:] + ring[:k]


half_widths = st.one_of(
    st.sampled_from([0.0, 1e-16, 1e-15, 2e-15, 1e-12, 1e-9, 1e-6,
                     math.pi / 2.0 - 1e-9]),
    st.floats(0.0, math.pi / 2.0, exclude_max=True))
radii = st.one_of(st.sampled_from([0.0, 1e-9, 2e-9, 1e-3, 1.0, 1e3]),
                  st.floats(1e-9, 1e3))


@st.composite
def sector_args(draw):
    angle = AngleInterval(draw(st.floats(-4.0, 4.0)), draw(half_widths))
    r_hi = draw(radii)
    r_lo = draw(st.one_of(st.just(0.0), st.just(r_hi),
                          st.floats(0.0, 1.0).map(lambda t: t * r_hi)))
    return angle, Interval(r_lo, r_hi)


coord = st.floats(-50.0, 50.0, allow_subnormal=False)


@st.composite
def canonical_polygons(draw, max_n=None):
    """Hulls of up to max_n points, or of convex rings and point lists: the
    boxes about points and segments among them."""
    if max_n is not None:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1,
                            max_size=max_n))
    else:
        pts = draw(st.one_of(
            convex_rings(),
            st.lists(st.tuples(coord, coord), min_size=1, max_size=10)))
    return ConvexPolygon.from_points(pts)


point_lists = st.lists(st.tuples(coord, coord), min_size=3, max_size=8)


@st.composite
def near_boundary(draw):
    """(s, a, b): s the box about a point or a segment beyond one support
    line of a + b by a distance around the clips' EPS_GEOM slack, or any
    polygon."""
    a, b = draw(canonical_polygons()), draw(canonical_polygons())
    if draw(st.booleans()):
        return draw(canonical_polygons()), a, b
    ax, ay, bx, by = draw(st.sampled_from(geom2d._sum_lines(a, b)))
    ex, ey = bx - ax, by - ay
    elen = math.hypot(ex, ey)
    d = draw(st.sampled_from([0.0, 0.3, 0.7, 0.99, 1.01, 1.5, 3.0, 1e3]))
    # outward: to the right of the line
    nx, ny = d * EPS_GEOM * ey / elen, -d * EPS_GEOM * ex / elen
    ts = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
    return (ConvexPolygon.from_points([(ax + t * ex + nx, ay + t * ey + ny)
                                       for t in ts]), a, b)


# --- tests -----------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(convex_rings())
@example([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
@example([(0.0, 0.0), (6e-10, 0.0), (6e-10, 6e-10), (0.0, 6e-10)])
# convex rings whose turns are all strictly left but where a vertex fails
# the keep test: a dent of 1e-12 below an edge, a vertex EPS_GEOM / 2 from
# its neighbour, a sliver tip
@example([(0.0, 0.0), (0.5, -1e-12), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
@example([(1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0),
          (1.0 + 1e-13, 0.5 * EPS_GEOM)])
@example([(0.0, 0.0), (1.0, 0.0), (2.0, 1e-10)])
def test_hull_vertices_is_the_general_hull(ring):
    assert geom2d._hull_vertices(ring) == general_hull(ring)
    assert geom2d._hull_vertices(tuple(ring)) == general_hull(ring)


# Pairs of sectors at adjacent floats of one argument, at the thin, wide
# and near-apex extremes of sector_outer_polygon, where the canonical walk
# decides whether the ring is kept as built.
SECTOR_EDGES = {
    # the inner arc vertices' turns, about rc step^3
    "arc turns": (
        (AngleInterval(0.3, 7.745980451301741e-05), Interval(0.0, 1.0)),
        (AngleInterval(0.3, 7.745980451301742e-05), Interval(0.0, 1.0))),
    # the arc's ends, over a radial side rc - r_lo that the circumscribed
    # arc keeps above 1e-9
    "arc ends": (
        (AngleInterval(0.3, 1.2e-4), Interval(0.999999998799911, 1.0)),
        (AngleInterval(0.3, 1.2e-4), Interval(0.9999999987999109, 1.0))),
    # the inner corners, as the half-width nears pi / 2 and as r_lo nears 0
    "inner corners, wide": (
        (AngleInterval(0.3, 1.5707963178523565), Interval(0.5, 1.0)),
        (AngleInterval(0.3, 1.5707963178523563), Interval(0.5, 1.0))),
    "inner corners, small r_lo": (
        (AngleInterval(0.3, 0.5), Interval(3.5652033355818336e-09, 1.0)),
        (AngleInterval(0.3, 0.5), Interval(3.565203335581834e-09, 1.0))),
    # the apex, which nears the outer chord as the half-width nears pi / 2
    "apex": (
        (AngleInterval(0.3, 1.5707933412406503), Interval(0.0, 1e-3)),
        (AngleInterval(0.3, 1.57079334124065), Interval(0.0, 1e-3))),
    # at 1e7 m the rounding of the vertices outweighs EPS_GEOM
    "rounding": (
        (AngleInterval(0.3, 1.4804149091468687e-07), Interval(0.0, 1e7)),
        (AngleInterval(0.3, 1.480414909146869e-07), Interval(0.0, 1e7))),
}


def sector_edge_examples(test):
    for pair in SECTOR_EDGES.values():
        for args in pair:
            test = example(args)(test)
    return test


@settings(max_examples=600, deadline=None)
@given(sector_args())
@example((AngleInterval(0.3, 0.0), Interval(0.0, 5.0)))
@example((AngleInterval(0.3, 1e-15), Interval(2.0, 2.0)))
@example((AngleInterval(-3.0, 0.2), Interval(0.0, 1e-9)))
@example((AngleInterval(1.0, 1e-12), Interval(1e-9, 2e-9)))
# an apex 1e-12 from the outer chord
@example((AngleInterval(0.0, 1.5707963257948965), Interval(0.0, 0.001)))
@sector_edge_examples
def test_sector_is_the_hull_of_its_ring(args):
    angle, rng = args
    got = geom2d.sector_outer_polygon(angle, rng)
    assert got == general_sector(angle, rng)
    assert same_bits(got, general_sector(angle, rng))


@settings(max_examples=600, deadline=None)
@given(st.one_of(canonical_polygons().map(lambda p: p.vertices),
                 point_lists),
       st.one_of(canonical_polygons().map(lambda p: p.vertices),
                 point_lists))
def test_merge_walks_are_the_modular_merge(a, b):
    # any two rings of three or more points, convex or not, so that the
    # left-turn test fails at every place of the ring, the first included
    ring = general_merge(a, b)
    assert geom2d._merge_edges(a, b) == ring
    turns = all((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0
                for (ax, ay), (bx, by), (cx, cy)
                in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1]))
    assert geom2d._left_turn_lines(ring) == \
        (geom2d._edge_lines(ring) if turns else None)


@settings(max_examples=600, deadline=None)
@given(st.one_of(near_boundary(), st.tuples(canonical_polygons(),
                                            canonical_polygons(max_n=2),
                                            canonical_polygons(max_n=2))))
def test_intersects_sum_is_the_clip_it_skips(case):
    # the bounding-box "no" answers of SumBoundary.meets only where the clip
    # is empty, and the clip is the clip by the sum's support lines, with
    # operands of any size, the boxes about points and segments included
    s, a, b = case
    boundary = geom2d.sum_boundary(a, b)
    lines = geom2d._sum_lines(a, b)
    assert boundary.lines == lines
    clipped = geom2d.clip_by(s, lines)
    assert boundary.meets(s) == (geom2d._keeps_a_vertex(s.vertices, lines)
                                 or clipped is not None)
    assert boundary.clip(s) == clipped


arcs = st.builds(AngleInterval, st.floats(-7.0, 7.0),
                 st.one_of(st.floats(0.0, math.pi),
                           st.sampled_from([0.0, math.pi / 2, math.pi])))


@settings(max_examples=600, deadline=None)
@given(arcs, arcs)
def test_intersect_angles_is_the_deduplicated_intersection(a, b):
    assert same_bits(geom2d.intersect_angles(a, b),
                     general_intersect_angles(a, b))


@settings(max_examples=300, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), scales, scales)
def test_box_keeps_its_corners(x, y, w, h):
    p = ConvexPolygon.box(x, x + w, y, y + h)
    validate(p)
    corners = ((x, y), (x + w, y), (x + w, y + h), (x, y + h))
    if min(x + w - x, y + h - y) >= 2 * EPS_GEOM:
        assert p.vertices == corners
    else:
        # a side shorter than 2 EPS_GEOM is widened to that about its
        # middle, and holds its corners
        assert all(geom2d.contains(p, c, tol=0.0) for c in corners)
        x0, x1, y0, y1 = p.bbox
        assert x1 - x0 <= max(x + w - x, 2 * EPS_GEOM) + 1e-13
        assert y1 - y0 <= max(y + h - y, 2 * EPS_GEOM) + 1e-13
    if min(x + w - x, y + h - y) > 4 * EPS_GEOM:
        # where the hull keeps every corner, the box is the hull's box
        assert p.vertices == general_hull(list(p.vertices))
