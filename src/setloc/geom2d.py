"""Sound 2D convex-set algebra.

Convex polygons in vertex form plus wrap-aware angle intervals.  Every
operation that cannot be computed exactly returns a *superset* of the exact
result, so containment guarantees survive arbitrary composition.  All values
are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

EPS_GEOM = 1e-9          # absolute tolerance (meters) for geometric predicates
# relative margin of inner bounds (ConvexPolygon.inner_disk), in units of
# the largest coordinate: hundreds of times the few ulps by which the
# operations that compute them, or test against them, can round
INNER_MARGIN = 1e-12
V_MAX = 32               # default vertex budget after simplification
DEFAULT_BALL_SEGMENTS = 16
_SECTOR_MAX_STEP = math.pi / 16.0

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    return a


# ---------------------------------------------------------------------------
# intervals on the real line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"interval lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, v: float, tol: float = EPS_GEOM) -> bool:
        return self.lo - tol <= v <= self.hi + tol

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


# ---------------------------------------------------------------------------
# angle intervals (arcs on the circle)
# ---------------------------------------------------------------------------

_degenerate_intersections = 0


def degenerate_intersection_count() -> int:
    """How many angle intersections had to enclose a disconnected result."""
    return _degenerate_intersections


def reset_degenerate_intersection_count() -> None:
    global _degenerate_intersections
    _degenerate_intersections = 0


@dataclass(frozen=True, init=False)
class AngleInterval:
    """Arc {center - half_width .. center + half_width} on the circle.

    half_width == pi represents the full circle.  Membership and all algebra
    wrap modulo 2*pi.
    """

    center: float
    half_width: float

    def __init__(self, center: float, half_width: float):
        # each field is set once, already wrapped and capped
        if not (0.0 <= half_width <= math.pi + 1e-12):
            raise ValueError(f"bad half width {half_width}")
        object.__setattr__(self, "center", wrap_angle(center))
        object.__setattr__(self, "half_width",
                           half_width if half_width < math.pi else math.pi)

    @classmethod
    def full(cls) -> "AngleInterval":
        return cls(0.0, math.pi)

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    @property
    def width(self) -> float:
        return 2.0 * self.half_width

    @property
    def is_full(self) -> bool:
        return self.half_width >= math.pi - 1e-12

    def contains(self, angle: float, tol: float = EPS_GEOM) -> bool:
        if self.is_full:
            return True
        return abs(wrap_angle(angle - self.center)) <= self.half_width + tol

    def shift(self, delta: float) -> "AngleInterval":
        return AngleInterval(self.center + delta, self.half_width)

    def widen(self, delta: float) -> "AngleInterval":
        return AngleInterval(self.center, min(math.pi, self.half_width + delta))

    def sum(self, other: "AngleInterval") -> "AngleInterval":
        """Interval of a + b over both arcs (widths add, capped at full)."""
        return AngleInterval(self.center + other.center,
                             min(math.pi, self.half_width + other.half_width))


FULL_CIRCLE = AngleInterval.full()
_TURNS = (-TWO_PI, 0.0, TWO_PI)   # k * TWO_PI for k = -1, 0, 1


def intersect_angles(a: AngleInterval, b: AngleInterval) -> AngleInterval | None:
    """Intersection of two arcs, or None when disjoint.

    When the exact intersection is two disconnected arcs the smallest arc
    enclosing both is returned (a sound over-approximation); the module-level
    degenerate counter is incremented so callers can audit how often.
    """
    global _degenerate_intersections
    if a.is_full:
        return b
    if b.is_full:
        return a
    # work in a's frame: a spans [-ha, ha], b spans [s-hb, s+hb] + 2*pi*k
    ha, hb = a.half_width, b.half_width
    s = wrap_angle(b.center - a.center)
    lo_b, hi_b = s - hb, s + hb
    pieces: list[tuple[float, float]] = []
    for shift in _TURNS:
        lo = max(-ha, lo_b + shift)
        hi = min(ha, hi_b + shift)
        if hi >= lo - 1e-15:
            pieces.append((lo, hi))
    if len(pieces) == 1:
        (lo, hi), = pieces
        return AngleInterval(a.center + 0.5 * (lo + hi), max(0.0, 0.5 * (hi - lo)))
    # dedupe pieces identical modulo 2*pi
    uniq: list[tuple[float, float]] = []
    for p in pieces:
        if not any(abs(math.remainder(p[0] - q[0], TWO_PI)) < 1e-12
                   and abs((p[1] - p[0]) - (q[1] - q[0])) < 1e-12 for q in uniq):
            uniq.append(p)
    if not uniq:
        return None
    if len(uniq) == 1:
        lo, hi = uniq[0]
        return AngleInterval(a.center + 0.5 * (lo + hi), max(0.0, 0.5 * (hi - lo)))
    _degenerate_intersections += 1
    arcs = [AngleInterval(a.center + 0.5 * (lo + hi), max(0.0, 0.5 * (hi - lo)))
            for lo, hi in uniq]
    return enclose_angles(arcs)


def enclose_angles(arcs: Sequence[AngleInterval]) -> AngleInterval:
    """Smallest arc covering the union of the given arcs: enclose_spans of
    their starts (a.lo) and widths, written out."""
    if not arcs:
        raise ValueError("enclose_angles needs at least one interval")
    halves = [a.half_width for a in arcs]
    return enclose_spans([wrap_angle(a.center - h) for a, h in zip(arcs, halves)],
                         [2.0 * h for h in halves])


def enclose_spans(los: Sequence[float], widths: Sequence[float]
                  ) -> AngleInterval:
    """Smallest arc covering the arcs that start at los (each in (-pi, pi])
    and span widths (each in [0, 2*pi]); at least one arc.  It starts after
    the largest gap in their union, the first in sorted order (so the input
    order does not matter), and reaches d + width of each arc, d the
    distance to the arc's start in [0, 2*pi).  A gap of 1e-12 or less, a
    reach of 2*pi - 1e-12 or more or a width of 2*pi - 2e-12 or more gives
    the full circle."""
    if max(widths) >= TWO_PI - 2e-12:
        return FULL_CIRCLE
    spans = sorted(zip(los, widths))
    # the gap in front of each start runs from the farthest end before it,
    # with every arc taken one turn back for the first start
    reach = max([lo + w for lo, w in spans]) - TWO_PI
    best_gap, start = -math.inf, 0.0
    for lo, w in spans:
        if lo - reach > best_gap:
            best_gap, start = lo - reach, lo
        if lo + w > reach:
            reach = lo + w
    if best_gap <= 1e-12:
        return FULL_CIRCLE
    width = 0.0
    for lo, w in spans:
        d = lo - start
        d -= TWO_PI * math.floor(d / TWO_PI)  # into [0, 2*pi)
        if d + w > width:
            width = d + w
    if width >= TWO_PI - 1e-12:
        return FULL_CIRCLE
    return AngleInterval(start + 0.5 * width, 0.5 * width)


# ---------------------------------------------------------------------------
# convex polygons
# ---------------------------------------------------------------------------

def _hull_chain(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain over distinct points in lexicographic order,
    such as sorted(set(points)); each turn is the cross product
    (a - o) x (p - o), written out."""
    lower: list[tuple[float, float]] = []
    for p in pts:
        px, py = p
        while len(lower) >= 2:
            (ox, oy), (ax, ay) = lower[-2], lower[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                lower.pop()
            else:
                break
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        px, py = p
        while len(upper) >= 2:
            (ox, oy), (ax, ay) = upper[-2], upper[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                upper.pop()
            else:
                break
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _prune(verts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge near-duplicate vertices and drop near-collinear ones (EPS_GEOM).

    A vertex goes only when it lies within EPS_GEOM of the chord between its
    neighbours; the tip of a sliver is on the chord's line but beyond its
    ends, and dropping it would cut the set.  Vertices go one at a time, the
    first removable one first, as a rescan from the start after each removal
    would find them: only the neighbours of a removed vertex can change, so
    the scan steps back one vertex (to the start when the last one went).
    """
    n = len(verts)
    if n <= 1:
        return verts
    out = [verts[0]]
    for p in verts[1:]:
        q = out[-1]
        if math.hypot(p[0] - q[0], p[1] - q[1]) > EPS_GEOM:
            out.append(p)
    if len(out) >= 2 and math.hypot(out[0][0] - out[-1][0],
                                    out[0][1] - out[-1][1]) <= EPS_GEOM:
        out.pop()
    i = 0
    while len(out) >= 3 and i < len(out):
        (ax, ay), (bx, by) = out[i - 1], out[i]
        cx, cy = out[(i + 1) % len(out)]
        dx, dy = cx - ax, cy - ay
        cross = abs(dx * (by - ay) - dy * (bx - ax))
        l1 = abs(dx) + abs(dy)
        # the chord is at most l1 long, so this vertex is more than EPS_GEOM
        # off its line: the common case, decided without a square root
        if l1 > 2.0 * EPS_GEOM and cross > 2.0 * EPS_GEOM * l1:
            i += 1
            continue
        base = math.hypot(dx, dy)
        dev = math.hypot(bx - ax, by - ay) if base <= EPS_GEOM else cross / base
        if dev <= EPS_GEOM and _dist_point_segment(
                bx, by, ax, ay, cx, cy) <= EPS_GEOM:
            out.pop(i)
            i = 0 if i == len(out) else max(i - 1, 0)
        else:
            i += 1
    return out


def _canonical(verts: Sequence[tuple[float, float]]
               ) -> tuple[tuple[float, float], ...]:
    k = verts.index(min(verts))
    return tuple(verts[k:] + verts[:k])


def _canonical_ring(pts: Sequence[tuple[float, float]]
                    ) -> tuple[tuple[float, float], ...] | None:
    """_canonical(pts) if pts is a CCW ring that _hull_vertices would return
    unchanged, else None; one walk around the ring.

    Each vertex must turn strictly left, the ring must rise and then fall
    lexicographically from its minimum (left turns alone do not show one
    winding: a pentagram-order ring turns left at every vertex and winds
    twice), and each vertex must pass _prune's keep test against its
    neighbours.  That test bounds the vertex's distance to either neighbour
    from below by EPS_GEOM, so _prune neither merges nor drops a vertex.
    The turn and _prune's cross product are the same two products, so one
    value decides both.
    """
    n = len(pts)
    if n < 3:
        return None
    k = pts.index(min(pts))
    ring = tuple(pts[k:]) + tuple(pts[:k])
    (ax, ay), b = ring[-1], ring[0]
    bx, by = b
    falling = False
    for c in ring[1:] + ring[:1]:
        cx, cy = c
        dx, dy = cx - ax, cy - ay
        l1 = abs(dx) + abs(dy)
        if not (l1 > 2.0 * EPS_GEOM
                and (bx - ax) * dy - (by - ay) * dx > 2.0 * EPS_GEOM * l1):
            return None
        if c > b:
            if falling:
                return None
        else:
            falling = True
        ax, ay, b, bx, by = bx, by, c, cx, cy
    return ring


def _hull_vertices(pts: Sequence[tuple[float, float]]
                   ) -> tuple[tuple[float, float], ...]:
    """Canonical vertices of the convex hull of pts (non-empty).  A ring
    that is canonical already is returned as such (_canonical_ring), any
    other point list goes through _chain_hull."""
    return _canonical_ring(pts) or _chain_hull(sorted(set(pts)))


def _chain_hull(pts: list[tuple[float, float]]
                ) -> tuple[tuple[float, float], ...]:
    """Canonical vertices of the hull of distinct points in lexicographic
    order: the chain and _prune, or where fewer than three vertices are
    left, the box about the points (ConvexPolygon.box)."""
    hull = _prune(_hull_chain(pts))
    if len(hull) < 3:
        return ConvexPolygon.box(*_bbox(pts)).vertices
    return _canonical(hull)


def _side(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], or where it is shorter than 2 * EPS_GEOM, that length
    about its middle, each end moved out by at least one float step."""
    if hi - lo >= 2.0 * EPS_GEOM:
        return lo, hi
    mid = 0.5 * (lo + hi)
    return (min(mid - EPS_GEOM, math.nextafter(lo, -math.inf)),
            max(mid + EPS_GEOM, math.nextafter(hi, math.inf)))


@dataclass(frozen=True)
class ConvexPolygon:
    """Bounded convex region as a CCW tuple of (x, y) float pairs.

    Every set has an area: at least three vertices.  A hull of points
    without one (a point, a segment, a sliver that _prune flattens) is the
    box about them, grown where it is thin (ConvexPolygon.box).  Construct
    through :meth:`from_points` unless the vertices are already canonical
    (strictly convex, CCW, starting at the lexicographic minimum).
    """

    vertices: tuple[tuple[float, float], ...]

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "ConvexPolygon":
        pts = [(float(x), float(y)) for x, y in points]
        if not pts:
            raise ValueError("a polygon needs at least one point")
        return cls(_hull_vertices(pts))

    @classmethod
    def from_sorted_points(cls, points: list[tuple[float, float]]
                           ) -> "ConvexPolygon":
        """from_points(points) for distinct points (at least one) in
        lexicographic order: _chain_hull without the set, the sort and the
        canonical walk, which on such a list is a shortcut to the same
        vertices."""
        return cls(_chain_hull(points))

    @classmethod
    def box(cls, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> "ConvexPolygon":
        """The axis-aligned box (x_lo <= x_hi, y_lo <= y_hi), each side
        widened by _side: both are then positive at any finite coordinate,
        and their product, each corner's turn, cannot underflow to zero.
        The corners, from the lower left, are canonical as built; the hull
        would merge corners closer than EPS_GEOM and shrink the box."""
        x0, x1 = _side(float(x_lo), float(x_hi))
        y0, y1 = _side(float(y_lo), float(y_hi))
        return cls(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi), computed when first read."""
        return _bbox(self.vertices)

    @cached_property
    def reflection(self) -> "ConvexPolygon":
        """negate(self), computed when first read."""
        return negate(self)

    @cached_property
    def inner_disk(self) -> tuple[float, float, float] | None:
        """(x, y, radius) of a disk inside the polygon, computed when first
        read: the vertex mean and its least distance to an edge line, less
        INNER_MARGIN times the largest coordinate magnitude, which covers
        the rounding of both.  None when the margin leaves no disk."""
        return _inner_disk(self.vertices, self.bbox)


def area(p: ConvexPolygon) -> float:
    """Shoelace area."""
    v = p.vertices
    s = 0.0
    for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]):
        s += ax * by - bx * ay
    return 0.5 * s


def _dist_point_segment(px: float, py: float, ax: float, ay: float,
                        bx: float, by: float) -> float:
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / d2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _inner_disk(v: Sequence[tuple[float, float]],
                box: tuple[float, float, float, float]
                ) -> tuple[float, float, float] | None:
    n = len(v)
    cx = sum(x for x, _ in v) / n
    cy = sum(y for _, y in v) / n
    radius = math.inf
    (ax, ay) = v[-1]
    for bx, by in v:
        ex, ey = bx - ax, by - ay
        radius = min(radius,
                     (ex * (cy - ay) - ey * (cx - ax)) / math.hypot(ex, ey))
        ax, ay = bx, by
    radius -= INNER_MARGIN * max(map(abs, box))
    return (cx, cy, radius) if radius > 0.0 else None


def contains(p: ConvexPolygon, q: tuple[float, float], tol: float = EPS_GEOM) -> bool:
    """Point membership within absolute tolerance tol (meters)."""
    return _ring_contains(p.vertices, q[0], q[1], tol)


def _ring_contains(ring: Sequence[tuple[float, float]], qx: float, qy: float,
                   tol: float) -> bool:
    """Whether (qx, qy) lies within tol of the left side of every edge of a
    CCW ring (three or more points)."""
    ax, ay = ring[-1]
    for bx, by in ring:
        ex, ey = bx - ax, by - ay
        if ex * (qy - ay) - ey * (qx - ax) < -tol * math.hypot(ex, ey):
            return False
        ax, ay = bx, by
    return True


def contains_polygon(outer: ConvexPolygon, inner: ConvexPolygon,
                     tol: float = EPS_GEOM) -> bool:
    """Whether every vertex of inner lies in outer within tol: the same
    answer as contains for each vertex.

    An edge of outer keeps every vertex when it keeps the corner of inner's
    bounding box farthest to its right (the monotone-rounding argument of
    _clip_ring); inner's vertices are tested one by one only against the
    edges where that corner fails.
    """
    pts = inner.vertices
    x0, x1, y0, y1 = inner.bbox
    ax, ay = outer.vertices[-1]
    for bx, by in outer.vertices:
        ex, ey = bx - ax, by - ay
        slack = -tol * math.hypot(ex, ey)
        right = (ex * ((y0 if ex > 0.0 else y1) - ay)
                 - ey * ((x1 if ey > 0.0 else x0) - ax))
        if right < slack:
            for qx, qy in pts:
                if ex * (qy - ay) - ey * (qx - ax) < slack:
                    return False
        ax, ay = bx, by
    return True


def translate(p: ConvexPolygon, dx: float, dy: float) -> ConvexPolygon:
    """Shift by (dx, dy); rounding can reorder near-equal x, so the start
    vertex is re-chosen."""
    return ConvexPolygon(_canonical([(x + dx, y + dy) for x, y in p.vertices]))


def negate(p: ConvexPolygon) -> ConvexPolygon:
    """Point reflection through the origin: {-q : q in p}.

    Negation is exact and a point reflection keeps convexity and CCW order,
    so only the start vertex moves (to the new lexicographic minimum).
    """
    return ConvexPolygon(_canonical([(-x, -y) for x, y in p.vertices]))


def _merge_edges(a: Sequence[tuple[float, float]],
                 b: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vertex candidates of the sum of two canonical polygons (n, m >= 3).

    Both walks start at the lexicographic minima, whose sum is a vertex of
    the result, and advance through the edges in angular order (de Berg et
    al., Computational Geometry, section 13.3): at most n + m points.  When
    one walk is back at its start, the other's remaining vertices are
    shifted by that start.  A NaN cross product, which would advance
    neither walk, raises ValueError.
    """
    n, m = len(a), len(b)
    # each walk reads one vertex ahead, and one more past its end
    a = (*a, a[0], a[1])
    b = (*b, b[0], b[1])
    (pax, pay), (qax, qay) = a[0], a[1]
    (pbx, pby), (qbx, qby) = b[0], b[1]
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < n and j < m:
        out.append((pax + pbx, pay + pby))
        c = (qax - pax) * (qby - pby) - (qay - pay) * (qbx - pbx)
        if c >= 0.0:
            i += 1
            pax, pay = qax, qay
            qax, qay = a[i + 1]
            if c == 0.0:
                j += 1
                pbx, pby = qbx, qby
                qbx, qby = b[j + 1]
        elif c < 0.0:
            j += 1
            pbx, pby = qbx, qby
            qbx, qby = b[j + 1]
        else:
            raise ValueError("Minkowski sum of a ring with a non-finite "
                             "vertex")
    out += [(pax + x, pay + y) for x, y in b[j:m]]
    out += [(x + pbx, y + pby) for x, y in a[i:n]]
    return out


def minkowski_sum(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum {p + q : p in a, q in b} (no vertex cap applied)."""
    return ConvexPolygon.from_points(_merge_edges(a.vertices, b.vertices))


def convex_hull(sets: Sequence[ConvexPolygon]) -> ConvexPolygon:
    """Smallest convex set containing every input set."""
    if not sets:
        raise ValueError("convex_hull needs at least one set")
    pts: list[tuple[float, float]] = []
    for s in sets:
        pts.extend(s.vertices)
    return ConvexPolygon.from_points(pts)


# --- intersection ----------------------------------------------------------

# a directed line (ax, ay, bx, by); its closed left side is the half-plane
Line = tuple[float, float, float, float]


def _edge_lines(v: Sequence[tuple[float, float]]) -> list[Line]:
    """The lines through the edges of a vertex ring, in vertex order."""
    return [(ax, ay, bx, by) for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1])]


def _clip_poly_halfplane(pts: Sequence[tuple[float, float]], ax: float, ay: float,
                         bx: float, by: float) -> Sequence[tuple[float, float]]:
    # keep the closed left side of the directed line a->b, with EPS_GEOM of
    # slack; pts itself when the line cuts nothing.  A crossing is added only
    # where an edge crosses the line itself: an edge between a cut vertex and
    # one that only the slack keeps lies wholly right of the line, and the
    # line's crossing would fall off the edge, outside the polygon
    ex, ey = bx - ax, by - ay
    elen = math.hypot(ex, ey)
    if elen <= EPS_GEOM:
        return pts
    slack = -EPS_GEOM * elen
    sides = [ex * (y - ay) - ey * (x - ax) for x, y in pts]
    if min(sides) >= slack:
        return pts
    out: list[tuple[float, float]] = []
    n = len(pts)
    for i in range(n):
        sc = sides[i]
        sn = sides[(i + 1) % n]
        cin = sc >= slack
        if cin:
            out.append(pts[i])
        if cin != (sn >= slack) and (sc >= 0.0) != (sn >= 0.0):
            (cx, cy), (nx, ny) = pts[i], pts[(i + 1) % n]
            t = sc / (sc - sn)
            out.append((cx + t * (nx - cx), cy + t * (ny - cy)))
    return out


def _bbox(pts: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    xs, ys = zip(*pts)
    return min(xs), max(xs), min(ys), max(ys)


def _clip_ring(pts: Sequence[tuple[float, float]],
               box: tuple[float, float, float, float],
               lines: Sequence[Line]) -> Sequence[tuple[float, float]] | None:
    """Sutherland-Hodgman clip of a ring, whose bounding box is box, by the
    left sides of lines.

    The output runs like pts and is pts itself when no line cuts it; None
    when it is empty.  The side function is linear and its rounding monotone
    in each coordinate, so no vertex lies farther to a line's right than the
    box corner farthest to its right, nor farther to its left than the
    corner farthest to its left.  A line is skipped when the right corner is
    kept (the clip would return the ring unchanged), and the clip is empty
    when the left corner is cut (every vertex would be).  The box changes
    only when a line cuts.
    """
    x0, x1, y0, y1 = box
    for ax, ay, bx, by in lines:
        ex, ey = bx - ax, by - ay
        right = (ex * ((y0 if ex > 0.0 else y1) - ay)
                 - ey * ((x1 if ey > 0.0 else x0) - ax))
        if right >= 0.0:
            continue
        elen = math.hypot(ex, ey)
        slack = -EPS_GEOM * elen
        if right >= slack:
            continue
        left = (ex * ((y1 if ex > 0.0 else y0) - ay)
                - ey * ((x0 if ey > 0.0 else x1) - ax))
        # a line shorter than EPS_GEOM cuts nothing (_clip_poly_halfplane)
        if left < slack and elen > EPS_GEOM:
            return None
        cut = _clip_poly_halfplane(pts, ax, ay, bx, by)
        if cut is pts:
            continue
        if not cut:
            return None
        pts = cut
        x0, x1, y0, y1 = _bbox(pts)
    return pts


def clip_by(s: ConvexPolygon, lines: Sequence[Line]) -> ConvexPolygon | None:
    """s clipped by the left sides of lines, in their order: s itself when
    no line cuts it, None when the clip is empty.

    A cut ring goes through the hull, as in _hull_vertices, which mends
    the duplicate, collinear or reflex vertices that rounding can leave.  A
    ring that collapses, with fewer than three vertices left by _prune, has
    no hull; the box about it and s both hold the exact clip, and the one
    with the smaller area is returned (the box can be larger than s).
    """
    pts = _clip_ring(s.vertices, s.bbox, lines)
    if pts is s.vertices:
        return s
    if pts is None:
        return None
    ring = _canonical_ring(pts)
    if ring is None:
        hull = _prune(_hull_chain(sorted(set(pts))))
        if len(hull) < 3:
            box = ConvexPolygon.box(*_bbox(pts))
            return box if area(box) < area(s) else s
        ring = _canonical(hull)
    return ConvexPolygon(ring)


def intersect(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Intersection up to the clips' EPS_GEOM slack; None signals disjoint
    sets (a value, not an error).

    a is clipped by the edge lines of b, so a itself is returned when no
    line of b cuts it: with a inside b the clip costs one side test per
    vertex and line.  Pass the set expected to be the smaller one as a.
    """
    return clip_by(a, _edge_lines(b.vertices))


def _left_turn_lines(ring: Sequence[tuple[float, float]]) -> list[Line] | None:
    """_edge_lines(ring) if the ring (three or more points) turns strictly
    left at every vertex, else None; one walk."""
    (ax, ay), (bx, by) = ring[-1], ring[0]
    lines: list[Line] = []
    for cx, cy in ring[1:] + ring[:1]:
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0.0:
            return None
        lines.append((bx, by, cx, cy))
        ax, ay, bx, by = bx, by, cx, cy
    return lines


def _sum_lines(a: ConvexPolygon, b: ConvexPolygon) -> list[Line]:
    """Boundary lines of a + b: the edges of the merge ring (de Berg et
    al., section 13.3) where it turns strictly left at every vertex, the
    boundary of a + b up to rounding; else, where rounding left a
    duplicate, collinear or reflex vertex, the edges of its hull
    (_hull_vertices).  The merge ring winds once by construction, so left
    turns alone show it convex.  A ring that turns left throughout but
    fails the canonical walk's keep test keeps its own lines here, while
    minkowski_sum(a, b) builds its pruned hull.
    """
    ring = _merge_edges(a.vertices, b.vertices)
    lines = _left_turn_lines(ring)
    return lines if lines is not None else _edge_lines(_hull_vertices(ring))


class SumBoundary(NamedTuple):
    """The boundary of a + b without the sum, built once to clip several
    sets by: the support lines of the sum (_sum_lines).
    """

    lines: list[Line]

    def clip(self, s: ConvexPolygon) -> ConvexPolygon | None:
        """s clipped by the support half-planes of a + b (_sum_lines), each
        with the same EPS_GEOM outward slack as intersect, without building
        the sum: the merge ring's edges where it turns left throughout, the
        hull's edges otherwise.  s itself when no half-plane cuts it, None
        when the result is empty."""
        return clip_by(s, self.lines)

    def meets(self, s: ConvexPolygon) -> bool:
        """Whether clip(s) is not None.

        A set whose bounding box one line leaves beyond its slack is
        disjoint from the sum (the left-corner test of _clip_ring, which
        returns None in that case); a set with a vertex inside all the lines
        is not clipped; of any other set's clip only the emptiness is kept.
        """
        lines = self.lines
        return not _leaves_box(s.bbox, lines) and (
            _keeps_a_vertex(s.vertices, lines) or clip_by(s, lines) is not None)


def sum_boundary(a: ConvexPolygon, b: ConvexPolygon) -> SumBoundary:
    return SumBoundary(_sum_lines(a, b))


def clip_by_sums(s: ConvexPolygon, boundaries: Sequence[SumBoundary]
                 ) -> ConvexPolygon | None:
    """s clipped by the lines of every boundary in their order, in one
    clip_by: each boundary's clip in turn, without the hulls between."""
    return clip_by(s, [line for b in boundaries for line in b.lines])


def _leaves_box(box: tuple[float, float, float, float],
                lines: Sequence[Line]) -> bool:
    """Whether a line longer than EPS_GEOM has the whole box beyond its
    EPS_GEOM slack on its right: then no point of a set in the box is kept
    by _clip_ring.  The box corner farthest to the line's left is tested,
    as in _clip_ring."""
    x0, x1, y0, y1 = box
    for ax, ay, bx, by in lines:
        ex, ey = bx - ax, by - ay
        left = (ex * ((y1 if ex > 0.0 else y0) - ay)
                - ey * ((x0 if ey > 0.0 else x1) - ax))
        if left < 0.0:
            elen = math.hypot(ex, ey)
            if left < -EPS_GEOM * elen and elen > EPS_GEOM:
                return True
    return False


def _keeps_a_vertex(pts: Sequence[tuple[float, float]],
                    lines: Sequence[Line]) -> bool:
    """Whether some point of pts lies on the closed left side of every line,
    by _clip_poly_halfplane's side formula without its slack.

    Such a point is kept by every clip of _clip_ring, so its result is not
    empty.  Each point is tested first against the line that rejected the
    point before it.
    """
    worst = lines[0]
    for x, y in pts:
        ax, ay, bx, by = worst
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0.0:
            continue
        for line in lines:
            ax, ay, bx, by = line
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0.0:
                worst = line
                break
        else:
            return True
    return False


# --- outer approximations --------------------------------------------------

def _outer_ring(pts: list[tuple[float, float]]) -> ConvexPolygon:
    """The polygon of a ring built about an arc: the ring itself where it
    is canonical as built, else the box about it (its vertices too close
    for the hull to keep them all, which would cut the arc)."""
    ring = _canonical_ring(pts)
    return ConvexPolygon(ring) if ring is not None else \
        ConvexPolygon.box(*_bbox(pts))


def ball_outer_polygon(radius: float,
                       k: int = DEFAULT_BALL_SEGMENTS) -> ConvexPolygon:
    """Regular k-gon circumscribed about the origin-centered disk, or the
    box about it (_outer_ring).

    The apothem equals radius, so the polygon always covers the disk at the
    cost of a sec(pi/k)**2 area factor.  Vertex j lies at angle
    (2j + 1) pi / k.  Only angles in [0, pi / 4] are evaluated; every vertex
    is one of those cosine and sine pairs, swapped (a mirror in the
    diagonal) and with its signs set (mirrors in the axes).  So the polygon
    is exactly symmetric about the x axis for every k, about the y axis for
    even k and about the diagonal for k a multiple of 8, and its
    axis-parallel edges are exactly so: summed with a box-grown set, such
    an edge meets the box's with a cross product of zero in the edge merge,
    and the sum keeps no collinear vertex for the hull to mend.
    """
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    if k < 4:
        raise ValueError("ball polygon needs k >= 4")
    # the circumradius, 4 ulps longer: the rounding of the vertices alone
    # can move an edge up to 1.5 ulps of radius into the disk
    rc = radius / math.cos(math.pi / k) * (1.0 + 4.0 * sys.float_info.epsilon)
    pts = []
    for j in range(k):
        # vertex j at a pi / (2k), folded into [0, pi / 4] by mirrors in
        # the x axis, the y axis and the diagonal
        a, sx, sy = 4 * j + 2, 1.0, 1.0
        if a > 2 * k:
            a, sy = 4 * k - a, -1.0
        if a > k:
            a, sx = 2 * k - a, -1.0
        swap = 2 * a > k
        if swap:
            a = k - a
        ang = a * math.pi / (2 * k)
        x, y = rc * math.cos(ang), rc * math.sin(ang)
        if swap:
            x, y = y, x
        pts.append((sx * x, sy * y))
    return _outer_ring(pts)


def sector_outer_polygon(angle: AngleInterval, rng: Interval) -> ConvexPolygon:
    """Convex polygon containing the annular sector spanned by angle and rng.

    The outer arc is over-bounded by vertices on the circumscribed arc at
    radius hi / cos(step / 2); the inner arc is bounded by its chord, which
    only adds points of smaller radius.  Requires half_width < pi/2 so the
    sector has a bounded convex superset.  Where that ring is not canonical
    as built (a sector within a few EPS_GEOM of the sensor, or one so thin
    that its corners nearly meet, down to a segment or a point), the box
    about the ring is returned instead (_outer_ring).
    """
    if angle.half_width >= math.pi / 2.0:
        raise ValueError(f"sector half-width {angle.half_width:.4f} >= pi/2")
    if rng.lo < 0.0:
        raise ValueError("range lower bound must be >= 0")
    r_lo, r_hi = rng.lo, rng.hi
    c = angle.center
    w = angle.half_width
    m = max(2, math.ceil(2.0 * w / _SECTOR_MAX_STEP))
    step = 2.0 * w / m
    rc = r_hi / math.cos(0.5 * step)
    # CCW ring: inner corner, outer arc, the other inner corner
    inner = r_lo > EPS_GEOM
    pts = [(r_lo * math.cos(c - w), r_lo * math.sin(c - w)) if inner
           else (0.0, 0.0)]
    for j in range(m + 1):
        a = c - w + j * step
        pts.append((rc * math.cos(a), rc * math.sin(a)))
    if inner:
        pts.append((r_lo * math.cos(c + w), r_lo * math.sin(c + w)))
    return _outer_ring(pts)


def sector_inner_rectangle(angle: AngleInterval, rng: Interval, inner: float
                           ) -> tuple[float, float, float] | None:
    """(u_lo, u_hi, h): the rectangle u_lo <= u <= u_hi, |v| <= h inside
    sector_outer_polygon(angle, rng), in the frame whose u axis points
    along angle.center, for any inner radius from rng.lo to rng.hi.

    With h = inner * tan(half_width), u from inner to sqrt(r_hi^2 - h^2)
    and |v| <= h, every point's direction is in the cone and its distance
    in rng: the rectangle lies in the annular sector, and so in its ring
    and in the box about that ring (_outer_ring), whichever the polygon is.
    Each side then moves inwards by INNER_MARGIN * r_hi, for rounding.
    None when nothing is left.
    """
    r_hi = rng.hi
    h = inner * math.tan(angle.half_width)
    if not 0.0 < h < r_hi:
        return None
    margin = INNER_MARGIN * r_hi
    u_lo, u_hi = inner + margin, math.sqrt(r_hi * r_hi - h * h) - margin
    h -= margin
    if h <= 0.0 or u_hi <= u_lo:
        return None
    return u_lo, u_hi, h


# a measurement's cone and radii, as sensing.measurement_cone gives them
Cone = tuple[AngleInterval, Interval]


def _centre(p: ConvexPolygon) -> tuple[float, float, float]:
    """(x, y, rho): a disk of radius rho about (x, y) inside p.  Its inner
    disk where it has one, else the vertex mean with radius 0: a point of
    p up to the rounding of the mean."""
    disk = p.inner_disk
    if disk is None:
        v = p.vertices
        disk = (sum(x for x, _ in v) / len(v), sum(y for _, y in v) / len(v),
                0.0)
    return disk


def _outer_radius(p: ConvexPolygon, cx: float, cy: float) -> float:
    """A radius about (cx, cy) that holds p: the farthest corner of its
    bounding box."""
    x0, x1, y0, y1 = p.bbox
    return math.hypot(max(cx - x0, x1 - cx), max(cy - y0, y1 - cy))


def _within_reach(cone: AngleInterval, radii: Interval,
                  points: Sequence[tuple[float, float]], slack: float,
                  reach: float) -> bool:
    """Whether every point (u, v), and every point within slack of one,
    lies within reach of the sector's inner rectangle
    (sector_inner_rectangle) in the sector's frame.  The rectangle's inner
    radius is radii.lo, or where that is 0 (an angle-only sensor) the
    least u less slack."""
    reach -= slack
    if reach <= 0.0:
        return False
    rect = sector_inner_rectangle(
        cone, radii, radii.lo or min(u for u, _ in points) - slack)
    if rect is None:
        return False
    u_lo, u_hi, h = rect
    for u, v in points:
        du = max(u_lo - u, u - u_hi, 0.0)
        dv = max(abs(v) - h, 0.0)
        if du * du + dv * dv > reach * reach:
            return False
    return True


def settle_by_inner_bounds(theta: AngleInterval, sensor_xy: ConvexPolygon,
                           markers: Sequence[ConvexPolygon],
                           pairs: Iterable[tuple[int, int]],
                           bearings: Sequence[float], cones: Sequence[Cone],
                           eps_bearing: float
                           ) -> tuple[bool, set[tuple[int, int]]]:
    """One pass over the (slot, marker) pairs of a batch's hypotheses, by
    inner bounds (set inversion's inner test): whether estimator.update's
    orientation phase is sure to return theta itself, to the last bit, and
    the pairs whose position clip, sum_boundary(marker, -sector).clip(
    sensor_xy), is sure to return sensor_xy itself, for the slots'
    bearings and the sectors of their cones.

    Each set is a disk about its centre (_centre), inside it, and a radius
    about that centre that holds it (_outer_radius).  Per pair the offset
    m0 - s0 between the centres and the coordinate scale serve both bounds.

    Orientation: the two disks give an arc of directions inside the pair's
    bearing span, atan2(m0 - s0) +- asin((rho_M + rho_S) / |m0 - s0|).
    When that arc, less the slot's bearing and widened by eps_bearing,
    holds theta for every pair, every candidate interval holds theta, and
    so do their intersections, their enclosing arc and its intersection
    with theta.  A guard from the outer radii keeps every candidate
    half-width below pi/2, so no intersection splits in two (which would
    count a degenerate intersection).

    Position: when every point of the sensor set lies in the marker's
    inner disk plus the reflected inner rectangle of the sector, a subset
    of marker - sector, no support line of that sum cuts the set.  This
    is tried for the sensor set's outer disk, and where that declines for
    its vertices.

    Each bound keeps a margin above the rounding of the exact phase, which
    grows as the sets near each other.
    """
    sx, sy, rho_s = _centre(sensor_xy)
    out_s = _outer_radius(sensor_xy, sx, sy)
    scale_s = max(map(abs, sensor_xy.bbox))
    keeps_theta = True
    kept = set()
    for q, j in pairs:
        marker = markers[j]
        mx, my, rho_m = _centre(marker)
        dx, dy = mx - sx, my - sy
        scale = max(scale_s, *map(abs, marker.bbox))
        if keeps_theta:
            d = math.hypot(dx, dy)
            gap = d - out_s - _outer_radius(marker, mx, my)
            if gap > 0.0:
                margin = INNER_MARGIN * (1.0 + scale / gap)
                off = abs(wrap_angle(math.atan2(dy, dx)
                                     - bearings[q] - theta.center))
                keeps_theta = (
                    math.asin(1.0 - gap / d) + eps_bearing
                    < 0.5 * math.pi - 2.0 * margin
                    and off + theta.half_width + margin
                    <= math.asin((rho_s + rho_m) / d) + eps_bearing)
            else:
                keeps_theta = False
        cone, radii = cones[q]
        c, s = math.cos(cone.center), math.sin(cone.center)
        reach = rho_m - INNER_MARGIN * (scale + radii.hi)
        # the marker centre's offset to the sensor centre, and then to each
        # vertex, in the sector's frame
        if _within_reach(cone, radii, [(dx * c + dy * s, dy * c - dx * s)],
                         out_s, reach) or _within_reach(
                cone, radii, [((mx - x) * c + (my - y) * s,
                               (my - y) * c - (mx - x) * s)
                              for x, y in sensor_xy.vertices], 0.0, reach):
            kept.add((q, j))
    return keeps_theta, kept


def angular_hull(p: ConvexPolygon) -> AngleInterval:
    """Smallest arc containing atan2(q.y, q.x) over all q in p.

    Returns the full circle when the origin lies in p (within EPS_GEOM), in
    which case every direction is attainable.
    """
    if contains(p, (0.0, 0.0), EPS_GEOM):
        return FULL_CIRCLE
    return _vertex_arc(p.vertices)


def angular_hull_sum(a: ConvexPolygon, b: ConvexPolygon) -> AngleInterval:
    """An arc containing angular_hull(minkowski_sum(a, b)), without building
    the sum: the arc of the edge merge's raw ring.  Its points beyond the
    sum's vertices (collinear ones, or ones the hull would merge or prune)
    lie on the sum's boundary up to rounding, so the arc is the same or, by
    rounding, wider.
    """
    ring = _merge_edges(a.vertices, b.vertices)
    if _ring_contains(ring, 0.0, 0.0, EPS_GEOM):
        return FULL_CIRCLE
    return _vertex_arc(ring)


def _vertex_arc(pts: Sequence[tuple[float, float]]) -> AngleInterval:
    """Smallest arc containing the directions of pts, the vertices or merge
    ring of a convex set that leaves the origin outside."""
    angles = [math.atan2(y, x) for x, y in pts if math.hypot(x, y) > EPS_GEOM]
    if not angles:
        return FULL_CIRCLE
    # origin is outside a convex set: all member angles fit in a half circle,
    # so the complement of the largest gap between vertex angles encloses them
    angles.sort()
    best_gap = TWO_PI - (angles[-1] - angles[0])
    gap_at = len(angles) - 1
    for i in range(len(angles) - 1):
        g = angles[i + 1] - angles[i]
        if g > best_gap:
            best_gap = g
            gap_at = i
    if gap_at == len(angles) - 1:
        lo, hi = angles[0], angles[-1]
    else:
        lo, hi = angles[gap_at + 1], angles[gap_at] + TWO_PI
    return AngleInterval(0.5 * (lo + hi), 0.5 * (hi - lo))


def simplify_outer(p: ConvexPolygon, v_max: int = V_MAX) -> ConvexPolygon:
    """Outer simplification to at most v_max vertices (result contains p).

    Repeatedly removes the edge whose deletion (extending its neighbours to
    their intersection) adds the least area.
    """
    if v_max < 3:
        raise ValueError("v_max must be >= 3")
    if p.n <= v_max:
        return p
    verts = list(p.vertices)
    # an edge vector carries a rounding error of a few ulps of the largest
    # coordinate; a cross product of two edges within that error of zero
    # does not tell parallel edges from converging ones, and the meeting
    # point it gives lies arbitrarily far out, where rounding loses p
    noise = 8.0 * sys.float_info.epsilon * max(
        max(abs(x), abs(y)) for x, y in verts)
    while len(verts) > v_max:
        n = len(verts)
        best_cost = math.inf
        best = None
        for i in range(n):
            a = verts[i - 1]
            b = verts[i]
            c = verts[(i + 1) % n]
            d = verts[(i + 2) % n]
            ux, uy = b[0] - a[0], b[1] - a[1]
            vx, vy = d[0] - c[0], d[1] - c[1]
            den = ux * vy - uy * vx
            lu, lv = math.hypot(ux, uy), math.hypot(vx, vy)
            if den <= max(1e-15 * max(lu * lv, 1e-300), noise * (lu + lv)):
                continue  # edges parallel or diverging: no finite outer point
            t = ((c[0] - b[0]) * vy - (c[1] - b[1]) * vx) / den
            if t < 0.0:
                continue
            w = (b[0] + t * ux, b[1] + t * uy)
            cost = 0.5 * abs((c[0] - b[0]) * (w[1] - b[1])
                             - (w[0] - b[0]) * (c[1] - b[1]))
            if cost < best_cost:
                best_cost = cost
                best = (i, w)
        if best is None:
            # no edge's neighbours meet: the ring is a parallelogram, up to
            # rounding, and a box would have four vertices
            return _enclosing_triangle(verts, p)
        i, w = best
        j = (i + 1) % len(verts)
        verts[i] = w
        noise = max(noise, 8.0 * sys.float_info.epsilon
                    * max(abs(w[0]), abs(w[1])))
        verts.pop(j)
    return ConvexPolygon.from_points(verts)


def grow_by_box(p: ConvexPolygon, x_lo: float, x_hi: float, y_lo: float,
                y_hi: float) -> ConvexPolygon:
    """p plus the box [x_lo, x_hi] x [y_lo, y_hi], simplified: a translation
    where the box is one point, which ConvexPolygon.box would widen, so a
    set that does not move does not grow."""
    if x_lo == x_hi and y_lo == y_hi:
        return simplify_outer(translate(p, x_lo, y_lo))
    return simplify_outer(minkowski_sum(
        p, ConvexPolygon.box(x_lo, x_hi, y_lo, y_hi)))


def _enclosing_triangle(ring: Sequence[tuple[float, float]],
                        p: ConvexPolygon) -> ConvexPolygon:
    """A triangle containing p, which the CCW ring contains: the ring's
    first vertex A and A + k(B - A), A + k(D - A) along the edges to its
    neighbours B and D, with k the largest s + t of a vertex A + s(B - A)
    + t(D - A) (k = 2 for the parallelogram ABCD).  The ring lies in the
    angle at A, so the triangle holds it; grown about its centroid until p
    is inside at tol = 0, which rounding can otherwise spoil by an ulp."""
    (ax, ay), (bx, by), (dx, dy) = ring[0], ring[1], ring[-1]
    ux, uy, vx, vy = bx - ax, by - ay, dx - ax, dy - ay
    det = ux * vy - uy * vx
    k = max(((x - ax) * (vy - uy) - (y - ay) * (vx - ux)) / det
            for x, y in ring)
    corners = ((ax, ay), (ax + k * ux, ay + k * uy), (ax + k * vx, ay + k * vy))
    gx = sum(x for x, _ in corners) / 3.0
    gy = sum(y for _, y in corners) / 3.0
    grow = 1e-9
    while True:
        tri = ConvexPolygon.from_points(
            [(gx + (1.0 + grow) * (x - gx), gy + (1.0 + grow) * (y - gy))
             for x, y in corners])
        if grow >= 1.0 or contains_polygon(tri, p, 0.0):
            return tri
        grow *= 1e3


# --- sampling (tests, particle initialization) ------------------------------

def sample_uniform(p: ConvexPolygon, rng: np.random.Generator,
                   size: int = 1) -> np.ndarray:
    """Uniform samples from a polygon as an (size, 2) array."""
    v = np.asarray(p.vertices, dtype=float)
    anchor = v[0]
    tri_a = v[1:-1] - anchor
    tri_b = v[2:] - anchor
    areas = 0.5 * np.abs(tri_a[:, 0] * tri_b[:, 1] - tri_a[:, 1] * tri_b[:, 0])
    total = areas.sum()
    if total <= 0.0:
        idx = rng.integers(0, len(v), size)
        return v[idx]
    which = rng.choice(len(areas), size=size, p=areas / total)
    r1 = rng.random(size)
    r2 = rng.random(size)
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    return anchor + r1[:, None] * tri_a[which] + r2[:, None] * tri_b[which]
