import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from geom_checks import validate
from setloc import geom2d
from setloc.geom2d import (AngleInterval, ConvexPolygon, Interval, angular_hull,
                           area, ball_outer_polygon, contains, convex_hull,
                           enclose_angles, intersect, intersect_angles,
                           minkowski_sum, sector_outer_polygon, simplify_outer,
                           wrap_angle)

RNG = np.random.default_rng(20240811)
E = geom2d.EPS_GEOM
SRC = Path(__file__).resolve().parents[1] / "src"


def random_polygon(rng, n_max=8, scale=5.0, offset=10.0):
    n = rng.integers(3, n_max + 1)
    pts = offset * (rng.random(2) - 0.5) + scale * rng.random((n, 2))
    return ConvexPolygon.from_points(map(tuple, pts))


# ---------------------------------------------------------------------------
# minkowski sum
# ---------------------------------------------------------------------------

def test_minkowski_translation_identity():
    # a point's set is the box of half-side EPS_GEOM about it: the sum is
    # the translate grown by EPS_GEOM on each side
    square = ConvexPolygon.box(0, 1, 0, 1)
    point = ConvexPolygon.from_points([(2, 3)])
    out = minkowski_sum(square, point)
    moved = ConvexPolygon.box(2, 3, 3, 4)
    assert out.n == 4
    assert geom2d.contains_polygon(out, moved, tol=0.0)
    assert geom2d.contains_polygon(moved, out, tol=E + 1e-15)


def test_minkowski_box_sum():
    square = ConvexPolygon.box(0, 1, 0, 1)
    out = minkowski_sum(square, square)
    assert out == ConvexPolygon.box(0, 2, 0, 2)


def test_minkowski_sliver_keeps_its_tips():
    # the four pairwise sums are collinear within 1e-101: each operand is
    # the box about its segment, and the sum holds the tips (0, 0) and
    # (1e-101, 2) at tol 0
    a = ConvexPolygon.from_points([(0.0, 0.0), (0.0, 1.0)])
    b = ConvexPolygon.from_points([(0.0, 0.0), (1e-101, 1.0)])
    out = minkowski_sum(a, b)
    validate(out)
    for tip in ((0.0, 0.0), (1e-101, 2.0)):
        assert contains(out, tip, tol=0.0)
    assert out.bbox == pytest.approx((-2 * E, 2 * E, 0.0, 2.0), abs=1e-15)


def test_intersect_sum_clips_by_the_hull_of_a_collinear_merge_ring():
    # a marker set and the distance disk of a parking rigid-body step: their
    # merge ring has a collinear vertex on the sum's bottom edge, and the two
    # half-edges clip s to a vertex one ulp off the one intersect finds
    s = ConvexPolygon.from_points([
        (18.89005507729368, 13.954999892383597),
        (18.91364059842345, 13.921895627222243),
        (18.95135586493827, 13.87204907445973),
        (18.962782366102847, 13.865121002117615),
        (19.046708100358135, 13.884488415210308),
        (19.047006598737468, 13.884651192607414),
        (19.103194255146022, 14.027103822401688),
        (19.10794004572192, 14.068249108985045),
        (19.089489068318656, 14.080933169251722),
        (18.998435519652812, 14.115976412751742),
        (18.89881336061742, 14.064902498495975),
        (18.89005507729368, 14.04256466362313)])
    a = ConvexPolygon.from_points([
        (18.779032622549288, 15.778357244800798),
        (18.795046751597898, 15.738923092256176),
        (18.891424376655404, 15.731086068208791),
        (18.96782367277957, 15.731086068208791),
        (18.9739528834951, 15.759248770873139),
        (18.9739528834951, 15.827412678799458),
        (18.93726858375766, 15.915976412751743),
        (18.849810819283732, 15.915976412751743),
        (18.818791291083766, 15.894618954635005),
        (18.780317949871797, 15.801655909987932)])
    # ball_outer_polygon(1.8, 16) before it was built by mirrors: its top
    # and left edges are off axis-parallel by rounding
    b = ConvexPolygon((
        (-1.8, -0.35804226128338457),
        (-1.5259663170406328, -1.0196180952309384),
        (-1.0196180952309386, -1.5259663170406323),
        (-0.3580422612833851, -1.7999999999999998),
        (0.3580422612833845, -1.8),
        (1.0196180952309382, -1.5259663170406328),
        (1.5259663170406323, -1.0196180952309386),
        (1.7999999999999998, -0.35804226128338523),
        (1.8, 0.3580422612833844),
        (1.5259663170406323, 1.0196180952309386),
        (1.0196180952309388, 1.5259663170406323),
        (0.3580422612833845, 1.8),
        (-0.3580422612833843, 1.8),
        (-1.0196180952309384, 1.5259663170406328),
        (-1.5259663170406326, 1.0196180952309386),
        (-1.8, 0.35804226128338507)))
    assert geom2d._left_turn_lines(
        geom2d._merge_edges(a.vertices, b.vertices)) is None
    assert geom2d.sum_boundary(a, b).clip(s) == intersect(s, minkowski_sum(a, b))


# the child reports the time the call took, or "looped" if it returned
_NAN_MERGE = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from setloc.geom2d import _merge_edges
nan = float("nan")
t = time.perf_counter()
try:
    _merge_edges(((0, 0), (1, 0), (0, 1)), ((nan, 0), (1, 0), (0, 1)))
except ValueError:
    print(time.perf_counter() - t)
else:
    print("returned")
"""


def test_merge_edges_raises_on_a_nan_vertex():
    # a NaN cross product advances neither walk; a loop that grows its list
    # runs in a child capped at 1 GB and a few seconds, so it fails the
    # test instead of hanging it or exhausting the machine's memory; one
    # BLAS thread keeps numpy's import within the cap on many cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _NAN_MERGE], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_minkowski_sampling_containment():
    # rejection-sampling oracle: p in a and q in b implies p+q in a (+) b
    rng = np.random.default_rng(7)
    a = random_polygon(rng, 5)
    b = random_polygon(rng, 4)
    out = minkowski_sum(a, b)
    ps = geom2d.sample_uniform(a, rng, 10_000)
    qs = geom2d.sample_uniform(b, rng, 10_000)
    for p, q in zip(ps, qs):
        assert contains(out, (p[0] + q[0], p[1] + q[1]))


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------

def test_intersect_boxes():
    a = ConvexPolygon.box(0, 2, 0, 2)
    b = ConvexPolygon.box(1, 3, 1, 3)
    out = intersect(a, b)
    assert out == ConvexPolygon.box(1, 2, 1, 2)


def test_intersect_disjoint_is_none():
    a = ConvexPolygon.box(0, 1, 0, 1)
    b = ConvexPolygon.box(5, 6, 5, 6)
    assert intersect(a, b) is None


def _clip_oracle(subject, clip):
    # independent half-plane clipping reimplementation (kept deliberately dumb)
    pts = list(subject.vertices)
    cv = clip.vertices
    for i in range(len(cv)):
        ax, ay = cv[i]
        bx, by = cv[(i + 1) % len(cv)]
        nxt = []
        for k in range(len(pts)):
            cx, cy = pts[k]
            dx, dy = pts[(k + 1) % len(pts)]
            sc = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            sd = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
            if sc >= 0:
                nxt.append((cx, cy))
            if (sc >= 0) != (sd >= 0):
                t = sc / (sc - sd)
                nxt.append((cx + t * (dx - cx), cy + t * (dy - cy)))
        pts = nxt
        if not pts:
            return 0.0
    s = 0.0
    for k in range(len(pts)):
        x0, y0 = pts[k]
        x1, y1 = pts[(k + 1) % len(pts)]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def test_intersect_matches_clipping_oracle():
    tri = ConvexPolygon.from_points([(0, 0), (2, 0), (1, 1.5)])
    shifted = geom2d.translate(tri, 0.1, 0.0)
    out = intersect(tri, shifted)
    assert out is not None
    assert area(out) == pytest.approx(_clip_oracle(tri, shifted), abs=1e-9)


def test_intersect_subset_of_both():
    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(100):
        a = random_polygon(rng)
        b = random_polygon(rng)
        out = intersect(a, b)
        if out is None:
            continue
        hits += 1
        for v in out.vertices:
            assert contains(a, v)
            assert contains(b, v)
    assert hits > 10


def test_intersect_degenerate_cases():
    # points and segments are the boxes about them, grown to sides of
    # 2 EPS_GEOM, and intersect like any other set
    box = ConvexPolygon.box(0, 2, 0, 2)
    pt_in = ConvexPolygon.from_points([(1, 1)])
    pt_out = ConvexPolygon.from_points([(5, 5)])
    assert intersect(pt_in, box) is pt_in
    assert intersect(box, pt_in).bbox == pytest.approx(pt_in.bbox, abs=1e-15)
    assert intersect(pt_out, box) is None
    seg = ConvexPolygon.from_points([(-1, 1), (3, 1)])
    clipped = intersect(seg, box)
    validate(clipped)
    assert clipped.bbox == pytest.approx((0.0, 2.0, 1 - E, 1 + E), abs=2e-9)
    seg2 = ConvexPolygon.from_points([(1, -1), (1, 3)])
    cross = intersect(seg, seg2)
    assert contains(cross, (1.0, 1.0), tol=0.0)
    assert cross.bbox == pytest.approx((1 - E, 1 + E, 1 - E, 1 + E),
                                       abs=1e-15)
    overlap = intersect(ConvexPolygon.from_points([(0, 0), (2, 0)]),
                        ConvexPolygon.from_points([(1, 0), (3, 0)]))
    assert overlap.bbox == pytest.approx((1.0, 2.0, -E, E), abs=2e-9)
    assert intersect(ConvexPolygon.from_points([(0, 0), (1, 0)]),
                     ConvexPolygon.from_points([(0, 1), (1, 1)])) is None


def test_a_box_thinner_than_eps_geom_clips_across_its_sides():
    # sides of 1e-10 and 5e-10 are widened to 2 EPS_GEOM, and no longer
    # skipped as lines shorter than EPS_GEOM: the first box lies 999 m
    # beyond the second
    assert intersect(ConvexPolygon.box(999, 1000, 2e-10, 3e-10),
                     ConvexPolygon.box(0, 1, 0, 5e-10)) is None


def test_a_collapsed_clip_is_no_larger_than_its_operand():
    # the triangles share only a's long edge, so the clip of a by b's lines
    # collapses onto that edge; the box about it, [0, 1] x [0, 1e-6], has
    # twice a's area, and a holds the exact clip too
    a = ConvexPolygon.from_points([(0, 0), (1, 0), (0, 1e-6)])
    b = ConvexPolygon.from_points([(0, 1e-6), (1, 0), (1, 1)])
    out = intersect(a, b)
    assert area(out) <= area(a)
    assert contains(out, (0.0, 1e-6), tol=0.0)
    assert contains(out, (1.0, 0.0), tol=0.0)


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def test_hull_idempotent():
    p = random_polygon(np.random.default_rng(3))
    assert convex_hull([p]) == p


def test_hull_two_points_is_segment():
    # the set of the segment: the box about it, which holds it at tol 0
    a = ConvexPolygon.from_points([(0, 0)])
    b = ConvexPolygon.from_points([(1, 1)])
    h = convex_hull([a, b])
    validate(h)
    for t in np.linspace(0.0, 1.0, 11):
        assert contains(h, (t, t), tol=0.0)
    assert h.bbox == pytest.approx((-E, 1 + E, -E, 1 + E), abs=1e-15)


def test_hull_four_squares():
    # unit squares on the corners of a 10 x 10 diamond frame: each square
    # contributes two extreme corners to the hull
    squares = [geom2d.translate(ConvexPolygon.box(0, 1, 0, 1), dx, dy)
               for dx, dy in [(10, 0), (0, 10), (-10, 0), (0, -10)]]
    h = convex_hull(squares)
    assert h.n == 8
    rng = np.random.default_rng(5)
    for sq in squares:
        for p in geom2d.sample_uniform(sq, rng, 2_500):
            assert contains(h, tuple(p))


def test_hull_monotone():
    rng = np.random.default_rng(11)
    sets = [random_polygon(rng) for _ in range(4)]
    prev = convex_hull(sets[:1])
    for k in range(2, 5):
        nxt = convex_hull(sets[:k])
        assert geom2d.contains_polygon(nxt, prev)
        prev = nxt


# ---------------------------------------------------------------------------
# ball polygons
# ---------------------------------------------------------------------------

def test_ball_l2_k4_is_square():
    out = ball_outer_polygon(1.0, 4)
    assert out.n == 4
    for x, y in out.vertices:
        assert max(abs(x), abs(y)) == pytest.approx(1.0)


def test_ball_l2_covers_disk():
    r, k = 2.3, 16
    out = ball_outer_polygon(r, k)
    rng = np.random.default_rng(23)
    ang = rng.random(10_000) * 2 * math.pi
    rad = r * np.sqrt(rng.random(10_000))
    for a, d in zip(ang, rad):
        assert contains(out, (d * math.cos(a), d * math.sin(a)))
    assert area(out) <= math.pi * r * r / math.cos(math.pi / k) ** 2 + 1e-9


BALL_KS = [4, 5, 6, 8, 16, 32]
BALL_RADII = [1e-3, 0.12, 1.7, 1.8, 2.3, 4.1231056256176606, 250.0]


@pytest.mark.parametrize("k", BALL_KS)
def test_ball_is_its_own_mirror_image_to_the_bit(k):
    # about the x axis for every k, about the y axis for even k
    for r in BALL_RADII:
        verts = ball_outer_polygon(r, k).vertices
        assert len(verts) == k
        for x, y in verts:
            assert (x, -y) in verts
            if k % 2 == 0:
                assert (-x, y) in verts


@pytest.mark.parametrize("k", BALL_KS)
def test_ball_axis_parallel_edges_are_exact(k):
    # the edge about the angle 2 pi m / k is horizontal where that angle is
    # pi / 2 or 3 pi / 2, vertical where it is 0 or pi
    want = (2 * (k % 4 == 0), 2 if k % 2 == 0 else 1)
    for r in BALL_RADII:
        verts = ball_outer_polygon(r, k).vertices
        horizontal = vertical = 0
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            normal = math.atan2(bx - ax, ay - by) / (math.pi / 2)
            if abs(normal - round(normal)) < 1e-6:
                if round(normal) % 2:
                    assert ay == by
                    horizontal += 1
                else:
                    assert ax == bx
                    vertical += 1
        assert (horizontal, vertical) == want


@pytest.mark.parametrize("k", BALL_KS)
def test_ball_covers_the_disk_at_tol_0(k):
    # exactly: every edge line is at least the radius from the centre; and
    # by the side test at tol 0, for points on the circle, the tangent
    # points first, and inside it
    rng = np.random.default_rng(k)
    for r in BALL_RADII:
        out = ball_outer_polygon(r, k)
        verts = [tuple(map(Fraction, v)) for v in out.vertices]
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            cross = ax * by - ay * bx
            assert cross > 0
            assert cross * cross >= Fraction(r) ** 2 * ((bx - ax) ** 2
                                                         + (by - ay) ** 2)
        angles = [2.0 * math.pi * m / k for m in range(k)]
        angles += list(rng.random(500) * 2.0 * math.pi)
        for a in angles:
            assert contains(out, (r * math.cos(a), r * math.sin(a)), 0.0)
        for a, d in zip(rng.random(500) * 2.0 * math.pi,
                        r * np.sqrt(rng.random(500))):
            assert contains(out, (d * math.cos(a), d * math.sin(a)), 0.0)


@pytest.mark.parametrize("k", [16, 32])
def test_ball_sums_of_box_grown_sets_stay_on_the_canonical_walk(k,
                                                                monkeypatch):
    # a box-grown set has exact axis-parallel edges, and so has the ball:
    # the merge advances both walks on them and leaves no collinear vertex
    # for the sort-and-chain hull to mend
    rng = np.random.default_rng(25)
    cases = []
    for _ in range(40):
        r, w, h = 0.05 + 2.0 * rng.random(3)
        grown = minkowski_sum(random_polygon(rng),
                              ConvexPolygon.box(-w, w, -h, h))
        cases.append((grown, ball_outer_polygon(r, k)))

    def no_chain_hull(pts):
        raise AssertionError("a ball sum fell to the chain hull")

    monkeypatch.setattr(geom2d, "_chain_hull", no_chain_hull)
    for grown, ball in cases:
        out = minkowski_sum(grown, ball)
        # one vertex per edge, the four axis-parallel directions shared
        assert out.n == grown.n + k - 4
        lines = geom2d.sum_boundary(grown, ball).lines
        assert lines == geom2d._edge_lines(out.vertices)


# ---------------------------------------------------------------------------
# angular hull
# ---------------------------------------------------------------------------

def test_angular_hull_point():
    # the box of half-side EPS_GEOM about (1, 1) spans EPS_GEOM radians on
    # either side of pi / 4 (its corners (1 + e, 1 - e) and (1 - e, 1 + e))
    out = angular_hull(ConvexPolygon.from_points([(1, 1)]))
    assert out.half_width == pytest.approx(E, rel=1e-6)
    assert out.center == pytest.approx(math.pi / 4)


def test_angular_hull_square():
    p = ConvexPolygon.box(1, 2, -1, 1)
    out = angular_hull(p)
    assert out.lo == pytest.approx(-math.pi / 4)
    assert out.hi == pytest.approx(math.pi / 4)
    # dense boundary sampling stays inside
    for t in np.linspace(0, 1, 400):
        for i in range(p.n):
            ax, ay = p.vertices[i]
            bx, by = p.vertices[(i + 1) % p.n]
            q = (ax + t * (bx - ax), ay + t * (by - ay))
            assert out.contains(math.atan2(q[1], q[0]), tol=1e-9)


def test_angular_hull_origin_inside_full():
    assert angular_hull(ConvexPolygon.box(-1, 1, -1, 1)).is_full


def test_angular_hull_contains_interior_samples():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = random_polygon(rng)
        if contains(p, (0.0, 0.0)):
            continue
        hull = angular_hull(p)
        for q in geom2d.sample_uniform(p, rng, 40):
            assert hull.contains(math.atan2(q[1], q[0]), tol=1e-9)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

def test_sector_thin_contains_samples():
    ang = AngleInterval(0.0, 0.01)
    out = sector_outer_polygon(ang, Interval(0.0, 20.0))
    assert out.n == 4  # apex plus three circumscribed arc points
    rng = np.random.default_rng(31)
    th = rng.uniform(-0.01, 0.01, 10_000)
    rr = 20.0 * np.sqrt(rng.random(10_000))
    for a, r in zip(th, rr):
        assert contains(out, (r * math.cos(a), r * math.sin(a)))


def test_sector_degenerate_point():
    # a sector of no width and no depth is the box about its one point
    out = sector_outer_polygon(AngleInterval(0.7, 0.0), Interval(1.0, 1.0))
    validate(out)
    x, y = math.cos(0.7), math.sin(0.7)
    assert contains(out, (x, y), tol=0.0)
    assert out.bbox == pytest.approx((x - E, x + E, y - E, y + E), abs=1e-15)


def test_sector_annular_construction():
    # annular sector: radii measured +- range noise, bearing cone from the
    # measured direction widened by the orientation half-width
    r, eps_r = 5.0, 0.1
    half = math.radians(1.0) + math.radians(1.0)
    ang = AngleInterval(0.3, half)
    out = sector_outer_polygon(ang, Interval(r - eps_r, r + eps_r))
    rng = np.random.default_rng(41)
    th = rng.uniform(ang.lo, ang.hi, 10_000)
    rr = rng.uniform(r - eps_r, r + eps_r, 10_000)
    for a, d in zip(th, rr):
        assert contains(out, (d * math.cos(a), d * math.sin(a)))


def test_sector_too_wide():
    with pytest.raises(ValueError):
        sector_outer_polygon(AngleInterval(0.0, math.pi / 2), Interval(0, 1))


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

def test_simplify_small_unchanged():
    tri = ConvexPolygon.from_points([(0, 0), (1, 0), (0, 1)])
    assert simplify_outer(tri, 8) is tri


def test_simplify_regular_polygon_area_bound():
    pts = [(math.cos(2 * math.pi * i / 64), math.sin(2 * math.pi * i / 64))
           for i in range(64)]
    p = ConvexPolygon.from_points(pts)
    out = simplify_outer(p, 16)
    assert out.n <= 16
    assert geom2d.contains_polygon(out, p)
    assert area(out) <= 1.02 * area(p)


def test_simplify_containment_fuzz():
    rng = np.random.default_rng(57)
    for _ in range(1000):
        n = rng.integers(4, 40)
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10)
        p = ConvexPolygon.from_points(map(tuple, pts))
        out = simplify_outer(p, max(3, int(rng.integers(3, 12))))
        assert geom2d.contains_polygon(out, p)


# ---------------------------------------------------------------------------
# area / membership / angle algebra
# ---------------------------------------------------------------------------

def test_area_unit_square():
    assert area(ConvexPolygon.box(0, 1, 0, 1)) == pytest.approx(1.0)


def test_intersect_angles_basic():
    a = AngleInterval.from_endpoints(math.radians(-10), math.radians(10))
    b = AngleInterval.from_endpoints(math.radians(5), math.radians(20))
    out = intersect_angles(a, b)
    assert out.lo == pytest.approx(math.radians(5))
    assert out.hi == pytest.approx(math.radians(10))


def test_intersect_angles_disjoint():
    a = AngleInterval.from_endpoints(0.0, 0.1)
    b = AngleInterval.from_endpoints(1.0, 1.1)
    assert intersect_angles(a, b) is None


def test_intersect_angles_across_seam():
    a = AngleInterval.from_endpoints(math.radians(170), math.radians(190))
    b = AngleInterval.from_endpoints(math.radians(175), math.radians(185))
    out = intersect_angles(a, b)
    # wrap-aware brute force on a fine grid
    grid = np.radians(np.arange(-180.0, 180.0, 1.0))
    for g in grid:
        expect = a.contains(g, tol=1e-12) and b.contains(g, tol=1e-12)
        if expect:
            assert out.contains(g, tol=1e-9)
    assert out.lo == pytest.approx(wrap_angle(math.radians(175)))
    assert out.width == pytest.approx(math.radians(10))


def test_intersect_angles_two_arc_enclosure_counts():
    geom2d.reset_degenerate_intersection_count()
    a = AngleInterval(0.0, math.radians(170))
    b = AngleInterval(math.pi, math.radians(170))
    out = intersect_angles(a, b)
    assert geom2d.degenerate_intersection_count() == 1
    # both true arcs must be inside the enclosure
    for g in np.linspace(-math.pi, math.pi, 720):
        if a.contains(g, tol=1e-12) and b.contains(g, tol=1e-12):
            assert out.contains(g, tol=1e-9)


def test_enclose_angles():
    arcs = [AngleInterval.from_endpoints(math.radians(170), math.radians(175)),
            AngleInterval.from_endpoints(math.radians(-179), math.radians(-170))]
    out = enclose_angles(arcs)
    assert out.width < math.radians(45)
    for arc in arcs:
        assert out.contains(arc.lo, tol=1e-9)
        assert out.contains(arc.hi, tol=1e-9)
    # soundness fuzz: sampled members of each arc stay inside
    rng = np.random.default_rng(61)
    for _ in range(2_000):
        arcs = [AngleInterval(rng.uniform(-math.pi, math.pi),
                              rng.uniform(0, 1.2)) for _ in range(3)]
        out = enclose_angles(arcs)
        for arc in arcs:
            for t in rng.uniform(-1, 1, 2):
                assert out.contains(arc.center + t * arc.half_width, tol=1e-9)


def test_full_circle_behaviour():
    full = AngleInterval.full()
    assert full.is_full
    narrow = AngleInterval(1.0, 0.1)
    assert intersect_angles(full, narrow) == narrow
    assert enclose_angles([full, narrow]).is_full


# ---------------------------------------------------------------------------
# output invariants
# ---------------------------------------------------------------------------

def test_outputs_valid_polygons():
    rng = np.random.default_rng(71)
    for _ in range(200):
        a = random_polygon(rng)
        b = random_polygon(rng)
        for out in (minkowski_sum(a, b), convex_hull([a, b]),
                    simplify_outer(minkowski_sum(a, b), geom2d.V_MAX)):
            validate(out)
        inter = intersect(a, b)
        if inter is not None:
            validate(inter)
