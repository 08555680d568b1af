"""Checks on geom2d's sets, and a way to write an arc, shared by the
tests."""

from __future__ import annotations

import math

from setloc.geom2d import TWO_PI, AngleInterval, ConvexPolygon


def arc_from_endpoints(lo: float, hi: float) -> AngleInterval:
    """Arc running counter-clockwise from lo to hi."""
    span = hi - lo
    if span < 0.0:
        raise ValueError("endpoints must satisfy lo <= hi before wrapping")
    span = min(span, TWO_PI)
    return AngleInterval(lo + 0.5 * span, 0.5 * span)


def validate(p: ConvexPolygon) -> None:
    """Raise if p's vertex list is not strictly convex CCW with at least
    three vertices."""
    v = p.vertices
    if len(v) < 3:
        raise ValueError(f"{len(v)} vertices: a set needs an area")
    for x, y in v:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("non-finite vertex")
    n = len(v)
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = v[i - 1], v[i], v[(i + 1) % n]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0.0:
            raise ValueError(f"vertices not in strictly convex CCW position at {i}")
