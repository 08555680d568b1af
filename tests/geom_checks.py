"""Checks on geom2d's sets shared by the geometry tests."""

from __future__ import annotations

import math

from setloc.geom2d import ConvexPolygon


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
