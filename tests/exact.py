"""Exact versions of geom2d's operations, in rational arithmetic
(fractions.Fraction), to check the float kernel at tol 0.

Arcs: the circle is taken modulo T, the float TWO_PI by which wrap_angle
reduces, so every float angle and every float arc end is a point of it
exactly.  An exact arc is (lo, width) with width in [0, T]; width T is the
full circle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from setloc.geom2d import TWO_PI, AngleInterval

T = Fraction(TWO_PI)


class Arc(NamedTuple):
    lo: Fraction
    width: Fraction

    @property
    def is_full(self) -> bool:
        return self.width >= T


def arc(a: AngleInterval) -> Arc:
    """The float arc a, exactly."""
    return _arc(Fraction(a.lo), Fraction(a.hi) - Fraction(a.lo))


def _arc(lo: Fraction, width: Fraction) -> Arc:
    return Arc(lo % T, min(T, width))


def make(center: float, half_width: float) -> Arc:
    """AngleInterval(center, half_width), exactly."""
    c, h = Fraction(center), Fraction(half_width)
    return _arc(c - h, 2 * h)


def shift(a: Arc, delta: float) -> Arc:
    return a if a.is_full else _arc(a.lo + Fraction(delta), a.width)


def widen(a: Arc, delta: float) -> Arc:
    d = Fraction(delta)
    return _arc(a.lo - d, a.width + 2 * d)


def add(a: Arc, b: Arc) -> Arc:
    """The arc of x + y over x in a and y in b (AngleInterval.sum)."""
    return _arc(a.lo + b.lo, a.width + b.width)


def offset(a: Arc, x: Fraction) -> Fraction:
    """How far x lies past a's start, in [0, T)."""
    return (x - a.lo) % T


def contains(a: Arc, x: float | Fraction) -> bool:
    return a.is_full or offset(a, Fraction(x)) <= a.width


def holds(outer: Arc, inner: Arc) -> bool:
    """Whether outer contains the whole of inner."""
    if outer.is_full:
        return True
    return not inner.is_full and offset(outer, inner.lo) + inner.width \
        <= outer.width


def intersect(a: Arc, b: Arc) -> list[Arc]:
    """The pieces of the intersection of a and b: none, one or two arcs."""
    if b.is_full:
        return [a]
    if a.is_full:
        return [b]
    d = offset(a, b.lo)             # b's start in a's frame, in [0, T)
    pieces = []
    if d <= a.width:
        pieces.append(_arc(a.lo + d, min(a.width - d, b.width)))
    if d + b.width - T >= 0:        # b runs on past a's start
        pieces.append(_arc(a.lo, min(a.width, d + b.width - T)))
    return pieces


def enclose(arcs: Sequence[Arc]) -> Arc:
    """Smallest arc holding every arc: of the covers that start at an arc's
    start and reach its farthest end, the shortest."""
    reach, lo = min((max(offset(s, a.lo) + a.width for a in arcs), s.lo)
                    for s in arcs)
    return _arc(lo, reach)
