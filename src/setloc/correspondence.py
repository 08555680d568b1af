"""Measurement-to-marker data association under set-valued uncertainty.

Each received measurement could have originated from any marker whose
predicted set intersects the measurement's feasible region; the boolean
candidate matrix records those possibilities and the consistent injective
assignments are enumerated exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import geom2d
from .geom2d import ConvexPolygon

DEFAULT_ASSIGNMENT_CAP = 1000

# an assignment maps measurement slot q -> marker index, one entry per row
Assignment = tuple[int, ...]


class InconsistentBatch(Exception):
    """A measurement matched no marker: some noise or containment bound is broken."""

    def __init__(self, sensor_id: int, row: int):
        super().__init__(f"measurement {row} of sensor {sensor_id} "
                         f"is feasible for no marker")
        self.sensor_id = sensor_id
        self.row = row


class CapExceeded(Exception):
    """More consistent assignments than the enumeration cap allows."""


@dataclass(frozen=True)
class CandidateMatrix:
    rows: tuple[tuple[bool, ...], ...]   # |measurements| x n_markers
    # per row, the boundary of the sensor set plus that row's sector, as the
    # feasibility test built it
    boundaries: tuple[geom2d.SumBoundary, ...] = ()

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def build_candidate_matrix(sectors: Sequence[ConvexPolygon],
                           predicted_markers: Sequence[ConvexPolygon],
                           predicted_sensor_xy: ConvexPolygon,
                           sensor_id: int = -1) -> CandidateMatrix:
    """Feasibility of each (measurement, marker) pair.

    ``sectors[q]`` is measurement q's sector of marker positions seen from
    the sensor: geom2d.sector_outer_polygon of its cone and radii
    (sensing.measurement_cone) under the predicted orientation.  Entry (q, j) is true iff marker j's predicted set meets
    the sensor's predicted position plus that sector.  A row with no
    feasible marker means the batch violates the modeling assumptions.
    Each row's boundary of that sum is kept for clipping by it again.
    """
    if len(sectors) > len(predicted_markers):
        raise ValueError("more measurements than markers in one batch")
    rows = []
    boundaries = []
    for q, sector in enumerate(sectors):
        boundary = geom2d.sum_boundary(predicted_sensor_xy, sector)
        row = tuple(boundary.meets(m) for m in predicted_markers)
        if not any(row):
            raise InconsistentBatch(sensor_id, q)
        rows.append(row)
        boundaries.append(boundary)
    return CandidateMatrix(tuple(rows), tuple(boundaries))


def enumerate_assignments(c: CandidateMatrix,
                          cap: int = DEFAULT_ASSIGNMENT_CAP) -> list[Assignment]:
    """All injective row->column selections consistent with the matrix.

    A matrix with one candidate per row, all distinct, has the one
    assignment that picks them, returned without a search.  Otherwise the
    search visits rows in ascending candidate count to keep branching low;
    raising on cap overflow (rather than truncating) preserves the
    guarantee that the true assignment is among the results.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n_rows = c.n_rows
    if n_rows == 0:
        return [()]
    if all(row.count(True) == 1 for row in c.rows):
        only = tuple(row.index(True) for row in c.rows)
        if len(set(only)) == n_rows:
            return [only]
    order = sorted(range(n_rows), key=lambda q: sum(c.rows[q]))
    results: list[Assignment] = []
    _descend(c.rows, order, 0, [-1] * n_rows, [False] * c.n_cols, results,
             cap)
    results.sort()
    return results


def _descend(rows: Sequence[Sequence[bool]], order: Sequence[int], depth: int,
             chosen: list[int], used: list[bool], results: list[Assignment],
             cap: int) -> None:
    """Extend the selection of rows order[:depth] (chosen, with the used
    columns) by every free candidate of the next row, appending each full
    selection to results.  A module function, not a closure, so a call
    leaves no reference cycle that would keep the matrix alive."""
    if depth == len(order):
        if len(results) >= cap:
            raise CapExceeded(f"more than {cap} correspondence solutions")
        results.append(tuple(chosen))
        return
    q = order[depth]
    for j, ok in enumerate(rows[q]):
        if ok and not used[j]:
            used[j] = True
            chosen[q] = j
            _descend(rows, order, depth + 1, chosen, used, results, cap)
            used[j] = False
    chosen[q] = -1


def markers_with_certain_measurement(assignments: Sequence[Assignment],
                                     n_markers: int) -> frozenset[int]:
    """Markers that received a measurement under *every* assignment."""
    if not assignments:
        raise ValueError("assignments must be non-empty")
    certain = set(range(n_markers))
    for a in assignments:
        certain &= set(a)
    return frozenset(certain)
