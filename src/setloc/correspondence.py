"""Measurement-to-marker data association under set-valued uncertainty.

Each received measurement could have originated from any marker whose
predicted set intersects the measurement's feasible region; the boolean
candidate matrix records those possibilities and the consistent injective
assignments are enumerated exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geom2d import ConvexPolygon, SumBoundary

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

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def build_candidate_matrix(boundaries: Sequence[SumBoundary],
                           predicted_markers: Sequence[ConvexPolygon],
                           sensor_id: int = -1) -> CandidateMatrix:
    """Feasibility of each (measurement, marker) pair.

    ``boundaries[q]`` is the boundary of the sensor's predicted position
    set plus measurement q's sector of marker positions seen from the
    sensor (geom2d.sum_boundary of the set and the sector).  Entry (q, j)
    is true iff marker j's predicted set meets that sum.  A row with no
    feasible marker means the batch violates the modeling assumptions.
    """
    if len(boundaries) > len(predicted_markers):
        raise ValueError("more measurements than markers in one batch")
    rows = []
    for q, boundary in enumerate(boundaries):
        row = tuple(boundary.meets(m) for m in predicted_markers)
        if not any(row):
            raise InconsistentBatch(sensor_id, q)
        rows.append(row)
    return CandidateMatrix(tuple(rows))


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
