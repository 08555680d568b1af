import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from setloc import correspondence, geom2d
from setloc.correspondence import (CandidateMatrix, CapExceeded,
                                   InconsistentBatch, build_candidate_matrix,
                                   enumerate_assignments,
                                   markers_with_certain_measurement)
from setloc.geom2d import AngleInterval, ConvexPolygon
from setloc.sensing import (ANGLE_ONLY, Measurement, SensorModel,
                            feasible_marker_region)


def brute_force_assignments(rows):
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    out = []
    for perm in itertools.permutations(range(n_cols), n_rows):
        if all(rows[q][perm[q]] for q in range(n_rows)):
            out.append(tuple(perm))
    return sorted(out)


def tiny_box(x, y, h=0.005):
    return ConvexPolygon.box(x - h, x + h, y - h, y + h)


def boundaries_of(batch, model, theta, sensor_xy):
    """Each measurement's sector under the orientation interval theta, summed
    with the sensor set, as the estimator's update builds them for the
    candidate matrix."""
    return [geom2d.sum_boundary(sensor_xy, feasible_marker_region(
        m.bearing, m.range, model, theta.center, theta.half_width))
        for m in batch]


def worked_example_setup():
    """Two bearings, four markers: the second bearing is ambiguous.

    Marker bearings from the sensor: 10, 90, 0 and 14 degrees at 5 m; with a
    +-8 degree cone, a measurement at -6 deg singles out marker 3 while one
    at +6.5 deg is feasible for markers 1, 3 and 4.
    """
    model = SensorModel(ANGLE_ONLY, math.radians(1.0), 0.0, 2 * math.pi, 20.0)
    bearings_deg = [10.0, 90.0, 0.0, 14.0]
    markers = [tiny_box(5 * math.cos(math.radians(b)),
                        5 * math.sin(math.radians(b)))
               for b in bearings_deg]
    sensor_xy = ConvexPolygon.from_points([(0.0, 0.0)])
    sensor_theta = AngleInterval(0.0, math.radians(7.0))
    batch = [Measurement(math.radians(-6.0), None, 0, 0),
             Measurement(math.radians(6.5), None, 0, 1)]
    return batch, markers, sensor_xy, sensor_theta, model


def test_candidate_matrix_worked_example():
    batch, markers, sxy, sth, model = worked_example_setup()
    cmat = build_candidate_matrix(boundaries_of(batch, model, sth, sxy), markers)
    assert cmat.rows == ((False, False, True, False),
                         (True, False, True, True))


def test_assignments_worked_example():
    batch, markers, sxy, sth, model = worked_example_setup()
    cmat = build_candidate_matrix(boundaries_of(batch, model, sth, sxy), markers)
    assigns = enumerate_assignments(cmat)
    assert assigns == [(2, 0), (2, 3)]
    assert markers_with_certain_measurement(assigns, 4) == frozenset({2})


def test_single_feasible_entry_from_separated_geometry():
    model = SensorModel(ANGLE_ONLY, math.radians(0.5), 0.0, 2 * math.pi, 50.0)
    markers = [tiny_box(10.0, 0.0), tiny_box(-10.0, 0.0), tiny_box(0.0, 10.0)]
    cmat = build_candidate_matrix(
        boundaries_of([Measurement(0.0, None, 0, 0)], model,
                      AngleInterval(0.0, math.radians(0.5)),
                      ConvexPolygon.from_points([(0, 0)])),
        markers)
    assert cmat.rows == ((True, False, False),)


def test_aligned_batch_diagonal():
    model = SensorModel(ANGLE_ONLY, math.radians(0.2), 0.0, 2 * math.pi, 50.0)
    angs = [0.0, 0.8, 1.6]
    markers = [tiny_box(8 * math.cos(a), 8 * math.sin(a)) for a in angs]
    batch = [Measurement(a, None, 0, i) for i, a in enumerate(angs)]
    cmat = build_candidate_matrix(
        boundaries_of(batch, model, AngleInterval(0.0, math.radians(0.1)),
                      ConvexPolygon.from_points([(0, 0)])),
        markers)
    assert cmat.rows == ((True, False, False),
                         (False, True, False),
                         (False, False, True))
    assert enumerate_assignments(cmat) == [(0, 1, 2)]


def test_inconsistent_batch_raises():
    model = SensorModel(ANGLE_ONLY, math.radians(0.5), 0.0, 2 * math.pi, 50.0)
    markers = [tiny_box(10.0, 0.0)]
    with pytest.raises(InconsistentBatch) as err:
        build_candidate_matrix(
            boundaries_of([Measurement(math.pi / 2, None, 3, 0)], model,
                          AngleInterval(0.0, 0.01),
                          ConvexPolygon.from_points([(0, 0)])),
            markers, sensor_id=3)
    assert err.value.sensor_id == 3


def test_correspondence_calls_no_geom2d_function():
    # update builds the sum boundaries and keeps them; the candidate matrix
    # only asks which marker sets meet them, and keeps its rows alone
    import ast
    import dataclasses
    from pathlib import Path

    tree = ast.parse(Path(correspondence.__file__).read_text())
    from_geom2d = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "geom2d" for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            assert not (isinstance(f, ast.Attribute)
                        and getattr(f.value, "id", None) == "geom2d"), \
                node.lineno
            assert not (isinstance(f, ast.Name) and f.id in from_geom2d), \
                node.lineno
    assert [f.name for f in dataclasses.fields(CandidateMatrix)] == ["rows"]
    assert geom2d.SumBoundary._fields == ("lines",)


def test_enumerate_identity():
    cmat = CandidateMatrix(((True, False), (False, True)))
    assert enumerate_assignments(cmat) == [(0, 1)]


def test_enumerate_all_true_3x4():
    rows = tuple(tuple(True for _ in range(4)) for _ in range(3))
    cmat = CandidateMatrix(rows)
    out = enumerate_assignments(cmat, cap=100)
    assert len(out) == 24
    assert out == brute_force_assignments(rows)


def test_enumerate_matches_brute_force_random():
    rng = np.random.default_rng(303)
    for _ in range(300):
        n_rows = int(rng.integers(1, 5))
        n_cols = int(rng.integers(n_rows, 5))
        rows = tuple(tuple(bool(b) for b in rng.integers(0, 2, n_cols))
                     for _ in range(n_rows))
        cmat = CandidateMatrix(rows)
        assert enumerate_assignments(cmat, cap=5000) == \
            brute_force_assignments(rows)


def test_one_candidate_per_row_is_one_assignment_without_a_search(
        monkeypatch):
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(correspondence, "_descend", search)
    rows = ((False, False, True, False), (True, False, False, False),
            (False, False, False, True))
    assert enumerate_assignments(CandidateMatrix(rows), cap=1) == [(2, 0, 3)]
    assert brute_force_assignments(rows) == [(2, 0, 3)]
    # two rows with the same one candidate are left to the search
    with pytest.raises(AssertionError, match="searched"):
        enumerate_assignments(CandidateMatrix(((True, False), (True, False))))


def test_enumeration_leaves_no_cycle_holding_the_matrix():
    # with the cyclic collector off, a matrix is freed as soon as the caller
    # drops it, whether the search ran on it or not
    gc.disable()
    try:
        for rows in (((True, True, False), (True, True, True)),
                     ((False, True), (True, False))):
            cmat = CandidateMatrix(rows)
            ref = weakref.ref(cmat)
            assert enumerate_assignments(cmat)
            del cmat
            assert ref() is None, rows
    finally:
        gc.enable()


def test_cap_exceeded():
    rows = tuple(tuple(True for _ in range(5)) for _ in range(5))
    with pytest.raises(CapExceeded):
        enumerate_assignments(CandidateMatrix(rows), cap=10)


def test_certain_markers_single_assignment():
    assert markers_with_certain_measurement([(1, 3)], 5) == frozenset({1, 3})


def test_certain_markers_disjoint_assignments_empty():
    assert markers_with_certain_measurement([(0, 1), (2, 3)], 4) == frozenset()
