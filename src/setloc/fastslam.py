"""Particle-filter baseline storing per-particle sensor and marker states.

Deliberately simple: uniform process noise inside the configured bounds,
truncated-Gaussian measurement likelihood (sigma = bound / 3) with
per-particle nearest-feasible association, and systematic resampling every
step.  It carries no containment guarantee; the point of shipping it is to
have a probabilistic reference the guaranteed estimator can be compared
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import geom2d
from .estimator import RigidBodySpec
from .geom2d import TWO_PI, AngleInterval, ConvexPolygon
from .kinematics import Control, MarkerOffset, RobotModel
from .sensing import ANGLE_RANGE, Measurement, SensorModel

DEFAULT_PARTICLES = 100
# likelihoods are cut to zero beyond this multiple of the noise bound (the
# bound itself sits at 3 sigma); the gate only rejects gross association
# outliers, otherwise 100 particles in a high-dimensional joint state all
# die every step and the filter degenerates to its prior
TRUNCATION_GATE = 10.0
# elements per live pairs x particles temporary of weight_update (64 KiB of
# float64); a step's measurements are weighed in passes of whole
# measurements that fit, or of one measurement where even that does not.
# A parking step (100 particles, median 30 and at most 131 live pairs over
# world seeds 7000, 7001, 1000, 3000 and 42) takes one or two passes
BUDGET = 1 << 13


@dataclass(frozen=True)
class ParticleSet:
    """One particle per row.  The arrays are never edited in place; the
    markers that predict and resample make are read-only, so the headings
    a set keeps (particle_headings) cannot go stale."""

    sensor_xy: np.ndarray     # (S, m, 2)
    sensor_theta: np.ndarray  # (S, m)
    markers: np.ndarray       # (S, n, 2)
    weights: np.ndarray       # (S,), sums to 1
    degenerate_resets: int = 0

    @property
    def size(self) -> int:
        return len(self.weights)


def init_particles(marker_sets: Sequence[ConvexPolygon],
                   sensor_xy_sets: Sequence[ConvexPolygon],
                   sensor_theta_sets: Sequence[AngleInterval],
                   count: int, rng: np.random.Generator) -> ParticleSet:
    """Sample each particle's states uniformly from the initial sets."""
    n = len(marker_sets)
    m = len(sensor_xy_sets)
    markers = np.empty((count, n, 2))
    for j, poly in enumerate(marker_sets):
        markers[:, j, :] = geom2d.sample_uniform(poly, rng, count)
    sensor_xy = np.empty((count, m, 2))
    sensor_theta = np.empty((count, m))
    for i, poly in enumerate(sensor_xy_sets):
        sensor_xy[:, i, :] = geom2d.sample_uniform(poly, rng, count)
    for i, itv in enumerate(sensor_theta_sets):
        sensor_theta[:, i] = itv.lo + rng.random(count) * itv.width
    weights = np.full(count, 1.0 / count)
    return ParticleSet(sensor_xy, sensor_theta, markers, weights)


def _particle_headings(markers: np.ndarray, spec: RigidBodySpec) -> np.ndarray:
    """Per-particle heading: circular mean over marker-pair directions."""
    n = markers.shape[1]
    if n < 2:
        return np.zeros(markers.shape[0])
    sin_sum = np.zeros(markers.shape[0])
    cos_sum = np.zeros(markers.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            d = markers[:, j, :] - markers[:, i, :]
            ang = np.arctan2(d[:, 1], d[:, 0]) - spec.bearings[i][j]
            sin_sum += np.sin(ang)
            cos_sum += np.cos(ang)
    return np.arctan2(sin_sum, cos_sum)


def particle_headings(ps: ParticleSet, spec: RigidBodySpec) -> np.ndarray:
    """_particle_headings(ps.markers, spec), computed once per set: the set
    keeps the headings of the last spec asked for, and a new set (such as
    replace makes) starts without any.  A step reads them twice, for the
    heading interval at its end and in the next step's predict."""
    kept = ps.__dict__.get("_headings")
    if kept is None or kept[0] != spec:
        kept = (spec, _particle_headings(ps.markers, spec))
        object.__setattr__(ps, "_headings", kept)
    return kept[1]


def predict(ps: ParticleSet, u: Control, robot: RobotModel,
            offsets: Sequence[MarkerOffset], spec: RigidBodySpec,
            rng: np.random.Generator) -> ParticleSet:
    """Move each particle's markers by the noisy closed-form marker step."""
    s = ps.size
    v = u.v + rng.uniform(-robot.eps_v, robot.eps_v, s)
    delta = u.delta + rng.uniform(-robot.eps_delta, robot.eps_delta, s)
    heading = particle_headings(ps, spec)
    ell = robot.wheelbase
    markers = ps.markers.copy()
    sin_d, cos_d, tan_d = np.sin(delta), np.cos(delta), np.tan(delta)
    for j, off in enumerate(offsets):
        dl, dth = off.delta_l, off.delta_theta
        g = ((dl * sin_d / ell) ** 2 + cos_d ** 2
             - (dl / ell) * math.sin(dth) * np.sin(2.0 * delta))
        d = v * robot.dt * np.sqrt(np.maximum(g, 0.0))
        ang = heading + dth + np.arctan2(dl * tan_d - ell * math.sin(dth),
                                         ell * math.cos(dth))
        markers[:, j, 0] += d * np.cos(ang)
        markers[:, j, 1] += d * np.sin(ang)
        if robot.eps_f > 0.0:
            markers[:, j, :] += rng.uniform(-robot.eps_f, robot.eps_f, (s, 2))
    return replace(ps, markers=_read_only(markers))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _angle_gap(pred: np.ndarray, bearing: np.ndarray) -> np.ndarray:
    """|remainder(pred - bearing + pi, 2pi) - pi|, bit for bit: numpy's
    remainder is fmod plus 2pi where fmod is negative (npy_divmod; the +0.0
    it makes of a -0.0 gives the same -pi), and fmod is about 4x cheaper."""
    r = np.fmod(pred - bearing + np.pi, TWO_PI)
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    r -= np.pi
    return np.abs(r, out=r)


def weight_update(ps: ParticleSet, batches: Sequence[Sequence[Measurement]],
                  models: Sequence[SensorModel]) -> ParticleSet:
    """Multiply weights by the best-marker likelihood of every measurement.

    Likelihoods are Gaussian with sigma = bound / 3, truncated to zero
    outside the bound.  A measurement no particle can explain within the
    truncation is skipped (it carries no usable information for this particle
    set); if the whole set still dies, weights reset to uniform and the event
    is counted.

    Log-likelihoods are formed only for the (marker, measurement) pairs that
    some particle may explain (_live_pairs); every other pair is -inf for
    every particle and cannot win the max over markers.  They are formed in
    array passes over whole measurements, at most BUDGET live pair x
    particle elements each.  Each element is computed by the operations the
    per-measurement loop used, and the usable measurements are added into the
    log weights one at a time in sensor and then batch order, so the weights
    equal that loop's bit for bit.
    """
    s = ps.size
    log_w = np.log(np.maximum(ps.weights, 1e-300))
    seen = [i for i, batch in enumerate(batches) if batch]
    if seen:
        pred_bearing, pred_range = _predictions(ps, seen)
        table = _measurement_table(batches, models, seen)
        # live pairs in row-major order: each measurement's are adjacent
        row, marker = np.nonzero(_live_pairs(pred_bearing, pred_range, table))
        # where each measurement's run of pairs starts, and the end of all
        new_row = np.empty(len(row) + 1, dtype=bool)
        new_row[0] = new_row[-1] = True
        np.not_equal(row[1:], row[:-1], out=new_row[1:-1])
        bounds = np.flatnonzero(new_row)
        cap = max(1, BUDGET // s)
        a = 0
        while a < len(bounds) - 1:
            # the most whole measurements from a on within cap pairs, or one
            b = max(a + 1, int(np.searchsorted(bounds, bounds[a] + cap,
                                               side="right")) - 1)
            lo, hi = bounds[a], bounds[b]
            ll = _log_likelihoods(pred_bearing, pred_range, table[row[lo:hi]],
                                  marker[lo:hi])
            best = _max_per_measurement(ll, bounds[a:b + 1] - lo)
            best = best[~np.isinf(best).all(axis=1)]
            # each row added into log_w in turn, as log_w += row would
            log_w = np.add.accumulate(np.vstack((log_w, best)), axis=0)[-1]
            a = b
    resets = ps.degenerate_resets
    if np.all(np.isinf(log_w)) or np.all(np.isnan(log_w)):
        weights = np.full(s, 1.0 / s)
        resets += 1
    else:
        log_w -= log_w[np.isfinite(log_w)].max(initial=-np.inf)
        weights = np.exp(log_w)
        total = weights.sum()
        if total <= 0.0 or not np.isfinite(total):
            weights = np.full(s, 1.0 / s)
            resets += 1
        else:
            weights = weights / total
    return replace(ps, weights=weights, degenerate_resets=resets)


def _predictions(ps: ParticleSet,
                 seen: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Predicted bearing and range per (marker, sensor in ``seen``,
    particle), C-contiguous, so that reduces and gathers over the particles
    read memory in order."""
    mx, my = np.ascontiguousarray(ps.markers.T)
    sx, sy = ps.sensor_xy.T.take(seen, axis=1)
    dx = mx[:, None, :] - sx
    dy = my[:, None, :] - sy
    return (np.arctan2(dy, dx) - ps.sensor_theta.T.take(seen, axis=0),
            np.hypot(dx, dy))


# range, range gate, range sigma and range miss of a measurement without a
# usable range: no range passes the gate, and the miss is -0.0, the exact
# identity of addition, so the range term leaves the log-likelihood as it is
_NO_RANGE = (0.0, -np.inf, 1.0, -0.0)


def _measurement_table(batches: Sequence[Sequence[Measurement]],
                       models: Sequence[SensorModel],
                       seen: Sequence[int]) -> np.ndarray:
    """One row per measurement, in sensor and then batch order: column of
    its sensor in ``seen``, bearing, bearing gate, bearing sigma, range,
    range gate, range sigma, range miss."""
    flat: list[float] = []
    for col, i in enumerate(seen):
        model = models[i]
        bearing_terms = (TRUNCATION_GATE * model.eps_bearing,
                         max(model.eps_bearing / 3.0, 1e-12))
        range_terms = (TRUNCATION_GATE * model.eps_range,
                       max(model.eps_range / 3.0, 1e-12), -np.inf)
        ranged = model.kind == ANGLE_RANGE
        for meas in batches[i]:
            if ranged and meas.range is not None:
                flat += (col, meas.bearing, *bearing_terms, meas.range,
                         *range_terms)
            else:
                flat += (col, meas.bearing, *bearing_terms, *_NO_RANGE)
    return np.array(flat).reshape(-1, 8)


# a bearing gap is trusted to this share of the largest magnitude that goes
# into the step's gaps, plus one: its rounding is a few ulps of that
GATE_MARGIN = 1e-9


def _live_pairs(pred_bearing: np.ndarray, pred_range: np.ndarray,
                table: np.ndarray) -> np.ndarray:
    """(measurements, markers) mask of the pairs that some particle may
    explain; a dropped pair is -inf for every particle.

    The particles' predicted bearings for a (marker, sensor) lie within
    ``half`` of ``mid``, the middle of their least and greatest, so by the
    triangle inequality on the circle each one's gap to a bearing is at least
    the gap from ``mid`` less ``half``.  A pair is dropped where that exceeds
    the bearing gate by more than GATE_MARGIN's share.  A ranged
    measurement's pair is also dropped where its range lies farther than the
    range gate outside the least and greatest predicted range; rounding is
    monotone, so every particle's rounded range gap is at least as large,
    and this test needs no margin.  An angle-only row (range miss -0.0) is
    never dropped by range, and a NaN drops nothing.
    """
    col = table[:, 0].astype(np.intp)
    bearing, gate_a, rng, gate_r, miss_r = table[:, [1, 2, 4, 5, 7]].T
    lo, hi = pred_bearing.min(axis=2), pred_bearing.max(axis=2)
    margin = GATE_MARGIN * (1.0 + max(-lo.min(), hi.max(),
                                      np.abs(bearing).max()))
    far = (_angle_gap((0.5 * (lo + hi))[:, col], bearing)
           - (0.5 * (hi - lo))[:, col] > gate_a + margin)
    outside = np.maximum(pred_range.min(axis=2)[:, col] - rng,
                         rng - pred_range.max(axis=2)[:, col])
    far |= (outside > gate_r) & (miss_r == -np.inf)
    return ~far.T


def _log_likelihoods(pred_bearing: np.ndarray, pred_range: np.ndarray,
                     pairs: np.ndarray, marker: np.ndarray) -> np.ndarray:
    """(pairs, particles) log-likelihood of each marker in ``marker`` for
    the measurement whose table row is the same row of ``pairs``."""
    col = pairs[:, 0].astype(np.intp)
    bearing, gate_a, sig_a, rng, gate_r, sig_r, miss_r = \
        (pairs[:, k, None] for k in range(1, 8))
    da = _angle_gap(pred_bearing[marker, col], bearing)
    ll = np.where(da <= gate_a, -0.5 * (da / sig_a) ** 2, -np.inf)
    dr = np.abs(pred_range[marker, col] - rng)
    ll += np.where(dr <= gate_r, -0.5 * (dr / sig_r) ** 2, miss_r)
    return ll


def _max_per_measurement(ll: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Max of each run ``ll[bounds[k]:bounds[k + 1]]`` of rows (none
    empty), taken in row order as np.maximum.reduceat takes it, but in one
    pass per rank within the runs rather than one per run."""
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    best = ll[starts]
    for q in range(1, int(counts.max())):
        k = np.flatnonzero(counts > q)
        best[k] = np.maximum(best[k], ll[starts[k] + q])
    return best


def resample(ps: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Low-variance systematic resampling; weights return to uniform."""
    s = ps.size
    positions = (rng.random() + np.arange(s)) / s
    cumulative = np.cumsum(ps.weights)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, positions)
    return ParticleSet(ps.sensor_xy[idx].copy(), ps.sensor_theta[idx].copy(),
                       _read_only(ps.markers[idx]), np.full(s, 1.0 / s),
                       ps.degenerate_resets)


def estimate_body_particles(ps: ParticleSet) -> ConvexPolygon:
    """Hull of every marker point stored in any particle: from_points of
    the points, which are sorted and deduplicated here in numpy instead.
    Each (x, y) is viewed as the complex number x + iy, whose sort order is
    lexicographic; the sort is stable and the first of equal points stays
    (0.0 equals -0.0), as the set in from_points keeps the first."""
    z = np.ascontiguousarray(ps.markers).view(np.complex128).ravel()
    z = np.sort(z, kind="stable")
    first = np.empty(len(z), dtype=bool)
    first[0] = True
    np.not_equal(z[1:], z[:-1], out=first[1:])
    z = z[first]
    return ConvexPolygon.from_sorted_points(
        list(zip(z.real.tolist(), z.imag.tolist())))


def heading_interval_particles(ps: ParticleSet,
                               spec: RigidBodySpec) -> AngleInterval:
    """Smallest arc containing every particle's implied heading.  Only the
    distinct headings are enclosed, which gives the same arc (enclose_spans
    does not depend on the order or repeats of its spans).  Each is a
    zero-width span at its heading taken into [-pi, pi), the ends
    AngleInterval(h, 0.0) would give."""
    headings = dict.fromkeys(particle_headings(ps, spec).tolist())
    return geom2d.enclose_spans([(s, s) for s in (
        0.0 - geom2d.wrap_angle(-h) for h in headings)])
