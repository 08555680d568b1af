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
# elements per particles x markers x measurements temporary of weight_update
# (64 KiB of float64); a step's measurements are weighed in chunks that fit.
# At 2**16, where parking's whole step is one chunk, the 150-step parking run
# peaked about 1 MB higher in resident memory and ran no faster
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
        lo = itv.center - itv.half_width
        sensor_theta[:, i] = lo + rng.random(count) * itv.width
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

    A step is weighed in one array pass per chunk of at most BUDGET
    particle x marker x measurement elements.  Each element is computed by
    the operations the per-measurement loop used, and the usable
    measurements are added into the log weights one at a time in sensor and
    then batch order, so the weights equal that loop's bit for bit.
    """
    s = ps.size
    log_w = np.log(np.maximum(ps.weights, 1e-300))
    seen = [i for i, batch in enumerate(batches) if batch]
    if seen:
        # predicted bearing and range per (marker, sensor seen, particle)
        sxy = ps.sensor_xy[:, seen, :]
        dx = ps.markers[:, :, 0].T[:, None, :] - sxy[:, :, 0].T
        dy = ps.markers[:, :, 1].T[:, None, :] - sxy[:, :, 1].T
        pred_bearing = np.arctan2(dy, dx) - ps.sensor_theta[:, seen].T
        pred_range = np.hypot(dx, dy)
        table = _measurement_table(batches, models, seen)
        chunk = max(1, BUDGET // (s * ps.markers.shape[1]))
        for start in range(0, len(table), chunk):
            best = _best_log_likelihoods(pred_bearing, pred_range,
                                         table[start:start + chunk])
            for row in best[~np.isinf(best).all(axis=1)]:
                log_w += row
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
    rows = []
    for col, i in enumerate(seen):
        model = models[i]
        bearing_terms = (TRUNCATION_GATE * model.eps_bearing,
                         max(model.eps_bearing / 3.0, 1e-12))
        range_terms = (TRUNCATION_GATE * model.eps_range,
                       max(model.eps_range / 3.0, 1e-12), -np.inf)
        ranged = model.kind == ANGLE_RANGE
        for meas in batches[i]:
            if ranged and meas.range is not None:
                rows.append((col, meas.bearing, *bearing_terms, meas.range,
                             *range_terms))
            else:
                rows.append((col, meas.bearing, *bearing_terms, *_NO_RANGE))
    return np.array(rows)


def _best_log_likelihoods(pred_bearing: np.ndarray, pred_range: np.ndarray,
                          table: np.ndarray) -> np.ndarray:
    """(measurements, particles) log-likelihood of the best marker.  The
    marker axis comes first, so the association max is one reduce over
    contiguous slabs."""
    col = table[:, 0].astype(np.intp)
    bearing, gate_a, sig_a, rng, gate_r, sig_r, miss_r = \
        (table[:, k, None] for k in range(1, 8))
    da = _angle_gap(pred_bearing.take(col, axis=1), bearing)
    ll = np.where(da <= gate_a, -0.5 * (da / sig_a) ** 2, -np.inf)
    dr = np.abs(pred_range.take(col, axis=1) - rng)
    ll += np.where(dr <= gate_r, -0.5 * (dr / sig_r) ** 2, miss_r)
    return np.maximum.reduce(ll, axis=0)


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
    zero-width span starting at its wrapped heading, the start
    AngleInterval(h, 0.0) would give."""
    headings = dict.fromkeys(particle_headings(ps, spec).tolist())
    return geom2d.enclose_spans([geom2d.wrap_angle(h) for h in headings],
                                [0.0] * len(headings))
