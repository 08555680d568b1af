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
from .geom2d import AngleInterval, ConvexPolygon
from .kinematics import Control, MarkerOffset, RobotModel
from .sensing import ANGLE_RANGE, Measurement, SensorModel

DEFAULT_PARTICLES = 100
# likelihoods are cut to zero beyond this multiple of the noise bound (the
# bound itself sits at 3 sigma); the gate only rejects gross association
# outliers, otherwise 100 particles in a high-dimensional joint state all
# die every step and the filter degenerates to its prior
TRUNCATION_GATE = 10.0


@dataclass(frozen=True)
class ParticleSet:
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


def predict(ps: ParticleSet, u: Control, robot: RobotModel,
            offsets: Sequence[MarkerOffset], spec: RigidBodySpec,
            rng: np.random.Generator) -> ParticleSet:
    """Move each particle's markers by the noisy closed-form marker step."""
    s = ps.size
    v = u.v + rng.uniform(-robot.eps_v, robot.eps_v, s)
    delta = u.delta + rng.uniform(-robot.eps_delta, robot.eps_delta, s)
    heading = _particle_headings(ps.markers, spec)
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
    return replace(ps, markers=markers)


def weight_update(ps: ParticleSet, batches: Sequence[Sequence[Measurement]],
                  models: Sequence[SensorModel]) -> ParticleSet:
    """Multiply weights by the best-marker likelihood of every measurement.

    Likelihoods are Gaussian with sigma = bound / 3, truncated to zero
    outside the bound.  A measurement no particle can explain within the
    truncation is skipped (it carries no usable information for this particle
    set); if the whole set still dies, weights reset to uniform and the event
    is counted.
    """
    s = ps.size
    log_w = np.log(np.maximum(ps.weights, 1e-300))
    for i, batch in enumerate(batches):
        if not batch:
            continue
        model = models[i]
        sx = ps.sensor_xy[:, i, 0][:, None]
        sy = ps.sensor_xy[:, i, 1][:, None]
        st = ps.sensor_theta[:, i][:, None]
        dx = ps.markers[:, :, 0] - sx
        dy = ps.markers[:, :, 1] - sy
        pred_bearing = np.arctan2(dy, dx) - st
        pred_range = np.hypot(dx, dy)
        sig_a = model.eps_bearing / 3.0
        sig_r = model.eps_range / 3.0
        for meas in batch:
            da = np.abs(np.remainder(pred_bearing - meas.bearing + np.pi,
                                     2.0 * np.pi) - np.pi)
            ll = np.where(da <= TRUNCATION_GATE * model.eps_bearing,
                          -0.5 * (da / max(sig_a, 1e-12)) ** 2, -np.inf)
            if model.kind == ANGLE_RANGE and meas.range is not None:
                dr = np.abs(pred_range - meas.range)
                ll = ll + np.where(dr <= TRUNCATION_GATE * model.eps_range,
                                   -0.5 * (dr / max(sig_r, 1e-12)) ** 2, -np.inf)
            best = ll.max(axis=1)        # nearest-feasible association
            if np.all(np.isinf(best)):
                continue
            log_w += best
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


def resample(ps: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Low-variance systematic resampling; weights return to uniform."""
    s = ps.size
    positions = (rng.random() + np.arange(s)) / s
    cumulative = np.cumsum(ps.weights)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, positions)
    return ParticleSet(ps.sensor_xy[idx].copy(), ps.sensor_theta[idx].copy(),
                       ps.markers[idx].copy(), np.full(s, 1.0 / s),
                       ps.degenerate_resets)


def estimate_body_particles(ps: ParticleSet) -> ConvexPolygon:
    """Hull of every marker point stored in any particle."""
    pts = ps.markers.reshape(-1, 2)
    return ConvexPolygon.from_points(pts.tolist())


def heading_interval_particles(ps: ParticleSet,
                               spec: RigidBodySpec) -> AngleInterval:
    """Smallest arc containing every particle's implied heading.  Only the
    distinct headings are enclosed, in first-occurrence order, which gives
    the same arc (enclose_angles keeps the first of equally good starts)."""
    headings = dict.fromkeys(_particle_headings(ps.markers, spec).tolist())
    arcs = [AngleInterval(h, 0.0) for h in headings]
    return geom2d.enclose_angles(arcs)
