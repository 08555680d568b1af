"""Bearing / bearing-and-range sensor model and per-measurement feasible sets.

A fixed sensor reports the bearing of a marker relative to its own
orientation, optionally with the distance.  Inverting one measurement under
bounded noise and a bounded sensor-orientation interval yields a sector of
candidate positions; both directions of that inversion are provided: where
the sensor can be as seen from the marker, and where the marker can be as
seen from the sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geom2d
from .geom2d import AngleInterval, ConvexPolygon, Interval, wrap_angle

ANGLE_ONLY = "angle_only"
ANGLE_RANGE = "angle_range"


@dataclass(frozen=True)
class SensorModel:
    kind: str                  # ANGLE_ONLY or ANGLE_RANGE
    eps_bearing: float         # rad
    eps_range: float = 0.0     # m (ignored for angle-only sensors)
    fov: float = 2.0 * math.pi  # rad, total field of view
    max_range: float = 20.0    # m

    def __post_init__(self):
        if self.kind not in (ANGLE_ONLY, ANGLE_RANGE):
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        # written so that NaN fails every check
        if not (self.eps_bearing >= 0.0 and self.eps_range >= 0.0):
            raise ValueError("noise bounds must be >= 0")
        if not (0.0 < self.fov <= 2.0 * math.pi):
            raise ValueError("fov must be in (0, 2*pi]")
        if not self.max_range > 0.0:
            raise ValueError("max_range must be positive")


@dataclass(frozen=True)
class SensorPose:
    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Measurement:
    bearing: float              # rad, relative to the sensor orientation
    range: float | None         # m, None for angle-only sensors
    sensor_id: int = -1
    slot: int = -1              # position in the (shuffled) sensor batch

    def __post_init__(self):
        if self.range is not None and self.range < 0.0:
            raise ValueError("range must be >= 0")


def measure(sensor: SensorPose, model: SensorModel, marker: tuple[float, float],
            w_a: float, w_r: float = 0.0, sensor_id: int = -1,
            slot: int = -1) -> Measurement | None:
    """Measure one marker; None when outside the field of view or range.

    Gating uses the noiseless bearing and distance, so an emitted measurement
    is always of a marker genuinely within view.  A range noise that would
    make the reading negative is clamped to 0: the true range then lies in
    [0, eps_range], which the reading's feasible region still covers.
    """
    dx = marker[0] - sensor.x
    dy = marker[1] - sensor.y
    true_range = math.hypot(dx, dy)
    true_bearing = wrap_angle(math.atan2(dy, dx) - sensor.theta)
    if abs(true_bearing) > 0.5 * model.fov or true_range > model.max_range:
        return None
    rng = None
    if model.kind == ANGLE_RANGE:
        rng = max(0.0, true_range + w_r)
    return Measurement(wrap_angle(true_bearing + w_a), rng, sensor_id, slot)


def measurement_cone(alpha: float, r: float | None, model: SensorModel,
                     theta: AngleInterval) -> tuple[AngleInterval, Interval]:
    """The directions and the distances, seen from the sensor, of marker
    positions consistent with one measurement, given sensor orientation in
    theta: the cone, theta shifted by the bearing and widened by
    eps_bearing, and the radii of its sector."""
    cone = theta.shift(alpha).widen(model.eps_bearing)
    if r is None or model.kind == ANGLE_ONLY:
        return cone, Interval(0.0, model.max_range)
    return cone, Interval(max(0.0, r - model.eps_range), r + model.eps_range)


def feasible_marker_region(alpha: float, r: float | None, model: SensorModel,
                           theta_c: float, d_theta_c: float) -> ConvexPolygon:
    """Sensor-centered polygon covering marker positions consistent with
    one measurement, given sensor orientation in theta_c +- d_theta_c."""
    return geom2d.sector_outer_polygon(*measurement_cone(
        alpha, r, model, AngleInterval(theta_c, d_theta_c)))


def feasible_sensor_region(alpha: float, r: float | None, model: SensorModel,
                           theta_c: float, d_theta_c: float) -> ConvexPolygon:
    """Marker-centered polygon covering sensor positions consistent with
    one measurement: the marker region reflected through the origin."""
    return geom2d.negate(feasible_marker_region(alpha, r, model, theta_c,
                                                d_theta_c))
