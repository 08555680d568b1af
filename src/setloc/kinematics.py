"""Vehicle and marker motion models with interval displacement bounds.

The vehicle is a front-steered platform whose rear-axle pose advances by a
discrete step; rigidly attached markers move by a closed-form displacement
derived from the same turn geometry.  For set propagation, marker
displacements over bounded control noise and a heading interval are bounded
by interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom2d import AngleInterval, Interval, wrap_angle

Point = tuple[float, float]


@dataclass(frozen=True)
class RobotModel:
    wheelbase: float          # m
    dt: float                 # s
    body_length: float = 0.0  # m
    body_width: float = 0.0   # m
    eps_v: float = 0.0        # m/s, speed noise bound
    eps_delta: float = 0.0    # rad, steering noise bound
    eps_f: float = 0.0        # m, unmodeled marker disturbance bound (inf-norm)

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.wheelbase > 0.0 and self.dt > 0.0):
            raise ValueError("wheelbase and dt must be positive")
        if not (self.eps_v >= 0.0 and self.eps_delta >= 0.0 and self.eps_f >= 0.0):
            raise ValueError("noise bounds must be >= 0")


@dataclass(frozen=True)
class MarkerOffset:
    """Polar coordinates of a marker in the rear-axle body frame."""
    delta_l: float      # m, radial distance from the rear-axle center
    delta_theta: float  # rad, bearing in the body frame

    def __post_init__(self):
        if self.delta_l < 0.0:
            raise ValueError("delta_l must be >= 0")

    def body_xy(self) -> Point:
        return (self.delta_l * math.cos(self.delta_theta),
                self.delta_l * math.sin(self.delta_theta))


@dataclass(frozen=True)
class RobotPose:
    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class Control:
    v: float       # m/s
    delta: float   # rad

    def __post_init__(self):
        if abs(self.delta) >= math.pi / 2.0:
            raise ValueError("|delta| must be < pi/2")


def bicycle_step(pose: RobotPose, u: Control, w_v: float, w_delta: float,
                 model: RobotModel) -> RobotPose:
    """One discrete step of the rear-axle pose under noisy controls."""
    v = u.v + w_v
    d = u.delta + w_delta
    arc = v * model.dt
    theta = pose.theta + (arc / model.wheelbase) * math.sin(d)
    x = pose.x + arc * math.cos(pose.theta) * math.cos(d)
    y = pose.y + arc * math.sin(pose.theta) * math.cos(d)
    return RobotPose(x, y, theta)


def place_marker(pose: RobotPose, offset: MarkerOffset) -> Point:
    """World position of a rigidly attached marker for a given pose."""
    a = pose.theta + offset.delta_theta
    return (pose.x + offset.delta_l * math.cos(a),
            pose.y + offset.delta_l * math.sin(a))


def marker_displacement(u_noisy: Control, heading: float, offset: MarkerOffset,
                        model: RobotModel) -> tuple[float, float]:
    """Displacement magnitude and direction of one marker over one step.

    Closed form of the marker's path length and initial travel direction when
    the vehicle turns with steering angle delta: the marker rides a circle
    about the instantaneous turn center, so its speed is constant and the
    direction is the local tangent.
    """
    v, delta = u_noisy.v, u_noisy.delta
    dl, dth = offset.delta_l, offset.delta_theta
    ell = model.wheelbase
    g = ((dl * math.sin(delta) / ell) ** 2 + math.cos(delta) ** 2
         - (dl / ell) * math.sin(dth) * math.sin(2.0 * delta))
    d = v * model.dt * math.sqrt(max(g, 0.0))
    theta_i = heading + dth + math.atan2(dl * math.tan(delta) - ell * math.sin(dth),
                                         ell * math.cos(dth))
    return d, wrap_angle(theta_i)


# ---------------------------------------------------------------------------
# interval arithmetic for displacement bounds
# ---------------------------------------------------------------------------

def _imul(a: Interval, b: Interval) -> Interval:
    vals = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(vals), max(vals))


def _iscale(a: Interval, s: float) -> Interval:
    return Interval(a.lo * s, a.hi * s) if s >= 0.0 else Interval(a.hi * s, a.lo * s)


def _iadd(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def _isq(a: Interval) -> Interval:
    lo, hi = abs(a.lo), abs(a.hi)
    m = max(lo, hi)
    return Interval(0.0 if a.lo <= 0.0 <= a.hi else min(lo, hi) ** 2, m * m)


def _icos_range(lo: float, hi: float) -> Interval:
    if hi - lo >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    vals = [math.cos(lo), math.cos(hi)]
    k0 = math.ceil(lo / (2.0 * math.pi))
    if 2.0 * math.pi * k0 <= hi:
        vals.append(1.0)
    k1 = math.ceil((lo - math.pi) / (2.0 * math.pi))
    if math.pi + 2.0 * math.pi * k1 <= hi:
        vals.append(-1.0)
    return Interval(min(vals), max(vals))


def _isin_range(lo: float, hi: float) -> Interval:
    if hi - lo >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    vals = [math.sin(lo), math.sin(hi)]
    k0 = math.ceil((lo - math.pi / 2.0) / (2.0 * math.pi))
    if math.pi / 2.0 + 2.0 * math.pi * k0 <= hi:
        vals.append(1.0)
    k1 = math.ceil((lo + math.pi / 2.0) / (2.0 * math.pi))
    if -math.pi / 2.0 + 2.0 * math.pi * k1 <= hi:
        vals.append(-1.0)
    return Interval(min(vals), max(vals))


def _icos_angle(a: AngleInterval) -> Interval:
    return _icos_range(a.center - a.half_width, a.center + a.half_width)


def _isin_angle(a: AngleInterval) -> Interval:
    return _isin_range(a.center - a.half_width, a.center + a.half_width)


def _direction_offset(delta_lo: float, delta_hi: float,
                      offset: MarkerOffset, ell: float) -> AngleInterval:
    """Arc of atan2(dl*tan(delta) - ell*sin(dth), ell*cos(dth)) over delta."""
    dth = offset.delta_theta
    den = ell * math.cos(dth)
    n_lo = offset.delta_l * math.tan(delta_lo) - ell * math.sin(dth)
    n_hi = offset.delta_l * math.tan(delta_hi) - ell * math.sin(dth)
    if abs(den) <= 1e-12 * ell:
        if n_lo <= 0.0 <= n_hi:
            return AngleInterval.full()
        return AngleInterval(math.copysign(math.pi / 2.0, n_lo), 0.0)
    # both boundary vectors share x-coordinate den != 0, so the image is the
    # minor arc between their directions
    a1 = math.atan2(n_lo, den)
    a2 = math.atan2(n_hi, den)
    span = wrap_angle(a2 - a1)
    return AngleInterval(a1 + 0.5 * span, 0.5 * abs(span))


def displacement_bounds(u: Control, heading_set: AngleInterval,
                        offset: MarkerOffset, model: RobotModel,
                        cover_rigid_step: bool = False) -> tuple[Interval, Interval]:
    """Axis-aligned interval bounds on one marker's displacement.

    Covers every displacement produced by the closed-form marker step for
    speeds within eps_v of u.v, steering within eps_delta of u.delta and any
    heading in heading_set.  With cover_rigid_step the intervals additionally
    cover the displacement of a rigidly attached point when the pose itself is
    advanced by the discrete step; the two discretizations agree only to
    first order, so a propagator feeding a rigid world needs both.
    """
    ell = model.wheelbase
    dt = model.dt
    d_lo = u.delta - model.eps_delta
    d_hi = u.delta + model.eps_delta
    if d_hi - d_lo >= math.pi or abs(d_lo) >= math.pi / 2.0 or abs(d_hi) >= math.pi / 2.0:
        raise ValueError("steering range must stay inside (-pi/2, pi/2)")
    v_itv = Interval(u.v - model.eps_v, u.v + model.eps_v)
    sin_d = _isin_range(d_lo, d_hi)
    cos_d = _icos_range(d_lo, d_hi)

    # path-length form: d(v, delta), direction theta + dth + A(delta)
    dl = offset.delta_l
    t1 = _iscale(_isq(sin_d), (dl / ell) ** 2)
    t2 = _isq(cos_d)
    sin_2d = _isin_range(2.0 * d_lo, 2.0 * d_hi)
    t3 = _iscale(sin_2d, -(dl / ell) * math.sin(offset.delta_theta))
    g = _iadd(_iadd(t1, t2), t3)
    g_fac = Interval(math.sqrt(max(g.lo, 0.0)), math.sqrt(max(g.hi, 0.0)))
    d_itv = _imul(_iscale(v_itv, dt), g_fac)
    direction = heading_set.shift(offset.delta_theta).sum(
        _direction_offset(d_lo, d_hi, offset, ell))
    dx = _imul(d_itv, _icos_angle(direction))
    dy = _imul(d_itv, _isin_angle(direction))

    if cover_rigid_step:
        # rigid form: axle moves v*dt*cos(delta) along the old heading, the
        # marker arm rotates by gamma = (v*dt/ell)*sin(delta); factored as
        # 2*dl*sin(gamma/2) against the mid-rotation phase to avoid
        # double-counting the shared heading interval
        arm = heading_set.shift(offset.delta_theta)
        gam_half = _iscale(_imul(v_itv, sin_d), 0.5 * dt / ell)
        q = _iscale(_isin_range(gam_half.lo, gam_half.hi), 2.0 * dl)
        # a rotation interval 2 pi or wider leaves every phase possible
        phase = arm.sum(AngleInterval(gam_half.mid,
                                      min(math.pi, 0.5 * gam_half.width)))
        axial = _imul(_iscale(_imul(v_itv, cos_d), dt), _icos_angle(heading_set))
        axial_y = _imul(_iscale(_imul(v_itv, cos_d), dt), _isin_angle(heading_set))
        dx2 = _iadd(axial, _iscale(_imul(q, _isin_angle(phase)), -1.0))
        dy2 = _iadd(axial_y, _imul(q, _icos_angle(phase)))
        dx = dx.hull(dx2)
        dy = dy.hull(dy2)
    return dx, dy
