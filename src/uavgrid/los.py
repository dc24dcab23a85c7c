"""Closed-form line-of-sight probability for a single vehicle-to-UAV link.

The vehicle sits where two axis-aligned streets meet (or mid-block on one of
them); buildings fill the blocks.  Three independent events can cut the ray:

  * the deterministic building at the near corner of the vehicle's block,
  * a building side perpendicular to the x axis somewhere along the path,
  * a building side perpendicular to the y axis.

Each survival factor has a closed form under Poisson street crossings with
iid uniform building heights, and the LoS probability is their product.

The recurring geometric quantity is the "gap clearance" per axis: how far the
ray travels (measured along that axis) before it leaves the open cross formed
by the two streets at the vehicle.  Building sides closer than that cannot
stand in the ray's way, and the corner building is first met exactly at the
clearance point.

All angles fold into the first quadrant: the grid is mirror-symmetric about
both axes, each axis keeping its own street width.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CityModel, HeightDistribution

UNBOUNDED = math.inf


class Placement(enum.Enum):
    """Where the vehicle sits relative to the street grid."""

    INTERSECTION = "intersection"
    STREET = "street"


class Axis(enum.Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class LinkGeometry:
    """One vehicle-to-UAV link.

    phi is stored folded into [0, pi/2]; cos_phi and sin_phi are the absolute
    trig values of the angle passed in, so any azimuth in [0, 2*pi) maps onto
    its first-quadrant representative.
    """

    d: float
    phi: float
    h_uav: float
    h_v: float
    cos_phi: float = field(init=False, repr=False)
    sin_phi: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 0.0:
            raise ValueError("d cannot be negative")
        if self.h_v < 0.0:
            raise ValueError("h_v cannot be negative")
        if self.h_uav <= self.h_v:
            raise ValueError("need h_uav > h_v for a link above the vehicle")
        c = abs(math.cos(self.phi))
        s = abs(math.sin(self.phi))
        object.__setattr__(self, "cos_phi", c)
        object.__setattr__(self, "sin_phi", s)
        object.__setattr__(self, "phi", math.atan2(s, c))

    @property
    def delta_h(self) -> float:
        return self.h_uav - self.h_v


def effective_widths(city: CityModel, placement: Placement) -> tuple[float, float]:
    """Street widths as seen from the vehicle.

    Mid-block there is no crossing street at the vehicle, so the crossing
    width collapses to zero while the vehicle's own street keeps its width.
    """
    if placement is Placement.STREET:
        return city.w_v, 0.0
    return city.w_v, city.w_h


def _clearance_x(c: float, s: float, w_v: float, w_h: float) -> float:
    # x coordinate where the ray leaves the open cross of the two streets: its
    # own street bounds x directly, the crossing street bounds y and projects
    # onto x through the direction.  A zero width contributes nothing (the
    # guard also avoids 0*inf at axis-parallel angles).
    za = 0.5 * w_v
    if w_h > 0.0:
        if s == 0.0:
            return UNBOUNDED
        za = max(za, 0.5 * w_h * c / s)
    return za


def _clearance_y(c: float, s: float, w_v: float, w_h: float) -> float:
    za = 0.5 * w_h
    if w_v > 0.0:
        if c == 0.0:
            return UNBOUNDED
        za = max(za, 0.5 * w_v * s / c)
    return za


def corner_critical_height(link: LinkGeometry, w_v: float, w_h: float) -> float:
    """Height the near-corner building must exceed to block the link.

    The ray meets the block corner where it clears the street gap; the return
    value is the ray's altitude there.  UNBOUNDED means the ray never meets
    the corner (parallel to an open street, or no horizontal advance), so the
    corner cannot block.  With both widths zero the corner stands at the
    vehicle itself and the critical height is h_v.
    """
    reach = _clearance_x(link.cos_phi, link.sin_phi, w_v, w_h)
    if reach == 0.0:
        return link.h_v
    if reach == UNBOUNDED:
        return UNBOUNDED
    den = link.d * link.cos_phi
    if den == 0.0:
        return UNBOUNDED
    return reach * link.delta_h / den + link.h_v


def corner_factor(
    link: LinkGeometry, w_v: float, w_h: float, heights: HeightDistribution
) -> float:
    """Probability the near-corner building is short enough to miss the ray."""
    h0 = corner_critical_height(link, w_v, w_h)
    if h0 == UNBOUNDED:
        return 1.0
    return float(heights.cdf(h0))


def integration_limits(
    link: LinkGeometry, city: CityModel, axis: Axis, placement: Placement
) -> tuple[float, float]:
    """Coordinate interval of building sides that could block the ray.

    Lower limit: the gap clearance for this axis.  Upper limit: the UAV's
    ground position.  An empty interval (za >= zb) means no side on this axis
    can interfere and the survival factor is 1.
    """
    w_v, w_h = effective_widths(city, placement)
    if axis is Axis.X:
        za = _clearance_x(link.cos_phi, link.sin_phi, w_v, w_h)
        zb = link.d * link.cos_phi
    else:
        za = _clearance_y(link.cos_phi, link.sin_phi, w_v, w_h)
        zb = link.d * link.sin_phi
    return za, zb


def _survivor_length(
    za: float, zb: float, zeta: float, delta_h: float, h_v: float, heights: HeightDistribution
) -> float:
    # Integral over (za, zb) of P(side taller than the ray).  The ray altitude
    # is linear in z, so the survival probability is 1 until the ray passes
    # h_min, ramps linearly down, and is 0 once the ray clears h_max.
    slope = delta_h / zeta
    z1 = (heights.h_min - h_v) / slope
    z2 = (heights.h_max - h_v) / slope
    len_full = min(zb, z1) - za
    if len_full < 0.0:
        len_full = 0.0
    lo = max(za, z1)
    hi = min(zb, z2)
    len_ramp = hi - lo
    if len_ramp <= 0.0:
        return len_full
    g_lo = slope * (z2 - lo) / heights.span
    g_hi = slope * (z2 - hi) / heights.span
    return len_full + 0.5 * (g_lo + g_hi) * len_ramp


def axis_factor(
    link: LinkGeometry, city: CityModel, axis: Axis, placement: Placement
) -> float:
    """Probability no building side on this axis blocks the ray (closed form)."""
    za, zb = integration_limits(link, city, axis, placement)
    if not za < zb:
        return 1.0
    zeta = zb  # upper limit equals the projected path length on this axis
    length = _survivor_length(za, zb, zeta, link.delta_h, link.h_v, city.heights)
    return math.exp(-city.lambda_s * length)


def axis_factor_quadrature(
    link: LinkGeometry,
    city: CityModel,
    axis: Axis,
    placement: Placement,
    tol: float = 1e-12,
) -> float:
    """Same factor via adaptive quadrature of the survival integrand.

    Independent of the piecewise closed form; used to validate it.  tol is an
    absolute tolerance on the integral (and a fortiori on the exponent, since
    lambda_s < 1).
    """
    from scipy.integrate import quad

    za, zb = integration_limits(link, city, axis, placement)
    if not za < zb:
        return 1.0
    zeta = zb
    delta_h, h_v = link.delta_h, link.h_v
    heights = city.heights

    def integrand(z: float) -> float:
        return float(heights.survival(z * delta_h / zeta + h_v))

    slope = delta_h / zeta
    kinks = [
        (heights.h_min - h_v) / slope,
        (heights.h_max - h_v) / slope,
    ]
    interior = [p for p in kinks if za < p < zb]
    val, _ = quad(
        integrand, za, zb, points=interior or None, epsabs=tol, epsrel=1e-13, limit=200
    )
    return math.exp(-city.lambda_s * val)


def los_probability(link: LinkGeometry, city: CityModel, placement: Placement) -> float:
    """Per-link LoS probability: corner survival times both axis survivals."""
    w_v, w_h = effective_widths(city, placement)
    p = corner_factor(link, w_v, w_h, city.heights)
    p *= axis_factor(link, city, Axis.X, placement)
    p *= axis_factor(link, city, Axis.Y, placement)
    return p


def _axis_factor_batch(za, zb, delta_h, h_v, heights, lambda_s):
    valid = za < zb
    slope = np.where(zb > 0.0, delta_h / np.where(zb > 0.0, zb, 1.0), np.inf)
    z1 = (heights.h_min - h_v) / slope
    z2 = (heights.h_max - h_v) / slope
    len_full = np.minimum(zb, z1) - za
    len_full = np.where(len_full < 0.0, 0.0, len_full)
    lo = np.maximum(za, z1)
    hi = np.minimum(zb, z2)
    len_ramp = hi - lo
    g_lo = slope * (z2 - lo) / heights.span
    g_hi = slope * (z2 - hi) / heights.span
    length = np.where(len_ramp > 0.0, len_full + 0.5 * (g_lo + g_hi) * len_ramp, len_full)
    return np.where(valid, np.exp(-lambda_s * np.where(valid, length, 0.0)), 1.0)


def los_probability_batch(
    d: np.ndarray,
    phi: np.ndarray,
    h_uav: float,
    h_v: float,
    city: CityModel,
    placement: Placement,
) -> np.ndarray:
    """Vectorized los_probability over parallel arrays of distance and azimuth.

    Angles may be raw (unfolded); the absolute trig values implement the same
    quadrant folding as LinkGeometry.
    """
    w_v, w_h = effective_widths(city, placement)
    heights = city.heights
    d = np.asarray(d, dtype=float)
    c = np.abs(np.cos(phi))
    s = np.abs(np.sin(phi))
    delta_h = h_uav - h_v
    if delta_h <= 0.0:
        raise ValueError("need h_uav > h_v for links above the vehicle")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # per-axis gap clearance, matching _clearance_x/_clearance_y
        za_x = np.full_like(d, 0.5 * w_v)
        if w_h > 0.0:
            za_x = np.maximum(za_x, np.where(s > 0.0, 0.5 * w_h * c / np.where(s > 0.0, s, 1.0), np.inf))
        za_y = np.full_like(d, 0.5 * w_h)
        if w_v > 0.0:
            za_y = np.maximum(za_y, np.where(c > 0.0, 0.5 * w_v * s / np.where(c > 0.0, c, 1.0), np.inf))

        zb_x = d * c
        zb_y = d * s

        # corner survival
        den = zb_x
        finite = np.isfinite(za_x) & (den > 0.0)
        h0 = np.where(finite, za_x * delta_h / np.where(den > 0.0, den, 1.0) + h_v, np.inf)
        h0 = np.where(za_x == 0.0, h_v, h0)
        corner = np.clip((h0 - heights.h_min) / heights.span, 0.0, 1.0)

        fx = _axis_factor_batch(za_x, zb_x, delta_h, h_v, heights, city.lambda_s)
        fy = _axis_factor_batch(za_y, zb_y, delta_h, h_v, heights, city.lambda_s)
    return corner * fx * fy
