"""Closed-form line-of-sight probability for vehicle-to-UAV links.

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
clearance point.  The ray leaves the cross at one point, so both clearances
sit at one path fraction t: one clearance fraction, one survivor integral F,
and corner * exp(-lambda_s * (zb_x + zb_y) * F(t)), one exp per link.

All angles fold into the first quadrant: the grid is mirror-symmetric about
both axes, each axis keeping its own street width.

One kernel evaluates the closed form over arrays of links given by distance
and folded direction cosines |cos phi|, |sin phi|.  The fold happens where
angles are born, not in the kernel: LinkGeometry folds one link, and the
Monte Carlo chunk layout folds each drawn point once, however many heights
and placements score it.  los_probability_batch takes the folded arrays;
los_probability, integration_limits and axis_factor (exp(-lambda_s * zb * F(t))
of one axis) are views of the kernel on one-element arrays, so a link scores
the same bits either way.
axis_factor_quadrature integrates the survival numerically instead and stays
an independent check of the kernel's ramp integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CityModel

# The most |cos_phi**2 + sin_phi**2 - 1| a folded direction may show: 4 ulp of
# 1.0.  Folding real azimuths with math or numpy stayed within 1 ulp (2.2e-16).
DIRECTION_TOL = 4.0 * np.finfo(float).eps
# Absolute tolerance of axis_factor_quadrature's integral (and a fortiori of
# its exponent, since lambda_s < 1).
QUADRATURE_TOL = 1e-12


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
        # comparisons written so that NaN fails them
        if not 0.0 <= self.d < math.inf:
            raise ValueError("d must be finite and >= 0")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not 0.0 <= self.h_v < math.inf:
            raise ValueError("h_v must be finite and >= 0")
        if not self.h_v < self.h_uav < math.inf:
            raise ValueError("need finite h_uav > h_v for a link above the vehicle")
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
    A placement's value ("street") counts as its member; others raise ValueError.
    """
    if Placement(placement) is Placement.STREET:
        return city.w_v, 0.0
    return city.w_v, city.w_h


# A path with no advance along an axis divides by zero there; the inf that
# results is the right limit (an unreachable clearance or corner, a vertical
# ray), and the products it leaves in unused branches are discarded.
_IEEE_LIMITS = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _corner(d, c, s, delta_h, h_v, w_v, w_h):
    """(za_x, zb_x, h0): the x axis's gap clearance and ground coordinate, the corner height."""
    if not delta_h > 0.0:
        raise ValueError("need h_uav > h_v for links above the vehicle")
    # An axis's own street bounds its clearance directly; the other street
    # bounds the other coordinate and projects through the direction (inf on
    # a path parallel to it).  A zero width contributes nothing.
    za_x = np.maximum(0.5 * w_v, 0.5 * w_h * c / s) if w_h > 0.0 else np.full_like(c, 0.5 * w_v)
    zb_x = d * c
    # The ray meets the corner where it clears the x gap; with both widths
    # zero the corner stands at the vehicle itself and h0 is h_v.
    h0 = np.where(za_x > 0.0, za_x * delta_h / zb_x, 0.0) + h_v
    return za_x, zb_x, h0


@_IEEE_LIMITS
def _geometry(d, c, s, delta_h, h_v, w_v, w_h):
    """The kernel's geometry stage over arrays of links.

    d is the ground distance and c, s the absolute cosine and sine of the
    azimuth.  Returns (za_x, zb_x, za_y, zb_y, h0): per axis the gap clearance
    za and the UAV's ground coordinate zb, which bound the building sides that
    could block the ray, and the height h0 the near-corner building must
    exceed to block it (inf when the ray never meets the corner).
    """
    za_x, zb_x, h0 = _corner(d, c, s, delta_h, h_v, w_v, w_h)
    za_y = np.maximum(0.5 * w_h, 0.5 * w_v * s / c) if w_v > 0.0 else np.full_like(c, 0.5 * w_h)
    return za_x, zb_x, za_y, d * s, h0


def _survivor_fraction(t, delta_h, h_v, heights):
    """F(t), the one survivor integral (survivor length per metre of zb); overwrites t.

    At path fraction t the ray is at h_v + delta_h * t, so a side there is
    taller with probability S(t): 1 up to t1 = (h_min - h_v) / delta_h, then a
    linear ramp to 0 at t2 = (h_max - h_v) / delta_h.  F integrates S from t
    to 1: with lo, hi the knots clamped to [0, 1], m = max(hi - t, 0) and
    e = min(m, hi - lo), F = m + e * (S(hi) - 1 + e / (2 * (t2 - t1))), all
    terms in [-1, 1] however small delta_h.  t >= 1 or NaN (fmax) gives F = 0.
    """
    t1 = (heights.h_min - h_v) / delta_h
    t2 = (heights.h_max - h_v) / delta_h
    lo, hi = min(max(t1, 0.0), 1.0), min(max(t2, 0.0), 1.0)
    m = np.subtract(hi, t, out=t)
    np.fmax(m, 0.0, out=m)
    e = np.minimum(m, hi - lo)
    f = np.multiply(e, 0.5 / (t2 - t1))
    f += (t2 - hi) / (t2 - t1) - 1.0
    f *= e
    f += m
    return f


@_IEEE_LIMITS
def _kernel(d, c, s, delta_h, h_v, city, placement):
    """The closed form over arrays of links: (corner survival, zb_x, zb_y, F(t))."""
    w_v, w_h = effective_widths(city, placement)
    za_x, zb_x, h0 = _corner(d, c, s, delta_h, h_v, w_v, w_h)
    zb_y = d * s
    # The one clearance fraction t = za_x / zb_x = za_y / zb_y: on x when w_v > 0
    # (za_x >= w_v / 2, never 0 / 0), else w_h / (2 zb_y); no advance gives inf, F = 0.
    if w_v > 0.0:
        t = np.divide(za_x, zb_x, out=za_x)
    else:
        t = np.divide(0.5 * w_h, zb_y) if w_h > 0.0 else np.zeros_like(zb_y)
    return city.heights.cdf(h0), zb_x, zb_y, _survivor_fraction(t, delta_h, h_v, city.heights)


def _one(link: LinkGeometry):
    # the kernel's leading (d, c, s, delta_h, h_v) arguments for one link
    return (np.array([link.d]), np.array([link.cos_phi]), np.array([link.sin_phi]),
            link.delta_h, link.h_v)


def _link_limits(link: LinkGeometry, w_v: float, w_h: float):
    """One link's corner height and both axis intervals from one geometry pass.

    Returns (h0, (za_x, zb_x), (za_y, zb_y)); see integration_limits for the
    intervals.  h0 is the ray's altitude where it clears the street gap and
    meets the block corner, the height the near-corner building must exceed to
    block the link: inf when the ray never meets the corner (parallel to an
    open street, or no horizontal advance), h_v when both widths are zero and
    the corner stands at the vehicle itself.
    """
    za_x, zb_x, za_y, zb_y, h0 = (float(v[0]) for v in _geometry(*_one(link), w_v, w_h))
    return h0, (za_x, zb_x), (za_y, zb_y)


def integration_limits(
    link: LinkGeometry, city: CityModel, axis: Axis, placement: Placement
) -> tuple[float, float]:
    """Coordinate interval of building sides that could block the ray.

    Lower limit: the gap clearance for this axis.  Upper limit: the UAV's
    ground position.  An empty interval (za >= zb) means no side on this axis
    can interfere and the survival factor is 1.
    """
    _, x, y = _link_limits(link, *effective_widths(city, placement))
    return x if axis is Axis.X else y


def axis_factor(
    link: LinkGeometry, city: CityModel, axis: Axis, placement: Placement
) -> float:
    """Probability no building side on this axis blocks the ray (closed form)."""
    _, zb_x, zb_y, f = _kernel(*_one(link), city, placement)
    return float(np.exp(-city.lambda_s * ((zb_x if axis is Axis.X else zb_y) * f)[0]))


def axis_factor_quadrature(
    link: LinkGeometry,
    city: CityModel,
    axis: Axis,
    placement: Placement,
) -> float:
    """Same factor via adaptive quadrature of the survival integrand.

    Independent of the piecewise closed form; used to validate it.
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
    val, _ = quad(integrand, za, zb, points=interior or None, epsabs=QUADRATURE_TOL,
                  epsrel=1e-13, limit=200)
    return math.exp(-city.lambda_s * val)


def los_probability(link: LinkGeometry, city: CityModel, placement: Placement) -> float:
    """Per-link LoS probability: corner survival times both axis survivals."""
    d, c, s = _one(link)[:3]
    return float(los_probability_batch(d, c, s, link.h_uav, link.h_v, city, placement)[0])


def los_probability_batch(
    d: np.ndarray,
    cos_phi: np.ndarray,
    sin_phi: np.ndarray,
    h_uav: float,
    h_v: float,
    city: CityModel,
    placement: Placement,
) -> np.ndarray:
    """los_probability over parallel arrays of links.

    d is the ground distance and cos_phi, sin_phi the absolute cosine and
    sine of the azimuth, folded as LinkGeometry folds them, e.g.
    np.abs(np.cos(phi)).  The arguments must pass LinkGeometry's checks:
    finite d >= 0, both cosines in [0, 1] with cos_phi**2 + sin_phi**2
    within DIRECTION_TOL of 1, finite h_v >= 0 and finite h_uav > h_v
    (ValueError otherwise).
    """
    d = np.asarray(d, dtype=float)
    c = np.asarray(cos_phi, dtype=float)
    s = np.asarray(sin_phi, dtype=float)
    # min and max carry NaN through, and comparisons written so that NaN fails them
    if not (0.0 <= d.min(initial=0.0) and d.max(initial=0.0) < math.inf
            and 0.0 <= c.min(initial=0.0) and c.max(initial=0.0) <= 1.0
            and 0.0 <= s.min(initial=0.0) and s.max(initial=0.0) <= 1.0):
        raise ValueError("links need finite d >= 0 and cos_phi, sin_phi in [0, 1]")
    if not np.abs(c * c + s * s - 1.0).max(initial=0.0) <= DIRECTION_TOL:
        raise ValueError("cos_phi, sin_phi must be the folded cosine and sine of one azimuth")
    if not 0.0 <= h_v < math.inf:
        raise ValueError("h_v must be finite and >= 0")
    if not h_v < h_uav < math.inf:
        raise ValueError("need finite h_uav > h_v for links above the vehicle")
    corner, length, zb_y, f = _kernel(d, c, s, h_uav - h_v, h_v, city, placement)
    # one survivor integral for both axes: corner * exp(-lambda_s * (zb_x + zb_y) * F(t))
    length += zb_y
    length *= f
    length *= -city.lambda_s
    np.exp(length, out=length)
    length *= corner
    return length
