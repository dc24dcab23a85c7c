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
los_probability is the kernel on one link's one-element arrays, so a link
scores the same bits either way.  _link_limits gives one link's corner height
and axis intervals, the geometry the explicit-geometry oracle draws its
buildings over.  The per-axis factor and its adaptive quadrature, the
independent check of the kernel's ramp integral, live with the tests
(tests/quadrature.py).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CityModel, check_vehicle_height

# The most |cos_phi**2 + sin_phi**2 - 1| a folded direction may show: 4 ulp of
# 1.0.  Folding real azimuths with math or numpy stayed within 1 ulp (2.2e-16).
DIRECTION_TOL = 4.0 * float(np.finfo(float).eps)


class Placement(enum.Enum):
    """Where the vehicle sits relative to the street grid."""

    INTERSECTION = "intersection"
    STREET = "street"


@dataclass(frozen=True)
class LinkGeometry:
    """One vehicle-to-UAV link.

    phi is stored folded into [0, pi/2]; cos_phi and sin_phi are the absolute
    trig values of the angle passed in, so any azimuth in [0, 2*pi) maps onto
    its first-quadrant representative.  A link is checked once, here, by every
    per-link test los_probability_batch makes, the direction test in the same
    float operations, so los_probability scores it without checking again.
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
        check_vehicle_height(self.h_v)
        if not self.h_v < self.h_uav < math.inf:
            raise ValueError("need finite h_uav > h_v for a link above the vehicle")
        c = abs(math.cos(self.phi))
        s = abs(math.sin(self.phi))
        # los_probability_batch's direction test: q = c*c + s*s rounds alike
        if not (0.0 <= c <= 1.0 and 0.0 <= s <= 1.0
                and 1.0 - DIRECTION_TOL <= c * c + s * s <= 1.0 + DIRECTION_TOL):
            raise ValueError("cos_phi, sin_phi must be the folded cosine and sine of one azimuth")
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
    # An axis's own street bounds its clearance directly; the other street
    # bounds the other coordinate and projects through the direction (inf on
    # a path parallel to it).  A zero width contributes nothing.
    if w_h > 0.0:
        za_x = np.multiply(0.5 * w_h, c)
        za_x /= s
        np.maximum(0.5 * w_v, za_x, out=za_x)
    else:
        za_x = np.full_like(c, 0.5 * w_v)
    zb_x = d * c
    # The ray meets the corner where it clears the x gap.  While w_v / 2 is a
    # positive double, za_x >= w_v / 2 > 0 needs no guard; otherwise a zero
    # za_x puts the corner at the vehicle itself (both widths zero, say), and
    # h0 is h_v.
    if 0.5 * w_v > 0.0:
        h0 = za_x * delta_h
        h0 /= zb_x
        h0 += h_v
    else:
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
    The ramp adds at most hi - lo to F, so a ramp of no width (t1 == t2 once
    rounded), or one whose slope 1 / (t2 - t1) is not a positive double, gives
    its limit F = m instead of dividing by zero or multiplying 0 by inf.
    """
    t1 = (heights.h_min - h_v) / delta_h
    t2 = (heights.h_max - h_v) / delta_h
    lo, hi = min(max(t1, 0.0), 1.0), min(max(t2, 0.0), 1.0)
    m = np.subtract(hi, t, out=t)
    np.fmax(m, 0.0, out=m)
    if hi == lo or not 0.0 < 0.5 / (t2 - t1) < math.inf:
        return m
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

    Returns (h0, (za_x, zb_x), (za_y, zb_y)).  Per axis, building sides
    between the gap clearance za and the UAV's ground coordinate zb could
    block the ray; an empty interval (za >= zb) means none can.  h0 is the
    ray's altitude where it clears the street gap and meets the block corner,
    the height the near-corner building must exceed to block the link: inf
    when the ray never meets the corner (parallel to an open street, or no
    horizontal advance), h_v when both widths are zero and the corner stands
    at the vehicle itself.
    """
    za_x, zb_x, za_y, zb_y, h0 = (float(v[0]) for v in _geometry(*_one(link), w_v, w_h))
    return h0, (za_x, zb_x), (za_y, zb_y)


def _los(d, c, s, delta_h, h_v, city, placement):
    """The closed form over arrays of links that passed los_probability_batch's checks."""
    corner, length, zb_y, f = _kernel(d, c, s, delta_h, h_v, city, placement)
    # one survivor integral for both axes: corner * exp(-lambda_s * (zb_x + zb_y) * F(t))
    length += zb_y
    length *= f
    length *= -city.lambda_s
    np.exp(length, out=length)
    length *= corner
    return length


def los_probability(link: LinkGeometry, city: CityModel, placement: Placement) -> float:
    """Per-link LoS probability: corner survival times both axis survivals.

    LinkGeometry has made every per-link check of los_probability_batch, so
    the link goes straight to the core the batch scores through after its
    checks: the same bits as the batch call on the link's one-element arrays.
    """
    return float(_los(*_one(link), city, placement)[0])


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
    within DIRECTION_TOL of 1, finite h_v >= 0 (geometry.check_vehicle_height)
    and finite h_uav > h_v (ValueError otherwise).
    """
    d = np.asarray(d, dtype=float)
    c = np.asarray(cos_phi, dtype=float)
    s = np.asarray(sin_phi, dtype=float)
    # min and max carry NaN through, and comparisons written so that NaN fails them
    if not (0.0 <= d.min(initial=0.0) and d.max(initial=0.0) < math.inf
            and 0.0 <= c.min(initial=0.0) and c.max(initial=0.0) <= 1.0
            and 0.0 <= s.min(initial=0.0) and s.max(initial=0.0) <= 1.0):
        raise ValueError("links need finite d >= 0 and cos_phi, sin_phi in [0, 1]")
    # q - 1 is exact on [0.5, 2], so the bounds on q refuse exactly what
    # |q - 1| > DIRECTION_TOL refuses
    q = c * c
    q += s * s
    if not (1.0 - DIRECTION_TOL <= q.min(initial=1.0)
            and q.max(initial=1.0) <= 1.0 + DIRECTION_TOL):
        raise ValueError("cos_phi, sin_phi must be the folded cosine and sine of one azimuth")
    check_vehicle_height(h_v)
    if not h_v < h_uav < math.inf:
        raise ValueError("need finite h_uav > h_v for links above the vehicle")
    return _los(d, c, s, h_uav - h_v, h_v, city, placement)
