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
clearance point.

All angles fold into the first quadrant: the grid is mirror-symmetric about
both axes, each axis keeping its own street width.

One kernel evaluates the closed form over arrays of links given by distance
and folded direction cosines |cos phi|, |sin phi|.  The fold happens where
angles are born, not in the kernel: LinkGeometry folds one link, and the
Monte Carlo chunk layout folds each drawn point once, however many heights
and placements score it.  los_probability_batch takes the folded arrays;
los_probability, corner_critical_height, corner_factor, integration_limits
and axis_factor are views of the kernel on one-element arrays, so a link
scores the same bits either way.  axis_factor_quadrature integrates the
survival numerically instead and stays an independent check of the kernel's
ramp integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CityModel, HeightDistribution

UNBOUNDED = math.inf
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
    """
    if placement is Placement.STREET:
        return city.w_v, 0.0
    return city.w_v, city.w_h


# A path with no advance along an axis divides by zero there; the inf that
# results is the right limit (an unreachable clearance or corner, a vertical
# ray), and the products it leaves in unused branches are discarded.
_IEEE_LIMITS = np.errstate(divide="ignore", invalid="ignore", over="ignore")


@_IEEE_LIMITS
def _geometry(d, c, s, delta_h, h_v, w_v, w_h):
    """The kernel's geometry stage over arrays of links.

    d is the ground distance and c, s the absolute cosine and sine of the
    azimuth.  Returns (za_x, zb_x, za_y, zb_y, h0): per axis the gap clearance
    za and the UAV's ground coordinate zb, which bound the building sides that
    could block the ray, and the height h0 the near-corner building must
    exceed to block it (UNBOUNDED when the ray never meets the corner).
    """
    if not delta_h > 0.0:
        raise ValueError("need h_uav > h_v for links above the vehicle")
    # An axis's own street bounds its clearance directly; the other street
    # bounds the other coordinate and projects through the direction (inf on
    # a path parallel to it).  A zero width contributes nothing.
    za_x = np.maximum(0.5 * w_v, 0.5 * w_h * c / s) if w_h > 0.0 else np.full_like(c, 0.5 * w_v)
    za_y = np.maximum(0.5 * w_h, 0.5 * w_v * s / c) if w_v > 0.0 else np.full_like(c, 0.5 * w_h)
    zb_x = d * c
    zb_y = d * s
    # The ray meets the corner where it clears the x gap; with both widths
    # zero the corner stands at the vehicle itself and h0 is h_v.
    h0 = np.where(za_x > 0.0, za_x * delta_h / zb_x, 0.0) + h_v
    return za_x, zb_x, za_y, zb_y, h0


@_IEEE_LIMITS
def _axis_ramp(za, zb, delta_h, h_v, heights, lambda_s):
    """Survival of one axis's building sides: exp(-lambda_s * survivor length).

    The survivor length integrates P(side taller than the ray) over (za, zb).
    The ray altitude is linear in z, so that probability is 1 until the ray
    passes h_min, ramps linearly down, and is 0 once the ray clears h_max.
    An empty interval (za >= zb) has length 0 and so factor 1.

    The temporaries are reused in place, in the operation order of
    len_full + 0.5 * (g_lo + g_hi) * len_ramp with g = slope * (z2 - z) / span;
    za and zb are never written.
    """
    slope = delta_h / zb
    z1 = (heights.h_min - h_v) / slope
    z2 = (heights.h_max - h_v) / slope
    lo = np.maximum(za, z1)
    hi = np.minimum(zb, z2)
    len_ramp = hi - lo
    length = np.minimum(zb, z1, out=z1)
    length -= za
    np.maximum(length, 0.0, out=length)  # len_full
    g_lo = np.subtract(z2, lo, out=lo)
    g_lo *= slope
    g_lo /= heights.span
    g_hi = np.subtract(z2, hi, out=hi)
    g_hi *= slope
    g_hi /= heights.span
    g_lo += g_hi
    g_lo *= 0.5
    g_lo *= len_ramp
    np.add(length, g_lo, out=length, where=len_ramp > 0.0)
    length *= -lambda_s
    return np.exp(length, out=length)


def _kernel(d, c, s, delta_h, h_v, city, placement):
    """The closed form over arrays of links: (corner, x axis, y axis) survivals."""
    za_x, zb_x, za_y, zb_y, h0 = _geometry(d, c, s, delta_h, h_v, *effective_widths(city, placement))
    heights, lambda_s = city.heights, city.lambda_s
    return (
        heights.cdf(h0),
        _axis_ramp(za_x, zb_x, delta_h, h_v, heights, lambda_s),
        _axis_ramp(za_y, zb_y, delta_h, h_v, heights, lambda_s),
    )


def _one(link: LinkGeometry):
    # the kernel's leading (d, c, s, delta_h, h_v) arguments for one link
    return (np.array([link.d]), np.array([link.cos_phi]), np.array([link.sin_phi]),
            link.delta_h, link.h_v)


def _link_limits(link: LinkGeometry, w_v: float, w_h: float):
    """One link's corner height and both axis intervals from one geometry pass.

    Returns (h0, (za_x, zb_x), (za_y, zb_y)); see corner_critical_height and
    integration_limits for what each means.
    """
    za_x, zb_x, za_y, zb_y, h0 = (float(v[0]) for v in _geometry(*_one(link), w_v, w_h))
    return h0, (za_x, zb_x), (za_y, zb_y)


def corner_critical_height(link: LinkGeometry, w_v: float, w_h: float) -> float:
    """Height the near-corner building must exceed to block the link.

    The ray meets the block corner where it clears the street gap; the return
    value is the ray's altitude there.  UNBOUNDED means the ray never meets
    the corner (parallel to an open street, or no horizontal advance), so the
    corner cannot block.  With both widths zero the corner stands at the
    vehicle itself and the critical height is h_v.
    """
    return _link_limits(link, w_v, w_h)[0]


def corner_factor(
    link: LinkGeometry, w_v: float, w_h: float, heights: HeightDistribution
) -> float:
    """Probability the near-corner building is short enough to miss the ray."""
    return float(heights.cdf(corner_critical_height(link, w_v, w_h)))


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
    _, fx, fy = _kernel(*_one(link), city, placement)
    return float((fx if axis is Axis.X else fy)[0])


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
    corner, fx, fy = _kernel(*_one(link), city, placement)
    return float((corner * fx * fy)[0])


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
    finite d >= 0, both cosines in [0, 1], finite h_v >= 0 and finite
    h_uav > h_v (ValueError otherwise).
    """
    d = np.asarray(d, dtype=float)
    c = np.asarray(cos_phi, dtype=float)
    s = np.asarray(sin_phi, dtype=float)
    # min and max carry NaN through, and comparisons written so that NaN fails them
    if not (0.0 <= d.min(initial=0.0) and d.max(initial=0.0) < math.inf
            and 0.0 <= c.min(initial=0.0) and c.max(initial=0.0) <= 1.0
            and 0.0 <= s.min(initial=0.0) and s.max(initial=0.0) <= 1.0):
        raise ValueError("links need finite d >= 0 and cos_phi, sin_phi in [0, 1]")
    if not 0.0 <= h_v < math.inf:
        raise ValueError("h_v must be finite and >= 0")
    if not h_v < h_uav < math.inf:
        raise ValueError("need finite h_uav > h_v for links above the vehicle")
    corner, fx, fy = _kernel(d, c, s, h_uav - h_v, h_v, city, placement)
    # fx is the kernel's own temporary; (corner * fx) * fy as in los_probability
    p = np.multiply(corner, fx, out=fx)
    p *= fy
    return p
