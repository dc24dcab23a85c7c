"""Per-axis references for the closed form in uavgrid.los.

The package scores a link as corner * exp(-lambda_s * (zb_x + zb_y) * F(t)),
one exp per link.  The tests split it per street axis: axis_factor is one
axis's exposure factor exp(-lambda_s * zb * F(t)) read from the kernel, and
axis_factor_quadrature integrates the same factor's survival with adaptive
quadrature, independently of the kernel's piecewise ramp integral.  An axis
is "x" or "y".  Not a test module: the tests import it.
"""

import math

import numpy as np
from scipy.integrate import quad

from uavgrid.los import _kernel, _link_limits, _one, effective_widths

# Absolute tolerance of axis_factor_quadrature's integral (and a fortiori of
# its exponent, since lambda_s < 1).
QUADRATURE_TOL = 1e-12


def axis_limits(link, city, axis, placement):
    """(za, zb): the coordinates of building sides on this axis that could block the ray."""
    _, x, y = _link_limits(link, *effective_widths(city, placement))
    return x if axis == "x" else y


def axis_factor(link, city, axis, placement):
    """Probability no building side on this axis blocks the ray (the kernel's closed form)."""
    _, zb_x, zb_y, f = _kernel(*_one(link), city, placement)
    return float(np.exp(-city.lambda_s * ((zb_x if axis == "x" else zb_y) * f)[0]))


def axis_factor_quadrature(link, city, axis, placement):
    """The same factor by adaptive quadrature of the survival integrand."""
    za, zb = axis_limits(link, city, axis, placement)
    if not za < zb:
        return 1.0
    zeta = zb
    delta_h, h_v = link.delta_h, link.h_v
    heights = city.heights

    def integrand(z: float) -> float:
        # P(a side's height exceeds the ray's altitude at z)
        return float(1.0 - heights.cdf(z * delta_h / zeta + h_v))

    slope = delta_h / zeta
    kinks = [
        (heights.h_min - h_v) / slope,
        (heights.h_max - h_v) / slope,
    ]
    interior = [p for p in kinks if za < p < zb]
    val, _ = quad(integrand, za, zb, points=interior or None, epsabs=QUADRATURE_TOL,
                  epsrel=1e-13, limit=200)
    return math.exp(-city.lambda_s * val)
