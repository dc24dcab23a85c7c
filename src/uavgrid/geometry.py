"""Deployment geometry: city statistics, radio footprint, UAV point process.

Units are meters and square meters throughout the package.  Densities are
per square meter; the CLI converts from per-km2 at its boundary and nowhere
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidGeometryError(ValueError):
    """Parameters describe an impossible or degenerate deployment."""


@dataclass(frozen=True)
class HeightDistribution:
    """Building heights drawn uniformly from [h_min, h_max]."""

    h_min: float
    h_max: float

    def __post_init__(self):
        if not 0.0 <= self.h_min < self.h_max < math.inf:
            raise InvalidGeometryError(
                f"need 0 <= h_min < h_max < inf, got [{self.h_min}, {self.h_max}]"
            )

    @property
    def span(self) -> float:
        return self.h_max - self.h_min

    @property
    def mean(self) -> float:
        return 0.5 * (self.h_min + self.h_max)

    def cdf(self, h):
        """P(height <= h).  Accepts scalars or arrays."""
        return np.clip((np.asarray(h, dtype=float) - self.h_min) / self.span, 0.0, 1.0)[()]

    def survival(self, h):
        """P(height > h)."""
        return 1.0 - self.cdf(h)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.h_min, self.h_max, n)


@dataclass(frozen=True)
class CityModel:
    """Statistics of one rectangular street grid.

    mu_s and mu_b are the mean street width and mean block side; together they
    set the intensity of the street-crossing process along each axis.  w_v and
    w_h are the actual widths of the two streets meeting at the reference
    vehicle (w_v runs along the vehicle's own street, w_h crosses it).
    """

    mu_s: float
    mu_b: float
    w_v: float
    w_h: float
    heights: HeightDistribution

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not all(0.0 < v < math.inf for v in (self.mu_s, self.mu_b)):
            raise InvalidGeometryError("mu_s, mu_b must be positive and finite")
        if not (0.0 <= self.w_v < math.inf and 0.0 <= self.w_h < math.inf):
            raise InvalidGeometryError("street widths must be finite and non-negative")

    @property
    def lambda_s(self) -> float:
        """Intensity of the street process along each axis, per meter."""
        return 1.0 / (self.mu_s + self.mu_b)


def _preset(mu_H: float, mu_b: float, mu_s: float) -> CityModel:
    # streets at the vehicle take the mean width; heights span half to
    # one-and-a-half times the mean so the mean is mu_H
    return CityModel(
        mu_s=mu_s,
        mu_b=mu_b,
        w_v=mu_s,
        w_h=mu_s,
        heights=HeightDistribution(0.5 * mu_H, 1.5 * mu_H),
    )


PRESETS: dict[str, CityModel] = {
    "suburban": _preset(10.0, 37.0, 10.0),
    "urban": _preset(19.0, 45.0, 13.0),
    "dense-urban": _preset(25.0, 60.0, 20.0),
}


def intersection_weight(city: CityModel) -> float:
    """Probability that a uniformly dropped vehicle sits at a crossing."""
    return city.mu_s / (city.mu_s + city.mu_b)


@dataclass(frozen=True)
class RadioParams:
    """Radio link budget and UAV deployment density, checked where it is used (_scenario)."""

    r_max: float
    h_uav: float
    h_v: float
    lambda_uav: float


def ground_range(r_max: float, h_uav: float, h_v: float) -> float:
    """Radius of the ground disk of UAVs at h_uav within 3D range r_max of a vehicle at h_v.

    The package's one ground-range formula, so equal heights give equal disks bit for bit.
    """
    dz = h_uav - h_v
    return math.sqrt(r_max * r_max - dz * dz)


@dataclass(frozen=True)
class SamplingEnvelope:
    """Superset point process that concrete scenarios are carved out of.

    Each candidate point costs three uniforms in a fixed order: radius
    (area-uniform via sqrt), azimuth, and a retention mark.  A scenario with
    density lam <= lambda_cap and disk radius r <= d_cap keeps the points with
    mark < lam / lambda_cap and distance <= r.  The kept set is again a
    uniform Poisson sample, and scenarios carved from one envelope draw are
    nested whenever their parameters are, which makes cross-scenario
    comparisons exact rather than statistical.
    """

    lambda_cap: float
    d_cap: float

    def __post_init__(self):
        if not (0.0 < self.lambda_cap < math.inf and 0.0 < self.d_cap < math.inf):
            raise InvalidGeometryError("envelope caps must be positive and finite")

    @property
    def mean_count(self) -> float:
        return self.lambda_cap * math.pi * self.d_cap * self.d_cap


def sample_envelope_points(
    envelope: SamplingEnvelope, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one envelope realization: (d, phi, mark) in draw order.

    Point k is row k of the uniforms drawn after the Poisson count; nothing
    is sorted here, because the chunk layout sorts.  The three arrays are
    fresh, so none of them keeps the (n, 3) block of uniforms alive.
    """
    n = rng.poisson(envelope.mean_count)
    u = rng.random((n, 3))
    return envelope.d_cap * np.sqrt(u[:, 0]), TWO_PI * u[:, 1], u[:, 2].copy()
