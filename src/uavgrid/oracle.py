"""Brute-force LoS validation against explicitly sampled building sides.

Instead of integrating, draw the street crossings on each axis as actual
Poisson points with iid uniform heights, draw the corner building, and test
the ray against every obstacle.  Slow but assumption-free past the shared
geometric primitives: the corner height and the two axis intervals, taken
from one pass of the closed-form kernel's geometry stage per link.  The
survival factors are not shared, and the closed form must agree with the
traced rays to Monte Carlo precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CityModel, PRESETS, RadioParams, ground_range
from .los import LinkGeometry, Placement, _link_limits, effective_widths, los_probability


@dataclass(frozen=True)
class ExplicitCityDraw:
    """One explicit city: side positions and heights per axis, corner height."""

    x_pos: np.ndarray
    x_height: np.ndarray
    y_pos: np.ndarray
    y_height: np.ndarray
    corner_height: float


def sample_city(
    city: CityModel, extent_x: float, extent_y: float, rng: np.random.Generator
) -> ExplicitCityDraw:
    """Draw building sides over [0, extent] on each axis plus the corner."""
    nx = rng.poisson(city.lambda_s * extent_x)
    x_pos = rng.uniform(0.0, extent_x, nx)
    x_height = city.heights.sample(rng, nx)
    ny = rng.poisson(city.lambda_s * extent_y)
    y_pos = rng.uniform(0.0, extent_y, ny)
    y_height = city.heights.sample(rng, ny)
    corner = float(city.heights.sample(rng, 1)[0])
    return ExplicitCityDraw(x_pos, x_height, y_pos, y_height, corner)


def link_blocked(
    draw: ExplicitCityDraw,
    link: LinkGeometry,
    city: CityModel,
    placement: Placement,
) -> bool:
    """Trace the ray through one explicit city draw."""
    h0, limits_x, limits_y = _link_limits(link, *effective_widths(city, placement))
    if draw.corner_height > h0:
        return True
    for (za, zb), pos, height in (
        (limits_x, draw.x_pos, draw.x_height),
        (limits_y, draw.y_pos, draw.y_height),
    ):
        if not za < zb:
            continue
        zeta = zb
        inside = (pos > za) & (pos < zb)
        if not inside.any():
            continue
        crit = pos[inside] * link.delta_h / zeta + link.h_v
        if np.any(height[inside] > crit):
            return True
    return False


def empirical_los_probability(
    link: LinkGeometry,
    city: CityModel,
    placement: Placement,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Estimate the LoS probability by tracing n independent city draws.

    Returns (p_hat, standard error).  Vectorized over draws; semantics match
    tracing sample_city draws through link_blocked one at a time.
    """
    if n <= 0:
        raise ValueError("need n >= 1")
    h0, limits_x, limits_y = _link_limits(link, *effective_widths(city, placement))

    # an unbounded h0 blocks nothing
    blocked = city.heights.sample(rng, n) > h0

    for za, zb in (limits_x, limits_y):
        # every position that could matter for either placement, plus one
        # mean period of slack past the path end
        extent = zb + city.mu_s + city.mu_b
        counts = rng.poisson(city.lambda_s * extent, n)
        total = int(counts.sum())
        pos = rng.uniform(0.0, extent, total)
        height = city.heights.sample(rng, total)
        if not za < zb:
            continue
        zeta = zb
        inside = (pos > za) & (pos < zb)
        crit = pos * link.delta_h / zeta + link.h_v
        hit = inside & (height > crit)
        ridx = np.repeat(np.arange(n), counts)
        blocked |= np.bincount(ridx[hit], minlength=n) > 0

    p_hat = float(1.0 - blocked.mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return p_hat, se


# smallest r_max that leaves validation_sweep an altitude window, sqrt(20**2 + 1**2)
_R_MAX_FLOOR = math.hypot(20.0, 1.0)


@dataclass(frozen=True)
class ValidationCase:
    """One randomized closed-form-vs-explicit comparison."""

    case_id: int
    preset: str
    placement: Placement
    d: float
    phi: float
    h_uav: float
    p_analytic: float
    p_oracle: float
    se: float
    passed: bool


def validation_sweep(
    cases: int = 200,
    n: int = 100_000,
    seed: int = 0,
    r_max: float = 250.0,
    h_v: float = 10.0,
    z_limit: float = 3.0,
) -> list[ValidationCase]:
    """Randomized agreement sweep of the closed form against explicit draws.

    Case parameters cover all presets and both placements; altitudes stay low
    enough that the ground disk keeps room for d > 10 m.  The pass decision
    uses the binomial standard error at the closed-form rate, which stays
    meaningful when the empirical rate saturates at 0 or 1.
    """
    if cases < 1:
        raise ValueError("need cases >= 1")
    if not 0.0 < z_limit < math.inf:
        raise ValueError("z_limit must be positive and finite")
    if not 0.0 <= h_v < math.inf:
        raise ValueError("h_v must be finite and >= 0")
    # altitudes are drawn from (h_v + 1, h_cap): sqrt(r_max**2 - 20**2) must exceed 1
    if not _R_MAX_FLOOR < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above {_R_MAX_FLOOR:.4g} m")
    rng = np.random.default_rng(seed)
    names = sorted(PRESETS)
    placements = (Placement.INTERSECTION, Placement.STREET)
    # keep ground_range comfortably above the 10 m lower bound on d
    h_cap = h_v + math.sqrt(r_max * r_max - 20.0 * 20.0)
    results = []
    for k in range(cases):
        preset = names[k % len(names)]
        placement = placements[(k // len(names)) % 2]
        city = PRESETS[preset]
        h_uav = rng.uniform(h_v + 1.0, h_cap)
        radio = RadioParams(r_max=r_max, h_uav=h_uav, h_v=h_v, lambda_uav=0.0)
        d_max = ground_range(radio)
        d = rng.uniform(10.0, d_max)
        phi = rng.uniform(0.0, 0.5 * math.pi)
        link = LinkGeometry(d=d, phi=phi, h_uav=h_uav, h_v=h_v)
        p = los_probability(link, city, placement)
        p_hat, _ = empirical_los_probability(link, city, placement, n, rng)
        se = math.sqrt(p * (1.0 - p) / n)
        passed = abs(p - p_hat) <= z_limit * se
        results.append(
            ValidationCase(k, preset, placement, d, phi, h_uav, p, p_hat, se, passed)
        )
    return results
