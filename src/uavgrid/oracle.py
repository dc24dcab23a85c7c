"""Brute-force LoS validation against explicitly sampled building sides.

Instead of integrating, draw the street crossings on each axis as actual
Poisson points with iid uniform heights, draw the corner building, and test
the ray against every obstacle.  Slow but assumption-free past the shared
geometric primitives: the corner height and the two axis intervals, taken
from one pass of the closed-form kernel's geometry stage per link.  The
survival factors are not shared, and the closed form must agree with the
traced rays to Monte Carlo precision.

Sides are drawn only on an axis's interval (za, zb), the only place a side
can block the ray: the restriction of the same Poisson process.  The n city
draws' sides on an axis are drawn as one superposed process of n times the
intensity, each point belonging to a draw picked uniformly at random
(Kingman's colouring theorem), so an axis costs one count, not n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CityModel, PRESETS, ground_range
from .los import LinkGeometry, Placement, _link_limits, effective_widths, los_probability

# The most city draws one case takes.  A case holds all its draws at once: at
# the bound with r_max = 250 m, its numpy arrays peak at about 130 MB (traced
# with tracemalloc at the worst link found, suburban, mid-block, d = 250 m,
# phi = 0, h_uav = 10.5 m).  The sides drawn per axis grow with d, so a
# larger r_max asks for more.
MAX_DRAWS = 10**6

# The most building sides one case may expect to draw over both axes;
# validation_sweep checks it at the worst link any preset meets.  A case
# holds an axis's sides at once; its peak is at most 13.7 bytes per side of
# that bound (tracemalloc, every preset and placement, d = 249 m, 46
# azimuths, four altitudes from 10.5 m), so about 140 MB at the bound.  Every
# preset at r_max = 250 m and n = MAX_DRAWS stays below it (suburban: 9.52e6).
MAX_SIDES = 10**7


def _check_draws(n: int) -> None:
    if not 1 <= n <= MAX_DRAWS:
        raise ValueError(f"need 1 <= n_draws <= {MAX_DRAWS} city draws per case")


def empirical_los_probability(
    link: LinkGeometry,
    city: CityModel,
    placement: Placement,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Estimate the LoS probability by tracing n independent city draws.

    Returns (p_hat, standard error).  Vectorized over draws; semantics match
    tracing one explicit city draw at a time, as the scalar tracer in
    tests/test_oracle.py does.  After the n corner heights, each axis with
    za < zb draws the sides of all n draws at once: a Poisson count at
    intensity n * lambda_s over (za, zb), the positions uniform there, one
    height each.  One boolean marks the sides that block the ray, and only
    those hits draw the city draw they belong to, uniform over the n draws.
    n must lie in [1, MAX_DRAWS], and the sides expected over both axes,
    n * lambda_s * (zb - za) summed over the axes with za < zb, at most
    MAX_SIDES (ValueError), checked before anything is drawn.
    """
    _check_draws(n)
    h0, limits_x, limits_y = _link_limits(link, *effective_widths(city, placement))
    sides = n * city.lambda_s * sum(max(zb - za, 0.0) for za, zb in (limits_x, limits_y))
    if sides > MAX_SIDES:
        raise ValueError(f"{n} city draws of this link expect {sides:.3g} building sides, "
                         f"above the bound of {MAX_SIDES:g}")

    # an unbounded h0 blocks nothing
    blocked = city.heights.sample(rng, n) > h0

    for za, zb in (limits_x, limits_y):
        if not za < zb:
            continue
        total = rng.poisson(n * city.lambda_s * (zb - za))
        pos = rng.uniform(za, zb, total)
        height = city.heights.sample(rng, total)
        hit = (height > pos * link.delta_h / zb + link.h_v) & (pos > za) & (pos < zb)
        blocked[rng.integers(0, n, np.count_nonzero(hit))] = True

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
    meaningful when the empirical rate saturates at 0 or 1.  Case k draws
    its parameters and its city draws from its own Philox stream keyed by
    (seed, k), so a case's row depends on neither `cases` nor any other case.
    Every argument is checked before anything is drawn (ValueError),
    including the seed, in [0, 2**64), and n with r_max: a case may expect at
    most MAX_SIDES building sides.
    """
    if cases < 1:
        raise ValueError("need cases >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    _check_draws(n)
    if not 0.0 < z_limit < math.inf:
        raise ValueError("z_limit must be positive and finite")
    if not 0.0 <= h_v < math.inf:
        raise ValueError("h_v must be finite and >= 0")
    # altitudes are drawn from (h_v + 1, h_cap): sqrt(r_max**2 - 20**2) must exceed 1
    if not _R_MAX_FLOOR < r_max < math.inf:
        raise ValueError(f"r_max must be finite and above {_R_MAX_FLOOR:.4g} m")
    # expected sides of n draws at the worst link any preset meets: an axis
    # draws over (za, zb) at intensity lambda_s = 1 / (mu_s + mu_b), and
    # zb_x + zb_y = d (|cos phi| + |sin phi|) is below sqrt(2) r_max; the 2
    # is one mean period of slack per axis, which bounds the sides from above
    lambda_s = max(city.lambda_s for city in PRESETS.values())
    sides = n * (2.0 + math.sqrt(2.0) * lambda_s * r_max)
    if sides > MAX_SIDES:
        raise ValueError(f"n_draws {n} at r_max {r_max:g} m may draw {sides:.3g} building sides "
                         f"per case, above the bound of {MAX_SIDES:g}")
    names = sorted(PRESETS)
    placements = (Placement.INTERSECTION, Placement.STREET)
    # keep the ground disk comfortably above the 10 m lower bound on d: it
    # shrinks to 20 m at the offset sqrt(r_max**2 - 20**2)
    h_cap = h_v + ground_range(r_max, 20.0, 0.0)
    results = []
    for k in range(cases):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        preset = names[k % len(names)]
        placement = placements[(k // len(names)) % 2]
        city = PRESETS[preset]
        h_uav = rng.uniform(h_v + 1.0, h_cap)
        d = rng.uniform(10.0, ground_range(r_max, h_uav, h_v))
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
