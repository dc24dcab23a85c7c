"""Brute-force LoS validation against explicitly sampled building sides.

Instead of integrating, draw the street crossings on each axis as actual
Poisson points with iid uniform heights, draw the corner building, and test
the ray against every obstacle.  Slow but assumption-free past the shared
geometric primitives: the corner height and the two axis intervals, taken
from one pass of the closed-form kernel's geometry stage per link.  The
survival factors are not shared, and the closed form must agree with the
traced rays to Monte Carlo precision.

Only what can block is drawn.  A side blocks only inside its axis's
interval (za, zb), and only if it is taller than the ray, which climbs from
h_v at the vehicle to h_uav at zb: past the cut (h_max - h_v) * zb / delta_h
no building is that tall.  So an axis draws its sides on (za, min(zb, cut))
alone.  A corner building that can never block (h0 >= h_max) is not drawn,
and when every corner blocks (h0 < h_min) nothing is drawn at all.  Each is
the restriction of the same Poisson process, or an outcome that does not
depend on the draw, so the law of the estimate is unchanged.  The n city
draws' sides on an axis are drawn as one superposed process of n times the
intensity, each point belonging to a draw picked uniformly at random
(Kingman's colouring theorem), so an axis costs one count, not n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (MAX_KEY, PRESETS, CityModel, HeightDistribution, check_integer,
                       check_vehicle_height, ground_range, philox_streams)
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
# Both side checks, in empirical_los_probability and validation_sweep, count
# the full intervals (za, zb), not the shorter ones that sides are drawn on,
# so they bound the draws from above.
MAX_SIDES = 10**7

# The most cases one sweep takes.  A sweep holds every case's row until it
# returns: about 350 bytes per case in validation_sweep's results
# (tracemalloc, n = 1, 2,000 and 20,000 cases) and about 720 with the CLI's
# rows (maximum RSS, 2,000 against 40,000 cases), so about 0.7 GB at the
# bound.  At n = 1 a case takes about 0.13 ms (2-vCPU x86 VM), so a sweep at
# the bound takes minutes at the least.
MAX_CASES = 10**6

# Relative margin that widens the side cut: a height drawn from
# uniform(h_min, h_max) may be h_max itself, and the few roundings of the cut
# and of the hit test stay far inside 2**-40.
_CUT_SLACK = 2.0**-40


def _side_top(link: LinkGeometry, heights: HeightDistribution, zb: float) -> float:
    """The top of an axis's drawn sides, min(zb, the cut widened by _CUT_SLACK).

    The ray is above h_max past the cut (h_max - h_v) * zb / delta_h, so no
    side there blocks it.
    """
    return min(zb, (heights.h_max - link.h_v) * zb / link.delta_h * (1.0 + _CUT_SLACK))


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
    tests/test_oracle.py does.  The corner height h0 decides first: below
    h_min every corner blocks, and (0.0, 0.0) returns with nothing drawn; at
    or above h_max (inf included) no corner blocks and the n corner heights
    are not drawn; otherwise they are.  Each axis then draws the sides of all
    n draws at once on (za, top), top = min(zb, cut * (1 + 2**-40)) with
    cut = (h_max - h_v) * zb / delta_h, skipping the axis unless za < top: a
    Poisson count at intensity n * lambda_s * (top - za), the positions
    uniform there, one height each.  One boolean marks the sides that block
    the ray, and only those hits draw the city draw they belong to, uniform
    over the n draws.  n must be an integer (200.0 is not) in [1, MAX_DRAWS],
    and the sides expected over both axes on the full intervals,
    n * lambda_s * (zb - za) summed over the axes with za < zb, at most
    MAX_SIDES (ValueError), checked before anything is drawn.
    """
    n = check_integer("n_draws", n, 1, MAX_DRAWS)
    h0, limits_x, limits_y = _link_limits(link, *effective_widths(city, placement))
    sides = n * city.lambda_s * sum(max(zb - za, 0.0) for za, zb in (limits_x, limits_y))
    if sides > MAX_SIDES:
        raise ValueError(f"{n} city draws of this link expect {sides:.3g} building sides, "
                         f"above the bound of {MAX_SIDES:g}")

    heights = city.heights
    # every corner building is taller than h0
    if h0 < heights.h_min:
        return 0.0, 0.0
    # no corner building reaches an h0 at or above h_max, inf included
    blocked = np.zeros(n, dtype=bool) if h0 >= heights.h_max else heights.sample(rng, n) > h0

    for za, zb in (limits_x, limits_y):
        # za >= 0, so a negative cut (h_max <= h_v) skips the axis too
        top = _side_top(link, heights, zb)
        if not za < top:
            continue
        total = rng.poisson(n * city.lambda_s * (top - za))
        pos = rng.uniform(za, top, total)
        height = heights.sample(rng, total)
        hit = (height > pos * link.delta_h / zb + link.h_v) & (pos > za) & (pos < zb)
        blocked[rng.integers(0, n, np.count_nonzero(hit))] = True

    # the count over n, exactly the float64 value of 1.0 - blocked.mean()
    p_hat = 1.0 - int(np.count_nonzero(blocked)) / n
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
    (seed, k), so a case's row depends on neither `cases` nor any other case;
    the sweep re-keys one bit generator per case (geometry.philox_streams),
    which draws exactly what a fresh Generator(Philox(key=(seed, k))) would.
    Every argument is checked before anything is drawn (ValueError),
    including cases, in [1, MAX_CASES], the seed, in [0, MAX_KEY], and n with
    r_max: a case may expect at most MAX_SIDES building sides.  cases, n and
    seed must be integers (geometry.check_integer): a float is refused even
    when it is integral, and so is a bool.  h_v must be finite and >= 0
    (geometry.check_vehicle_height, InvalidGeometryError).
    """
    cases = check_integer("cases", cases, 1, MAX_CASES)
    seed = check_integer("seed", seed, 0, MAX_KEY)
    n = check_integer("n_draws", n, 1, MAX_DRAWS)
    if not 0.0 < z_limit < math.inf:
        raise ValueError("z_limit must be positive and finite")
    check_vehicle_height(h_v)
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
    for k, rng in philox_streams(seed, range(cases)):
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
