"""Altitude optimization under an outage constraint, plus density sweeps.

Raising a UAV swarm trades coverage radius against blockage: low altitudes
see far along the ground but graze rooftops, high altitudes clear buildings
but shrink the ground disk.  The outage-vs-altitude curve therefore has an
interior minimum, located here by a coarse grid pass plus golden-section
refinement.  All evaluations for one search score one envelope draw, so the
comparisons the search relies on are between coupled estimates, and the
realizations are sampled once per search rather than once per probe.
"""

from __future__ import annotations

import math

import numpy as np

from .connectivity import PlacementMode, check_probability, outage_grid
from .geometry import CityModel, InvalidGeometryError, ground_range

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class InfeasibleSearchError(InvalidGeometryError):
    """The requested altitude window leaves no feasible heights."""


# The most points grid_points builds, far above any grid the commands use.
MAX_GRID_POINTS = 10**6


def grid_points(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid from lo towards hi; hi is appended if the step misses it.

    lo and an appended hi are returned as given; the points between them are
    rounded to 10 decimals, so grids built from decimal steps carry clean
    coordinates instead of accumulated float noise, and a point that rounding
    puts past hi is hi.  A step near or below that rounding can round points
    onto or below the ones before them: then the points between are
    lo + k * step as computed, so the grid always ascends strictly inside
    [lo, hi].  The last point misses hi when it lies below hi by more than
    a billionth of the step (or of the range, if that is shorter) plus the
    float error of a decimal grid, a few units in the last place of the
    range, however small the step.  A step that would give more than
    MAX_GRID_POINTS points raises ValueError, after building at most that
    many, and so does a step below the float spacing of the range.  Each
    refusal names the step and the range it was given.
    """
    grid = f"a step of {step:g} from {lo:g} to {hi:g}"
    if not 0.0 < step < math.inf:
        raise ValueError(f"{grid}: the step must be positive and finite")
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"{grid}: the range needs finite lo <= hi")
    span = (hi - lo) / step + 1e-9
    # points lo + k * step for k = 0..n, then hi if they miss it; n is capped so
    # that a span too long to build, or infinite, is counted and refused below
    n = int(span) if span < MAX_GRID_POINTS else MAX_GRID_POINTS
    too_many = f"{grid} gives more than {MAX_GRID_POINTS} grid points"
    if n + 1 > MAX_GRID_POINTS:
        raise ValueError(too_many)
    vals = [lo] + [min(round(lo + k * step, 10), hi) for k in range(1, n + 1)]
    if not np.all(np.diff(vals) > 0.0):
        vals = [lo] + [min(lo + k * step, hi) for k in range(1, n + 1)]
        if not np.all(np.diff(vals) > 0.0):
            raise ValueError(f"{grid}: the step is below the float spacing of the range")
    # a miss within the span's own slack (of a step, or of the range when the step
    # is longer) plus the rounding error lo, hi, step and lo + n * step carry is
    # the step landing on hi
    slack = 1e-9 * min(step, hi - lo) + 4.0 * math.ulp(max(abs(lo), abs(hi)))
    if vals[-1] < hi - slack:
        if n + 2 > MAX_GRID_POINTS:
            raise ValueError(too_many)
        vals.append(hi)
    return vals


def _ascending(name: str, axis) -> np.ndarray:
    """axis as a float array, refused (ValueError) unless strictly ascending."""
    axis = np.asarray([float(v) for v in axis])
    if axis.size > 1 and not np.all(np.diff(axis) > 0):
        raise ValueError(f"{name} must be strictly ascending")
    return axis


def optimize_height(
    city: CityModel,
    r_max: float,
    h_v: float,
    lambda_uav: float,
    h_lo: float,
    h_hi: float,
    gamma_th: float = 0.8,
    n_realizations: int = 100_000,
    seed: int = 0,
    placement_mode: PlacementMode = PlacementMode.MIXTURE,
    workers: int = 1,
    grid_step: float = 5.0,
    refine_tol: float = 1.0,
) -> tuple[float, float]:
    """Altitude in [h_lo, h_hi] minimizing the outage probability at gamma_th.

    Returns (h_star, outage_star), where outage_star is the Monte Carlo
    estimate at h_star itself.  The winner is the best height among the grid
    pass (grid_points(h_lo, h_hi, grid_step)) and every refinement
    evaluation, so refinement can only improve on the grid answer; ties go to
    the lower altitude.  Refinement stops at refine_tol, or sooner once a new
    probe can no longer land strictly inside the bracket, as happens when
    refine_tol is below the float spacing of the heights.  Every probe passes
    outage_grid one held dict and the grid pass's envelope, so the grid pass
    draws each chunk once and every later probe scores those layouts.  With
    lambda_uav 0 every outage is 1 and nothing is drawn, so the lowest grid
    height wins.

    Each argument is checked once, before anything is drawn: refine_tol here,
    the window here (InfeasibleSearchError unless h_v < h_lo < h_hi <
    h_v + r_max), grid_step by grid_points, and gamma_th, the run and
    placement_mode (a PlacementMode or its value) by the grid pass's
    outage_grid.
    """
    if not 0.0 < refine_tol < math.inf:
        raise ValueError("refine_tol must be positive and finite")
    if not h_v < h_lo < h_hi < h_v + r_max:
        raise InfeasibleSearchError(
            f"the window [{h_lo}, {h_hi}] breaks h_v < h_lo < h_hi < h_v + r_max "
            f"(h_v {h_v}, h_v + r_max {h_v + r_max})")
    grid = grid_points(h_lo, h_hi, grid_step)
    # the envelope of the whole search, the grid pass's own: its widest disk,
    # at its lowest altitude.  Every call takes it, so every probe scores the
    # layouts the grid pass drew into held
    d_cap = ground_range(r_max, min(grid), h_v)
    held = {}

    def evaluate(hs: list[float]) -> np.ndarray:
        return outage_grid(
            city,
            r_max,
            h_v,
            [lambda_uav],
            hs,
            gamma_th,
            n_realizations,
            seed,
            placement_mode=placement_mode,
            d_cap=d_cap,
            workers=workers,
            held=held,
        )[0]

    cache = dict(zip(grid, (float(v) for v in evaluate(grid))))

    def f(h: float) -> float:
        h = float(h)
        if h not in cache:
            cache[h] = float(evaluate([h])[0])
        return cache[h]

    j0 = int(np.argmin([cache[h] for h in grid]))
    a = grid[max(j0 - 1, 0)]
    b = grid[min(j0 + 1, len(grid) - 1)]

    if b - a > refine_tol:
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        while b - a > refine_tol:
            if fc <= fd:
                probe = d - GOLDEN * (d - a)  # the new c of the bracket [a, d]
                if not a < probe < c:
                    break
                b, d, fd = d, c, fc
                c, fc = probe, f(probe)
            else:
                probe = c + GOLDEN * (b - c)  # the new d of the bracket [c, b]
                if not d < probe < b:
                    break
                a, c, fc = c, d, fd
                d, fd = probe, f(probe)

    outage_star, h_star = min((v, h) for h, v in cache.items())
    return h_star, outage_star


def sweep_contour(
    city: CityModel,
    r_max: float,
    h_v: float,
    lambda_axis,
    height_axis,
    gamma_th: float,
    n_realizations: int = 100_000,
    seed: int = 0,
    placement_mode: PlacementMode = PlacementMode.MIXTURE,
    lambda_cap: float | None = None,
    d_cap: float | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Score every (density, altitude) cell on shared constellation draws.

    Returns outage_grid's array, shape (len(lambda_axis), len(height_axis)),
    once both axes are checked strictly ascending (ValueError).  Sharing
    makes the grid monotone in density exactly, not just on average: raising
    the density only adds UAVs to each realization.  lambda_cap (per m2) and
    d_cap (m) are the sampling envelope's caps, as in outage_grid.
    placement_mode may be a PlacementMode or its value; outage_grid checks it
    and the run.
    """
    return outage_grid(
        city,
        r_max,
        h_v,
        list(_ascending("lambda_axis", lambda_axis)),
        list(_ascending("height_axis", height_axis)),
        gamma_th,
        n_realizations,
        seed,
        placement_mode=placement_mode,
        lambda_cap=lambda_cap, d_cap=d_cap,
        workers=workers,
    )


def min_density_for_outage(lambda_axis, height_axis, outage, target: float):
    """Smallest density whose best altitude meets the outage target.

    outage is a (density, altitude) grid over the two axes, as sweep_contour
    returns it; any other shape, or an axis not strictly ascending, raises
    ValueError.  Returns (lambda_min, h_star), the entries of the axes given,
    so labels in any unit come back as they went in, or None when no grid
    density reaches the target; a tie in altitude goes to the lowest.
    Infeasibility is an answer here, not an error.
    """
    check_probability("target", target)
    _ascending("lambda_axis", lambda_axis)
    _ascending("height_axis", height_axis)
    expected = (len(lambda_axis), len(height_axis))
    if np.shape(outage) != expected:
        raise ValueError(f"outage shape {np.shape(outage)} != {expected}")
    for lam, row in zip(lambda_axis, outage):
        j = int(np.argmin(row))
        if row[j] <= target:
            return lam, height_axis[j]
    return None
