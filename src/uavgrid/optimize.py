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
from dataclasses import dataclass

import numpy as np

from .connectivity import EnvelopeDraw, PlacementMode, _scenario, check_run, outage_grid
from .geometry import CityModel, InvalidGeometryError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class InfeasibleSearchError(InvalidGeometryError):
    """The requested altitude window leaves no feasible heights."""


@dataclass(frozen=True)
class HeightSearchSpec:
    """Altitude window and stopping rules for optimize_height."""

    h_lo: float
    h_hi: float
    grid_step: float = 5.0
    refine_tol: float = 1.0
    gamma_th: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.grid_step < math.inf and 0.0 < self.refine_tol < math.inf):
            raise ValueError("grid_step and refine_tol must be positive and finite")
        if not -math.inf < self.h_lo < self.h_hi < math.inf:
            raise ValueError("need finite h_lo < h_hi")
        if not 0.0 <= self.gamma_th <= 1.0:
            raise ValueError("gamma_th must lie in [0, 1]")


# The most points grid_points builds, far above any grid the commands use.
MAX_GRID_POINTS = 10**6


def grid_points(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid from lo towards hi; hi is appended if the step misses it.

    Values are rounded to 10 decimals so grids built from decimal steps carry
    clean coordinates instead of accumulated float noise.  A step that would
    give more than MAX_GRID_POINTS points raises ValueError before any point
    is built.
    """
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("need finite lo <= hi")
    span = (hi - lo) / step + 1e-9
    # points lo + k * step for k = 0..n, then hi if they miss it; n is capped so
    # that a span too long to build, or infinite, is counted and refused below
    n = int(span) if span < MAX_GRID_POINTS else MAX_GRID_POINTS
    misses_hi = round(lo + n * step, 10) < hi - 1e-9 * max(1.0, abs(hi))
    if n + 1 + misses_hi > MAX_GRID_POINTS:
        raise ValueError(
            f"a step of {step:g} gives more than {MAX_GRID_POINTS} grid points "
            f"from {lo:g} to {hi:g}"
        )
    vals = [round(lo + k * step, 10) for k in range(n + 1)]
    if misses_hi:
        vals.append(round(hi, 10))
    return vals


def optimize_height(
    city: CityModel,
    r_max: float,
    h_v: float,
    lambda_uav: float,
    search: HeightSearchSpec,
    n_realizations: int = 100_000,
    seed: int = 0,
    placement_mode: PlacementMode = PlacementMode.MIXTURE,
    workers: int = 1,
) -> tuple[float, float]:
    """Altitude minimizing the outage probability at search.gamma_th.

    Returns (h_star, outage_star), where outage_star is the Monte Carlo
    estimate at h_star itself.  The winner is the best height among the grid
    pass and every refinement evaluation, so refinement can only improve on
    the grid answer; ties go to the lower altitude.  Refinement stops at
    search.refine_tol, or sooner once a new probe can no longer land strictly
    inside the bracket, as happens when refine_tol is below the float spacing
    of the heights.
    """
    check_run(n_realizations, seed, workers)
    if not h_v < search.h_lo < search.h_hi < h_v + r_max:
        raise InfeasibleSearchError(
            f"window [{search.h_lo}, {search.h_hi}] not inside ({h_v}, {h_v + r_max})"
        )
    grid = grid_points(search.h_lo, search.h_hi, search.grid_step)
    # the widest disk is at the lowest altitude, so one envelope covers the search
    _, _, envelope = _scenario(r_max, h_v, [lambda_uav], grid)
    if envelope is None:
        # no UAVs, outage 1 at every altitude; lowest height wins the tie
        return grid[0], 1.0
    draw = EnvelopeDraw(envelope, seed, n_realizations, workers=workers)

    def evaluate(hs: list[float]) -> np.ndarray:
        return outage_grid(
            city,
            r_max,
            h_v,
            [lambda_uav],
            hs,
            search.gamma_th,
            n_realizations,
            seed,
            placement_mode=placement_mode,
            lambda_cap=envelope.lambda_cap, d_cap=envelope.d_cap,
            workers=workers,
            draw=draw,
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

    if b - a > search.refine_tol:
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        while b - a > search.refine_tol:
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


@dataclass(frozen=True)
class ContourGrid:
    """Outage over a (density, altitude) grid.  Densities are per m2."""

    lambda_axis: np.ndarray
    height_axis: np.ndarray
    outage: np.ndarray  # shape (len(lambda_axis), len(height_axis))
    gamma_th: float

    def __post_init__(self):
        expected = (self.lambda_axis.shape[0], self.height_axis.shape[0])
        if self.outage.shape != expected:
            raise ValueError(f"outage shape {self.outage.shape} != {expected}")


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
) -> ContourGrid:
    """Score every (density, altitude) cell on shared constellation draws.

    Sharing makes the grid monotone in density exactly, not just on average:
    raising the density only adds UAVs to each realization.  lambda_cap (per
    m2) and d_cap (m) are the sampling envelope's caps, as in outage_grid.
    """
    lambda_axis = np.asarray([float(v) for v in lambda_axis])
    height_axis = np.asarray([float(v) for v in height_axis])
    for name, axis in (("lambda_axis", lambda_axis), ("height_axis", height_axis)):
        if axis.ndim != 1 or axis.size == 0:
            raise ValueError(f"{name} must be a non-empty 1-d sequence")
        if axis.size > 1 and not np.all(np.diff(axis) > 0):
            raise ValueError(f"{name} must be strictly ascending")
    values = outage_grid(
        city,
        r_max,
        h_v,
        list(lambda_axis),
        list(height_axis),
        gamma_th,
        n_realizations,
        seed,
        placement_mode=placement_mode,
        lambda_cap=lambda_cap, d_cap=d_cap,
        workers=workers,
    )
    return ContourGrid(lambda_axis, height_axis, values, gamma_th)


def min_density_for_outage(grid: ContourGrid, target: float) -> tuple[float, float] | None:
    """Smallest density whose best altitude meets the outage target.

    Returns (lambda_min, h_star) or None when no grid density reaches the
    target.  Infeasibility is an answer here, not an error.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError("target must lie in [0, 1]")
    for i, lam in enumerate(grid.lambda_axis):
        j = int(np.argmin(grid.outage[i]))
        if grid.outage[i, j] <= target:
            return float(lam), float(grid.height_axis[j])
    return None
