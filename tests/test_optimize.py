import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavgrid.connectivity as connectivity
import uavgrid.optimize as optimize
from uavgrid.connectivity import outage_grid
from uavgrid.geometry import PRESETS, CityModel, HeightDistribution, InvalidGeometryError
from uavgrid.optimize import (
    MAX_GRID_POINTS,
    InfeasibleSearchError,
    grid_points,
    min_density_for_outage,
    optimize_height,
    sweep_contour,
)

URBAN = PRESETS["urban"]


def test_grid_points():
    assert grid_points(50.0, 250.0, 5.0) == [50.0 + 5.0 * k for k in range(41)]
    assert grid_points(0.0, 1.0, 0.3) == [0.0, 0.3, 0.6, 0.9, 1.0]
    # accumulated float error must not drop the last regular point
    assert grid_points(0.0, 1.0, 0.01)[29] == 0.29
    assert len(grid_points(0.0, 1.0, 0.01)) == 101
    # a refusal names the grid: its step and its range
    with pytest.raises(ValueError, match="^a step of 0.1 from 1 to 0: the range needs"):
        grid_points(1.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="^a step of 0 from 0 to 1: the step must be positive"):
        grid_points(0.0, 1.0, 0.0)
    for lo, hi, step in ((0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (math.nan, 1.0, 0.1),
                         (0.0, math.inf, 0.1)):
        with pytest.raises(ValueError):
            grid_points(lo, hi, step)


def test_grid_points_keeps_the_endpoints_it_is_given():
    """lo and an appended hi come back as given; only the points between them are rounded."""
    assert grid_points(10.00000000001, 20.0, 5.0) == [10.00000000001, 15.0, 20.0]
    assert grid_points(1e-11, 1e-11, 1.0) == [1e-11]
    assert grid_points(0.0, 1.00000000001, 0.3) == [0.0, 0.3, 0.6, 0.9, 1.00000000001]
    # interior points still shed accumulated float noise
    assert 0.1 + 2 * 0.1 != 0.3 and grid_points(0.1, 1.0, 0.1)[2] == 0.3


def test_grid_points_ascend_inside_the_range_at_any_step():
    """A step near the 10-decimal rounding would round points onto, below or past their
    neighbours; then the points are lo + k * step, strictly ascending inside [lo, hi]."""
    fine = grid_points(50.00000000004, 50.0000000001, 1e-11)
    assert fine == [50.00000000004 + k * 1e-11 for k in range(7)]
    for lo, hi, step in ((50.00000000004, 50.0000000001, 1e-11),
                         (50.00000000004, 50.00001, 1e-11),
                         (260.00000000001, 260.000000000085, 7e-11),
                         (0.0, 0.29999999999999993, 0.1)):
        points = grid_points(lo, hi, step)
        assert points[0] == lo and points[-1] <= hi and len(points) > 1
        assert all(a < b for a, b in zip(points, points[1:])), (lo, hi, step)
    # a step below the float spacing of the range has no grid
    with pytest.raises(ValueError, match="^a step of 1e-11 from 1e[+]10 to 1e[+]10: the step is"):
        grid_points(1e10, 1e10 + 1e-5, 1e-11)


def test_grid_points_append_hi_at_any_step():
    """A step that misses hi gets hi appended however small the step, and a step that lands
    on hi, up to the float error of its decimals, does not."""
    assert grid_points(0.0, 5.5e-10, 1e-10) == [0.0, 1e-10, 2e-10, 3e-10, 4e-10, 5e-10, 5.5e-10]
    assert grid_points(50.0, 50.0000000005, 3e-10) == [50.0, 50.0000000003, 50.0000000005]
    assert grid_points(0.0, 1.5e-300, 1e-300) == [0.0, 1e-300, 1.5e-300]
    # a step longer than the range misses hi too
    assert grid_points(0.0, 1.0, 1e308) == [0.0, 1.0]
    # a step below the rounding keeps its points unrounded: the last, 9e-11, misses hi,
    # though it would round to it
    assert grid_points(0.0, 1e-10, 3e-11) == [0.0, 3e-11, 2 * 3e-11, 3 * 3e-11, 1e-10]
    # lo + 6 * step is one unit in the last place below hi: the step lands on hi
    assert 50.00000000004 + 6 * 1e-11 < 50.0000000001
    assert len(grid_points(50.00000000004, 50.0000000001, 1e-11)) == 7
    # the benchmark grids end on hi
    for lo, hi, step, size in ((5.0, 50.0, 1.0, 46), (50.0, 250.0, 5.0, 41), (0.0, 1.0, 0.01, 101),
                               (0.0, 1.0, 1e-4, 10001)):
        points = grid_points(lo, hi, step)
        assert len(points) == size and points[-1] == hi


def test_grid_points_refuses_oversized_grids():
    assert len(grid_points(0.0, 999_998.5, 1.0)) == MAX_GRID_POINTS == 10**6  # hi appended
    # 10**6 + 1 points, without and with an appended hi; 2e9 points; overflowing spans
    for lo, hi, step in ((0.0, 1.0, 1e-6), (0.0, 999_999.5, 1.0), (50.0, 250.0, 1e-7),
                         (-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)):
        with pytest.raises(ValueError, match="grid points"):
            grid_points(lo, hi, step)


def test_search_argument_validation(monkeypatch):
    """optimize_height refuses each bad search argument before anything is drawn."""
    def no_draw(*args):
        raise AssertionError("drew realizations for a search")

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)

    def search(**given):
        return optimize_height(URBAN, 250.0, 10.0, 20e-6, **{"h_lo": 50.0, "h_hi": 100.0, **given},
                               n_realizations=100, seed=0)

    # the hook is on the path: a good search reaches it
    with pytest.raises(AssertionError, match="drew"):
        search()
    for bad in ({"h_lo": 100.0, "h_hi": 90.0}, {"grid_step": 0.0}, {"refine_tol": 0.0},
                {"gamma_th": 1.5}, {"grid_step": math.nan}, {"refine_tol": math.nan},
                {"refine_tol": math.inf}, {"h_hi": math.inf}, {"h_lo": math.nan}):
        with pytest.raises(ValueError):
            search(**bad)


def test_infeasible_window():
    with pytest.raises(InfeasibleSearchError):
        optimize_height(URBAN, 150.0, 10.0, 20e-6, 200.0, 240.0, n_realizations=100, seed=0)
    # an empty, a reversed and an out-of-range window: the refusal states the rule
    for h_lo, h_hi in ((100.0, 100.0), (150.0, 100.0), (100.0, 300.0)):
        with pytest.raises(InfeasibleSearchError, match=r"breaks h_v < h_lo < h_hi < h_v \+ r_max"):
            optimize_height(URBAN, 250.0, 10.0, 30e-6, h_lo, h_hi, n_realizations=100, seed=0)
    for h_v in (-5.0, math.nan):
        with pytest.raises(InvalidGeometryError):
            optimize_height(URBAN, 250.0, h_v, 20e-6, 200.0, 240.0, n_realizations=100, seed=0)
    # a window just under the top: its endpoints are searched as given ...
    window = (URBAN, 250.00000000009, 10.0, 20e-6, 260.00000000006, 260.000000000085)
    assert optimize_height(*window, n_realizations=100, seed=0)[0] == 260.00000000006
    # ... and an interior grid point that rounds (to 10 decimals) past the window's
    # top is the top, so the search stays inside the window
    window = (URBAN, 250.00000000009, 10.0, 20e-6, 260.00000000001, 260.000000000085)
    assert grid_points(*window[4:], 7e-11) == [260.00000000001, 260.000000000085]
    h_star, _ = optimize_height(*window, n_realizations=100, seed=0, grid_step=7e-11)
    assert 260.00000000001 <= h_star <= 260.000000000085


def test_zero_density_returns_search_floor(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew realizations of a search with no UAVs")

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)
    assert optimize_height(URBAN, 250.0, 10.0, 0.0, 60.0, 120.0, n_realizations=100,
                           seed=0) == (60.0, 1.0)
    # run parameters are checked before the zero-density shortcut
    with pytest.raises(ValueError):
        optimize_height(URBAN, 250.0, 10.0, 0.0, 60.0, 120.0, n_realizations=0, seed=0)


def test_monotone_outage_puts_optimum_at_floor():
    # with buildings no ray can hit, every in-range UAV connects; outage then
    # only grows with altitude because the serving disk shrinks
    shrub = CityModel(mu_s=13.0, mu_b=45.0, w_v=13.0, w_h=13.0,
                      heights=HeightDistribution(2.0, 6.0))
    h, out = optimize_height(shrub, 250.0, 10.0, 15e-6, 60.0, 160.0, n_realizations=3000, seed=1,
                             grid_step=20.0)
    assert h == 60.0
    row = outage_grid(shrub, 250.0, 10.0, [15e-6], grid_points(60.0, 160.0, 20.0), 0.8,
                      3000, 1, lambda_cap=15e-6, d_cap=math.sqrt(250.0 ** 2 - 50.0 ** 2))
    assert out == row[0, 0]
    assert np.all(np.diff(row[0]) >= 0.0)


def test_optimize_self_consistency():
    """The reported outage is exactly the grid cell at the reported height."""
    h, out = optimize_height(URBAN, 250.0, 10.0, 30e-6, 120.0, 180.0, 0.8, n_realizations=4000,
                             seed=12, grid_step=20.0, refine_tol=2.0)
    assert 120.0 <= h <= 180.0
    cell = outage_grid(URBAN, 250.0, 10.0, [30e-6], [h], 0.8, 4000, 12,
                       lambda_cap=30e-6, d_cap=math.sqrt(250.0 ** 2 - (120.0 - 10.0) ** 2))
    assert cell[0, 0] == out


def test_optimize_draws_each_realization_once(monkeypatch):
    drawn = []
    real = connectivity.sample_envelope_points

    def recorded(envelope, seed, start, stop):
        drawn.append((start, stop))
        return real(envelope, seed, start, stop)

    monkeypatch.setattr(connectivity, "sample_envelope_points", recorded)
    # the grid pass plus golden-section probes all score one draw, whose
    # chunks tile the realizations once
    search = {"h_lo": 60.0, "h_hi": 200.0, "grid_step": 20.0}
    serial = optimize_height(URBAN, 250.0, 10.0, 30e-6, **search, n_realizations=300, seed=4)
    assert [i for a, b in drawn for i in range(a, b)] == list(range(300))
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 97)
    pooled = optimize_height(URBAN, 250.0, 10.0, 30e-6, **search, n_realizations=300, seed=4,
                             workers=2)
    assert pooled == serial


def test_refinement_ends_below_the_float_spacing(monkeypatch):
    """A refine_tol no bracket can reach stops the search instead of looping forever."""
    # a search that never ends reprobes cached heights without calling the grid,
    # so its first run is a child process that a timeout can end
    src = str(Path(optimize.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "uavgrid", "optimize", "--preset", "urban", "--lambda-uav", "30",
         "--h-lo", "50", "--h-hi", "250", "--n-realizations", "300", "--refine-tol", "1e-300"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    calls = []
    real = optimize.outage_grid

    def bounded(*args, **kwargs):
        calls.append(None)
        if len(calls) > 500:
            raise AssertionError("the golden-section refinement does not end")
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "outage_grid", bounded)
    h, out = optimize_height(URBAN, 250.0, 10.0, 30e-6, 50.0, 250.0, n_realizations=300, seed=0,
                             refine_tol=1e-300)
    assert len(calls) < 500
    assert proc.stdout.split("\n")[1] == f"{h!r},{out!r}"
    # the search went at least as far as a reachable tolerance, so it did no worse
    coarse = optimize_height(URBAN, 250.0, 10.0, 30e-6, 50.0, 250.0, n_realizations=300, seed=0,
                             refine_tol=1e-6)
    assert 50.0 <= h <= 250.0 and out <= coarse[1]


def test_optimal_height_decreases_with_density():
    search = {"h_lo": 100.0, "h_hi": 240.0, "grid_step": 10.0, "refine_tol": 5.0}
    h10, _ = optimize_height(URBAN, 250.0, 10.0, 10e-6, **search, n_realizations=20_000, seed=5)
    h30, _ = optimize_height(URBAN, 250.0, 10.0, 30e-6, **search, n_realizations=20_000, seed=5)
    assert h30 < h10


def test_sweep_contour_shape_and_axis_validation():
    lam = [10e-6, 20e-6]
    hts = [80.0, 120.0, 160.0]
    outage = sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=800, seed=3)
    assert outage.shape == (2, 3)
    assert np.all((0.0 <= outage) & (outage <= 1.0))
    # outage_grid's array, as it is
    assert np.array_equal(outage, outage_grid(URBAN, 250.0, 10.0, lam, hts, 0.8, 800, 3))
    with pytest.raises(ValueError):
        sweep_contour(URBAN, 250.0, 10.0, [20e-6, 10e-6], hts, 0.8, n_realizations=10, seed=0)
    with pytest.raises(ValueError):
        sweep_contour(URBAN, 250.0, 10.0, [], hts, 0.8, n_realizations=10, seed=0)


def test_placement_mode_fails_closed(monkeypatch):
    """optimize_height and sweep_contour take a mode's value too, and refuse anything else."""
    search = {"h_lo": 60.0, "h_hi": 200.0, "gamma_th": 0.8, "grid_step": 35.0, "refine_tol": 20.0}
    lam, hts = [10e-6, 20e-6], [80.0, 160.0]
    for mode in connectivity.PlacementMode:
        assert (optimize_height(URBAN, 250.0, 10.0, 20e-6, **search, n_realizations=300, seed=2,
                                placement_mode=mode.value)
                == optimize_height(URBAN, 250.0, 10.0, 20e-6, **search, n_realizations=300, seed=2,
                                   placement_mode=mode))
        assert np.array_equal(
            sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=300, seed=2,
                          placement_mode=mode.value),
            sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=300, seed=2,
                          placement_mode=mode))
    monkeypatch.setattr(connectivity, "sample_envelope_points", None)
    for bad in (None, "street", "nowhere"):
        with pytest.raises(ValueError):
            optimize_height(URBAN, 250.0, 10.0, 20e-6, **search, n_realizations=300, seed=2,
                            placement_mode=bad)
        with pytest.raises(ValueError):
            sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=300, seed=2,
                          placement_mode=bad)


def test_contour_monotone_in_density():
    lam = [5e-6, 15e-6, 30e-6]
    hts = [80.0, 120.0, 160.0, 200.0]
    for city in PRESETS.values():
        outage = sweep_contour(city, 250.0, 10.0, lam, hts, 0.8, n_realizations=1500, seed=8)
        # common random numbers make this exact, not just statistical
        assert np.all(np.diff(outage, axis=0) <= 0.0)


def test_min_density_for_outage():
    lam = np.array([1e-5, 2e-5, 3e-5])
    hts = np.array([100.0, 150.0])
    out = np.array([[0.5, 0.4], [0.3, 0.2], [0.1, 0.05]])
    # the height reported is the best one on the qualifying row
    assert min_density_for_outage(lam, hts, out, 1.0) == (1e-5, 150.0)
    assert min_density_for_outage(lam, hts, out, 0.25) == (2e-5, 150.0)
    assert min_density_for_outage(lam, hts, out, 0.01) is None
    loose = min_density_for_outage(lam, hts, out, 0.3)
    tight = min_density_for_outage(lam, hts, out, 0.2)
    assert loose[0] <= tight[0]
    with pytest.raises(ValueError):
        min_density_for_outage(lam, hts, out, -0.1)
    # the entries of the axes given come back unchanged: km2 labels stay km2 labels
    km2 = [10.0, 20.0, 30.000000000000004]
    best = min_density_for_outage(km2, list(hts), out, 0.1)
    assert best == (30.000000000000004, 150.0) and best[0] is km2[2]
    # axes in any other order are refused: listed first, density 30 would win
    # over density 10, which meets the target at 150 m, and a tie in altitude
    # would go to the first listed height, not the lowest
    square = np.array([[0.05, 0.2], [0.3, 0.08]])
    for axes, name in ((([30.0, 10.0], [100.0, 150.0]), "lambda_axis"),
                       (([10.0, 10.0], [100.0, 150.0]), "lambda_axis"),
                       (([10.0, math.nan], [100.0, 150.0]), "lambda_axis"),
                       (([10.0, 30.0], [150.0, 100.0]), "height_axis")):
        with pytest.raises(ValueError, match=f"{name} must be strictly ascending"):
            min_density_for_outage(*axes, square, 0.1)


def test_contour_grid_shape_validation():
    """min_density_for_outage refuses an outage grid that does not pair its two axes."""
    lam, hts = [1e-5], [100.0, 150.0]
    for outage in (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match="outage shape"):
            min_density_for_outage(lam, hts, outage, 0.5)
    assert min_density_for_outage(lam, hts, np.zeros((1, 2)), 0.5) == (1e-5, 100.0)
