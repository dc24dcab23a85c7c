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
    ContourGrid,
    MAX_GRID_POINTS,
    HeightSearchSpec,
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
    with pytest.raises(ValueError):
        grid_points(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        grid_points(0.0, 1.0, 0.0)
    for lo, hi, step in ((0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (math.nan, 1.0, 0.1),
                         (0.0, math.inf, 0.1)):
        with pytest.raises(ValueError):
            grid_points(lo, hi, step)


def test_grid_points_refuses_oversized_grids():
    assert len(grid_points(0.0, 999_998.5, 1.0)) == MAX_GRID_POINTS == 10**6  # hi appended
    # 10**6 + 1 points, without and with an appended hi; 2e9 points; overflowing spans
    for lo, hi, step in ((0.0, 1.0, 1e-6), (0.0, 999_999.5, 1.0), (50.0, 250.0, 1e-7),
                         (-1e308, 1e308, 1.0), (0.0, 1.0, 5e-324)):
        with pytest.raises(ValueError, match="grid points"):
            grid_points(lo, hi, step)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        HeightSearchSpec(h_lo=100.0, h_hi=90.0)
    with pytest.raises(ValueError):
        HeightSearchSpec(h_lo=50.0, h_hi=100.0, grid_step=0.0)
    with pytest.raises(ValueError):
        HeightSearchSpec(h_lo=50.0, h_hi=100.0, refine_tol=0.0)
    with pytest.raises(ValueError):
        HeightSearchSpec(h_lo=50.0, h_hi=100.0, gamma_th=1.5)
    for bad in ({"grid_step": math.nan}, {"refine_tol": math.nan}, {"refine_tol": math.inf},
                {"h_hi": math.inf}, {"h_lo": math.nan}):
        with pytest.raises(ValueError):
            HeightSearchSpec(**{"h_lo": 50.0, "h_hi": 100.0, **bad})


def test_infeasible_window():
    spec = HeightSearchSpec(h_lo=200.0, h_hi=240.0)
    with pytest.raises(InfeasibleSearchError):
        optimize_height(URBAN, 150.0, 10.0, 20e-6, spec, n_realizations=100, seed=0)
    for h_v in (-5.0, math.nan):
        with pytest.raises(InvalidGeometryError):
            optimize_height(URBAN, 250.0, h_v, 20e-6, spec, n_realizations=100, seed=0)


def test_zero_density_returns_search_floor():
    spec = HeightSearchSpec(h_lo=60.0, h_hi=120.0)
    assert optimize_height(URBAN, 250.0, 10.0, 0.0, spec, n_realizations=100, seed=0) == (60.0, 1.0)
    # run parameters are checked before the zero-density shortcut
    with pytest.raises(ValueError):
        optimize_height(URBAN, 250.0, 10.0, 0.0, spec, n_realizations=0, seed=0)


def test_monotone_outage_puts_optimum_at_floor():
    # with buildings no ray can hit, every in-range UAV connects; outage then
    # only grows with altitude because the serving disk shrinks
    shrub = CityModel(mu_s=13.0, mu_b=45.0, w_v=13.0, w_h=13.0,
                      heights=HeightDistribution(2.0, 6.0))
    spec = HeightSearchSpec(h_lo=60.0, h_hi=160.0, grid_step=20.0)
    h, out = optimize_height(shrub, 250.0, 10.0, 15e-6, spec, n_realizations=3000, seed=1)
    assert h == 60.0
    row = outage_grid(shrub, 250.0, 10.0, [15e-6], grid_points(60.0, 160.0, 20.0), 0.8,
                      3000, 1, lambda_cap=15e-6, d_cap=math.sqrt(250.0 ** 2 - 50.0 ** 2))
    assert out == row[0, 0]
    assert np.all(np.diff(row[0]) >= 0.0)


def test_optimize_self_consistency():
    """The reported outage is exactly the grid cell at the reported height."""
    spec = HeightSearchSpec(h_lo=120.0, h_hi=180.0, grid_step=20.0, refine_tol=2.0)
    h, out = optimize_height(URBAN, 250.0, 10.0, 30e-6, spec, n_realizations=4000, seed=12)
    assert 120.0 <= h <= 180.0
    cell = outage_grid(URBAN, 250.0, 10.0, [30e-6], [h], spec.gamma_th, 4000, 12,
                       lambda_cap=30e-6, d_cap=math.sqrt(250.0 ** 2 - (120.0 - 10.0) ** 2))
    assert cell[0, 0] == out


def test_optimize_draws_each_realization_once(monkeypatch):
    calls = []
    real = connectivity.sample_envelope_points

    def counted(envelope, rng):
        calls.append(None)
        return real(envelope, rng)

    monkeypatch.setattr(connectivity, "sample_envelope_points", counted)
    # the grid pass plus golden-section probes all score one draw
    spec = HeightSearchSpec(h_lo=60.0, h_hi=200.0, grid_step=20.0)
    serial = optimize_height(URBAN, 250.0, 10.0, 30e-6, spec, n_realizations=300, seed=4)
    assert len(calls) == 300
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 97)
    pooled = optimize_height(URBAN, 250.0, 10.0, 30e-6, spec, n_realizations=300, seed=4,
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
    search = {"h_lo": 50.0, "h_hi": 250.0}
    h, out = optimize_height(URBAN, 250.0, 10.0, 30e-6, HeightSearchSpec(**search, refine_tol=1e-300),
                             n_realizations=300, seed=0)
    assert len(calls) < 500
    assert proc.stdout.split("\n")[1] == f"{h!r},{out!r}"
    # the search went at least as far as a reachable tolerance, so it did no worse
    coarse = optimize_height(URBAN, 250.0, 10.0, 30e-6, HeightSearchSpec(**search, refine_tol=1e-6),
                             n_realizations=300, seed=0)
    assert 50.0 <= h <= 250.0 and out <= coarse[1]


def test_optimal_height_decreases_with_density():
    spec = HeightSearchSpec(h_lo=100.0, h_hi=240.0, grid_step=10.0, refine_tol=5.0)
    h10, _ = optimize_height(URBAN, 250.0, 10.0, 10e-6, spec, n_realizations=20_000, seed=5)
    h30, _ = optimize_height(URBAN, 250.0, 10.0, 30e-6, spec, n_realizations=20_000, seed=5)
    assert h30 < h10


def test_sweep_contour_shape_and_axis_validation():
    lam = [10e-6, 20e-6]
    hts = [80.0, 120.0, 160.0]
    grid = sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=800, seed=3)
    assert grid.outage.shape == (2, 3)
    assert grid.gamma_th == 0.8
    assert np.all((0.0 <= grid.outage) & (grid.outage <= 1.0))
    with pytest.raises(ValueError):
        sweep_contour(URBAN, 250.0, 10.0, [20e-6, 10e-6], hts, 0.8, n_realizations=10, seed=0)
    with pytest.raises(ValueError):
        sweep_contour(URBAN, 250.0, 10.0, [], hts, 0.8, n_realizations=10, seed=0)


def test_placement_mode_fails_closed(monkeypatch):
    """optimize_height and sweep_contour take a mode's value too, and refuse anything else."""
    spec = HeightSearchSpec(h_lo=60.0, h_hi=200.0, grid_step=35.0, gamma_th=0.8, refine_tol=20.0)
    lam, hts = [10e-6, 20e-6], [80.0, 160.0]
    for mode in connectivity.PlacementMode:
        assert (optimize_height(URBAN, 250.0, 10.0, 20e-6, spec, n_realizations=300, seed=2,
                                placement_mode=mode.value)
                == optimize_height(URBAN, 250.0, 10.0, 20e-6, spec, n_realizations=300, seed=2,
                                   placement_mode=mode))
        assert np.array_equal(
            sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=300, seed=2,
                          placement_mode=mode.value).outage,
            sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=300, seed=2,
                          placement_mode=mode).outage)
    monkeypatch.setattr(connectivity, "_draw_chunk", None)
    for bad in (None, "street", "nowhere"):
        with pytest.raises(ValueError):
            optimize_height(URBAN, 250.0, 10.0, 20e-6, spec, n_realizations=300, seed=2,
                            placement_mode=bad)
        with pytest.raises(ValueError):
            sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=300, seed=2,
                          placement_mode=bad)


def test_contour_monotone_in_density():
    lam = [5e-6, 15e-6, 30e-6]
    hts = [80.0, 120.0, 160.0, 200.0]
    for city in PRESETS.values():
        grid = sweep_contour(city, 250.0, 10.0, lam, hts, 0.8, n_realizations=1500, seed=8)
        # common random numbers make this exact, not just statistical
        assert np.all(np.diff(grid.outage, axis=0) <= 0.0)


def test_min_density_for_outage():
    lam = np.array([1e-5, 2e-5, 3e-5])
    hts = np.array([100.0, 150.0])
    out = np.array([[0.5, 0.4], [0.3, 0.2], [0.1, 0.05]])
    grid = ContourGrid(lambda_axis=lam, height_axis=hts, outage=out, gamma_th=0.8)
    # the height reported is the best one on the qualifying row
    assert min_density_for_outage(grid, 1.0) == (1e-5, 150.0)
    assert min_density_for_outage(grid, 0.25) == (2e-5, 150.0)
    assert min_density_for_outage(grid, 0.01) is None
    loose = min_density_for_outage(grid, 0.3)
    tight = min_density_for_outage(grid, 0.2)
    assert loose[0] <= tight[0]
    with pytest.raises(ValueError):
        min_density_for_outage(grid, -0.1)


def test_contour_grid_shape_validation():
    with pytest.raises(ValueError):
        ContourGrid(lambda_axis=np.array([1e-5]), height_axis=np.array([100.0, 150.0]),
                    outage=np.zeros((2, 2)), gamma_th=0.8)
