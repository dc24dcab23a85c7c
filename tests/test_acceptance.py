"""End-to-end checks for the deliverable targets.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -s`
to see them on a passing suite. The full set takes under half a minute.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from uavgrid.connectivity import estimate_distribution, mixture_cdf, outage_grid
from uavgrid.geometry import PRESETS
from uavgrid.los import LinkGeometry, Placement
from uavgrid.optimize import min_density_for_outage, sweep_contour
from uavgrid.oracle import validation_sweep

from quadrature import axis_factor, axis_factor_quadrature

URBAN = PRESETS["urban"]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_acceptance_1_closed_form_matches_oracle():
    t0 = time.time()
    results = validation_sweep(cases=200, n=100_000, seed=2024)
    dt = time.time() - t0
    outliers = sum(1 for r in results if not r.passed)
    ok = outliers <= 2 and dt < 300.0
    _report(1, "closed form vs explicit-geometry oracle", ok,
            f"outliers {outliers}/200 (allowed 2), {dt:.1f}s of 300s budget")


def test_acceptance_2_closed_form_matches_quadrature():
    rng = np.random.default_rng(7)
    cities = list(PRESETS.values())
    worst = 0.0
    t0 = time.time()
    for _ in range(10_000):
        lk = LinkGeometry(d=rng.uniform(1.0, 300.0), phi=rng.uniform(0.0, 2.0 * math.pi),
                          h_uav=rng.uniform(10.1, 350.0), h_v=10.0)
        city = cities[rng.integers(3)]
        axis = "x" if rng.integers(2) else "y"
        pl = Placement.INTERSECTION if rng.integers(2) else Placement.STREET
        a = axis_factor(lk, city, axis, pl)
        q = axis_factor_quadrature(lk, city, axis, pl)
        worst = max(worst, abs(a - q) / q)
    dt = time.time() - t0
    ok = worst <= 1e-9
    _report(2, "exposure factor vs adaptive quadrature", ok,
            f"max rel err {worst:.3e} over 10000 parameter sets, {dt:.1f}s")


def test_acceptance_3_min_density_anchor():
    t0 = time.time()
    lam = [v * 1e-6 for v in range(5, 51)]
    hts = [float(h) for h in range(50, 251, 5)]
    outage = sweep_contour(URBAN, 250.0, 10.0, lam, hts, 0.8, n_realizations=100_000, seed=0)
    best = min_density_for_outage(lam, hts, outage, 0.1)
    dt = time.time() - t0
    ok = best is not None
    lam_km2 = h_star = float("nan")
    if ok:
        lam_km2 = best[0] * 1e6
        h_star = best[1]
        ok = abs(lam_km2 - 31.0) <= 3.0 and abs(h_star - 162.0) <= 15.0 and dt < 1800.0
    _report(3, "minimum density for 10% outage", ok,
            f"lambda_min {lam_km2:g}/km2 (target 31+-3), h_star {h_star:g} m (target 162+-15), "
            f"{dt:.0f}s of 1800s budget")


def test_acceptance_4_figure_orderings():
    t0 = time.time()
    n = 100_000
    gammas = np.linspace(0.0, 1.0, 101)
    checks = []

    # placement ordering of the connectivity CDFs
    f_sec, f_str = estimate_distribution(URBAN, 250.0, 10.0, [20e-6], [100.0], gammas, n,
                                         seed=1)[:, :, 0, 0] / n
    f_mix = mixture_cdf(f_sec, f_str, URBAN)
    checks.append(("placement ordering", bool(np.all(f_sec <= f_mix + 1e-15) and np.all(f_mix <= f_str + 1e-15))))

    # longer range dominates, denser cities suffer, at both ranges
    d_cap = math.sqrt(300.0 * 300.0 - 90.0 * 90.0)
    per_city = {}
    for name, city in PRESETS.items():
        curves = {}
        for r in (200.0, 300.0):
            f = estimate_distribution(city, r, 10.0, [20e-6], [100.0], gammas, n, seed=2,
                                      lambda_cap=20e-6, d_cap=d_cap)[:, :, 0, 0] / n
            curves[r] = mixture_cdf(f[0], f[1], city)
        per_city[name] = curves
        checks.append((f"range ordering {name}", bool(np.all(curves[300.0] <= curves[200.0]))))
    # The city ordering holds wherever the curves are separated. In the far
    # right tail (gamma > 0.9) the model itself crosses urban and dense-urban
    # by ~0.01: wide dense-urban streets leave near-overhead UAVs with empty
    # exposure windows, so almost-sure links are slightly more common there.
    # The oracle reproduces the same crossing, so it is asserted as a bounded
    # tail effect rather than hidden under a loose tolerance.
    bulk = gammas <= 0.9 + 1e-12
    tail = ~bulk
    tail_reversal = 0.0
    for r in (200.0, 300.0):
        a = per_city["suburban"][r]
        b = per_city["urban"][r]
        c = per_city["dense-urban"][r]
        ok_bulk = bool(np.all(a[bulk] <= b[bulk] + 0.005) and np.all(b[bulk] <= c[bulk] + 0.005))
        rev = max(float(np.max(a[tail] - b[tail])), float(np.max(b[tail] - c[tail])))
        tail_reversal = max(tail_reversal, rev)
        i08 = int(np.argmin(np.abs(gammas - 0.8)))
        ok_th = bool(a[i08] < b[i08] < c[i08])
        checks.append((f"city ordering r={r:g} (gamma<=0.9)", ok_bulk))
        checks.append((f"city ordering r={r:g} at gamma=0.8", ok_th))
        checks.append((f"city tail reversal r={r:g} bounded", rev <= 0.02))

    # altitude curves have interior minima that move down as density grows
    hts = [float(h) for h in range(60, 241, 10)]
    rows = outage_grid(URBAN, 250.0, 10.0, [10e-6, 20e-6, 30e-6], hts, 0.8, n, 3,
                       lambda_cap=30e-6, d_cap=math.sqrt(250.0 ** 2 - 50.0 ** 2))
    argmins = [int(np.argmin(r)) for r in rows]
    checks.append(("interior minima", all(0 < j < len(hts) - 1 for j in argmins)))
    checks.append(("optimal altitude decreases with density", argmins[0] > argmins[1] > argmins[2]))

    # outage at the per-density best altitude only improves with density
    lam2 = [v * 1e-6 for v in range(5, 51, 5)]
    for name, city in PRESETS.items():
        rows2 = outage_grid(city, 250.0, 10.0, lam2, hts, 0.8, n, 3,
                            lambda_cap=50e-6, d_cap=math.sqrt(250.0 ** 2 - 50.0 ** 2))
        best = rows2.min(axis=1)
        checks.append((f"best outage non-increasing {name}", bool(np.all(np.diff(best) <= 0.0))))

    dt = time.time() - t0
    ok = all(good for _, good in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'VIOLATED'}" for name, good in checks)
    _report(4, "distribution and altitude-curve orderings", ok,
            f"{detail}; max tail reversal {tail_reversal:.4f}; {dt:.0f}s")


def test_acceptance_5_property_suite_standalone():
    t0 = time.time()
    target = Path(__file__).parent / "test_properties.py"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", str(target)],
                          capture_output=True, text=True)
    dt = time.time() - t0
    stream = proc.stdout.strip() or proc.stderr.strip()
    tail = stream.splitlines()[-1] if stream else "no output"
    ok = proc.returncode == 0
    _report(5, "invariant suite standalone", ok, f"{tail}; {dt:.0f}s")
