import math
from dataclasses import dataclass

import numpy as np
import pytest

import uavgrid.oracle as oracle
from uavgrid.geometry import PRESETS, CityModel, HeightDistribution, ground_range
from uavgrid.los import (
    Axis,
    LinkGeometry,
    Placement,
    _link_limits,
    effective_widths,
    integration_limits,
    los_probability,
)
from uavgrid.oracle import MAX_DRAWS, empirical_los_probability, validation_sweep

URBAN = PRESETS["urban"]


# The scalar tracer: one explicit city per call, one ray at a time.  It is the
# plain-loop reference that empirical_los_probability's vectorized count must
# reproduce (test_empirical_matches_plain_loop).


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


def _draw(x=(), y=(), corner=0.0):
    return ExplicitCityDraw(
        x_pos=np.array([p for p, _ in x], dtype=float),
        x_height=np.array([h for _, h in x], dtype=float),
        y_pos=np.array([p for p, _ in y], dtype=float),
        y_height=np.array([h for _, h in y], dtype=float),
        corner_height=corner,
    )


def test_sample_city_rates_and_supports():
    rng = np.random.default_rng(4)
    n = 3000
    total = 0
    for _ in range(n):
        draw = sample_city(URBAN, 290.0, 110.0, rng)
        total += draw.x_pos.size
        assert np.all((draw.x_pos >= 0.0) & (draw.x_pos <= 290.0))
        assert np.all((draw.x_height >= 9.5) & (draw.x_height <= 28.5))
        assert 9.5 <= draw.corner_height <= 28.5
    mean = 290.0 / 58.0
    assert abs(total / n - mean) < 3.0 * math.sqrt(mean / n)


def test_corner_building_blocks_alone():
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    h0 = _link_limits(lk, 13.0, 13.0)[0]
    assert link_blocked(_draw(corner=h0 + 0.5), lk, URBAN, Placement.INTERSECTION)
    assert not link_blocked(_draw(corner=h0 - 0.5), lk, URBAN, Placement.INTERSECTION)


def test_side_building_blocks_only_inside_its_window():
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    za, zb = integration_limits(lk, URBAN, Axis.X, Placement.INTERSECTION)
    z = 0.5 * (za + zb)
    crit = z * lk.delta_h / zb + lk.h_v
    assert link_blocked(_draw(x=[(z, crit + 1.0)]), lk, URBAN, Placement.INTERSECTION)
    assert not link_blocked(_draw(x=[(z, crit - 1.0)]), lk, URBAN, Placement.INTERSECTION)
    # outside the exposure window nothing matters, however tall
    assert not link_blocked(_draw(x=[(za - 1.0, 1000.0)]), lk, URBAN, Placement.INTERSECTION)
    assert not link_blocked(_draw(x=[(zb + 1.0, 1000.0)]), lk, URBAN, Placement.INTERSECTION)


def test_street_sees_fronts_the_crossing_street_shields():
    phi = 0.3
    lk = LinkGeometry(d=50.0, phi=phi, h_uav=100.0, h_v=10.0)
    za_street, _ = integration_limits(lk, URBAN, Axis.Y, Placement.STREET)
    z = 4.0
    assert za_street < z < 6.5
    draw = _draw(y=[(z, 1000.0)])
    assert link_blocked(draw, lk, URBAN, Placement.STREET)
    assert not link_blocked(draw, lk, URBAN, Placement.INTERSECTION)


SHRUB = CityModel(mu_s=13.0, mu_b=45.0, w_v=13.0, w_h=13.0,
                  heights=HeightDistribution(2.0, 6.0))
OBLIQUE = LinkGeometry(d=120.0, phi=0.7, h_uav=120.0, h_v=10.0)
# phi = 0: the ray never advances along y, so that axis interval is empty
ALONG_X = LinkGeometry(d=120.0, phi=0.0, h_uav=120.0, h_v=10.0)


# id -> (link, city, placement): the scalar tracer draws every axis over
# [0, extent], so these also check that the oracle may restrict its sides to
# (za, zb)
PLAIN_LOOP = {
    "intersection": (OBLIQUE, URBAN, Placement.INTERSECTION),
    "street": (OBLIQUE, URBAN, Placement.STREET),
    "empty-axis": (ALONG_X, URBAN, Placement.STREET),
    "dense-urban": (OBLIQUE, PRESETS["dense-urban"], Placement.INTERSECTION),
    # sides can block only past 63% of the path, and nearly every one there
    # does: drawing (0, zb)'s count on (za, zb) moves p by about 10 se
    "late-clearance": (LinkGeometry(d=40.0, phi=0.2, h_uav=11.0, h_v=10.0), PRESETS["suburban"],
                       Placement.INTERSECTION),
}


@pytest.mark.parametrize("case", sorted(PLAIN_LOOP))
def test_empirical_matches_plain_loop(case):
    """Vectorized counting agrees with a one-draw-at-a-time loop."""
    lk, city, placement = PLAIN_LOOP[case]
    n = 4000
    p_vec, se = empirical_los_probability(lk, city, placement, n, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    period = city.mu_s + city.mu_b
    extent_x = lk.d * math.cos(lk.phi) + period
    extent_y = lk.d * math.sin(lk.phi) + period
    hits = 0
    for _ in range(n):
        draw = sample_city(city, extent_x, extent_y, rng)
        hits += not link_blocked(draw, lk, city, placement)
    p_loop = hits / n
    se_comb = math.sqrt(se * se + p_loop * (1.0 - p_loop) / n)
    assert abs(p_vec - p_loop) < 6.0 * se_comb


def test_empirical_matches_closed_form_at_late_clearance():
    # sides past 63% of the path block nearly always: positions drawn on (0, zb)
    # with the count of (za, zb) would thin them and move p by about 44 se
    lk, city, placement = PLAIN_LOOP["late-clearance"]
    n = 200_000
    p_hat, _ = empirical_los_probability(lk, city, placement, n, np.random.default_rng(31))
    p = los_probability(lk, city, placement)
    assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def _bincount_reference(link, city, placement, n, rng):
    """A per-point reduction: full crit, the same draw labels, bincount.

    Draws exactly what empirical_los_probability draws, in its order: the n
    corner heights, then per axis with za < zb the superposed count, the
    positions, the heights and one draw label per hit.  Returns (p_hat, se,
    each axis's total sides, None for an axis with za >= zb).
    """
    h0, limits_x, limits_y = _link_limits(link, *effective_widths(city, placement))
    blocked = city.heights.sample(rng, n) > h0
    totals = []
    for za, zb in (limits_x, limits_y):
        if not za < zb:
            totals.append(None)
            continue
        total = rng.poisson(n * city.lambda_s * (zb - za))
        pos = rng.uniform(za, zb, total)
        height = city.heights.sample(rng, total)
        inside = (pos > za) & (pos < zb)
        crit = pos * link.delta_h / zb + link.h_v
        hit = inside & (height > crit)
        labels = rng.integers(0, n, int(hit.sum()))
        blocked |= np.bincount(labels, minlength=n) > 0
        totals.append(int(total))
    p_hat = float(1.0 - blocked.mean())
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n), totals


# id -> (link, city, placement, n, seed)
BIT_FOR_BIT = {
    "intersection": (OBLIQUE, URBAN, Placement.INTERSECTION, 3000, 8),
    "street": (OBLIQUE, URBAN, Placement.STREET, 3000, 8),
    "empty-axis": (ALONG_X, URBAN, Placement.STREET, 3000, 5),
    "shrub-nothing-hit": (OBLIQUE, SHRUB, Placement.INTERSECTION, 500, 2),
    "n-1": (OBLIQUE, PRESETS["dense-urban"], Placement.STREET, 1, 3),
    "sideless-draws": (LinkGeometry(d=60.0, phi=0.3, h_uav=40.0, h_v=10.0),
                       PRESETS["dense-urban"], Placement.INTERSECTION, 2000, 11),
    # phi = 1e-6 mid-block: the y interval is 1.2e-4 m long, so it is drawn
    # but expects 6e-6 sides
    "axis-draws-no-sides": (LinkGeometry(d=120.0, phi=1e-6, h_uav=120.0, h_v=10.0), URBAN,
                            Placement.STREET, 3000, 5),
}


@pytest.mark.parametrize("case", sorted(BIT_FOR_BIT))
def test_empirical_matches_bincount_reference_bit_for_bit(case):
    link, city, placement, n, seed = BIT_FOR_BIT[case]
    rng = np.random.default_rng(seed)
    got = empirical_los_probability(link, city, placement, n, rng)
    ref_rng = np.random.default_rng(seed)
    p_ref, se_ref, totals = _bincount_reference(link, city, placement, n, ref_rng)
    assert got == (p_ref, se_ref)
    # same draws, in the same order: every later draw of a sweep is unchanged
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # each case covers what its id names
    if case == "empty-axis":
        _, _, (za_y, zb_y) = _link_limits(link, *effective_widths(city, placement))
        assert not za_y < zb_y and totals[1] is None
    elif case == "shrub-nothing-hit":
        assert got == (1.0, 0.0)
    elif case == "sideless-draws":
        assert 0.0 < p_ref < 1.0
    elif case == "axis-draws-no-sides":
        assert totals[0] > 0 and totals[1] == 0


def test_draws_over_the_bound_are_refused_before_drawing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for n in (0, MAX_DRAWS + 1):
        with pytest.raises(ValueError, match="n_draws"):
            empirical_los_probability(OBLIQUE, URBAN, Placement.INTERSECTION, n, rng)
        with pytest.raises(ValueError, match="n_draws"):
            validation_sweep(cases=1, n=n)
    # a long link expects 2.4e9 sides at the bound on draws
    far = LinkGeometry(d=1e5, phi=0.7, h_uav=120.0, h_v=10.0)
    with pytest.raises(ValueError, match="building sides"):
        empirical_los_probability(far, URBAN, Placement.INTERSECTION, MAX_DRAWS, rng)
    assert rng.bit_generator.state == state


def test_sides_over_the_bound_are_refused_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a case of a refused sweep")

    monkeypatch.setattr(oracle, "empirical_los_probability", no_draw)
    with pytest.raises(ValueError, match="building sides"):
        validation_sweep(cases=1, n=100_000, r_max=1e6)
    # the bound on draws at the default r_max stays allowed
    monkeypatch.setattr(oracle, "empirical_los_probability", lambda *args: (0.5, 0.0))
    assert len(validation_sweep(cases=6, n=MAX_DRAWS, r_max=250.0)) == 6


def test_empirical_street_below_intersection():
    # the street's axis intervals contain the intersection's, so the same
    # seed does not give the same sides; the closed forms sit 0.49 apart
    lk = LinkGeometry(d=120.0, phi=0.4, h_uav=120.0, h_v=10.0)
    p_sec, se_sec = empirical_los_probability(lk, URBAN, Placement.INTERSECTION, 4000, np.random.default_rng(21))
    p_str, se_str = empirical_los_probability(lk, URBAN, Placement.STREET, 4000, np.random.default_rng(21))
    assert p_sec - p_str > 6.0 * math.hypot(se_sec, se_str)


def test_empirical_saturates_when_buildings_cannot_reach():
    p, se = empirical_los_probability(OBLIQUE, SHRUB, Placement.INTERSECTION, 2000, np.random.default_rng(2))
    assert (p, se) == (1.0, 0.0)


def test_validation_sweep_coverage_and_determinism():
    results = validation_sweep(cases=12, n=20_000, seed=5)
    assert len(results) == 12
    assert {r.preset for r in results} == {"suburban", "urban", "dense-urban"}
    assert {r.placement for r in results} == {Placement.INTERSECTION, Placement.STREET}
    for r in results:
        assert 0.0 <= r.p_analytic <= 1.0
        assert 0.0 <= r.p_oracle <= 1.0
    assert sum(1 for r in results if not r.passed) <= 1
    again = validation_sweep(cases=12, n=20_000, seed=5)
    assert [r.p_oracle for r in again] == [r.p_oracle for r in results]


def test_validation_rows_do_not_depend_on_the_case_count():
    few = validation_sweep(cases=12, n=2000, seed=7)
    assert few == validation_sweep(cases=30, n=2000, seed=7)[:12]


def test_validation_case_reruns_alone_from_its_stream():
    seed, n, r_max, h_v = 7, 2000, 250.0, 10.0
    for row in validation_sweep(cases=8, n=n, seed=seed, r_max=r_max, h_v=h_v)[5:]:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, row.case_id], dtype=np.uint64)))
        h_uav = rng.uniform(h_v + 1.0, h_v + ground_range(r_max, 20.0, 0.0))
        d = rng.uniform(10.0, ground_range(r_max, h_uav, h_v))
        phi = rng.uniform(0.0, 0.5 * math.pi)
        assert (d, phi, h_uav) == (row.d, row.phi, row.h_uav)
        link = LinkGeometry(d=d, phi=phi, h_uav=h_uav, h_v=h_v)
        p, _ = empirical_los_probability(link, PRESETS[row.preset], row.placement, n, rng)
        assert p == row.p_oracle


def test_validation_seed_range(monkeypatch):
    for seed in (0, 2**64 - 1):
        assert len(validation_sweep(cases=2, n=100, seed=seed)) == 2

    def no_draw(*args):
        raise AssertionError("drew a case of a refused sweep")

    monkeypatch.setattr(oracle, "empirical_los_probability", no_draw)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            validation_sweep(cases=1, n=100, seed=seed)
