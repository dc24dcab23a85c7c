import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import uavgrid.oracle as oracle
from uavgrid.geometry import PRESETS, CityModel, HeightDistribution, ground_range
from uavgrid.los import (
    LinkGeometry,
    Placement,
    _link_limits,
    effective_widths,
    los_probability,
    los_probability_batch,
)
from uavgrid.oracle import MAX_CASES, MAX_DRAWS, empirical_los_probability, validation_sweep

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
    _, (za, zb), _ = _link_limits(lk, *effective_widths(URBAN, Placement.INTERSECTION))
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
    _, _, (za_street, _) = _link_limits(lk, *effective_widths(URBAN, Placement.STREET))
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
# over the urban preset the ray passes h_max at 8% of either axis's zb
HIGH_UAV = LinkGeometry(d=200.0, phi=0.6, h_uav=240.0, h_v=10.0)


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
    # the ray passes h_max within the first quarter of both axes: the oracle
    # draws sides on (za, top) alone, the tracer on all of [0, extent]
    "high-uav": (HIGH_UAV, URBAN, Placement.INTERSECTION),
}


@pytest.mark.parametrize("case", sorted(PLAIN_LOOP))
def test_empirical_matches_plain_loop(case):
    """Vectorized counting agrees with a one-draw-at-a-time loop."""
    lk, city, placement = PLAIN_LOOP[case]
    if case == "high-uav":
        _, *limits = _link_limits(lk, *effective_widths(city, placement))
        for za, zb in limits:
            assert za < oracle._side_top(lk, city.heights, zb) < 0.25 * zb
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

    Draws exactly what empirical_los_probability draws, in its order: nothing
    when h0 < h_min, else the n corner heights unless h0 >= h_max, then per
    axis with za < top the superposed count on (za, top), the positions, the
    heights and one draw label per hit.  Returns (p_hat, se, each axis's
    total sides, each axis's top), with None for an axis that draws nothing.
    """
    h0, limits_x, limits_y = _link_limits(link, *effective_widths(city, placement))
    h_min, h_max = city.heights.h_min, city.heights.h_max
    if h0 < h_min:
        return 0.0, 0.0, [None, None], [None, None]
    blocked = np.zeros(n, dtype=bool)
    if h0 < h_max:
        blocked = city.heights.sample(rng, n) > h0
    totals, tops = [], []
    for za, zb in (limits_x, limits_y):
        top = min(zb, (h_max - link.h_v) * zb / link.delta_h * (1.0 + 2.0**-40))
        if not za < top:
            totals.append(None)
            tops.append(None)
            continue
        total = rng.poisson(n * city.lambda_s * (top - za))
        pos = rng.uniform(za, top, total)
        height = city.heights.sample(rng, total)
        inside = (pos > za) & (pos < zb)
        crit = pos * link.delta_h / zb + link.h_v
        hit = inside & (height > crit)
        labels = rng.integers(0, n, int(hit.sum()))
        blocked |= np.bincount(labels, minlength=n) > 0
        totals.append(int(total))
        tops.append(top)
    p_hat = float(1.0 - blocked.mean())
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n), totals, tops


# id -> (link, city, placement, n, seed)
BIT_FOR_BIT = {
    "intersection": (OBLIQUE, URBAN, Placement.INTERSECTION, 3000, 8),
    "street": (OBLIQUE, URBAN, Placement.STREET, 3000, 8),
    "empty-axis": (ALONG_X, URBAN, Placement.STREET, 3000, 5),
    "shrub-nothing-hit": (OBLIQUE, SHRUB, Placement.INTERSECTION, 500, 2),
    "n-1": (OBLIQUE, PRESETS["dense-urban"], Placement.STREET, 1, 3),
    "sideless-draws": (LinkGeometry(d=60.0, phi=0.3, h_uav=40.0, h_v=10.0),
                       PRESETS["dense-urban"], Placement.INTERSECTION, 2000, 11),
    # phi = 1e-6 mid-block: the y interval is 1.2e-4 m long and cut at
    # 2.0e-5 m, so it is drawn but expects 7e-4 sides
    "axis-draws-no-sides": (LinkGeometry(d=120.0, phi=1e-6, h_uav=120.0, h_v=10.0), URBAN,
                            Placement.STREET, 3000, 5),
    # the ray stays below h_min = 12.5 m up to the corner (h0 = 10.2 m)
    "corner-always-blocks": (LinkGeometry(d=200.0, phi=0.7, h_uav=12.0, h_v=10.0),
                             PRESETS["dense-urban"], Placement.INTERSECTION, 2000, 4),
    "cut-inside-interval": (HIGH_UAV, URBAN, Placement.INTERSECTION, 3000, 13),
}


@pytest.mark.parametrize("case", sorted(BIT_FOR_BIT))
def test_empirical_matches_bincount_reference_bit_for_bit(case):
    link, city, placement, n, seed = BIT_FOR_BIT[case]
    rng = np.random.default_rng(seed)
    got = empirical_los_probability(link, city, placement, n, rng)
    ref_rng = np.random.default_rng(seed)
    p_ref, se_ref, totals, tops = _bincount_reference(link, city, placement, n, ref_rng)
    assert got == (p_ref, se_ref)
    # same draws, in the same order: every later draw of a sweep is unchanged
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # each case covers what its id names
    h0, *limits = _link_limits(link, *effective_widths(city, placement))
    if case == "empty-axis":
        za_y, zb_y = limits[1]
        assert not za_y < zb_y and totals[1] is None
    elif case == "shrub-nothing-hit":
        # h0 and every ray height lie above h_max: nothing is drawn at all
        assert got == (1.0, 0.0)
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    elif case == "sideless-draws":
        assert 0.0 < p_ref < 1.0
    elif case == "axis-draws-no-sides":
        assert totals[0] > 0 and totals[1] == 0
    elif case == "corner-always-blocks":
        assert h0 < city.heights.h_min
        assert got == (0.0, 0.0)
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    elif case == "cut-inside-interval":
        for (za, zb), top, total in zip(limits, tops, totals):
            assert za < top < zb and total > 0
        assert 0.0 < p_ref < 1.0


def test_side_cut_is_conservative_and_not_early():
    """A side of height h_max at or past the drawn top never blocks the ray.

    And one just short of the exact cut (h_max - h_v) * zb / delta_h does,
    wherever that cut lies inside (za, zb).  Checked with the oracle's own
    hit expression over every preset and placement.
    """
    cut_inside = 0
    for name, placement, h_v, delta_h, phi, d in itertools.product(
        PRESETS, Placement, (0.0, 1.5, 10.0), (0.5, 1.0, 3.7, 10.0, 18.5, 47.0, 120.0, 240.0),
        (0.0, 1e-6, 0.4, 1.1, 0.5 * math.pi), (10.0, 37.3, 120.0, 249.0),
    ):
        city = PRESETS[name]
        h_max = city.heights.h_max
        link = LinkGeometry(d=d, phi=phi, h_uav=h_v + delta_h, h_v=h_v)
        _, *limits = _link_limits(link, *effective_widths(city, placement))
        for za, zb in limits:
            if not za < zb:
                continue

            def hit(pos):
                return (h_max > pos * link.delta_h / zb + link.h_v) & (pos > za) & (pos < zb)

            top = oracle._side_top(link, city.heights, zb)
            past = np.concatenate([
                top + np.arange(64) * np.spacing(top),
                np.linspace(top, zb, 257),
                [np.nextafter(zb, 0.0)],
            ])
            past = past[(past >= top) & (past < zb)]
            assert not hit(past).any(), (name, placement, link, za, zb, top)
            cut = (h_max - h_v) * zb / delta_h
            if za < (1.0 - 1e-6) * cut and cut < zb:
                cut_inside += 1
                assert hit((1.0 - 1e-6) * cut), (name, placement, link, za, zb, cut)
    # the cut falls inside the interval on a good share of these axes
    assert cut_inside > 500


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


def test_non_integer_counts_and_seeds_are_refused_before_drawing(monkeypatch):
    """A float is refused even when integral: seed 1.5 would run seed 1's rows."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for n in (200.0, 200.5, np.float64(200.0), "200", None, True):
        with pytest.raises(ValueError, match="n_draws"):
            empirical_los_probability(OBLIQUE, URBAN, Placement.INTERSECTION, n, rng)
    assert rng.bit_generator.state == state

    def no_draw(*args):
        raise AssertionError("drew a case of a refused sweep")

    monkeypatch.setattr(oracle, "empirical_los_probability", no_draw)
    for name, bad in (("seed", {"seed": 1.5}), ("seed", {"seed": np.float64(3.0)}),
                      ("cases", {"cases": 2.5}), ("cases", {"cases": 2.0}),
                      ("n_draws", {"n": 200.5}), ("n_draws", {"n": 200.0}),
                      ("cases", {"cases": True})):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            validation_sweep(**{"cases": 2, "n": 200, "seed": 1, **bad})
    # numpy integers are integers
    monkeypatch.setattr(oracle, "empirical_los_probability", lambda *args: (0.5, 0.0))
    assert validation_sweep(cases=np.int64(2), n=np.uint32(200), seed=np.uint64(2**64 - 1)) == \
        validation_sweep(cases=2, n=200, seed=2**64 - 1)


def test_cases_over_the_bound_are_refused_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a case of a refused sweep")

    monkeypatch.setattr(oracle, "empirical_los_probability", no_draw)
    for cases in (0, -1, MAX_CASES + 1, 10**9):
        with pytest.raises(ValueError, match="cases"):
            validation_sweep(cases=cases, n=1)
    monkeypatch.setattr(oracle, "empirical_los_probability", lambda *args: (0.5, 0.0))
    assert len(validation_sweep(cases=3, n=1)) == 3


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
    """Every row is what a fresh Generator(Philox(key=(seed, k))) draws for case k alone."""
    n, r_max, h_v = 2000, 250.0, 10.0
    corner_draws = skipped_axes = 0
    for seed in (7, 2**64 - 1):
        for row in validation_sweep(cases=24, n=n, seed=seed, r_max=r_max, h_v=h_v):
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, row.case_id],
                                                                    dtype=np.uint64)))
            h_uav = rng.uniform(h_v + 1.0, h_v + ground_range(r_max, 20.0, 0.0))
            d = rng.uniform(10.0, ground_range(r_max, h_uav, h_v))
            phi = rng.uniform(0.0, 0.5 * math.pi)
            assert (d, phi, h_uav) == (row.d, row.phi, row.h_uav)
            link = LinkGeometry(d=d, phi=phi, h_uav=h_uav, h_v=h_v)
            city = PRESETS[row.preset]
            p = los_probability_batch([link.d], [link.cos_phi], [link.sin_phi], h_uav, h_v, city,
                                      row.placement)
            assert p.tobytes() == np.float64(row.p_analytic).tobytes()
            p_hat, _ = empirical_los_probability(link, city, row.placement, n, rng)
            assert type(p_hat) is float and p_hat == row.p_oracle
            # the paths a case may take: corner heights drawn, an axis skipped
            h0, *limits = _link_limits(link, *effective_widths(city, row.placement))
            corner_draws += city.heights.h_min <= h0 < city.heights.h_max
            skipped_axes += any(not za < oracle._side_top(link, city.heights, zb)
                                for za, zb in limits)
    assert corner_draws > 0 and skipped_axes > 0


def test_validation_seed_range(monkeypatch):
    for seed in (0, 2**64 - 1):
        assert len(validation_sweep(cases=2, n=100, seed=seed)) == 2

    def no_draw(*args):
        raise AssertionError("drew a case of a refused sweep")

    monkeypatch.setattr(oracle, "empirical_los_probability", no_draw)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            validation_sweep(cases=1, n=100, seed=seed)
