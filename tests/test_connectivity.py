import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavgrid.connectivity as connectivity
from uavgrid.connectivity import (
    EmpiricalDistribution,
    EnvelopeDraw,
    PlacementMode,
    ScenarioConfig,
    _chunk_bounds,
    _chunk_layout,
    _chunk_outage_counts,
    _chunk_score_arrays,
    _draw_chunk,
    _lay_out,
    _map_tasks,
    estimate_distribution,
    mixture_cdf,
    outage_grid,
)
from uavgrid.geometry import (
    PRESETS,
    InvalidGeometryError,
    RadioParams,
    SamplingEnvelope,
    ground_range,
    intersection_weight,
    sample_envelope_points,
)
from uavgrid.los import LinkGeometry, Placement, los_probability, los_probability_batch

URBAN = PRESETS["urban"]
RADIO = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20e-6)
PLACEMENTS = (Placement.INTERSECTION, Placement.STREET)


def _layout(*rows):
    """The chunk layout of hand-given realizations: one row of (d, phi) links each, in mark order."""
    width = max([len(row) for row in rows] + [1])
    links = [(d, phi, (k + 1) / (width + 1)) for row in rows for k, (d, phi) in enumerate(row)]
    d, phi, mark = np.array(links, dtype=float).reshape(-1, 3).T
    return _lay_out(d, phi, mark, np.array([len(row) for row in rows]), 1.0)


def _scores(*rows):
    """Connectivity 1 - prod(1 - p_LoS) of each row under RADIO, per placement in PLACEMENTS."""
    return _chunk_score_arrays((_layout(*rows), URBAN, RADIO.h_v, RADIO.r_max, [RADIO.h_uav], PLACEMENTS))


def _p(d, phi, placement):
    return los_probability(LinkGeometry(d=d, phi=phi, h_uav=100.0, h_v=10.0), URBAN, placement)


def _caps(env):
    """An envelope's caps as the lambda_cap and d_cap arguments."""
    return {"lambda_cap": env.lambda_cap, "d_cap": env.d_cap}


def test_conditional_connectivity_empty_is_zero():
    assert np.array_equal(_scores([]), np.zeros((2, 1)))


def test_conditional_connectivity_single_uav():
    got = _scores([(150.0, 1.0)])
    for ip, pl in enumerate(PLACEMENTS):
        assert got[ip, 0] == pytest.approx(_p(150.0, 1.0, pl), rel=1e-15)


def test_conditional_connectivity_two_uav_product():
    pairs = [(150.0, 1.0), (90.0, 0.4)]
    got = _scores(pairs)
    for ip, pl in enumerate(PLACEMENTS):
        ps = [_p(d, phi, pl) for d, phi in pairs]
        want = 1.0 - (1.0 - ps[0]) * (1.0 - ps[1])
        assert got[ip, 0] == pytest.approx(want, rel=1e-15)


def test_adding_a_uav_never_hurts():
    base = [(150.0, 1.0), (90.0, 0.4)]
    # realizations of one chunk, scored side by side
    a, b = _scores(base, base + [(60.0, 2.5)]).T
    assert np.all(b >= a)


def test_empirical_distribution_evaluate():
    dist = EmpiricalDistribution(samples=np.array([0.2, 0.4, 0.4, 0.8]))
    assert dist.n == 4
    assert dist.evaluate(0.1) == 0.0
    assert dist.evaluate(0.2) == 0.25
    assert dist.evaluate(0.39999) == 0.25
    assert dist.evaluate(0.4) == 0.75
    assert dist.evaluate(1.0) == 1.0
    np.testing.assert_allclose(dist.evaluate(np.array([0.2, 0.5])), [0.25, 0.75])


def test_scenario_config_validation():
    for bad in ({"n_realizations": 0}, {"workers": 0}, {"seed": -1}, {"seed": 2**64}):
        with pytest.raises(ValueError):
            ScenarioConfig(city=URBAN, radio=RADIO, **{"n_realizations": 10, **bad})


def _fresh_stream(seed, index):
    # the reference construction: a new generator per realization
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def test_estimate_matches_scalar_pipeline(monkeypatch):
    """The chunked batch estimator reproduces a per-realization loop."""
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 100)
    n = 256
    d_max = ground_range(RADIO.r_max, RADIO.h_uav, RADIO.h_v)
    tight = SamplingEnvelope(lambda_cap=RADIO.lambda_uav, d_cap=d_max)
    # lambda < lambda_cap and d_max < d_cap: both filters of the envelope act
    loose = SamplingEnvelope(lambda_cap=2.5 * RADIO.lambda_uav, d_cap=d_max + 20.0)
    for env in (tight, loose):
        cfg = ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=n, seed=42, **_caps(env))
        dists = estimate_distribution(cfg)
        scores = {pl: [] for pl in PLACEMENTS}
        for i in range(n):
            d, phi, mark = sample_envelope_points(env, _fresh_stream(42, i))
            keep = (mark < RADIO.lambda_uav / env.lambda_cap) & (d <= d_max)
            # the layout row's order: by mark, equal marks in draw order
            order = np.argsort(mark[keep], kind="stable")
            d, phi = d[keep][order], phi[keep][order]
            for pl in scores:
                p = los_probability_batch(d, np.abs(np.cos(phi)), np.abs(np.sin(phi)),
                                          RADIO.h_uav, RADIO.h_v, URBAN, pl)
                survival = 1.0
                for f in 1.0 - p:
                    survival *= f
                scores[pl].append(1.0 - survival)
        for pl, dist in dists.items():
            assert dist.n == n
            assert np.array_equal(np.sort(scores[pl]), dist.samples)


def test_layout_lists_points_by_distance_with_folded_cosines():
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=200.0)
    d, phi, mark, counts = _draw_chunk(env, 3, 0, 64)
    layout = _lay_out(d, phi, mark, counts, 0.6)
    assert np.all(np.diff(layout.d) >= 0.0)
    # each listed point is the drawn point at its slot's (realization, mark)
    realizations = layout.marks.shape[1]
    ridx = np.repeat(np.arange(counts.size), counts)
    drawn = {(int(i), float(m)): (dk, pk) for i, m, dk, pk in zip(ridx, mark, d, phi) if m < 0.6}
    listed = [(int(s) % realizations, float(layout.marks.flat[s])) for s in layout.slot]
    assert 0 < len(drawn) == len(set(listed)) == len(listed) and set(listed) == set(drawn)
    want = np.array([drawn[key] for key in listed])
    assert np.array_equal(layout.d, want[:, 0])
    assert np.array_equal(layout.cos_phi, np.abs(np.cos(want[:, 1])))
    assert np.array_equal(layout.sin_phi, np.abs(np.sin(want[:, 1])))
    # scoring shares the layout across heights and placements and never writes it
    kept = [a.copy() for a in layout]
    _chunk_score_arrays((layout, URBAN, RADIO.h_v, RADIO.r_max, [60.0, 140.0], PLACEMENTS))
    assert all(np.array_equal(a, b) for a, b in zip(layout, kept))


def test_layout_ignores_the_draw_order_of_distinct_marks():
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=200.0)
    d, phi, mark, counts = _draw_chunk(env, 5, 0, 64)
    rows = np.split(np.arange(d.size), np.cumsum(counts)[:-1])
    assert all(np.unique(mark[row]).size == row.size for row in rows)
    shuffle = np.random.default_rng(8)
    perm = np.concatenate([shuffle.permutation(row) for row in rows])
    assert not np.array_equal(perm, np.arange(d.size))
    for frac_top in (0.6, 1.0):
        want = _lay_out(d, phi, mark, counts, frac_top)
        got = _lay_out(d[perm], phi[perm], mark[perm], counts, frac_top)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_height_prefix_is_the_disk_mask():
    dz = RADIO.h_uav - RADIO.h_v
    r_h = math.sqrt(RADIO.r_max * RADIO.r_max - dz * dz)  # as the scorer computes it
    past = float(np.nextafter(r_h, math.inf))
    # a link exactly on the disk edge, one just past it, and two at equal distance
    layout = _layout([(past, 0.3), (120.0, 1.0), (r_h, 0.3)], [(120.0, 2.0)], [(past, 0.3)], [(r_h, 0.3)])
    k = np.searchsorted(layout.d, r_h, side="right")
    assert sorted(layout.slot[:k]) == sorted(layout.slot[layout.d <= r_h])
    assert k == 4 and r_h in layout.d[:k] and past not in layout.d[:k]
    scores = _scores([(past, 0.3)], [(r_h, 0.3)])
    assert np.all(scores[:, 0] == 0.0) and np.all(scores[:, 1] > 0.0)


def _row_major_reduction(layout, city, h_v, r_max, height_values, placements, fracs, gamma_th):
    """The reference reduction: outage counts and scores of one chunk, computed on the
    realization x rank transpose of its layout with np.multiply.accumulate along each
    row and a where= min for each row's crossing mark."""
    m = layout.marks.shape[1]
    marks = layout.marks[:-1].T  # without the sentinel rank
    width = marks.shape[1]
    slot = (layout.slot % m) * width + layout.slot // m
    counts = np.zeros((len(placements), fracs.size, len(height_values)), dtype=np.int64)
    scores = []
    for j, h in enumerate(height_values):
        k = int(np.searchsorted(layout.d, ground_range(r_max, h, h_v), side="right"))
        for ip, placement in enumerate(placements):
            p = los_probability_batch(layout.d[:k], layout.cos_phi[:k], layout.sin_phi[:k],
                                      h, h_v, city, placement)
            survival = np.ones((m, width))
            survival.reshape(-1)[slot[:k]] = 1.0 - p
            np.multiply.accumulate(survival, axis=1, out=survival)
            crossing = np.min(marks, axis=1, where=1.0 - survival > gamma_th, initial=np.inf)
            counts[ip, :, j] = m - np.searchsorted(np.sort(crossing), fracs)
            scores.append(1.0 - survival[:, -1])
    return counts, np.stack(scores)


def test_reduction_matches_row_major_reference_bit_for_bit():
    tight = SamplingEnvelope(lambda_cap=30e-6, d_cap=ground_range(RADIO.r_max, 50.0, RADIO.h_v))
    loose = SamplingEnvelope(lambda_cap=75e-6, d_cap=tight.d_cap + 20.0)
    layouts = [_chunk_layout(env, seed, 0, 300, frac_top)
               for seed in (1, 2, 3) for env, frac_top in ((tight, 1.0), (loose, 0.4))]
    # width 1, realizations with no points, and no points at all
    layouts += [_layout([], [(120.0, 0.3)], [], [(200.0, 1.1)]), _layout([], [])]
    assert layouts[-2].marks.shape == (2, 4) and layouts[-1].d.size == 0
    assert any(np.any(np.isinf(layout.marks[0])) for layout in layouts[:6])
    fracs = np.array([0.0, 0.05, 0.2, 0.4, 0.55, 1.0])
    for layout in layouts:
        assert np.all(np.isinf(layout.marks[-1]))
        # the last height's ground disk is narrower than the nearest point
        near = float(layout.d.min(initial=100.0))
        dz = math.sqrt(RADIO.r_max * RADIO.r_max - 0.25 * near * near)
        heights = [50.0, 100.0, 180.0, RADIO.h_v + dz]
        assert ground_range(RADIO.r_max, heights[-1], RADIO.h_v) < near
        spec = (URBAN, RADIO.h_v, RADIO.r_max, heights, PLACEMENTS)
        for gamma_th in (0.0, 0.8, 1.0):
            counts, scores = _row_major_reduction(layout, *spec, fracs, gamma_th)
            assert np.array_equal(_chunk_outage_counts((layout, *spec, fracs, gamma_th)), counts)
        assert np.array_equal(_chunk_score_arrays((layout, *spec)), scores)


def test_chunk_stream_matches_fresh_generators():
    """One reset Philox per chunk draws what a fresh generator per realization does."""
    # about 1.4 points per realization, so some realizations have none
    env = SamplingEnvelope(lambda_cap=8e-6, d_cap=240.0)
    want = [sample_envelope_points(env, _fresh_stream(31, i)) for i in range(50)]
    assert any(w[0].size == 0 for w in want) and any(w[0].size > 1 for w in want)
    for chunk in (1, 7, 50):
        parts = [_draw_chunk(env, 31, s, min(s + chunk, 50)) for s in range(0, 50, chunk)]
        counts = np.concatenate([p[3] for p in parts])
        assert counts.tolist() == [w[0].size for w in want]
        for k in range(3):
            got = np.concatenate([p[k] for p in parts])
            assert np.array_equal(got, np.concatenate([w[k] for w in want])), (chunk, k)


def test_zero_density_distribution_is_degenerate():
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    cfg = ScenarioConfig(city=URBAN, radio=radio, n_realizations=50, seed=0)
    for dist in estimate_distribution(cfg).values():
        assert np.all(dist.samples == 0.0)
        assert dist.evaluate(0.0) == 1.0
        assert dist.evaluate(0.8) == 1.0


def test_chunking_and_workers_do_not_change_samples(monkeypatch):
    a = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=9))
    c = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=9, workers=2))
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 257)
    b = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=9))
    for pl in a:
        assert np.array_equal(a[pl].samples, b[pl].samples)
        assert np.array_equal(a[pl].samples, c[pl].samples)


def test_intersection_placement_dominates():
    dists = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=2000, seed=17))
    sec = dists[Placement.INTERSECTION].samples
    street = dists[Placement.STREET].samples
    # realizationwise dominance survives sorting
    assert np.all(street <= sec)
    gammas = np.linspace(0.0, 1.0, 21)
    assert np.all(dists[Placement.INTERSECTION].evaluate(gammas) <= dists[Placement.STREET].evaluate(gammas))


def test_nesting_in_density_and_range():
    """A shared envelope couples scenarios: more density or range only helps."""
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=ground_range(RADIO.r_max, RADIO.h_uav, RADIO.h_v))
    hi = ScenarioConfig(city=URBAN, radio=RadioParams(250.0, 100.0, 10.0, 40e-6),
                        n_realizations=1500, seed=23, **_caps(env))
    lo = ScenarioConfig(city=URBAN, radio=RadioParams(250.0, 100.0, 10.0, 15e-6),
                        n_realizations=1500, seed=23, **_caps(env))
    short = ScenarioConfig(city=URBAN, radio=RadioParams(200.0, 100.0, 10.0, 40e-6),
                           n_realizations=1500, seed=23, **_caps(env))
    d_hi = estimate_distribution(hi)
    d_lo = estimate_distribution(lo)
    d_short = estimate_distribution(short)
    for pl in d_hi:
        assert np.all(d_lo[pl].samples <= d_hi[pl].samples)
        assert np.all(d_short[pl].samples <= d_hi[pl].samples)


def test_envelope_must_cover_scenario():
    """A scenario is carved out of its envelope, so both caps must cover it."""
    env = SamplingEnvelope(lambda_cap=10e-6, d_cap=200.0)
    over_lambda = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20e-6)
    over_range = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=10e-6)
    assert ground_range(over_range.r_max, over_range.h_uav, over_range.h_v) > env.d_cap
    for radio in (over_lambda, over_range):
        cfg = ScenarioConfig(city=URBAN, radio=radio, n_realizations=10, seed=0, **_caps(env))
        with pytest.raises(InvalidGeometryError):
            estimate_distribution(cfg)
        with pytest.raises(InvalidGeometryError):
            outage_grid(URBAN, radio.r_max, radio.h_v, [radio.lambda_uav], [radio.h_uav], 0.8, 10, 0,
                        **_caps(env))
    # at the caps themselves the scenario is covered
    at_caps = SamplingEnvelope(lambda_cap=10e-6,
                               d_cap=ground_range(over_range.r_max, over_range.h_uav, over_range.h_v))
    estimate_distribution(ScenarioConfig(city=URBAN, radio=over_range, n_realizations=10, seed=0,
                                         **_caps(at_caps)))
    outage_grid(URBAN, 250.0, 10.0, [10e-6], [100.0], 0.8, 10, 0, **_caps(at_caps))


def test_envelope_mean_count_is_bounded():
    """A realization draws at most MAX_ENVELOPE_POINTS UAVs on average, whichever cap sets it."""
    d_top = ground_range(250.0, 100.0, 10.0)
    lam = connectivity.MAX_ENVELOPE_POINTS / (math.pi * d_top * d_top)
    below = 0.999 * lam
    *_, envelope = connectivity._scenario(250.0, 10.0, [below], [100.0])
    assert envelope.mean_count <= connectivity.MAX_ENVELOPE_POINTS
    for densities, caps in (([1.01 * lam], {}),
                            ([below], {"lambda_cap": 1.01 * lam}),
                            ([below], {"d_cap": 1.01 * d_top})):
        with pytest.raises(InvalidGeometryError, match="UAVs per realization"):
            connectivity._scenario(250.0, 10.0, densities, [100.0], **caps)


def test_zero_density_draws_nothing_but_checks_given_caps(monkeypatch):
    """At density 0 no realization has a UAV: nothing is drawn, whatever the caps."""
    def no_draw(*args):
        raise AssertionError("drew an envelope at density 0")

    monkeypatch.setattr(connectivity, "_draw_chunk", no_draw)
    grid = outage_grid(URBAN, 250.0, 10.0, [0.0], [100.0], 0.8, 1000, 0, lambda_cap=10e-6)
    assert np.array_equal(grid, [[1.0]])
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    dists = estimate_distribution(ScenarioConfig(city=URBAN, radio=radio, n_realizations=1000,
                                                 seed=0, lambda_cap=10e-6, d_cap=300.0))
    for dist in dists.values():
        assert np.array_equal(dist.samples, np.zeros(1000))
    # given caps are still checked: a 50 m disk cap does not cover the 233 m disk
    for caps in ({"d_cap": 50.0}, {"lambda_cap": 0.0}, {"d_cap": math.nan}):
        with pytest.raises(InvalidGeometryError):
            outage_grid(URBAN, 250.0, 10.0, [0.0], [100.0], 0.8, 10, 0, **caps)
        with pytest.raises(InvalidGeometryError):
            estimate_distribution(ScenarioConfig(city=URBAN, radio=radio, n_realizations=10,
                                                 seed=0, **caps))
    # the UAVs must fly above the vehicle at every density
    level = RadioParams(r_max=250.0, h_uav=10.0, h_v=10.0, lambda_uav=0.0)
    with pytest.raises(InvalidGeometryError):
        estimate_distribution(ScenarioConfig(city=URBAN, radio=level, n_realizations=10, seed=0))


def test_grid_and_distribution_draw_from_one_default_envelope(monkeypatch):
    """Without caps both pipelines carve the same envelope, bit for bit."""
    seen = []

    def record(envelope, *args):
        seen.append(envelope)
        return draw_chunk(envelope, *args)

    draw_chunk = connectivity._draw_chunk
    monkeypatch.setattr(connectivity, "_draw_chunk", record)
    h = 105.97  # (h - h_v) ** 2 and dz * dz round one ulp apart here
    outage_grid(URBAN, 250.0, 10.0, [20e-6], [h], 0.8, 10, 0)
    radio = RadioParams(r_max=250.0, h_uav=h, h_v=10.0, lambda_uav=20e-6)
    estimate_distribution(ScenarioConfig(city=URBAN, radio=radio, n_realizations=10, seed=0))
    assert len(seen) == 2 and seen[0] == seen[1]
    assert seen[0].d_cap == ground_range(250.0, h, 10.0)


def test_mixture_weight_and_ordering():
    dists = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=1000, seed=3))
    mix = mixture_cdf(dists[Placement.INTERSECTION], dists[Placement.STREET], URBAN)
    assert mix.weight == pytest.approx(13.0 / 58.0)
    g = 0.8
    want = mix.weight * dists[Placement.INTERSECTION].evaluate(g) \
        + (1.0 - mix.weight) * dists[Placement.STREET].evaluate(g)
    assert mix.evaluate(g) == want
    assert dists[Placement.INTERSECTION].evaluate(g) <= mix.evaluate(g) <= dists[Placement.STREET].evaluate(g)


def test_outage_threshold_validation():
    # outage at gamma_th counts the scores <= gamma_th: a score at the threshold is in outage
    dist = EmpiricalDistribution(samples=np.array([0.5]))
    assert dist.evaluate(0.5) == 1.0
    assert dist.evaluate(0.49) == 0.0


def test_outage_grid_matches_distribution_pipeline():
    n = 500
    heights = [100.0, 160.0]
    d_max = ground_range(RADIO.r_max, RADIO.h_uav, RADIO.h_v)
    tight = SamplingEnvelope(lambda_cap=RADIO.lambda_uav, d_cap=d_max)
    # lambda < lambda_cap and d_max < d_cap: both filters of the envelope act
    loose = SamplingEnvelope(lambda_cap=2.5 * RADIO.lambda_uav, d_cap=d_max + 20.0)
    for env in (tight, loose):
        # zero, interior and the envelope's own cap: empty, partial and full mark prefixes
        lams = [0.0, 0.4 * env.lambda_cap, env.lambda_cap]
        cells = {}
        for i, lam in enumerate(lams):
            for j, h in enumerate(heights):
                radio = RadioParams(r_max=250.0, h_uav=h, h_v=10.0, lambda_uav=lam)
                cells[i, j] = estimate_distribution(
                    ScenarioConfig(city=URBAN, radio=radio, n_realizations=n, seed=6, **_caps(env)))
        w = intersection_weight(URBAN)
        for gamma_th in (0.0, 0.8, 1.0):
            grid = outage_grid(URBAN, 250.0, 10.0, lams, heights, gamma_th, n, 6, **_caps(env))
            assert grid.shape == (len(lams), len(heights))
            single = {mode.placements[0]: outage_grid(URBAN, 250.0, 10.0, lams, heights, gamma_th,
                                                      n, 6, placement_mode=mode, **_caps(env))
                      for mode in (PlacementMode.INTERSECTION_ONLY, PlacementMode.STREET_ONLY)}
            # the mixture blends the two single-placement grids with the same arithmetic
            assert np.array_equal(grid, w * single[Placement.INTERSECTION]
                                  + (1.0 - w) * single[Placement.STREET])
            for (i, j), dists in cells.items():
                mix = mixture_cdf(dists[Placement.INTERSECTION], dists[Placement.STREET], URBAN)
                assert grid[i, j] == mix.evaluate(gamma_th), (env, i, j, gamma_th)
                for placement, values in single.items():
                    assert values[i, j] == dists[placement].evaluate(gamma_th), (env, placement, i, j)


def test_outage_grid_worker_invariance(monkeypatch):
    hts = [80.0, 140.0]
    # the last case leaves most realizations, and so most one-realization
    # chunks, without a single envelope point
    for lam, n, chunk_size in (([10e-6, 25e-6], 2000, 333), ([1e-6, 3e-6], 400, 1)):
        a = outage_grid(URBAN, 250.0, 10.0, lam, hts, 0.8, n, 5)
        with monkeypatch.context() as m:
            m.setattr(connectivity, "CHUNK_SIZE", chunk_size)
            b = outage_grid(URBAN, 250.0, 10.0, lam, hts, 0.8, n, 5, workers=2)
        assert np.array_equal(a, b)


def test_outage_grid_validates_inputs():
    with pytest.raises(ValueError):
        outage_grid(URBAN, 250.0, 10.0, [], [100.0], 0.8, 10, 0)
    with pytest.raises(InvalidGeometryError):
        outage_grid(URBAN, 250.0, 10.0, [1e-5], [5.0], 0.8, 10, 0)
    with pytest.raises(InvalidGeometryError):
        outage_grid(URBAN, 250.0, 10.0, [1e-5], [300.0], 0.8, 10, 0)
    with pytest.raises(ValueError):
        outage_grid(URBAN, 250.0, 10.0, [1e-5], [100.0], 1.5, 10, 0)
    # the vehicle stands on the ground or above it: h_v < 0 would score certain LoS
    for h_v in (-5.0, math.nan, math.inf):
        with pytest.raises(InvalidGeometryError):
            outage_grid(URBAN, 250.0, h_v, [1e-5], [100.0], 0.8, 10, 0)
    too_many = connectivity.MAX_REALIZATIONS + 1
    for n, seed, extra in ((0, 0, {}), (too_many, 0, {}), (10, -1, {}), (10, 2**64, {}),
                           (10, 0, {"workers": 0})):
        with pytest.raises(ValueError):
            outage_grid(URBAN, 250.0, 10.0, [1e-5], [100.0], 0.8, n, seed, **extra)


def test_placement_mode_fails_closed(monkeypatch):
    """A mode's value runs as its member; any other value is refused before anything is drawn."""
    args = (URBAN, 250.0, 10.0, [10e-6, 25e-6], [60.0, 140.0], 0.8, 300, 3)
    for mode in PlacementMode:
        assert np.array_equal(outage_grid(*args, placement_mode=mode.value),
                              outage_grid(*args, placement_mode=mode))
    monkeypatch.setattr(connectivity, "_draw_chunk", None)
    for bad in (None, "street", "nowhere", Placement.STREET):
        with pytest.raises(ValueError):
            outage_grid(*args, placement_mode=bad)


def test_outage_grid_scores_a_shared_draw(monkeypatch):
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 256)
    env = SamplingEnvelope(lambda_cap=25e-6, d_cap=240.0)
    lams, hts = [10e-6, 25e-6], [80.0, 140.0]
    draw = EnvelopeDraw(env, 5, 700)
    assert draw.key == (env, 5, 700) and len(draw.layouts) == 3
    fresh = outage_grid(URBAN, 250.0, 10.0, lams, hts, 0.8, 700, 5, **_caps(env))
    for workers in (1, 2):
        shared = outage_grid(URBAN, 250.0, 10.0, lams, hts, 0.8, 700, 5, **_caps(env),
                             workers=workers, draw=draw)
        assert np.array_equal(shared, fresh)
    pooled = EnvelopeDraw(env, 5, 700, workers=2)
    assert np.array_equal(
        outage_grid(URBAN, 250.0, 10.0, lams, hts, 0.8, 700, 5, **_caps(env), draw=pooled), fresh)
    # the whole-envelope draw answers densities below the envelope's cap too
    low = outage_grid(URBAN, 250.0, 10.0, [10e-6], hts, 0.8, 700, 5, **_caps(env))
    assert np.array_equal(
        outage_grid(URBAN, 250.0, 10.0, [10e-6], hts, 0.8, 700, 5, **_caps(env), draw=draw), low)
    # a draw answers only the envelope, seed and n_realizations it was drawn for
    mismatched = (
        {"n_realizations": 600}, {"seed": 6},
        {"lambda_cap": 30e-6},
    )
    for change in mismatched:
        call = {"lambda_values": lams, "height_values": hts, "gamma_th": 0.8,
                "n_realizations": 700, "seed": 5, **_caps(env), **change}
        with pytest.raises(ValueError):
            outage_grid(URBAN, 250.0, 10.0, draw=draw, **call)
    for bad in ({"n_realizations": 0}, {"seed": -1}):
        with pytest.raises(ValueError):
            EnvelopeDraw(**{"envelope": env, "seed": 5, "n_realizations": 10, **bad})


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # _map_tasks imports the pool when it opens one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 1000)
    assert _map_tasks(abs, [-1, 2, -3], 64) == [1, 2, 3]
    # three chunks of 1000 realizations ask for three processes at most
    outage_grid(URBAN, 250.0, 10.0, [10e-6, 20e-6], [100.0], 0.8, 3000, 5, workers=64)
    estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=5,
                                         workers=2))
    assert sizes == [3, 3, 2]
    # a single task or a single worker never builds a pool
    _map_tasks(abs, [-1], 64)
    _map_tasks(abs, [-1, 2], 1)
    assert sizes == [3, 3, 2]


def test_dense_envelope_chunks_are_capped_by_points(monkeypatch):
    thin = SamplingEnvelope(lambda_cap=50e-6, d_cap=245.0)
    dense = SamplingEnvelope(lambda_cap=5000e-6, d_cap=245.0)
    assert thin.mean_count * connectivity.CHUNK_SIZE <= connectivity.MAX_CHUNK_POINTS
    assert _chunk_bounds(20000, thin) == [(0, 8192), (8192, 16384), (16384, 20000)]
    for env, n in ((dense, 10000), (dense, 1), (SamplingEnvelope(1e-12, 1.0), 5)):
        bounds = _chunk_bounds(n, env)
        # the chunks tile [0, n) in order, and each stays under the point cap
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == n
        for start, stop in bounds:
            assert 1 <= stop - start <= connectivity.CHUNK_SIZE
            assert (stop - start) * env.mean_count <= max(connectivity.MAX_CHUNK_POINTS,
                                                          env.mean_count)
    # the cell values do not depend on which cap sets the chunks
    env = SamplingEnvelope(lambda_cap=2000e-6, d_cap=100.0)  # about 63 UAVs per realization
    grid = ([20e-6, 100e-6, 2000e-6], [80.0, 120.0], 0.95, 300, 5)
    with monkeypatch.context() as m:
        m.setattr(connectivity, "MAX_CHUNK_POINTS", 1000)  # 15 realizations a chunk
        assert len(_chunk_bounds(300, env)) == 20
        by_points = outage_grid(URBAN, 120.0, 10.0, *grid, **_caps(env))
    with monkeypatch.context() as m:
        m.setattr(connectivity, "CHUNK_SIZE", 7)
        by_count = outage_grid(URBAN, 120.0, 10.0, *grid, **_caps(env))
    whole = outage_grid(URBAN, 120.0, 10.0, *grid, **_caps(env))
    assert by_points.tobytes() == by_count.tobytes() == whole.tobytes()


def test_a_one_worker_run_never_loads_multiprocessing():
    # a fresh interpreter, as this test process may have loaded it already
    src = str(Path(connectivity.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, uavgrid.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
