import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import uavgrid.connectivity as connectivity
import uavgrid.geometry as geometry
from uavgrid.connectivity import (
    ChunkLayout,
    PlacementMode,
    _chunk_outage_counts,
    _chunk_scores,
    _lay_out,
    _map_chunks,
    estimate_distribution,
    mixture_cdf,
    outage_grid,
)
from uavgrid.geometry import (
    PRESETS,
    PTRS_MEAN,
    InvalidGeometryError,
    SamplingEnvelope,
    ground_range,
    _philox_blocks,
    intersection_weight,
    sample_envelope_points,
)
from uavgrid.los import LinkGeometry, Placement, los_probability, los_probability_batch
from uavgrid.optimize import optimize_height, sweep_contour

URBAN = PRESETS["urban"]
SCENARIO = {"city": URBAN, "r_max": 250.0, "h_v": 10.0, "lambda_uav": 20e-6, "h_uav": 100.0}
PLACEMENTS = (Placement.INTERSECTION, Placement.STREET)


def _spec(height_values, placements=PLACEMENTS):
    """The chunk scorers' shared spec, by name, at SCENARIO's city, r_max and h_v."""
    return {"city": SCENARIO["city"], "r_max": SCENARIO["r_max"], "h_v": SCENARIO["h_v"],
            "height_values": height_values, "placements": placements}


def _layout(*rows):
    """The chunk layout of hand-given realizations: one row of (d, phi) links each, in mark order."""
    width = max([len(row) for row in rows] + [1])
    links = [(d, phi, (k + 1) / (width + 1)) for row in rows for k, (d, phi) in enumerate(row)]
    d, phi, mark = np.array(links, dtype=float).reshape(-1, 3).T
    return _lay_out(d, phi, mark, np.array([len(row) for row in rows]), 1.0)


def _score_arrays(layout, city, r_max, h_v, height_values, placements):
    """Scores 1 - prod(1 - p_LoS) per (placement, realization): the last-rank scores
    estimate_distribution counts when its grid has one density."""
    survival = _chunk_scores(layout, city, r_max, h_v, height_values, placements, last_only=True)
    return np.stack([1.0 - last for _, _, last in survival])


def _drawn(env, seed, n, frac_top):
    """The layout of realizations [0, n) of env drawn at seed, laid out below frac_top."""
    return _lay_out(*sample_envelope_points(env, seed, 0, n), frac_top)


def _scores(*rows):
    """Connectivity 1 - prod(1 - p_LoS) of each row under SCENARIO, per placement in PLACEMENTS."""
    return _score_arrays(_layout(*rows), **_spec([SCENARIO["h_uav"]]))


def _p(d, phi, placement):
    return los_probability(LinkGeometry(d=d, phi=phi, h_uav=100.0, h_v=10.0), URBAN, placement)


def _caps(env):
    """An envelope's caps as the lambda_cap and d_cap arguments."""
    return {"lambda_cap": env.lambda_cap, "d_cap": env.d_cap}


def _distribution(gammas, n_realizations, seed, **changes):
    """estimate_distribution's counts per (placement, gamma) at SCENARIO's cell, with changes."""
    cell = {**SCENARIO, **changes}
    lam, h = cell.pop("lambda_uav"), cell.pop("h_uav")
    return estimate_distribution(lambda_values=[lam], height_values=[h], gamma_values=gammas,
                                 n_realizations=n_realizations, seed=seed, **cell)[:, :, 0, 0]


def test_chunk_scores_empty_is_zero():
    assert np.array_equal(_scores([]), np.zeros((2, 1)))


def test_chunk_scores_single_uav():
    got = _scores([(150.0, 1.0)])
    for ip, pl in enumerate(PLACEMENTS):
        assert got[ip, 0] == pytest.approx(_p(150.0, 1.0, pl), rel=1e-15)


def test_chunk_scores_two_uav_product():
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
    """Counts divided by n are the right-continuous empirical CDF of the scores, on both paths."""
    rows = ([], [(150.0, 1.0)], [(150.0, 1.0)], [(150.0, 1.0), (90.0, 0.4)])
    layout = _layout(*rows)
    for ip, pl in enumerate(PLACEMENTS):
        zero, low, same, high = _scores(*rows)[ip]
        assert zero == 0.0 < low == same < high < 1.0
        gammas = np.array([0.0, np.nextafter(low, 0.0), low, (low + high) / 2, high, 1.0])
        spec = _spec([SCENARIO["h_uav"]], (pl,))
        for fracs in ([1.0], [0.2, 1.0]):
            counts = _chunk_outage_counts(layout, **spec, fracs=np.array(fracs), gammas=gammas)
            assert (counts[0, :, -1, 0] / 4).tolist() == [0.25, 0.25, 0.75, 0.75, 1.0, 1.0]


def test_scenario_config_validation():
    """A scenario's run (n_realizations, seed, workers) is refused when no run can use it."""
    for bad in ({"n_realizations": 0}, {"workers": 0}, {"seed": -1}, {"seed": 2**64},
                # a run parameter is an integer: 2.5 workers would reach the pool
                {"workers": 2.5}, {"workers": 2.0}, {"n_realizations": 1000.0},
                {"seed": 1.5}, {"seed": "0"}, {"workers": True}):
        with pytest.raises(ValueError):
            _distribution([0.8], **{"n_realizations": 10, "seed": 0, **bad})


def _fresh_stream(seed, index):
    # the reference construction: a new generator per realization
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _fresh_points(envelope, seed, index):
    """Realization index's envelope points as numpy's own generator draws them."""
    rng = _fresh_stream(seed, index)
    n = rng.poisson(envelope.mean_count)
    u = rng.random((n, 3))
    return envelope.d_cap * np.sqrt(u[:, 0]), 2.0 * math.pi * u[:, 1], u[:, 2]


def test_estimate_matches_scalar_pipeline(monkeypatch, realization_scores):
    """The chunked batch estimator reproduces a per-realization loop."""
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 100)
    n = 256
    lam, h_uav, r_max, h_v = (SCENARIO[k] for k in ("lambda_uav", "h_uav", "r_max", "h_v"))
    d_max = ground_range(r_max, h_uav, h_v)
    tight = SamplingEnvelope(lambda_cap=lam, d_cap=d_max)
    # lambda < lambda_cap and d_max < d_cap: both filters of the envelope act
    loose = SamplingEnvelope(lambda_cap=2.5 * lam, d_cap=d_max + 20.0)
    gammas = [0.0, 0.3, 0.8, 1.0]
    for env in (tight, loose):
        got = realization_scores(**SCENARIO, n_realizations=n, seed=42, **_caps(env))
        scores = {pl: [] for pl in PLACEMENTS}
        for i in range(n):
            d, phi, mark = _fresh_points(env, 42, i)
            keep = (mark < lam / env.lambda_cap) & (d <= d_max)
            # the layout row's order: by mark, equal marks in draw order
            order = np.argsort(mark[keep], kind="stable")
            d, phi = d[keep][order], phi[keep][order]
            for pl in scores:
                p = los_probability_batch(d, np.abs(np.cos(phi)), np.abs(np.sin(phi)),
                                          h_uav, h_v, URBAN, pl)
                survival = 1.0
                for f in 1.0 - p:
                    survival *= f
                scores[pl].append(1.0 - survival)
        # realization by realization, in realization order
        assert np.array_equal(got, [scores[pl] for pl in PLACEMENTS])
        # the counter counts the realizations whose score is at or below each gamma
        counts = _distribution(gammas, n, 42, **_caps(env))
        assert counts.tolist() == [[sum(x <= g for x in scores[pl]) for g in gammas]
                                   for pl in PLACEMENTS]


def test_layout_lists_points_by_distance_with_folded_cosines():
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=200.0)
    d, phi, mark, counts = sample_envelope_points(env, 3, 0, 64)
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
    _score_arrays(layout, **_spec([60.0, 140.0]))
    assert all(np.array_equal(a, b) for a, b in zip(layout, kept))


def test_layout_arrays_are_read_only():
    """Worker threads share a layout: a write to it fails instead of corrupting another cell."""
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=200.0)
    layout = _drawn(env, 3, 64, 0.6)
    kept = ChunkLayout(*(a.copy() for a in layout))
    for array in layout:
        with pytest.raises(ValueError):
            array[0] = array[0]
        with pytest.raises(ValueError):
            array += 0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(layout, kept))
    # scoring reads a read-only layout to the same bytes as a writable copy of it
    spec = _spec([60.0, 140.0])
    assert _score_arrays(layout, **spec).tobytes() == \
        _score_arrays(kept, **spec).tobytes()
    fracs = np.array([0.2, 0.6])
    gammas = np.array([0.8])
    assert _chunk_outage_counts(layout, **spec, fracs=fracs, gammas=gammas).tobytes() == \
        _chunk_outage_counts(kept, **spec, fracs=fracs, gammas=gammas).tobytes()


def test_layout_ignores_the_draw_order_of_distinct_marks():
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=200.0)
    d, phi, mark, counts = sample_envelope_points(env, 5, 0, 64)
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
    dz = SCENARIO["h_uav"] - SCENARIO["h_v"]
    r_h = math.sqrt(SCENARIO["r_max"] * SCENARIO["r_max"] - dz * dz)  # as the scorer computes it
    past = float(np.nextafter(r_h, math.inf))
    # a link exactly on the disk edge, one just past it, and two at equal distance
    layout = _layout([(past, 0.3), (120.0, 1.0), (r_h, 0.3)], [(120.0, 2.0)], [(past, 0.3)], [(r_h, 0.3)])
    k = np.searchsorted(layout.d, r_h, side="right")
    assert sorted(layout.slot[:k]) == sorted(layout.slot[layout.d <= r_h])
    assert k == 4 and r_h in layout.d[:k] and past not in layout.d[:k]
    scores = _scores([(past, 0.3)], [(r_h, 0.3)])
    assert np.all(scores[:, 0] == 0.0) and np.all(scores[:, 1] > 0.0)


def _stable_by_distance(layout):
    """The layout with equal distances in draw order, as a stable sort by distance lists them."""
    m = layout.marks.shape[1]
    # before the distance sort the points are listed realization by realization, then by rank
    order = np.lexsort((layout.slot // m, layout.slot % m, layout.d))
    return ChunkLayout(*(a[order] for a in layout[:4]), layout.marks)


def test_equal_distances_may_be_listed_in_any_order():
    """Points at one distance, on a height's disk edge, count and score alike in any order."""
    edge = ground_range(SCENARIO["r_max"], 160.0, SCENARIO["h_v"])
    assert edge == 200.0
    env = SamplingEnvelope(lambda_cap=60e-6, d_cap=240.0)
    d, phi, mark, counts = sample_envelope_points(env, 4, 0, 400)
    layouts = [_layout([(200.0, 0.3), (120.0, 1.0), (200.0, 0.7)], [(200.0, 1.2)], [],
                       [(120.0, 0.1), (200.0, 0.3), (200.0, 0.9)]),
               # distances on a 10 m grid: ties everywhere, 200 m among them
               _lay_out(np.round(d, -1), phi, mark, counts, 0.7)]
    shuffle = np.random.default_rng(21)
    spec = _spec([160.0, 100.0, 60.0])
    fracs = np.array([0.0, 0.1, 0.3, 0.5, 0.7])

    def outputs(layout):
        gammas = np.array([0.0, 0.8, 0.95])
        return [_score_arrays(layout, **spec),
                _chunk_outage_counts(layout, **spec, fracs=fracs, gammas=gammas)]

    for layout in layouts:
        stable = _stable_by_distance(layout)
        k = int(np.searchsorted(stable.d, edge, side="right"))
        assert np.array_equal(stable.d, layout.d) and np.count_nonzero(stable.d[:k] == edge) >= 3
        ties = [np.arange(stable.d.size)[::-1], shuffle.permutation(stable.d.size)]
        variants = [ChunkLayout(*(a[np.lexsort((tie, stable.d))] for a in stable[:4]), stable.marks)
                    for tie in ties]
        assert not any(np.array_equal(v.slot, stable.slot) for v in variants)
        want = outputs(stable)
        for variant in [layout] + variants:
            assert all(np.array_equal(a, b) for a, b in zip(outputs(variant), want))


def _row_major_reduction(layout, city, r_max, h_v, height_values, placements, fracs, gamma_th):
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
    tight = SamplingEnvelope(lambda_cap=30e-6, d_cap=ground_range(250.0, 50.0, 10.0))
    loose = SamplingEnvelope(lambda_cap=75e-6, d_cap=tight.d_cap + 20.0)
    tops = [1.0, 0.4] * 3 + [1.0, 1.0]
    layouts = [_drawn(env, seed, 300, frac_top)
               for seed in (1, 2, 3) for env, frac_top in ((tight, 1.0), (loose, 0.4))]
    # width 1, realizations with no points, and no points at all
    layouts += [_layout([], [(120.0, 0.3)], [], [(200.0, 1.1)]), _layout([], [])]
    assert layouts[-2].marks.shape == (2, 4) and layouts[-1].d.size == 0
    assert any(np.any(np.isinf(layout.marks[0])) for layout in layouts[:6])
    fracs = np.array([0.0, 0.05, 0.2, 0.4, 0.55, 1.0])
    gammas = np.array([0.0, 0.8, 1.0])
    for layout, frac_top in zip(layouts, tops):
        assert np.all(np.isinf(layout.marks[-1]))
        # the last height's ground disk is narrower than the nearest point
        near = float(layout.d.min(initial=100.0))
        dz = math.sqrt(SCENARIO["r_max"] * SCENARIO["r_max"] - 0.25 * near * near)
        heights = [50.0, 100.0, 180.0, SCENARIO["h_v"] + dz]
        assert ground_range(SCENARIO["r_max"], heights[-1], SCENARIO["h_v"]) < near
        spec = _spec(heights)
        got = _chunk_outage_counts(layout, **spec, fracs=fracs, gammas=gammas)
        # one density, at the layout's own top fraction or at the cap: the last rank alone decides
        one = {f: _chunk_outage_counts(layout, **spec, fracs=np.array([f]), gammas=gammas)
               for f in (frac_top, 1.0)}
        for ig, gamma_th in enumerate(gammas):
            counts, scores = _row_major_reduction(layout, **spec, fracs=fracs, gamma_th=gamma_th)
            assert np.array_equal(got[:, ig], counts)
            for f, last_rank in one.items():
                column = int(np.flatnonzero(fracs == f)[0])
                assert np.array_equal(last_rank[:, ig], counts[:, column:column + 1])
        assert np.array_equal(_score_arrays(layout, **spec), scores)


def test_last_rank_reduction_is_the_rank_loop_bit_for_bit():
    """last_only's one multiply reduction gives the rank loop's last rank, bit for bit."""
    env = SamplingEnvelope(lambda_cap=75e-6, d_cap=ground_range(250.0, 50.0, 10.0))
    # one realization and 300, drawn; width 1 by hand, one realization or four
    layouts = [_drawn(env, seed, m, 1.0) for seed in (1, 2) for m in (1, 300)]
    layouts += [_layout([(120.0, 0.3)]), _layout([], [(120.0, 0.3)], [], [(200.0, 1.1)])]
    shapes = [layout.marks.shape for layout in layouts]
    assert (2, 1) in shapes and (2, 4) in shapes
    assert any(w > 5 and m == 1 for w, m in shapes) and any(w > 5 and m > 1 for w, m in shapes)
    spec = _spec([50.0, 100.0, 180.0])
    for layout in layouts:
        loop = [(ip, j, survival[-1].tobytes()) for ip, j, survival in _chunk_scores(layout, **spec)]
        last = [(ip, j, survival.tobytes())
                for ip, j, survival in _chunk_scores(layout, **spec, last_only=True)]
        assert last == loop and len(loop) == 6


# Envelopes whose means straddle PTRS_MEAN: about 0.019, 1.4, 3.42, 9.57, 9.99,
# the double just below 10, exactly 10 and about 19 UAVs per realization.
STREAM_ENVELOPES = [SamplingEnvelope(lam, d_cap) for lam, d_cap in (
    (1e-7, 246.0), (8e-6, 240.0), (20e-6, 233.3), (58e-6, 229.2), (60e-6, 230.2),
    (10.0 / (math.pi * 230.0 * 230.0), 230.0), (10.0 / (math.pi * 250.0 * 250.0), 250.0),
    (100e-6, 246.0))]
STREAM_SEEDS = (0, 31, 2**63 + 5, 2**64 - 1)


def _no_generator(*args, **kwargs):
    raise AssertionError("the sampler called a numpy Generator below PTRS_MEAN")


def _count_window(mean):
    """The Philox blocks of the sampler's count window below PTRS_MEAN, from the mean alone."""
    return math.ceil((mean + 3.0 * math.sqrt(mean) + 2.0) / 4.0)


def test_chunk_stream_matches_fresh_generators(monkeypatch):
    """The chunk sampler draws what a fresh generator per realization does, at any chunking.

    Below PTRS_MEAN the _no_generator guard keeps the sampler off numpy's
    Generator, and that is what keeps numpy.random unimported on the grid
    commands today: in a fresh interpreter the import costs 10-16 ms, which
    a short run would pay on every invocation.
    """
    means = [env.mean_count for env in STREAM_ENVELOPES]
    assert means[5] == np.nextafter(PTRS_MEAN, 0.0) and means[6] == PTRS_MEAN
    last = 10**9 - 50
    empty = overflow = past = 0
    for k, env in enumerate(STREAM_ENVELOPES):
        for s, seed in enumerate(STREAM_SEEDS):
            # one whole 8192-realization chunk per envelope, its seed in turn
            n = 8192 if k % len(STREAM_SEEDS) == s else 50
            want = [_fresh_points(env, seed, i) for i in range(n)]
            want_last = [_fresh_points(env, seed, i) for i in range(last, last + 50)]
            counts = np.array([w[0].size for w in want + want_last])
            empty += np.count_nonzero(counts == 0)
            if env.mean_count < PTRS_MEAN:
                # a count that reads all 4 * W doubles of the window does not
                # settle in it, and n + 1 > W blocks reach past the window
                window = _count_window(env.mean_count)
                overflow += np.count_nonzero(counts >= 4 * window)
                past += np.count_nonzero(counts + 1 > window)
            with monkeypatch.context() as patched:
                if env.mean_count < PTRS_MEAN:
                    patched.setattr(np.random, "Generator", _no_generator)
                cases = [([sample_envelope_points(env, seed, a, min(a + chunk, 50))
                           for a in range(0, 50, chunk)], want[:50]) for chunk in (1, 7, 50)]
                cases += [([sample_envelope_points(env, seed, 0, n)], want),
                          ([sample_envelope_points(env, seed, last, last + 50)], want_last)]
            for parts, ref in cases:
                assert all(p[3].dtype == np.int64 and p[0].dtype == np.float64 for p in parts)
                assert np.concatenate([p[3] for p in parts]).tolist() == [w[0].size for w in ref]
                for c in range(3):
                    got = np.concatenate([p[c] for p in parts])
                    assert np.array_equal(got, np.concatenate([w[c] for w in ref])), (k, seed, c)
    assert empty > 0 and overflow > 0 and past > 0


# The general Philox4x64-10 block function, any counter under any key: the
# reference that numpy's Philox checks at counters of more than one word, where
# the sampler's _philox_blocks (counter (b, 0, 0, 0) only) does not reach.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(x, m, hi, lo, t):
    """Write the high and low words of the 128-bit products x * m into hi and lo.

    The high word is summed from the products of 32-bit halves, none of which
    carries out of 64 bits.  t is scratch, and x is overwritten.
    """
    m_lo, m_hi = m & _LOW, m >> _HALF
    np.multiply(x, m, out=lo)
    np.right_shift(x, _HALF, out=hi)
    np.bitwise_and(x, _LOW, out=x)
    np.multiply(x, m_lo, out=t)
    np.right_shift(t, _HALF, out=t)
    t += hi * m_lo
    x *= m_hi
    x += t & _LOW
    hi *= m_hi
    hi += t >> _HALF
    hi += x >> _HALF


def _philox(counter, key):
    """Philox4x64-10 blocks, the words numpy's Philox outputs for them.

    counter is a (4, ...) and key a (2, ...) uint64 array, least significant
    word first; their trailing shapes broadcast.  Returns the (4, ...) words
    of each block in output order.
    """
    key = np.array(key, dtype=np.uint64)
    shape = np.broadcast_shapes(np.shape(counter)[1:], key.shape[1:])
    c0, c1, c2, c3 = (np.array(np.broadcast_to(c, shape), dtype=np.uint64) for c in counter)
    hi0, lo0, hi1, lo1, t = (np.empty(shape, dtype=np.uint64) for _ in range(5))
    bump = _PHILOX_W.reshape((2,) + (1,) * (key.ndim - 1))
    for r in range(10):
        if r:
            key += bump
        _mulhilo(c0, _PHILOX_M[0], hi0, lo0, t)
        _mulhilo(c2, _PHILOX_M[1], hi1, lo1, t)
        hi1 ^= c1
        hi1 ^= key[0]
        hi0 ^= c3
        hi0 ^= key[1]
        c0, c1, c2, c3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    return np.stack((c0, c1, c2, c3))


def test_philox_blocks_match_numpy():
    """Each Philox4x64-10 block is numpy's: block b of key k is Philox(key=k, counter=b - 1)'s next.

    The sampler's _philox_blocks covers the counters (b, 0, 0, 0) it reads,
    as a block column against an index row; the general _philox above covers
    counters of several words.  Keys 8 and 9 take seeds 2**64 - 1 and
    2**64 - 2, so key word 0 wraps during the schedule.
    """
    rng = np.random.default_rng(20)
    keys = rng.integers(0, 2**64, size=(12, 2), dtype=np.uint64)
    keys[:4, 0] |= np.uint64(2**63)
    keys[4:8, 1] |= np.uint64(2**63)
    keys[8:10, 0] = [2**64 - 1, 2**64 - 2]
    blocks = list(range(1, 1002)) + [2**64 - 1]
    counters = [2**64 - 1, 2**128 + 7, 2**256 - 2]
    words = np.array([[(c + 1) >> (64 * w) & (2**64 - 1) for c in counters] for w in range(4)],
                     dtype=np.uint64)
    for key in keys:
        want = np.array([np.random.Philox(key=key, counter=b - 1).random_raw(4) for b in blocks])
        seed, index = int(key[0]), key[1:]
        got = np.stack(_philox_blocks(seed, index, np.arange(1, 1002)[:, None]))[..., 0]
        last = np.stack(_philox_blocks(seed, index, np.array([2**64 - 1], dtype=np.uint64)))
        assert np.array_equal(np.concatenate((got, last), axis=1).T, want)
        want = np.array([np.random.Philox(key=key, counter=c).random_raw(4) for c in counters])
        assert np.array_equal(_philox(words, key[:, None]).T, want)


def _counting_blocks(monkeypatch):
    """Hook _philox_blocks: the returned list gets the number of blocks of each call."""
    computed = []
    blocks = geometry._philox_blocks

    def counting(seed, index, block):
        words = blocks(seed, index, block)
        computed.append(words[0].size)
        return words

    monkeypatch.setattr(geometry, "_philox_blocks", counting)
    return computed


def test_sampler_computes_only_the_blocks_it_reads(monkeypatch):
    """A chunk computes max(W, n + 1) Philox blocks per realization, plus its overflow redraws."""
    computed = _counting_blocks(monkeypatch)
    redrawn = 0
    for env in STREAM_ENVELOPES:
        for seed in (0, 31):
            computed.clear()
            counts = sample_envelope_points(env, seed, 0, 8192)[3]
            if env.mean_count >= PTRS_MEAN:
                assert not computed
                continue
            window = _count_window(env.mean_count)
            # a count that does not settle is counted again in windows twice as wide
            redraws = 0
            for n in counts[counts >= 4 * window]:
                wider = window
                while n >= 4 * wider:
                    wider *= 2
                    redraws += wider
            assert sum(computed) == np.maximum(window, counts + 1).sum() + redraws
            redrawn += redraws
    assert redrawn > 0


def test_an_empty_chunk_computes_no_block(monkeypatch):
    """sample_envelope_points(env, seed, k, k) is three empty float arrays and empty counts."""
    computed = _counting_blocks(monkeypatch)
    envelopes = (STREAM_ENVELOPES[2], STREAM_ENVELOPES[-1])
    assert envelopes[0].mean_count < PTRS_MEAN < envelopes[1].mean_count
    for env in envelopes:
        for seed in STREAM_SEEDS:
            for k in (0, 8191, 2**64 - 1, 2**64):
                *points, counts = sample_envelope_points(env, seed, k, k)
                assert all(p.dtype == np.float64 and p.shape == (0,) for p in points)
                assert counts.dtype == np.int64 and counts.shape == (0,)
    assert sum(computed) == 0


def test_zero_density_distribution_is_degenerate():
    counts = _distribution([0.0, 0.8], 50, 0, lambda_uav=0.0)
    assert counts.dtype == np.int64 and np.array_equal(counts, np.full((2, 2), 50))


def test_chunking_and_workers_do_not_change_samples(monkeypatch, realization_scores):
    run = {**SCENARIO, "n_realizations": 3000, "seed": 9}
    gammas = np.linspace(0.0, 1.0, 21)
    a = realization_scores(**run)
    c = realization_scores(**run, workers=2)
    counts = _distribution(gammas, 3000, 9, workers=2)
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 257)
    b = realization_scores(**run)
    assert np.array_equal(a, b) and np.array_equal(a, c)
    assert np.array_equal(_distribution(gammas, 3000, 9), counts)


def test_intersection_placement_dominates(realization_scores):
    sec, street = realization_scores(**SCENARIO, n_realizations=2000, seed=17)
    # realization by realization
    assert np.all(street <= sec)
    counts = _distribution(np.linspace(0.0, 1.0, 21), 2000, 17)
    assert np.all(counts[0] <= counts[1])


def test_nesting_in_density_and_range(realization_scores):
    """A shared envelope couples scenarios: more density or range only helps."""
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=ground_range(250.0, 100.0, 10.0))
    run = {"n_realizations": 1500, "seed": 23, **_caps(env)}
    hi = realization_scores(URBAN, 250.0, 10.0, 40e-6, 100.0, **run)
    lo = realization_scores(URBAN, 250.0, 10.0, 15e-6, 100.0, **run)
    short = realization_scores(URBAN, 200.0, 10.0, 40e-6, 100.0, **run)
    assert np.all(lo <= hi) and np.all(short <= hi)


def test_envelope_must_cover_scenario():
    """A scenario is carved out of its envelope, so both caps must cover it."""
    env = SamplingEnvelope(lambda_cap=10e-6, d_cap=200.0)
    assert ground_range(250.0, 100.0, 10.0) > env.d_cap
    # over the density cap, then over the disk cap alone
    for lam in (20e-6, 10e-6):
        with pytest.raises(InvalidGeometryError):
            _distribution([0.8], 10, 0, lambda_uav=lam, **_caps(env))
        with pytest.raises(InvalidGeometryError):
            outage_grid(URBAN, 250.0, 10.0, [lam], [100.0], 0.8, 10, 0, **_caps(env))
    # at the caps themselves the scenario is covered
    at_caps = SamplingEnvelope(lambda_cap=10e-6, d_cap=ground_range(250.0, 100.0, 10.0))
    _distribution([0.8], 10, 0, lambda_uav=10e-6, **_caps(at_caps))
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

    monkeypatch.setattr(connectivity, "sample_envelope_points", no_draw)
    grid = outage_grid(URBAN, 250.0, 10.0, [0.0], [100.0], 0.8, 1000, 0, lambda_cap=10e-6)
    assert np.array_equal(grid, [[1.0]])
    counts = _distribution([0.0, 0.8], 1000, 0, lambda_uav=0.0, lambda_cap=10e-6, d_cap=300.0)
    assert np.array_equal(counts, np.full((2, 2), 1000))
    # given caps are still checked: a 50 m disk cap does not cover the 233 m disk
    for caps in ({"d_cap": 50.0}, {"lambda_cap": 0.0}, {"d_cap": math.nan}):
        with pytest.raises(InvalidGeometryError):
            outage_grid(URBAN, 250.0, 10.0, [0.0], [100.0], 0.8, 10, 0, **caps)
        with pytest.raises(InvalidGeometryError):
            _distribution([0.8], 10, 0, lambda_uav=0.0, **caps)
    # the UAVs must fly above the vehicle at every density
    with pytest.raises(InvalidGeometryError):
        _distribution([0.8], 10, 0, lambda_uav=0.0, h_uav=10.0)


def test_grid_and_distribution_draw_from_one_default_envelope(monkeypatch):
    """Without caps a grid and a gamma axis at its cell carve the same envelope, bit for bit."""
    seen = []

    def record(envelope, *args):
        seen.append(envelope)
        return draw_chunk(envelope, *args)

    draw_chunk = connectivity.sample_envelope_points
    monkeypatch.setattr(connectivity, "sample_envelope_points", record)
    h = 105.97  # (h - h_v) ** 2 and dz * dz round one ulp apart here
    outage_grid(URBAN, 250.0, 10.0, [20e-6], [h], 0.8, 10, 0)
    _distribution([0.0, 0.8], 10, 0, h_uav=h)
    assert len(seen) == 2 and seen[0] == seen[1]
    assert seen[0].d_cap == ground_range(250.0, h, 10.0)


def test_mixture_weight_and_ordering():
    w = intersection_weight(URBAN)
    assert w == pytest.approx(13.0 / 58.0)
    f_int, f_str = _distribution([0.8], 1000, 3)[:, 0] / 1000
    mix = mixture_cdf(f_int, f_str, URBAN)
    assert mix == w * f_int + (1.0 - w) * f_str
    assert f_int <= mix <= f_str
    # over a gamma array the blend is the per-gamma scalar blend, bit for bit
    f_int, f_str = _distribution(np.linspace(0.0, 1.0, 101), 1000, 3) / 1000
    assert mixture_cdf(f_int, f_str, URBAN).tolist() == [mixture_cdf(a, b, URBAN)
                                                         for a, b in zip(f_int, f_str)]


def test_outage_threshold_validation():
    """A score at the threshold is in outage and one just above it is not, on both counting
    paths: the connectivity CDF is right continuous."""
    layout = _layout([(150.0, 1.0)])  # one link, at mark 0.5
    for ip, pl in enumerate(PLACEMENTS):
        score = float(_scores([(150.0, 1.0)])[ip, 0])
        assert 0.0 < score < 1.0
        gammas = np.array([score, np.nextafter(score, 0.0)])
        spec = _spec([SCENARIO["h_uav"]], (pl,))
        last_rank = _chunk_outage_counts(layout, **spec, fracs=np.array([1.0]), gammas=gammas)
        assert last_rank[0, :, :, 0].tolist() == [[1], [0]]
        # fraction 0.25 admits no link: in outage at every gamma
        crossing = _chunk_outage_counts(layout, **spec, fracs=np.array([0.25, 1.0]), gammas=gammas)
        assert crossing[0, :, :, 0].tolist() == [[1, 1], [1, 0]]


# 0 and 1, 2**-53 and 1 - 2**-53 next to them, a tiny 1e-300, 0.5 and 0.8, 20 drawn
# at random, then the doubles beside 0.5, where the closed form changes case, more
# near 1, where gamma's last mantissa bit decides a tie, -0.0, the least subnormal,
# 2**-54 and 1 - 2**-52
SURVIVAL_GAMMAS = np.array([0.0, 2.0**-53, 1e-300, 0.5, 0.8, 1.0 - 2.0**-53, 1.0,
                            *np.random.default_rng(37).uniform(0.0, 1.0, 20).tolist(),
                            np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.99, 0.999999,
                            1.0 - 3 * 2.0**-53, 1.0 - 2.0**-40, -0.0, 5e-324, 2.0**-54,
                            1.0 - 2.0**-52])


def _neighbours(x, k):
    """The doubles of [0, 1] within k bit patterns of x, x among them."""
    bits = int(np.float64(x).view(np.int64))
    near = np.arange(max(bits - k, 0), bits + k + 1, dtype=np.int64).view(np.float64)
    return near[near <= 1.0]


def test_survival_bound_is_the_least_survival_in_outage():
    """s*(gamma) is the least double in [0, 1] with 1.0 - s* <= gamma, and x >= s* is that
    rule on the doubles around it."""
    bounds = connectivity._survival_bounds(SURVIVAL_GAMMAS)
    # 1.0 - 0.49999999999999994 is a tie between 0.5 and the double above it: it rounds to 0.5
    assert bounds[:7].tolist() == [1.0, 1.0 - 2.0**-53, 1.0, np.nextafter(0.5, 0.0),
                                   0.19999999999999990, np.nextafter(2.0**-54, 1.0), 0.0]
    for gamma, bound in zip(SURVIVAL_GAMMAS, bounds.tolist()):
        assert 0.0 <= bound <= 1.0 and 1.0 - bound <= gamma
        if bound > 0.0:
            assert not 1.0 - np.nextafter(bound, 0.0) <= gamma, gamma
        near = _neighbours(bound, 50)
        assert near.size >= 51
        assert ((near >= bound) == (1.0 - near <= gamma)).all(), gamma


def _reference_outage_counts(layout, city, r_max, h_v, height_values, placements, fracs, gammas):
    """The counts as scores give them: 1.0 - survival <= gamma on every path, without
    the survival bound."""
    marks, columns = layout.marks, np.arange(layout.marks.shape[1])
    counts = np.zeros((len(placements), gammas.size, fracs.size, len(height_values)),
                      dtype=np.int64)
    one_fraction = fracs.min() == fracs.max()
    for ip, j, survival in _chunk_scores(layout, city, r_max, h_v, height_values, placements,
                                         last_only=one_fraction):
        score = 1.0 - survival
        if one_fraction and gammas.size == 1:
            counts[ip, 0, :, j] = np.count_nonzero(score <= gammas[0])
        elif one_fraction:
            score.sort()
            counts[ip, :, :, j] = np.searchsorted(score, gammas, side="right")[:, None]
        else:
            for ig, gamma in enumerate(gammas):
                crossing = marks[np.count_nonzero(score <= gamma, axis=0), columns]
                crossing.sort()
                counts[ip, ig, :, j] = crossing.size - np.searchsorted(crossing, fracs)
    return counts


@pytest.mark.parametrize("mean", [0.5, 3.42, 9.57, 18.9, 57.0])
def test_chunk_counts_on_the_survival_scale_equal_the_score_counts(mean):
    """Counting survivals against s*(gamma) gives the counts of 1.0 - survival <= gamma bit
    for bit on all three paths: one gamma at the last rank, a gamma axis at the last rank,
    and crossing marks over several densities."""
    d_cap = ground_range(250.0, 50.0, 10.0)
    env = SamplingEnvelope(mean / (math.pi * d_cap**2), d_cap)
    spec = _spec([50.0, 120.0, 230.0])
    n = 300
    # gammas at realizations' own scores and their neighbours, where a wrong bound shows
    scores = _score_arrays(_drawn(env, 5, n, 1.0), **spec).ravel()
    drawn = np.random.default_rng(int(mean * 100)).choice(scores, 6)
    gammas = np.concatenate([SURVIVAL_GAMMAS, drawn, np.nextafter(drawn, 0.0),
                             np.nextafter(drawn, 1.0)])
    gammas = gammas[(0.0 <= gammas) & (gammas <= 1.0)]
    for fracs in (np.array([1.0]), np.array([0.6]), np.array([0.1, 0.35, 0.7, 1.0])):
        layout = _drawn(env, 5, n, float(fracs.max()))
        for axis in (gammas[4:5], np.array([float(drawn[0])]), gammas):
            got = _chunk_outage_counts(layout, **spec, fracs=fracs, gammas=axis)
            want = _reference_outage_counts(layout, **spec, fracs=fracs, gammas=axis)
            assert got.tobytes() == want.tobytes(), (fracs, axis)


def test_crossing_ranks_past_the_uint16_range():
    """A column wider than 65535 ranks counts its crossing ranks in a wider integer: 70000
    UAVs outside every ground disk never cross, so every fraction is in outage."""
    layout = _layout([(300.0, 0.5)] * 70_000)
    assert layout.marks.shape == (70_001, 1)
    spec = _spec([SCENARIO["h_uav"]])
    fracs, gammas = np.array([0.5, 1.0]), np.array([0.0, 0.8])
    counts = _chunk_outage_counts(layout, **spec, fracs=fracs, gammas=gammas)
    assert counts.tolist() == [[[[1], [1]], [[1], [1]]]] * 2


def test_outage_grid_matches_distribution_pipeline():
    """outage_grid divides the counter's counts at gamma_th by n and blends them; a gamma axis
    counts as its gammas one by one, and a one-cell call as its cell of the grid."""
    n = 500
    heights = [100.0, 160.0]
    d_max = ground_range(SCENARIO["r_max"], SCENARIO["h_uav"], SCENARIO["h_v"])
    tight = SamplingEnvelope(lambda_cap=SCENARIO["lambda_uav"], d_cap=d_max)
    # lambda < lambda_cap and d_max < d_cap: both filters of the envelope act
    loose = SamplingEnvelope(lambda_cap=2.5 * SCENARIO["lambda_uav"], d_cap=d_max + 20.0)
    gammas = [0.0, 0.8, 1.0 - 2.0**-53, 1.0, float(np.random.default_rng(4).random())]
    w = intersection_weight(URBAN)
    for env in (tight, loose):
        # one scenario and run, splatted into both entries under the same names
        scenario = {"city": URBAN, "r_max": 250.0, "h_v": 10.0, "n_realizations": n, "seed": 6,
                    **_caps(env)}
        # zero, interior and the envelope's own cap: empty, partial and full mark prefixes
        lams = [0.0, 0.4 * env.lambda_cap, env.lambda_cap]
        counts = estimate_distribution(**scenario, lambda_values=lams, height_values=heights,
                                       gamma_values=gammas)
        assert counts.shape == (2, len(gammas), len(lams), len(heights))
        assert counts.dtype == np.int64
        for ig, gamma_th in enumerate(gammas):
            grid = outage_grid(**scenario, lambda_values=lams, height_values=heights,
                               gamma_th=gamma_th)
            single = {mode.placements[0]: outage_grid(**scenario, lambda_values=lams,
                                                      height_values=heights, gamma_th=gamma_th,
                                                      placement_mode=mode)
                      for mode in (PlacementMode.INTERSECTION_ONLY, PlacementMode.STREET_ONLY)}
            # the mixture blends the two single-placement grids with the same arithmetic
            assert np.array_equal(grid, w * single[Placement.INTERSECTION]
                                  + (1.0 - w) * single[Placement.STREET])
            assert np.array_equal(grid, mixture_cdf(counts[0, ig] / n, counts[1, ig] / n, URBAN))
            for ip, placement in enumerate(PLACEMENTS):
                assert np.array_equal(single[placement], counts[ip, ig] / n), (env, gamma_th)
        street = estimate_distribution(**scenario, lambda_values=lams, height_values=heights,
                                       gamma_values=gammas, placement_mode="street-only")
        assert np.array_equal(street, counts[1:])
        # each cell as its own one-cell call, at every gamma at once
        for i, lam in enumerate(lams):
            for j, h in enumerate(heights):
                cell = estimate_distribution(**scenario, lambda_values=[lam], height_values=[h],
                                             gamma_values=gammas)
                assert np.array_equal(cell[:, :, 0, 0], counts[:, :, i, j]), (env, i, j)


def test_one_density_counts_as_the_top_row_of_two(monkeypatch):
    """One density reads the last rank alone and counts as the top row of a two-density
    grid on the same draws and caps, which finds crossing marks, bit for bit."""
    last_only = []
    scores = connectivity._chunk_scores

    def spy(*args, **kwargs):
        last_only.append(kwargs["last_only"])
        return scores(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_chunk_scores", spy)
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 700)
    gammas = [0.0, 1.0, 1.0 - 2.0**-53, 0.8, *np.random.default_rng(11).random(3)]
    # below the envelope cap, then at it (the default cap is the top density)
    for caps in ({"lambda_cap": 50e-6, "d_cap": 260.0}, {}):
        run = {"city": URBAN, "r_max": 250.0, "h_v": 10.0, "height_values": [60.0, 100.0, 180.0],
               "gamma_values": gammas, "n_realizations": 2000, "seed": 13, **caps}
        last_only.clear()
        one = estimate_distribution(lambda_values=[20e-6], **run)
        assert len(last_only) == 3 and all(last_only)
        last_only.clear()
        two = estimate_distribution(lambda_values=[5e-6, 20e-6], **run)
        assert len(last_only) == 3 and not any(last_only)
        assert np.array_equal(one[:, :, 0], two[:, :, 1]), caps
        assert 0 < one[:, 3].min() <= one[:, 3].max() < 2000


def test_outage_grid_worker_invariance(monkeypatch):
    hts = [80.0, 140.0]
    # one density sits at the envelope cap, where only the last rank decides;
    # the last case leaves most realizations, and so most one-realization
    # chunks, without a single envelope point
    for lam, n, chunk_size in (([10e-6, 25e-6], 2000, 333), ([25e-6], 2000, 333),
                               ([1e-6, 3e-6], 400, 1)):
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
                           (10, 0, {"workers": 0}), (1000.0, 0, {}), (10, 0.0, {}),
                           (10, 0, {"workers": 2.5}), (None, 0, {}), (True, 0, {})):
        with pytest.raises(ValueError):
            outage_grid(URBAN, 250.0, 10.0, [1e-5], [100.0], 0.8, n, seed, **extra)


def test_placement_mode_fails_closed(monkeypatch):
    """A mode's value runs as its member; any other value is refused before anything is drawn."""
    args = (URBAN, 250.0, 10.0, [10e-6, 25e-6], [60.0, 140.0], 0.8, 300, 3)
    for mode in PlacementMode:
        assert np.array_equal(outage_grid(*args, placement_mode=mode.value),
                              outage_grid(*args, placement_mode=mode))
    monkeypatch.setattr(connectivity, "sample_envelope_points", None)
    for bad in (None, "street", "nowhere", Placement.STREET):
        with pytest.raises(ValueError):
            outage_grid(*args, placement_mode=bad)


def _no_draw(*args):
    raise AssertionError("drew realizations that should have been held or refused")


def _keys(env, seed, n, size, frac_top):
    """The held keys of realizations [0, n) of env at seed, in chunks of size, below frac_top."""
    return [(env, seed, start, min(start + size, n), frac_top) for start in range(0, n, size)]


def test_outage_grid_scores_a_shared_draw(monkeypatch):
    """One held dict answers every call of its chunks; any other call draws its own."""
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 256)
    env = SamplingEnvelope(lambda_cap=25e-6, d_cap=240.0)
    call = {"city": URBAN, "r_max": 250.0, "h_v": 10.0, "lambda_values": [10e-6, 25e-6],
            "height_values": [80.0, 140.0], "gamma_th": 0.8, "n_realizations": 700, "seed": 5,
            **_caps(env)}
    fresh = outage_grid(**call)
    held = {}
    for workers in (1, 2):
        assert np.array_equal(outage_grid(**call, workers=workers, held=held), fresh)
    # three chunks, laid out at the grid's top density: 25e-6 of the 25e-6 cap
    assert sorted(held, key=lambda key: key[2]) == _keys(env, 5, 700, 256, 1.0)
    layouts = dict(held)
    # another grid with the same top density scores those layouts at other
    # densities and heights, drawing nothing
    shared = {**call, "lambda_values": [5e-6, 25e-6], "height_values": [100.0, 180.0]}
    want_shared = outage_grid(**shared)
    with monkeypatch.context() as m:
        m.setattr(connectivity, "sample_envelope_points", _no_draw)
        assert np.array_equal(outage_grid(**shared, held=held), want_shared)
    assert held.keys() == layouts.keys() and all(held[k] is layouts[k] for k in layouts)
    # a held layout answers only its own key: a call whose top density,
    # n_realizations, seed or envelope differs gets its own fresh cells
    for change in ({"lambda_values": [10e-6]}, {"n_realizations": 600}, {"seed": 6},
                   {"lambda_cap": 30e-6}):
        other = {**call, **change}
        want = outage_grid(**other)
        assert not np.array_equal(want, fresh)
        assert np.array_equal(outage_grid(**other, held=held), want)
    # the lower top density lays out three chunks of its own; realizations
    # [0, 512) are the same two chunks at n = 600, so only [512, 600) joins
    # them; the other seed and envelope add three chunks each
    assert len(held) == 3 + 3 + 1 + 3 + 3


def test_held_layouts_are_the_layouts_a_fresh_call_draws(monkeypatch):
    """Each held layout equals, bit for bit, the layout a call without held draws for its key."""
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 128)
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=240.0)
    sample, lay_out = connectivity.sample_envelope_points, connectivity._lay_out
    drawn = []  # per chunk a fresh call draws: its sampler arguments, then its layout

    def sampling(*args):
        drawn.append(args)
        return sample(*args)

    def laying_out(*args):
        layout = lay_out(*args)
        drawn[-1] = (*drawn[-1], args[-1], layout)
        return layout

    grid = (URBAN, 250.0, 10.0)
    # top densities at the cap and below it, so both kinds of top fraction are held
    for lambda_values in ([10e-6, 40e-6], [10e-6, 25e-6]):
        call = (*grid, lambda_values, [90.0, 150.0], 0.8, 300, 9)
        drawn.clear()
        with monkeypatch.context() as m:
            m.setattr(connectivity, "sample_envelope_points", sampling)
            m.setattr(connectivity, "_lay_out", laying_out)
            want = outage_grid(*call, **_caps(env))
        fresh = {key[:5]: key[5] for key in drawn}
        held = {}
        assert np.array_equal(outage_grid(*call, **_caps(env), workers=2, held=held), want)
        assert len(held) == len(fresh) == 3 and held.keys() == fresh.keys()
        assert {key[4] for key in held} == {lambda_values[-1] / env.lambda_cap}
        for key, layout in held.items():
            assert all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(layout, fresh[key]))


def test_held_layouts_over_the_bound_are_refused_before_drawing(monkeypatch):
    monkeypatch.setattr(connectivity, "sample_envelope_points", _no_draw)
    # about 957 UAVs per realization, held 20000 times
    dense = {"lambda_values": [5000e-6], "height_values": [55.0], "gamma_th": 0.8,
             "n_realizations": 20000, "seed": 0}
    held = {}
    with pytest.raises(ValueError, match="envelope draw would hold"):
        outage_grid(URBAN, 250.0, 10.0, **dense, held=held)
    assert held == {}
    # the same grid drawn chunk by chunk holds nothing, so the bound does not apply
    with pytest.raises(AssertionError, match="drew realizations"):
        outage_grid(URBAN, 250.0, 10.0, **dense)


def test_optimize_maps_its_held_draw_over_workers(monkeypatch):
    """Every probe maps the grid pass's chunks over the workers; the grid pass draws them there."""
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 256)
    # per map: (chunks, top fraction, workers, chunks drawn); per draw: its thread
    maps, drawn_in = [], []
    map_chunks, sample = connectivity._map_chunks, connectivity.sample_envelope_points

    def recording(reduce, envelope, seed, n, frac_top, workers, held=None):
        before = len(drawn_in)
        result = map_chunks(reduce, envelope, seed, n, frac_top, workers, held)
        maps.append((len(result), frac_top, workers, len(drawn_in) - before))
        return result

    def sampling(*args):
        drawn_in.append(threading.get_ident())
        return sample(*args)

    monkeypatch.setattr(connectivity, "_map_chunks", recording)
    monkeypatch.setattr(connectivity, "sample_envelope_points", sampling)
    got = optimize_height(URBAN, 250.0, 10.0, 30e-6, 60.0, 200.0, n_realizations=700, seed=1,
                          workers=2)
    # the grid pass draws the three chunks, whole (top fraction 1.0), in worker
    # threads; every probe after it maps the same three keys over the same
    # workers and draws nothing; the search makes 8 grid calls in all
    assert maps[0] == (3, 1.0, 2, 3) and threading.main_thread().ident not in drawn_in
    assert len(maps) == 8 and all(m == (3, 1.0, 2, 0) for m in maps[1:])
    assert got == optimize_height(URBAN, 250.0, 10.0, 30e-6, 60.0, 200.0, n_realizations=700,
                                  seed=1)


def test_worker_threads_keep_the_kernels_ieee_limits(monkeypatch):
    """Links at d = 0 and phi = 0 divide by zero in the kernel; a worker thread takes the
    IEEE limits as the calling thread does, with no RuntimeWarning (warnings are errors)."""
    d = np.array([0.0, 0.0, 50.0, 120.0])
    cos_phi = np.array([1.0, 0.0, 1.0, 0.0])  # phi = 0 and phi = pi / 2 in turn
    sin_phi = np.array([0.0, 1.0, 0.0, 1.0])
    tasks = [(h, placement) for h in (60.0, 140.0) for placement in PLACEMENTS]
    threads = set()

    def score(layout):
        threads.add(threading.get_ident())
        return [los_probability_batch(d, cos_phi, sin_phi, h, 10.0, URBAN, placement)
                for h, placement in tasks]

    # four chunks of one realization each, each scoring the links at every task
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 1)
    env = SamplingEnvelope(lambda_cap=25e-6, d_cap=240.0)
    serial = _map_chunks(score, env, 0, 4, 1.0, 1)
    threads.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pooled = _map_chunks(score, env, 0, 4, 1.0, 2)
    assert threads and threading.main_thread().ident not in threads
    assert all(a.tobytes() == b.tobytes() for p, q in zip(pooled, serial) for a, b in zip(p, q))


def test_worker_threads_share_held_layouts_under_stress(monkeypatch):
    """More threads than cores, switching every microsecond, drawing into one held dict
    and then scoring its layouts."""
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 50)
    env = SamplingEnvelope(lambda_cap=25e-6, d_cap=240.0)
    grid = (URBAN, 250.0, 10.0, [10e-6, 25e-6], [80.0, 140.0], 0.8, 700, 5)
    want = outage_grid(*grid, **_caps(env))
    held = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [outage_grid(*grid, **_caps(env), workers=4, held=held) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert all(g.tobytes() == want.tobytes() for g in got)
    assert sorted(held, key=lambda key: key[2]) == _keys(env, 5, 700, 50, 1.0)


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records max_workers, maps in this thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # _map_chunks imports the pool when it opens one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 1000)
    env = SamplingEnvelope(lambda_cap=25e-6, d_cap=240.0)

    def width(layout):
        return layout.marks.shape[1]

    assert _map_chunks(width, env, 5, 2500, 1.0, 64) == [1000, 1000, 500]
    # three chunks of 1000 realizations ask for three threads at most
    outage_grid(URBAN, 250.0, 10.0, [10e-6, 20e-6], [100.0], 0.8, 3000, 5, workers=64)
    _distribution([0.8], 3000, 5, workers=2)
    assert sizes == [3, 3, 2]
    # a single chunk or a single worker never builds a pool
    assert _map_chunks(width, env, 5, 1000, 1.0, 64) == [1000]
    assert _map_chunks(width, env, 5, 2000, 1.0, 1) == [1000, 1000]
    assert sizes == [3, 3, 2]


# Each Monte Carlo entry point at one worker above the bound, over 20000
# realizations (three chunks), so an unchecked run would open a pool.
ABOVE_MAX_WORKERS = {
    "estimate_distribution": lambda w: _distribution([0.8], 20000, 0, workers=w),
    "outage_grid": lambda w: outage_grid(URBAN, 250.0, 10.0, [20e-6], [100.0], 0.8, 20000, 0,
                                         workers=w),
    "sweep_contour": lambda w: sweep_contour(URBAN, 250.0, 10.0, [20e-6], [100.0], 0.8,
                                             n_realizations=20000, workers=w),
    "optimize_height": lambda w: optimize_height(URBAN, 250.0, 10.0, 20e-6, 60.0, 200.0,
                                                 n_realizations=20000, workers=w),
    "outage_grid_held": lambda w: outage_grid(URBAN, 250.0, 10.0, [20e-6], [100.0], 0.8, 20000,
                                              0, workers=w, held={}),
}


@pytest.mark.parametrize("entry", sorted(ABOVE_MAX_WORKERS))
def test_workers_above_the_bound_are_refused_before_any_pool(entry, no_pool):
    with pytest.raises(ValueError, match=f"workers <= {connectivity.MAX_WORKERS}"):
        ABOVE_MAX_WORKERS[entry](connectivity.MAX_WORKERS + 1)
    connectivity.check_run(1, 0, connectivity.MAX_WORKERS)


def _chunk_bounds(n, env):
    """The realizations [start, stop) of each chunk _map_chunks draws for [0, n) of env, in
    order; the draws are stood in for by empty ones."""
    bounds = []

    def empty(envelope, seed, start, stop):
        bounds.append((start, stop))
        return np.empty(0), np.empty(0), np.empty(0), np.zeros(stop - start, dtype=np.int64)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(connectivity, "sample_envelope_points", empty)
        widths = _map_chunks(lambda layout: layout.marks.shape[1], env, 0, n, 1.0, 1)
    assert widths == [stop - start for start, stop in bounds]
    return bounds


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


def test_a_pooled_run_never_loads_multiprocessing():
    # a fresh interpreter, as this test process may have loaded it already
    src = str(Path(connectivity.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    # two chunks at two workers, so the run opens the pool
    argv = ["distribution", "--preset", "urban", "--lambda-uav", "20", "--h-uav", "100",
            "--n-realizations", str(connectivity.CHUNK_SIZE + 1), "--workers", "2",
            "--output", os.devnull]
    code = (f"import sys, uavgrid.cli; code = uavgrid.cli.main({argv!r}); "
            "print(code, 'concurrent.futures.thread' in sys.modules, "
            "'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["0", "True", "False"]


def test_the_counts_hold_one_total_whatever_the_chunk_count(monkeypatch):
    """Each chunk's counts join one total as the chunk finishes, so memory does not grow with n.

    One chunk's counts over 100001 gammas are 1.6 MB (two placements); 40
    chunks held until the end would hold 64 MB of them.
    """
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 16)
    gammas = np.linspace(0.0, 1.0, 100001)

    def peak(chunks, workers):
        tracemalloc.start()
        try:
            counts = estimate_distribution(URBAN, 250.0, 10.0, [20e-6], [100.0], gammas,
                                           16 * chunks, 1, workers=workers)
            return counts, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, one = peak(1, 1)
    serial, serial_peak = peak(40, 1)
    pooled, pooled_peak = peak(40, 3)
    assert serial_peak < one + 0.5e6
    # at most three chunks at once, each with its own working memory
    assert pooled_peak < 3 * one
    assert serial.tobytes() == pooled.tobytes()


def test_the_shared_total_loses_no_chunk_under_contention(monkeypatch):
    """More worker threads than cores add one-realization chunks into the shared total.

    A long gamma axis makes each addition a loop numpy runs without the GIL,
    and a short switch interval interleaves the threads often, so an addition
    made outside the lock would lose counts.
    """
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 1)
    gammas = np.linspace(0.0, 1.0, 20001)
    args = (URBAN, 250.0, 10.0, [20e-6], [100.0], gammas, 600, 3)
    serial = estimate_distribution(*args)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = estimate_distribution(*args, workers=2 * (os.cpu_count() or 1) + 2)
    finally:
        sys.setswitchinterval(interval)
    assert pooled.tobytes() == serial.tobytes()
