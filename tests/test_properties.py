"""Invariant checks that back the simulator's headline guarantees.

Kept self-contained so the file can run standalone:

    pytest tests/test_properties.py
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavgrid.connectivity as connectivity
from uavgrid.connectivity import ScenarioConfig, _chunk_score_arrays, _lay_out, estimate_distribution
from uavgrid.geometry import PRESETS, RadioParams, SamplingEnvelope, ground_range, sample_envelope_points
from uavgrid.los import LinkGeometry, Placement, los_probability

URBAN = PRESETS["urban"]
CITIES = list(PRESETS.values())

_finite = dict(allow_nan=False, allow_infinity=False)
link_d = st.floats(min_value=0.0, max_value=500.0, **_finite)
link_phi = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, **_finite)
link_h = st.floats(min_value=10.001, max_value=400.0, **_finite)
city_idx = st.integers(min_value=0, max_value=2)


@given(d=link_d, phi=link_phi, h=link_h, ci=city_idx)
@settings(max_examples=200, deadline=None)
def test_probability_in_unit_interval(d, phi, h, ci):
    lk = LinkGeometry(d=d, phi=phi, h_uav=h, h_v=10.0)
    for pl in (Placement.INTERSECTION, Placement.STREET):
        p = los_probability(lk, CITIES[ci], pl)
        assert 0.0 <= p <= 1.0


@given(d=link_d, phi=link_phi, h=link_h, ci=city_idx)
@settings(max_examples=200, deadline=None)
def test_intersection_dominates_street(d, phi, h, ci):
    # mid-block vehicles face strictly more exposed building fronts
    lk = LinkGeometry(d=d, phi=phi, h_uav=h, h_v=10.0)
    city = CITIES[ci]
    assert los_probability(lk, city, Placement.STREET) <= los_probability(lk, city, Placement.INTERSECTION)


@given(d=link_d, phi=link_phi, h=link_h, ci=city_idx)
@settings(max_examples=200, deadline=None)
def test_quadrant_fold_symmetry(d, phi, h, ci):
    city = CITIES[ci]
    base = los_probability(LinkGeometry(d=d, phi=phi, h_uav=h, h_v=10.0), city, Placement.INTERSECTION)
    for other in (math.pi - phi, math.pi + phi, -phi):
        p = los_probability(LinkGeometry(d=d, phi=other, h_uav=h, h_v=10.0), city, Placement.INTERSECTION)
        assert p == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_monotone_in_distance_1000_pairs():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        city = CITIES[rng.integers(3)]
        phi = rng.uniform(0.0, 2.0 * math.pi)
        h = rng.uniform(10.5, 300.0)
        d1, d2 = np.sort(rng.uniform(0.0, 400.0, 2))
        pl = Placement.INTERSECTION if rng.integers(2) else Placement.STREET
        p1 = los_probability(LinkGeometry(d=float(d1), phi=phi, h_uav=h, h_v=10.0), city, pl)
        p2 = los_probability(LinkGeometry(d=float(d2), phi=phi, h_uav=h, h_v=10.0), city, pl)
        assert p2 <= p1 + 1e-12


def test_monotone_in_altitude_1000_pairs():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        city = CITIES[rng.integers(3)]
        phi = rng.uniform(0.0, 2.0 * math.pi)
        d = rng.uniform(0.0, 400.0)
        h1, h2 = np.sort(rng.uniform(10.5, 400.0, 2))
        pl = Placement.INTERSECTION if rng.integers(2) else Placement.STREET
        p1 = los_probability(LinkGeometry(d=d, phi=phi, h_uav=float(h1), h_v=10.0), city, pl)
        p2 = los_probability(LinkGeometry(d=d, phi=phi, h_uav=float(h2), h_v=10.0), city, pl)
        assert p2 >= p1 - 1e-12


def _one_realization(pairs):
    # the one-row chunk layout of the (d, phi) links, given in mark order
    d, phi = np.array(pairs, dtype=float).reshape(-1, 2).T
    return _lay_out(d, phi, np.arange(1, len(pairs) + 1) / (len(pairs) + 1), np.array([len(pairs)]), 1.0)


def _connectivity(pairs, radio, placements):
    task = (_one_realization(pairs), URBAN, radio.h_v, radio.r_max, [radio.h_uav], placements)
    return _chunk_score_arrays(task)[:, 0]


def test_empty_realization_scores_zero():
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=1e-5)
    placements = (Placement.INTERSECTION, Placement.STREET)
    assert np.array_equal(_connectivity([], radio, placements), [0.0, 0.0])


def test_two_uav_union_rule():
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=1e-5)
    pairs = [(120.0, 0.8), (200.0, 2.2)]
    ps = [los_probability(LinkGeometry(d=d, phi=phi, h_uav=100.0, h_v=10.0), URBAN, Placement.STREET)
          for d, phi in pairs]
    want = 1.0 - (1.0 - ps[0]) * (1.0 - ps[1])
    assert _connectivity(pairs, radio, (Placement.STREET,))[0] == pytest.approx(want, rel=1e-15)


def test_poisson_count_statistic():
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20e-6)
    rng = np.random.default_rng(99)
    n = 20_000
    mean = radio.lambda_uav * math.pi * ground_range(radio) ** 2
    tight = SamplingEnvelope(lambda_cap=radio.lambda_uav, d_cap=ground_range(radio))
    counts = [sample_envelope_points(tight, rng)[0].size for _ in range(n)]
    assert abs(np.mean(counts) - mean) < 3.0 * math.sqrt(mean / n)


def test_worker_invariance_is_byte_exact(monkeypatch):
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20e-6)
    a = estimate_distribution(ScenarioConfig(city=URBAN, radio=radio, n_realizations=1500, seed=31))
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 191)
    b = estimate_distribution(ScenarioConfig(city=URBAN, radio=radio, n_realizations=1500, seed=31,
                                             workers=2))
    for pl in a:
        assert np.array_equal(a[pl].samples, b[pl].samples)
