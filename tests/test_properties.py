"""Invariant checks that back the simulator's headline guarantees.

Kept self-contained so the file can run standalone:

    pytest tests/test_properties.py
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uavgrid.connectivity as connectivity
from uavgrid.connectivity import _chunk_scores, _lay_out
from uavgrid.geometry import PRESETS, SamplingEnvelope, ground_range, sample_envelope_points
from uavgrid.los import LinkGeometry, Placement, _geometry, los_probability

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


# zero, or at least a millimetre: below that the products underflow to subnormals
street_width = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=50.0, **_finite))
ground_d = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=250.0, **_finite))


@given(w_v=street_width, w_h=street_width, d=ground_d, phi=link_phi)
@settings(max_examples=300, deadline=None)
def test_both_axes_clear_the_cross_at_one_path_fraction(w_v, w_h, d, phi):
    """The kernel's identity: za_x / zb_x = za_y / zb_y, the fraction where the ray leaves the cross."""
    c, s = abs(math.cos(phi)), abs(math.sin(phi))
    # an azimuth within 1e-150 rad of an axis (but off it) leaves w * sin(phi) subnormal
    assume(min(c, s) == 0.0 or min(c, s) > 1e-150)
    za_x, zb_x, za_y, zb_y, _ = _geometry(np.array([d]), np.array([c]), np.array([s]), 90.0,
                                          10.0, w_v, w_h)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_x, t_y = float(za_x[0] / zb_x[0]), float(za_y[0] / zb_y[0])
    if math.isfinite(t_x) and math.isfinite(t_y):
        assert abs(t_x - t_y) <= 4.0 * np.spacing(max(t_x, t_y))


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


def _connectivity(pairs, placements):
    """One realization's connectivity at 100 m over a vehicle at 10 m, r_max 250 m."""
    survival = _chunk_scores(_one_realization(pairs), URBAN, 250.0, 10.0, [100.0], placements,
                             last_only=True)
    return np.array([1.0 - last[0] for _, _, last in survival])


def test_empty_realization_scores_zero():
    placements = (Placement.INTERSECTION, Placement.STREET)
    assert np.array_equal(_connectivity([], placements), [0.0, 0.0])


def test_two_uav_union_rule():
    pairs = [(120.0, 0.8), (200.0, 2.2)]
    ps = [los_probability(LinkGeometry(d=d, phi=phi, h_uav=100.0, h_v=10.0), URBAN, Placement.STREET)
          for d, phi in pairs]
    want = 1.0 - (1.0 - ps[0]) * (1.0 - ps[1])
    assert _connectivity(pairs, (Placement.STREET,))[0] == pytest.approx(want, rel=1e-15)


def test_poisson_count_statistic():
    n = 20_000
    mean = 20e-6 * math.pi * ground_range(250.0, 100.0, 10.0) ** 2
    assert mean == pytest.approx(3.4180528071056955, rel=1e-15)
    tight = SamplingEnvelope(lambda_cap=20e-6, d_cap=ground_range(250.0, 100.0, 10.0))
    counts = sample_envelope_points(tight, 99, 0, n)[3]
    # 3 sigma band for the sample mean of a Poisson count
    assert abs(np.mean(counts) - mean) < 3.0 * math.sqrt(mean / n)


def test_worker_invariance_is_byte_exact(monkeypatch, scenario, realization_scores):
    a = realization_scores(**scenario, n_realizations=1500, seed=31)
    monkeypatch.setattr(connectivity, "CHUNK_SIZE", 191)
    b = realization_scores(**scenario, n_realizations=1500, seed=31, workers=2)
    assert a.tobytes() == b.tobytes()
