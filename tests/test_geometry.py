import math
import numpy as np
import pytest

from uavgrid.connectivity import _lay_out, estimate_distribution
from uavgrid.geometry import (
    PRESETS,
    CityModel,
    HeightDistribution,
    InvalidGeometryError,
    SamplingEnvelope,
    ground_range,
    intersection_weight,
    philox_streams,
    sample_envelope_points,
)


def test_height_distribution_validation():
    with pytest.raises(InvalidGeometryError):
        HeightDistribution(-1.0, 5.0)
    with pytest.raises(InvalidGeometryError):
        HeightDistribution(5.0, 5.0)
    with pytest.raises(InvalidGeometryError):
        HeightDistribution(7.0, 5.0)
    for bad in ((math.nan, 5.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(InvalidGeometryError):
            HeightDistribution(*bad)


def test_height_distribution_cdf_ramp():
    h = HeightDistribution(9.5, 28.5)
    assert h.cdf(9.5) == 0.0
    assert h.cdf(28.5) == 1.0
    assert h.cdf(0.0) == 0.0
    assert h.cdf(100.0) == 1.0
    assert h.cdf(19.0) == pytest.approx(0.5)
    np.testing.assert_allclose(h.cdf(np.array([9.5, 19.0, 28.5])), [0.0, 0.5, 1.0])
    # P(height > h) and the mean height, from the bounds and the cdf
    assert 1.0 - h.cdf(19.0) == pytest.approx(0.5)
    assert 0.5 * (h.h_min + h.h_max) == 19.0
    assert h.span == 19.0


def test_city_model_validation_and_intensity():
    heights = HeightDistribution(9.5, 28.5)
    with pytest.raises(InvalidGeometryError):
        CityModel(mu_s=0.0, mu_b=45.0, w_v=13.0, w_h=13.0, heights=heights)
    with pytest.raises(InvalidGeometryError):
        CityModel(mu_s=13.0, mu_b=45.0, w_v=-1.0, w_h=13.0, heights=heights)
    good = {"mu_s": 13.0, "mu_b": 45.0, "w_v": 13.0, "w_h": 13.0}
    for key in good:
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidGeometryError):
                CityModel(**{**good, key: value}, heights=heights)
    assert PRESETS["urban"].lambda_s == pytest.approx(1.0 / 58.0)


def test_preset_parameters():
    sub, urb, dense = PRESETS["suburban"], PRESETS["urban"], PRESETS["dense-urban"]

    def mean(heights):
        return 0.5 * (heights.h_min + heights.h_max)

    assert (mean(sub.heights), sub.mu_b, sub.mu_s) == (10.0, 37.0, 10.0)
    assert (mean(urb.heights), urb.mu_b, urb.mu_s) == (19.0, 45.0, 13.0)
    assert (mean(dense.heights), dense.mu_b, dense.mu_s) == (25.0, 60.0, 20.0)
    for c in (sub, urb, dense):
        assert c.w_v == c.mu_s and c.w_h == c.mu_s
        assert c.heights.h_min == 0.5 * mean(c.heights)
        assert c.heights.h_max == 1.5 * mean(c.heights)


def test_intersection_weight_values():
    assert intersection_weight(PRESETS["urban"]) == pytest.approx(13.0 / 58.0)
    assert intersection_weight(PRESETS["suburban"]) == pytest.approx(10.0 / 47.0)
    for c in PRESETS.values():
        w = intersection_weight(c)
        assert 0.0 < w < 1.0
        # street fraction of a block period, exact in floating point
        assert w * (c.mu_s + c.mu_b) == c.mu_s


def test_scenario_validation():
    # estimate_distribution's scenario rule refuses a bad scenario before anything is drawn
    def refuse(r_max, h_v, lambda_uav, h_uav):
        with pytest.raises(InvalidGeometryError):
            estimate_distribution(PRESETS["urban"], r_max, h_v, [lambda_uav], [h_uav], [0.8], 10, 0)

    refuse(r_max=250.0, h_uav=5.0, h_v=10.0, lambda_uav=0.0)
    refuse(r_max=80.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    refuse(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=-1.0)
    refuse(r_max=250.0, h_uav=100.0, h_v=-1.0, lambda_uav=20e-6)
    good = {"r_max": 250.0, "h_uav": 100.0, "h_v": 10.0, "lambda_uav": 20e-6}
    for key in good:
        for value in (math.nan, math.inf):
            refuse(**{**good, key: value})
    # equal heights are allowed, the serving disk then has the full radius
    assert ground_range(100.0, 10.0, 10.0) == 100.0


def test_ground_range_value(scenario):
    assert ground_range(scenario["r_max"], scenario["h_uav"], scenario["h_v"]) == pytest.approx(
        233.23807579381202, rel=1e-15)


def _tight(scenario):
    # the envelope at the scenario's own caps keeps every point it draws
    d_max = ground_range(scenario["r_max"], scenario["h_uav"], scenario["h_v"])
    return SamplingEnvelope(lambda_cap=scenario["lambda_uav"], d_cap=d_max)


def _caps(env):
    """An envelope's caps as the lambda_cap and d_cap arguments."""
    return {"lambda_cap": env.lambda_cap, "d_cap": env.d_cap}


def test_sample_realization_empty_at_zero_density():
    # zero density is mark fraction 0 of any envelope, which no mark is below
    env = SamplingEnvelope(lambda_cap=20e-6, d_cap=233.0)
    layout = _lay_out(*sample_envelope_points(env, 1234, 0, 50), 0.0)
    assert layout.d.size == 0 and layout.slot.size == 0
    assert np.all(np.isinf(layout.marks))


def test_sample_realization_properties(scenario):
    d_max = ground_range(scenario["r_max"], scenario["h_uav"], scenario["h_v"])
    env = _tight(scenario)
    d, phi, mark, counts = sample_envelope_points(env, 1234, 0, 20)
    stops = np.cumsum(counts)
    for i, (a, b) in enumerate(zip(stops - counts, stops)):
        # draw order: point k is row k of the uniforms numpy draws after the count
        rng = np.random.Generator(np.random.Philox(key=np.array([1234, i], dtype=np.uint64)))
        u = rng.random((rng.poisson(env.mean_count), 3))
        assert np.array_equal(d[a:b], env.d_cap * np.sqrt(u[:, 0]))
        assert np.array_equal(phi[a:b], 2.0 * math.pi * u[:, 1])
        assert np.array_equal(mark[a:b], u[:, 2])
    assert d.size > 0 and mark.flags.owndata
    assert np.all(d <= d_max)
    assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi))
    assert np.all((0.0 <= mark) & (mark < 1.0))


def test_rekeyed_streams_draw_what_fresh_generators_draw():
    """Each re-keyed step starts stream (seed, i) afresh, whatever the last step left buffered."""
    last = 2**64 - 1
    for seed in (0, 1234, last):
        indices = [5, 0, last, 5, 2**63]
        draws = []
        for i, rng in philox_streams(seed, indices):
            # a lone uint32 leaves half a word buffered, and two doubles more a block part read
            draws.append((i, rng.integers(0, 2**32, dtype=np.uint32), rng.random(2),
                          rng.poisson(3.4, 5)))
        assert [i for i, *_ in draws] == indices
        for i, *got in draws:
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            want = (rng.integers(0, 2**32, dtype=np.uint32), rng.random(2), rng.poisson(3.4, 5))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("lambda_cap", [20e-6, 100e-6])  # mean 3.4 (< PTRS_MEAN) and 17
def test_sampler_refuses_keys_it_cannot_draw(lambda_cap):
    env = SamplingEnvelope(lambda_cap=lambda_cap, d_cap=233.0)
    # each would key another stream: a fraction truncates, an index from 2**64 on wraps to 0
    for seed, start, stop in ((1.5, 0, 3), (7, 0.5, 3), (7, 0, np.float64(3.0)), (-1, 0, 3),
                              (2**64, 0, 3), (7, -1, 3), (7, 3, 2), (7, 2**64 - 2, 2**64 + 1),
                              (7, 0, True)):
        with pytest.raises(ValueError):
            sample_envelope_points(env, seed, start, stop)
    # numpy integers pass, and the last seed and index still draw what a fresh Generator does
    last = 2**64 - 1
    d, phi, mark, counts = sample_envelope_points(env, np.uint64(last), np.uint64(last), 2**64)
    rng = np.random.Generator(np.random.Philox(key=np.array([last, last], dtype=np.uint64)))
    u = rng.random((rng.poisson(env.mean_count), 3))
    assert counts.tolist() == [len(u)] and len(u) > 0
    assert np.array_equal(d, env.d_cap * np.sqrt(u[:, 0]))
    assert np.array_equal(mark, u[:, 2])


def test_envelope_validation():
    with pytest.raises(InvalidGeometryError):
        SamplingEnvelope(lambda_cap=0.0, d_cap=100.0)
    with pytest.raises(InvalidGeometryError):
        SamplingEnvelope(lambda_cap=1e-5, d_cap=0.0)
    for bad in ((math.nan, 100.0), (1e-5, math.nan), (math.inf, 100.0), (1e-5, math.inf)):
        with pytest.raises(InvalidGeometryError):
            SamplingEnvelope(*bad)


def test_restrict_rejects_uncovered_scenarios(scenario):
    """A scenario is carved out of one envelope draw only where the envelope covers it."""
    env = _tight(scenario)
    lam, h_uav = scenario["lambda_uav"], scenario["h_uav"]
    short = SamplingEnvelope(lambda_cap=lam, d_cap=env.d_cap - 1.0)

    def count(lambda_uav, envelope):
        return estimate_distribution(scenario["city"], scenario["r_max"], scenario["h_v"],
                                     [lambda_uav], [h_uav], [0.8], 10, 0, **_caps(envelope))

    for lambda_uav, envelope in ((2.0 * lam, env), (lam, short)):
        with pytest.raises(InvalidGeometryError):
            count(lambda_uav, envelope)
    count(lam, env)


def test_restrict_nesting():
    """Carving a smaller density out of one envelope draw keeps a prefix of each row."""
    env = SamplingEnvelope(lambda_cap=4e-5, d_cap=200.0)
    big = _lay_out(*sample_envelope_points(env, 7, 0, 64), 1.0)
    small = _lay_out(*sample_envelope_points(env, 7, 0, 64), 0.25)
    assert 0 < small.d.size < big.d.size
    assert set(small.d) <= set(big.d)
    # every realization keeps its marks below 0.25, lowest first, and nothing else
    ranks = small.marks.shape[0]
    assert np.array_equal(small.marks, np.where(big.marks[:ranks] < 0.25, big.marks[:ranks], np.inf))
    assert np.all(big.marks[ranks:] >= 0.25)


def test_envelope_path_matches_direct_sampling(scenario, realization_scores):
    # an envelope at the scenario's own caps draws the identical realizations
    direct = realization_scores(**scenario, n_realizations=500, seed=42)
    carved = realization_scores(**scenario, n_realizations=500, seed=42, **_caps(_tight(scenario)))
    assert np.array_equal(direct, carved)


def test_same_seed_reproduces(scenario):
    a = sample_envelope_points(_tight(scenario), 5, 0, 200)
    b = sample_envelope_points(_tight(scenario), 5, 0, 200)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
