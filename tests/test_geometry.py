import copy
import math

import numpy as np
import pytest

from uavgrid.connectivity import ScenarioConfig, _chunk_layout, estimate_distribution
from uavgrid.geometry import (
    PRESETS,
    CityModel,
    HeightDistribution,
    InvalidGeometryError,
    RadioParams,
    SamplingEnvelope,
    ground_range,
    intersection_weight,
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
    assert h.survival(19.0) == pytest.approx(0.5)
    assert h.mean == 19.0
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
    assert (sub.heights.mean, sub.mu_b, sub.mu_s) == (10.0, 37.0, 10.0)
    assert (urb.heights.mean, urb.mu_b, urb.mu_s) == (19.0, 45.0, 13.0)
    assert (dense.heights.mean, dense.mu_b, dense.mu_s) == (25.0, 60.0, 20.0)
    for c in (sub, urb, dense):
        assert c.w_v == c.mu_s and c.w_h == c.mu_s
        assert c.heights.h_min == 0.5 * c.heights.mean
        assert c.heights.h_max == 1.5 * c.heights.mean


def test_intersection_weight_values():
    assert intersection_weight(PRESETS["urban"]) == pytest.approx(13.0 / 58.0)
    assert intersection_weight(PRESETS["suburban"]) == pytest.approx(10.0 / 47.0)
    for c in PRESETS.values():
        w = intersection_weight(c)
        assert 0.0 < w < 1.0
        # street fraction of a block period, exact in floating point
        assert w * (c.mu_s + c.mu_b) == c.mu_s


def test_radio_params_validation():
    # RadioParams is a plain record: estimate_distribution's scenario rule refuses
    # a bad one before anything is drawn
    def refuse(**radio):
        config = ScenarioConfig(city=PRESETS["urban"], radio=RadioParams(**radio), n_realizations=10)
        with pytest.raises(InvalidGeometryError):
            estimate_distribution(config)

    refuse(r_max=250.0, h_uav=5.0, h_v=10.0, lambda_uav=0.0)
    refuse(r_max=80.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    refuse(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=-1.0)
    refuse(r_max=250.0, h_uav=100.0, h_v=-1.0, lambda_uav=20e-6)
    good = {"r_max": 250.0, "h_uav": 100.0, "h_v": 10.0, "lambda_uav": 20e-6}
    for key in good:
        for value in (math.nan, math.inf):
            refuse(**{**good, key: value})
    # equal heights are allowed, the serving disk then has the full radius
    r = RadioParams(r_max=100.0, h_uav=10.0, h_v=10.0, lambda_uav=0.0)
    assert ground_range(r.r_max, r.h_uav, r.h_v) == 100.0


def test_ground_range_value(radio):
    assert ground_range(radio.r_max, radio.h_uav, radio.h_v) == pytest.approx(233.23807579381202,
                                                                          rel=1e-15)


def _tight(radio):
    # the envelope at the scenario's own caps keeps every point it draws
    d_max = ground_range(radio.r_max, radio.h_uav, radio.h_v)
    return SamplingEnvelope(lambda_cap=radio.lambda_uav, d_cap=d_max)


def _caps(env):
    """An envelope's caps as the lambda_cap and d_cap arguments."""
    return {"lambda_cap": env.lambda_cap, "d_cap": env.d_cap}


def test_sample_realization_empty_at_zero_density():
    # zero density is mark fraction 0 of any envelope, which no mark is below
    env = SamplingEnvelope(lambda_cap=20e-6, d_cap=233.0)
    layout = _chunk_layout(env, 1234, 0, 50, 0.0)
    assert layout.d.size == 0 and layout.slot.size == 0
    assert np.all(np.isinf(layout.marks))


def test_sample_realization_properties(radio, rng):
    d_max = ground_range(radio.r_max, radio.h_uav, radio.h_v)
    env = _tight(radio)
    for _ in range(20):
        twin = copy.deepcopy(rng)
        d, phi, mark = sample_envelope_points(env, rng)
        # draw order: point k is row k of the uniforms drawn after the count
        u = twin.random((twin.poisson(env.mean_count), 3))
        assert np.array_equal(d, env.d_cap * np.sqrt(u[:, 0]))
        assert np.array_equal(phi, 2.0 * math.pi * u[:, 1])
        assert np.array_equal(mark, u[:, 2]) and mark.flags.owndata
        assert np.all(d <= d_max)
        assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi))
        assert np.all((0.0 <= mark) & (mark < 1.0))


def test_mean_count_matches_intensity(radio):
    rng = np.random.default_rng(99)
    n = 20_000
    mean = 20e-6 * math.pi * ground_range(radio.r_max, radio.h_uav, radio.h_v) ** 2
    assert mean == pytest.approx(3.4180528071056955, rel=1e-15)
    counts = [sample_envelope_points(_tight(radio), rng)[0].size for _ in range(n)]
    # 3 sigma band for the sample mean of a Poisson count
    assert abs(np.mean(counts) - mean) < 3.0 * math.sqrt(mean / n)


def test_envelope_validation():
    with pytest.raises(InvalidGeometryError):
        SamplingEnvelope(lambda_cap=0.0, d_cap=100.0)
    with pytest.raises(InvalidGeometryError):
        SamplingEnvelope(lambda_cap=1e-5, d_cap=0.0)
    for bad in ((math.nan, 100.0), (1e-5, math.nan), (math.inf, 100.0), (1e-5, math.inf)):
        with pytest.raises(InvalidGeometryError):
            SamplingEnvelope(*bad)


def test_restrict_rejects_uncovered_scenarios(radio):
    """A scenario is carved out of one envelope draw only where the envelope covers it."""
    env = _tight(radio)
    denser = RadioParams(r_max=radio.r_max, h_uav=radio.h_uav, h_v=radio.h_v, lambda_uav=2.0 * radio.lambda_uav)
    short = SamplingEnvelope(lambda_cap=radio.lambda_uav, d_cap=env.d_cap - 1.0)
    for scenario, envelope in ((denser, env), (radio, short)):
        with pytest.raises(InvalidGeometryError):
            estimate_distribution(ScenarioConfig(city=PRESETS["urban"], radio=scenario, n_realizations=10,
                                                 seed=0, **_caps(envelope)))
    estimate_distribution(ScenarioConfig(city=PRESETS["urban"], radio=radio, n_realizations=10, seed=0,
                                         **_caps(env)))


def test_restrict_nesting():
    """Carving a smaller density out of one envelope draw keeps a prefix of each row."""
    env = SamplingEnvelope(lambda_cap=4e-5, d_cap=200.0)
    big = _chunk_layout(env, 7, 0, 64, 1.0)
    small = _chunk_layout(env, 7, 0, 64, 0.25)
    assert 0 < small.d.size < big.d.size
    assert set(small.d) <= set(big.d)
    # every realization keeps its marks below 0.25, lowest first, and nothing else
    ranks = small.marks.shape[0]
    assert np.array_equal(small.marks, np.where(big.marks[:ranks] < 0.25, big.marks[:ranks], np.inf))
    assert np.all(big.marks[ranks:] >= 0.25)


def test_envelope_path_matches_direct_sampling(radio):
    # an envelope at the scenario's own caps draws the identical realizations
    direct = estimate_distribution(ScenarioConfig(city=PRESETS["urban"], radio=radio, n_realizations=500,
                                                  seed=42))
    carved = estimate_distribution(ScenarioConfig(city=PRESETS["urban"], radio=radio, n_realizations=500,
                                                  seed=42, **_caps(_tight(radio))))
    for pl in direct:
        assert np.array_equal(direct[pl].samples, carved[pl].samples)


def test_same_seed_reproduces(radio):
    a = sample_envelope_points(_tight(radio), np.random.default_rng(5))
    b = sample_envelope_points(_tight(radio), np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
