import math

import numpy as np
import pytest

from uavgrid.geometry import (
    PRESETS,
    CityModel,
    HeightDistribution,
    InvalidGeometryError,
    RadioParams,
    SamplingEnvelope,
    ground_range,
    intersection_weight,
    restrict,
    sample_envelope_points,
    sample_realization,
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
        CityModel(mu_s=0.0, mu_b=45.0, mu_H=19.0, w_v=13.0, w_h=13.0, heights=heights)
    with pytest.raises(InvalidGeometryError):
        CityModel(mu_s=13.0, mu_b=45.0, mu_H=19.0, w_v=-1.0, w_h=13.0, heights=heights)
    good = {"mu_s": 13.0, "mu_b": 45.0, "mu_H": 19.0, "w_v": 13.0, "w_h": 13.0}
    for key in good:
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidGeometryError):
                CityModel(**{**good, key: value}, heights=heights)
    assert PRESETS["urban"].lambda_s == pytest.approx(1.0 / 58.0)


def test_preset_parameters():
    sub, urb, dense = PRESETS["suburban"], PRESETS["urban"], PRESETS["dense-urban"]
    assert (sub.mu_H, sub.mu_b, sub.mu_s) == (10.0, 37.0, 10.0)
    assert (urb.mu_H, urb.mu_b, urb.mu_s) == (19.0, 45.0, 13.0)
    assert (dense.mu_H, dense.mu_b, dense.mu_s) == (25.0, 60.0, 20.0)
    for c in (sub, urb, dense):
        assert c.w_v == c.mu_s and c.w_h == c.mu_s
        assert c.heights.h_min == 0.5 * c.mu_H
        assert c.heights.h_max == 1.5 * c.mu_H


def test_intersection_weight_values():
    assert intersection_weight(PRESETS["urban"]) == pytest.approx(13.0 / 58.0)
    assert intersection_weight(PRESETS["suburban"]) == pytest.approx(10.0 / 47.0)
    for c in PRESETS.values():
        w = intersection_weight(c)
        assert 0.0 < w < 1.0
        # street fraction of a block period, exact in floating point
        assert w * (c.mu_s + c.mu_b) == c.mu_s


def test_radio_params_validation():
    with pytest.raises(InvalidGeometryError):
        RadioParams(r_max=250.0, h_uav=5.0, h_v=10.0, lambda_uav=0.0)
    with pytest.raises(InvalidGeometryError):
        RadioParams(r_max=80.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    with pytest.raises(InvalidGeometryError):
        RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=-1.0)
    good = {"r_max": 250.0, "h_uav": 100.0, "h_v": 10.0, "lambda_uav": 20e-6}
    for key in good:
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidGeometryError):
                RadioParams(**{**good, key: value})
    # equal heights are allowed, the serving disk then has the full radius
    r = RadioParams(r_max=100.0, h_uav=10.0, h_v=10.0, lambda_uav=0.0)
    assert ground_range(r) == 100.0


def test_ground_range_value(radio):
    assert ground_range(radio) == pytest.approx(233.23807579381202, rel=1e-15)


def test_sample_realization_empty_at_zero_density(rng):
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    assert len(sample_realization(radio, rng)) == 0


def test_sample_realization_properties(radio, rng):
    d_max = ground_range(radio)
    for _ in range(20):
        real = sample_realization(radio, rng)
        assert np.all(np.diff(real.d) >= 0.0)
        assert np.all(real.d <= d_max)
        assert np.all((0.0 <= real.phi) & (real.phi < 2.0 * math.pi))


def test_mean_count_matches_intensity(radio):
    rng = np.random.default_rng(99)
    n = 20_000
    mean = 20e-6 * math.pi * ground_range(radio) ** 2
    assert mean == pytest.approx(3.4180528071056955, rel=1e-15)
    counts = [len(sample_realization(radio, rng)) for _ in range(n)]
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


def test_restrict_rejects_uncovered_scenarios():
    env = SamplingEnvelope(lambda_cap=1e-5, d_cap=100.0)
    d, phi, mark = sample_envelope_points(env, np.random.default_rng(0))
    with pytest.raises(InvalidGeometryError):
        restrict(d, phi, mark, env, 2e-5, 100.0)
    with pytest.raises(InvalidGeometryError):
        restrict(d, phi, mark, env, 1e-5, 101.0)


def test_restrict_nesting():
    """Thinning to a smaller density or radius keeps a subset of the points."""
    env = SamplingEnvelope(lambda_cap=4e-5, d_cap=200.0)
    d, phi, mark = sample_envelope_points(env, np.random.default_rng(7))
    big = restrict(d, phi, mark, env, 4e-5, 200.0)
    small_lam = restrict(d, phi, mark, env, 1e-5, 200.0)
    small_d = restrict(d, phi, mark, env, 4e-5, 120.0)
    assert len(big.d) == len(d)
    assert set(small_lam.d) <= set(big.d)
    assert set(small_d.d) <= set(big.d)
    assert np.all(small_d.d <= 120.0)


def test_envelope_path_matches_direct_sampling(radio):
    # an envelope at the scenario's own caps draws the identical realization
    env = SamplingEnvelope(lambda_cap=radio.lambda_uav, d_cap=ground_range(radio))
    a = sample_realization(radio, np.random.default_rng(42))
    b = sample_realization(radio, np.random.default_rng(42), env)
    assert np.array_equal(a.d, b.d) and np.array_equal(a.phi, b.phi)


def test_same_seed_reproduces(radio):
    a = sample_realization(radio, np.random.default_rng(5))
    b = sample_realization(radio, np.random.default_rng(5))
    assert np.array_equal(a.d, b.d) and np.array_equal(a.phi, b.phi)
