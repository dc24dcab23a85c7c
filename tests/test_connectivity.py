import numpy as np
import pytest

from uavgrid.connectivity import (
    EmpiricalDistribution,
    ScenarioConfig,
    _substream,
    conditional_connectivity,
    estimate_distribution,
    mixture_cdf,
    outage,
    outage_grid,
)
from uavgrid.geometry import (
    PRESETS,
    InvalidGeometryError,
    NetworkRealization,
    RadioParams,
    SamplingEnvelope,
    ground_range,
    sample_realization,
)
from uavgrid.los import LinkGeometry, Placement, los_probability

URBAN = PRESETS["urban"]
RADIO = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20e-6)


def _realization(pairs):
    return NetworkRealization(
        d=np.array([p[0] for p in pairs], dtype=float),
        phi=np.array([p[1] for p in pairs], dtype=float),
    )


def test_conditional_connectivity_empty_is_zero():
    assert conditional_connectivity(_realization([]), URBAN, RADIO, Placement.INTERSECTION) == 0.0


def test_conditional_connectivity_single_uav():
    real = _realization([(150.0, 1.0)])
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    for pl in (Placement.INTERSECTION, Placement.STREET):
        assert conditional_connectivity(real, URBAN, RADIO, pl) == pytest.approx(
            los_probability(lk, URBAN, pl), rel=1e-15)


def test_conditional_connectivity_two_uav_product():
    pairs = [(150.0, 1.0), (90.0, 0.4)]
    ps = [los_probability(LinkGeometry(d=d, phi=phi, h_uav=100.0, h_v=10.0), URBAN, Placement.INTERSECTION)
          for d, phi in pairs]
    want = 1.0 - (1.0 - ps[0]) * (1.0 - ps[1])
    got = conditional_connectivity(_realization(pairs), URBAN, RADIO, Placement.INTERSECTION)
    assert got == pytest.approx(want, rel=1e-15)


def test_adding_a_uav_never_hurts():
    base = [(150.0, 1.0), (90.0, 0.4)]
    a = conditional_connectivity(_realization(base), URBAN, RADIO, Placement.INTERSECTION)
    b = conditional_connectivity(_realization(base + [(60.0, 2.5)]), URBAN, RADIO, Placement.INTERSECTION)
    assert b >= a


def test_empirical_distribution_evaluate():
    dist = EmpiricalDistribution(samples=np.array([0.2, 0.4, 0.4, 0.8]), n=4, seed=0)
    assert dist.evaluate(0.1) == 0.0
    assert dist.evaluate(0.2) == 0.25
    assert dist.evaluate(0.39999) == 0.25
    assert dist.evaluate(0.4) == 0.75
    assert dist.evaluate(1.0) == 1.0
    np.testing.assert_allclose(dist.evaluate(np.array([0.2, 0.5])), [0.25, 0.75])
    with pytest.raises(ValueError):
        EmpiricalDistribution(samples=np.zeros(3), n=4, seed=0)


def test_scenario_config_validation():
    for bad in ({"n_realizations": 0}, {"workers": 0}, {"chunk_size": 0},
                {"seed": -1}, {"seed": 2**64}):
        with pytest.raises(ValueError):
            ScenarioConfig(city=URBAN, radio=RADIO, **{"n_realizations": 10, **bad})


def test_estimate_matches_scalar_pipeline():
    """The chunked batch estimator reproduces the per-realization loop."""
    n = 256
    cfg = ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=n, seed=42, chunk_size=100)
    dists = estimate_distribution(cfg)
    env = SamplingEnvelope(lambda_cap=RADIO.lambda_uav, d_cap=ground_range(RADIO))
    scores = {pl: [] for pl in (Placement.INTERSECTION, Placement.STREET)}
    for i in range(n):
        real = sample_realization(RADIO, _substream(42, i), env)
        for pl in scores:
            scores[pl].append(conditional_connectivity(real, URBAN, RADIO, pl))
    for pl, dist in dists.items():
        assert dist.n == n
        np.testing.assert_allclose(np.sort(scores[pl]), dist.samples, rtol=1e-12, atol=1e-13)


def test_zero_density_distribution_is_degenerate():
    radio = RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=0.0)
    cfg = ScenarioConfig(city=URBAN, radio=radio, n_realizations=50, seed=0)
    for dist in estimate_distribution(cfg).values():
        assert np.all(dist.samples == 0.0)
        assert dist.evaluate(0.0) == 1.0
        assert outage(dist, 0.8) == 1.0


def test_chunking_and_workers_do_not_change_samples():
    a = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=9))
    b = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=9, chunk_size=257))
    c = estimate_distribution(ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=3000, seed=9, workers=2))
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
    env = SamplingEnvelope(lambda_cap=40e-6, d_cap=ground_range(RADIO))
    hi = ScenarioConfig(city=URBAN, radio=RadioParams(250.0, 100.0, 10.0, 40e-6),
                        n_realizations=1500, seed=23, envelope=env)
    lo = ScenarioConfig(city=URBAN, radio=RadioParams(250.0, 100.0, 10.0, 15e-6),
                        n_realizations=1500, seed=23, envelope=env)
    short = ScenarioConfig(city=URBAN, radio=RadioParams(200.0, 100.0, 10.0, 40e-6),
                           n_realizations=1500, seed=23, envelope=env)
    d_hi = estimate_distribution(hi)
    d_lo = estimate_distribution(lo)
    d_short = estimate_distribution(short)
    for pl in d_hi:
        assert np.all(d_lo[pl].samples <= d_hi[pl].samples)
        assert np.all(d_short[pl].samples <= d_hi[pl].samples)


def test_envelope_must_cover_scenario():
    env = SamplingEnvelope(lambda_cap=10e-6, d_cap=ground_range(RADIO))
    cfg = ScenarioConfig(city=URBAN, radio=RADIO, n_realizations=10, seed=0, envelope=env)
    with pytest.raises(InvalidGeometryError):
        estimate_distribution(cfg)


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
    dist = EmpiricalDistribution(samples=np.array([0.5]), n=1, seed=0)
    assert outage(dist, 0.5) == 1.0
    assert outage(dist, 0.49) == 0.0
    with pytest.raises(ValueError):
        outage(dist, 1.5)
    with pytest.raises(ValueError):
        outage(dist, -0.1)


def test_outage_grid_matches_distribution_pipeline():
    n = 500
    heights = [100.0, 160.0]
    tight = SamplingEnvelope(lambda_cap=RADIO.lambda_uav, d_cap=ground_range(RADIO))
    # lambda < lambda_cap and d_max < d_cap: both filters of the envelope act
    loose = SamplingEnvelope(lambda_cap=2.5 * RADIO.lambda_uav, d_cap=ground_range(RADIO) + 20.0)
    for env in (tight, loose):
        # zero, interior and the envelope's own cap: empty, partial and full mark prefixes
        lams = [0.0, 0.4 * env.lambda_cap, env.lambda_cap]
        mixes = {}
        for i, lam in enumerate(lams):
            for j, h in enumerate(heights):
                radio = RadioParams(r_max=250.0, h_uav=h, h_v=10.0, lambda_uav=lam)
                dists = estimate_distribution(
                    ScenarioConfig(city=URBAN, radio=radio, n_realizations=n, seed=6, envelope=env))
                mixes[i, j] = mixture_cdf(dists[Placement.INTERSECTION], dists[Placement.STREET], URBAN)
        for gamma_th in (0.0, 0.8, 1.0):
            grid = outage_grid(URBAN, 250.0, 10.0, lams, heights, gamma_th, n, 6, envelope=env)
            assert grid.shape == (len(lams), len(heights))
            for (i, j), mix in mixes.items():
                assert grid[i, j] == outage(mix, gamma_th), (env, i, j, gamma_th)


def test_outage_grid_worker_invariance():
    hts = [80.0, 140.0]
    # the last case leaves most realizations, and so most one-realization
    # chunks, without a single envelope point
    for lam, n, chunk_size in (([10e-6, 25e-6], 2000, 333), ([1e-6, 3e-6], 400, 1)):
        a = outage_grid(URBAN, 250.0, 10.0, lam, hts, 0.8, n, 5)
        b = outage_grid(URBAN, 250.0, 10.0, lam, hts, 0.8, n, 5, workers=2, chunk_size=chunk_size)
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
    for n, seed, extra in ((0, 0, {}), (10, -1, {}), (10, 2**64, {}),
                           (10, 0, {"workers": 0}), (10, 0, {"chunk_size": 0})):
        with pytest.raises(ValueError):
            outage_grid(URBAN, 250.0, 10.0, [1e-5], [100.0], 0.8, n, seed, **extra)
