import math

import numpy as np
import pytest

from uavgrid.geometry import PRESETS, CityModel, HeightDistribution
from uavgrid.los import (
    UNBOUNDED,
    Axis,
    LinkGeometry,
    Placement,
    axis_factor,
    axis_factor_quadrature,
    corner_critical_height,
    corner_factor,
    effective_widths,
    integration_limits,
    los_probability,
    los_probability_batch,
)

URBAN = PRESETS["urban"]


def test_link_geometry_validation():
    with pytest.raises(ValueError):
        LinkGeometry(d=-1.0, phi=0.0, h_uav=100.0, h_v=10.0)
    with pytest.raises(ValueError):
        LinkGeometry(d=10.0, phi=0.0, h_uav=10.0, h_v=10.0)
    with pytest.raises(ValueError):
        LinkGeometry(d=10.0, phi=0.0, h_uav=5.0, h_v=-1.0)
    # non-finite links fail closed instead of scoring nan or raising elsewhere
    for bad in ({"d": math.nan}, {"d": math.inf}, {"phi": math.nan}, {"phi": math.inf},
                {"h_uav": math.nan}, {"h_uav": math.inf}, {"h_v": math.nan}, {"h_v": math.inf}):
        with pytest.raises(ValueError):
            LinkGeometry(**{"d": 10.0, "phi": 0.0, "h_uav": 100.0, "h_v": 10.0, **bad})
    d, phi = np.array([10.0]), np.array([0.3])
    for h_uav, h_v in ((10.0, 10.0), (math.nan, 10.0), (100.0, math.nan)):
        with pytest.raises(ValueError):
            los_probability_batch(d, phi, h_uav, h_v, URBAN, Placement.STREET)


def test_link_geometry_folds_angles():
    for raw in (2.0, math.pi - 2.0, math.pi + 2.0, 2.0 * math.pi - 2.0):
        lk = LinkGeometry(d=50.0, phi=raw, h_uav=100.0, h_v=10.0)
        assert 0.0 <= lk.phi <= 0.5 * math.pi
        assert lk.cos_phi == abs(math.cos(raw))
        assert lk.sin_phi == abs(math.sin(raw))


def test_effective_widths():
    assert effective_widths(URBAN, Placement.INTERSECTION) == (13.0, 13.0)
    assert effective_widths(URBAN, Placement.STREET) == (13.0, 0.0)


def test_corner_critical_height_reference_case():
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    assert corner_critical_height(lk, 13.0, 13.0) == pytest.approx(18.273149339882607, rel=1e-14)
    assert corner_factor(lk, 13.0, 13.0, URBAN.heights) == pytest.approx(0.4617447020990846, rel=1e-14)


def test_corner_zero_widths_and_parallel_paths():
    lk = LinkGeometry(d=100.0, phi=0.3, h_uav=100.0, h_v=10.0)
    # zero-width streets collapse the corner onto the vehicle
    assert corner_critical_height(lk, 0.0, 0.0) == 10.0
    lk0 = LinkGeometry(d=100.0, phi=0.0, h_uav=100.0, h_v=10.0)
    assert corner_critical_height(lk0, 13.0, 13.0) == UNBOUNDED
    # float cos(pi/2) is 6.1e-17, so the critical height is finite but huge;
    # an exactly degenerate advance (d = 0) is the unbounded case
    lk90 = LinkGeometry(d=100.0, phi=0.5 * math.pi, h_uav=100.0, h_v=10.0)
    assert corner_factor(lk90, 13.0, 13.0, URBAN.heights) == 1.0
    overhead = LinkGeometry(d=0.0, phi=0.3, h_uav=100.0, h_v=10.0)
    assert corner_critical_height(overhead, 13.0, 13.0) == UNBOUNDED
    assert corner_factor(lk0, 13.0, 13.0, URBAN.heights) == 1.0


def test_corner_mid_block_facing_wall_is_finite():
    # mid-block with the path straight down the street: the facing block
    # front at w_v/2 still caps the corner height, no crossing street needed
    lk0 = LinkGeometry(d=100.0, phi=0.0, h_uav=100.0, h_v=10.0)
    assert corner_critical_height(lk0, 13.0, 0.0) == pytest.approx(15.85, rel=1e-14)


def test_corner_factor_saturates():
    low = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=5.5, h_v=5.0)
    assert corner_factor(low, 13.0, 13.0, URBAN.heights) == 0.0
    high = LinkGeometry(d=10.0, phi=0.25 * math.pi, h_uav=200.0, h_v=10.0)
    assert corner_factor(high, 13.0, 13.0, URBAN.heights) == 1.0


def test_integration_limits_intersection():
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    za, zb = integration_limits(lk, URBAN, Axis.X, Placement.INTERSECTION)
    assert za == pytest.approx(6.5, rel=1e-12)
    assert zb == pytest.approx(100.0 * math.cos(0.25 * math.pi), rel=1e-15)
    za_y, zb_y = integration_limits(lk, URBAN, Axis.Y, Placement.INTERSECTION)
    assert za_y == pytest.approx(6.5, rel=1e-12)
    assert zb_y == pytest.approx(70.71067811865474, rel=1e-14)


def test_integration_limits_street():
    """Mid-block the own-street half width rules x; y clearance needs tan(phi)."""
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    za, _ = integration_limits(lk, URBAN, Axis.X, Placement.STREET)
    assert za == 6.5
    phi = 0.3
    lk2 = LinkGeometry(d=100.0, phi=phi, h_uav=100.0, h_v=10.0)
    za_y, _ = integration_limits(lk2, URBAN, Axis.Y, Placement.STREET)
    assert za_y == pytest.approx(6.5 * math.tan(phi), rel=1e-12)
    # the crossing street at an intersection shields everything under w_h/2
    za_y_sec, _ = integration_limits(lk2, URBAN, Axis.Y, Placement.INTERSECTION)
    assert za_y_sec == 6.5


def test_limits_collapse_for_axis_parallel_paths():
    lk0 = LinkGeometry(d=100.0, phi=0.0, h_uav=100.0, h_v=10.0)
    za, zb = integration_limits(lk0, URBAN, Axis.Y, Placement.INTERSECTION)
    assert not za < zb
    assert axis_factor(lk0, URBAN, Axis.Y, Placement.INTERSECTION) == 1.0
    # x side at an intersection: the ray never leaves the crossing street's gap
    za_x, _ = integration_limits(lk0, URBAN, Axis.X, Placement.INTERSECTION)
    assert za_x == UNBOUNDED
    assert axis_factor(lk0, URBAN, Axis.X, Placement.INTERSECTION) == 1.0
    # mid-block the same path has real x exposure
    assert integration_limits(lk0, URBAN, Axis.X, Placement.STREET) == (6.5, 100.0)
    assert axis_factor(lk0, URBAN, Axis.X, Placement.STREET) < 1.0


def test_axis_factor_reference_values():
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    assert axis_factor(lk, URBAN, Axis.X, Placement.INTERSECTION) == pytest.approx(0.9493255852250619, rel=1e-13)
    assert axis_factor(lk, URBAN, Axis.Y, Placement.INTERSECTION) == pytest.approx(0.922202373660614, rel=1e-13)
    lk2 = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    assert axis_factor(lk2, URBAN, Axis.X, Placement.STREET) == pytest.approx(0.9634031326977367, rel=1e-13)
    assert axis_factor(lk2, URBAN, Axis.Y, Placement.STREET) == pytest.approx(0.9634031326977367, rel=1e-13)


def test_axis_factor_is_one_when_buildings_cannot_reach():
    shrub = CityModel(mu_s=13.0, mu_b=45.0, mu_H=4.0, w_v=13.0, w_h=13.0,
                      heights=HeightDistribution(2.0, 6.0))
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    assert axis_factor(lk, shrub, Axis.X, Placement.INTERSECTION) == 1.0
    assert los_probability(lk, shrub, Placement.STREET) == 1.0


def test_axis_factor_quadrature_agreement():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lk = LinkGeometry(d=rng.uniform(5.0, 240.0), phi=rng.uniform(0.0, 2.0 * math.pi),
                          h_uav=rng.uniform(11.0, 250.0), h_v=10.0)
        for city in PRESETS.values():
            for axis in (Axis.X, Axis.Y):
                for pl in (Placement.INTERSECTION, Placement.STREET):
                    a = axis_factor(lk, city, axis, pl)
                    q = axis_factor_quadrature(lk, city, axis, pl)
                    assert a == pytest.approx(q, rel=1e-9, abs=1e-12)


def test_exponent_scales_linearly_with_crossing_intensity():
    # halving the block period doubles the crossing intensity: factor squares
    heights = HeightDistribution(9.5, 28.5)
    base = CityModel(mu_s=13.0, mu_b=45.0, mu_H=19.0, w_v=13.0, w_h=13.0, heights=heights)
    dense = CityModel(mu_s=6.5, mu_b=22.5, mu_H=19.0, w_v=13.0, w_h=13.0, heights=heights)
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    f1 = axis_factor(lk, base, Axis.X, Placement.INTERSECTION)
    f2 = axis_factor(lk, dense, Axis.X, Placement.INTERSECTION)
    assert f2 == pytest.approx(f1 * f1, rel=1e-12)


def test_los_probability_reference_values():
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    assert los_probability(lk, URBAN, Placement.INTERSECTION) == pytest.approx(0.3556336083972022, rel=1e-13)
    street_cases = [
        (100.0, 0.25 * math.pi, 100.0, 0.4285663117719914),
        (100.0, 0.5, 100.0, 0.3427030537022353),
        (80.0, 0.2, 160.0, 0.6737045167488968),
    ]
    for d, phi, h, want in street_cases:
        lk = LinkGeometry(d=d, phi=phi, h_uav=h, h_v=10.0)
        assert los_probability(lk, URBAN, Placement.STREET) == pytest.approx(want, rel=1e-13)


def test_street_equals_intersection_beyond_diagonal():
    # once tan(phi) >= 1 the vehicle street sets every clearance by itself,
    # so the crossing street at an intersection adds nothing
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    assert los_probability(lk, URBAN, Placement.STREET) == los_probability(lk, URBAN, Placement.INTERSECTION)


def _quadrature_reference(d, phi, h_uav, city, pl):
    # corner survival times both axis survivals, each axis integrated by quad
    w_v, w_h = effective_widths(city, pl)
    want = []
    for a, b in zip(d, phi):
        lk = LinkGeometry(d=float(a), phi=float(b), h_uav=h_uav, h_v=10.0)
        want.append(corner_factor(lk, w_v, w_h, city.heights)
                    * axis_factor_quadrature(lk, city, Axis.X, pl)
                    * axis_factor_quadrature(lk, city, Axis.Y, pl))
    return want


def test_batch_matches_scalar():
    """The batch kernel against per-link quadrature of both axis integrals."""
    rng = np.random.default_rng(11)
    d = rng.uniform(0.0, 240.0, 400)
    phi = rng.uniform(0.0, 2.0 * math.pi, 400)
    for city in PRESETS.values():
        for pl in (Placement.INTERSECTION, Placement.STREET):
            got = los_probability_batch(d, phi, 120.0, 10.0, city, pl)
            want = _quadrature_reference(d, phi, 120.0, city, pl)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_batch_handles_degenerate_links():
    d = np.array([50.0, 50.0, 50.0, 0.0])
    phi = np.array([0.0, 0.5 * math.pi, 0.25 * math.pi, 1.0])
    for pl in (Placement.INTERSECTION, Placement.STREET):
        got = los_probability_batch(d, phi, 100.0, 10.0, URBAN, pl)
        want = _quadrature_reference(d, phi, 100.0, URBAN, pl)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert np.all((0.0 <= got) & (got <= 1.0))
    # a UAV straight overhead is always visible
    assert los_probability_batch(np.zeros(1), np.ones(1), 100.0, 10.0, URBAN, Placement.STREET)[0] == 1.0


def test_scalar_is_the_batch_kernel_bit_for_bit():
    rng = np.random.default_rng(17)
    d = rng.uniform(0.0, 240.0, 300)
    phi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 300)
    h_uav = rng.uniform(11.0, 250.0, 300)
    for city in PRESETS.values():
        for pl in (Placement.INTERSECTION, Placement.STREET):
            for a, b, h in zip(d, phi, h_uav):
                lk = LinkGeometry(d=float(a), phi=float(b), h_uav=float(h), h_v=10.0)
                batch = los_probability_batch(np.array([a]), np.array([b]), float(h), 10.0, city, pl)[0]
                assert los_probability(lk, city, pl) == batch
