import dataclasses
import itertools
import math

import numpy as np
import pytest

import uavgrid.los as los
from uavgrid.geometry import PRESETS, CityModel, HeightDistribution
from uavgrid.los import (
    DIRECTION_TOL,
    _geometry,
    _link_limits,
    LinkGeometry,
    Placement,
    effective_widths,
    los_probability,
    los_probability_batch,
)

from quadrature import axis_factor, axis_factor_quadrature, axis_limits

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
    d, c, s = np.array([10.0]), np.array([0.8]), np.array([0.6])
    for h_uav, h_v in ((10.0, 10.0), (math.nan, 10.0), (100.0, math.nan), (math.inf, 10.0),
                       (100.0, -5.0), (100.0, math.inf)):
        with pytest.raises(ValueError):
            los_probability_batch(d, c, s, h_uav, h_v, URBAN, Placement.STREET)
    # the raw-azimuth signature is gone: an old positional call cannot mis-score
    with pytest.raises(TypeError):
        los_probability_batch(d, np.array([0.3]), 100.0, 10.0, URBAN, Placement.STREET)
    # the batch arrays pass LinkGeometry's checks too, alone or among good links;
    # the direction cosines must already be folded into [0, 1]
    bad_links = [([math.nan], [0.8], [0.6]), ([-50.0], [0.8], [0.6]), ([math.inf], [0.8], [0.6]),
                 ([math.nan, -50.0, 50.0], [0.8, 0.8, 0.8], [0.6, 0.6, 0.6]),
                 ([50.0, -1e-300], [0.8, 0.8], [0.6, 0.6])]
    for bad in (math.nan, math.inf, -math.inf, -0.1, 1.5):
        bad_links += [([50.0], [bad], [0.6]), ([50.0], [0.8], [bad]),
                      ([50.0, 50.0], [0.8, bad], [0.6, 0.6]), ([50.0, 50.0], [0.8, 0.8], [bad, 0.6])]
    for bad_d, bad_c, bad_s in bad_links:
        for pl in (Placement.INTERSECTION, Placement.STREET):
            with pytest.raises(ValueError):
                los_probability_batch(np.array(bad_d), np.array(bad_c), np.array(bad_s),
                                      100.0, 10.0, URBAN, pl)
    empty = los_probability_batch(np.empty(0), np.empty(0), np.empty(0), 100.0, 10.0, URBAN,
                                  Placement.STREET)
    assert empty.shape == (0,)


def test_batch_refuses_cosines_of_no_azimuth():
    # c = s = 0 once scored 0.0263, as if it were a link
    for c, s in ((0.0, 0.0), (0.3, 0.3)):
        for d, cs, ss in (([80.0], [c], [s]), ([80.0, 80.0], [0.8, c], [0.6, s])):
            with pytest.raises(ValueError, match="azimuth"):
                los_probability_batch(d, cs, ss, 100.0, 10.0, URBAN, Placement.INTERSECTION)
    # real azimuths pass, folded by numpy as the chunk layout folds them or by
    # math as LinkGeometry does
    phi = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 10**6)
    d = np.full(phi.size, 80.0)
    folds = [(np.abs(np.cos(phi)), np.abs(np.sin(phi))),
             (np.array([abs(math.cos(a)) for a in phi]), np.array([abs(math.sin(a)) for a in phi]))]
    for c, s in folds:
        p = los_probability_batch(d, c, s, 100.0, 10.0, URBAN, Placement.INTERSECTION)
        assert np.all((0.0 <= p) & (p <= 1.0))
    # q = c*c + s*s = 1 + 2**-50 and 1 - 2**-50 sit on the bounds |q - 1| <=
    # DIRECTION_TOL, and the next pair out on either side one ulp of q beyond
    for c, s, passes in ((1.0, 2.0**-25, True), (1.0, math.sqrt(5.0 * 2.0**-52), False),
                         (1.0 - 2.0**-51, 0.0, True), (1.0 - 2.0**-51 - 2.0**-53, 0.0, False)):
        assert (abs(c * c + s * s - 1.0) <= DIRECTION_TOL) == passes
        for cs, ss in (([c], [s]), ([s], [c]), ([0.8, c], [0.6, s])):
            args = ([80.0] * len(cs), cs, ss, 100.0, 10.0, URBAN, Placement.INTERSECTION)
            if passes:
                assert np.all(np.isfinite(los_probability_batch(*args)))
            else:
                with pytest.raises(ValueError, match="azimuth"):
                    los_probability_batch(*args)


def test_link_geometry_folds_angles():
    for raw in (2.0, math.pi - 2.0, math.pi + 2.0, 2.0 * math.pi - 2.0):
        lk = LinkGeometry(d=50.0, phi=raw, h_uav=100.0, h_v=10.0)
        assert 0.0 <= lk.phi <= 0.5 * math.pi
        assert lk.cos_phi == abs(math.cos(raw))
        assert lk.sin_phi == abs(math.sin(raw))


def test_link_geometry_refuses_the_directions_the_batch_refuses(monkeypatch):
    """LinkGeometry makes the batch's direction test, so a link never needs it again."""
    # the bounds of test_batch_refuses_cosines_of_no_azimuth, a cosine past 1 whose q
    # passes, signs that fold away, and NaN
    folds = [(1.0, 2.0**-25), (1.0, math.sqrt(5.0 * 2.0**-52)), (1.0 - 2.0**-51, 0.0),
             (1.0 - 2.0**-51 - 2.0**-53, 0.0), (0.0, 0.0), (0.3, 0.3), (-0.8, 0.6),
             (1.0 + 2.0**-52, 0.0), (0.0, -1.0 - 2.0**-52), (math.nan, 1.0), (0.6, -0.8)]
    refused = 0
    for c, s in folds:
        try:
            los_probability_batch([80.0], [abs(c)], [abs(s)], 100.0, 10.0, URBAN,
                                  Placement.INTERSECTION)
            passes = True
        except ValueError:
            passes = False
        with monkeypatch.context() as patched:
            patched.setattr("uavgrid.los.math.cos", lambda phi, c=c: c)
            patched.setattr("uavgrid.los.math.sin", lambda phi, s=s: s)
            if passes:
                link = LinkGeometry(d=80.0, phi=0.3, h_uav=100.0, h_v=10.0)
            else:
                with pytest.raises(ValueError, match="azimuth"):
                    LinkGeometry(d=80.0, phi=0.3, h_uav=100.0, h_v=10.0)
        if passes:
            assert (link.cos_phi, link.sin_phi) == (abs(c), abs(s))
        refused += not passes
    assert 0 < refused < len(folds)


def test_link_scores_the_batch_bits():
    """los_probability skips the batch's checks and still scores the batch's bits."""
    cities = [URBAN, dataclasses.replace(URBAN, w_v=0.0), dataclasses.replace(URBAN, w_h=0.0),
              dataclasses.replace(URBAN, w_v=0.0, w_h=0.0)]
    angles = [0.0, 0.25 * math.pi, 0.5 * math.pi,
              *np.random.default_rng(8).uniform(0.0, 2.0 * math.pi, 12)]
    for city, placement, d, phi, h_uav in itertools.product(
            cities, Placement, (0.0, 0.5, 80.0, 240.0), angles, (10.5, 30.0, 150.0)):
        link = LinkGeometry(d=d, phi=phi, h_uav=h_uav, h_v=10.0)
        want = los_probability_batch([link.d], [link.cos_phi], [link.sin_phi], h_uav, 10.0,
                                     city, placement)
        got = los_probability(link, city, placement)
        assert type(got) is float and np.float64(got).tobytes() == want.tobytes()


def test_effective_widths():
    assert effective_widths(URBAN, Placement.INTERSECTION) == (13.0, 13.0)
    assert effective_widths(URBAN, Placement.STREET) == (13.0, 0.0)
    assert effective_widths(URBAN, "street") == (13.0, 0.0)
    assert effective_widths(URBAN, "intersection") == (13.0, 13.0)


def test_placement_fails_closed():
    """A placement's value scores as its member; any other value is refused, not scored."""
    d, c, s = np.array([100.0, 30.0]), np.array([0.8, 0.28]), np.array([0.6, 0.96])
    for value, member in (("street", Placement.STREET), ("intersection", Placement.INTERSECTION)):
        want = los_probability_batch(d, c, s, 100.0, 10.0, URBAN, member)
        np.testing.assert_array_equal(los_probability_batch(d, c, s, 100.0, 10.0, URBAN, value), want)
    lk = LinkGeometry(d=100.0, phi=0.3, h_uav=100.0, h_v=10.0)
    for bad in (None, "nowhere", "street-only", 1):
        with pytest.raises(ValueError):
            effective_widths(URBAN, bad)
        with pytest.raises(ValueError):
            los_probability_batch(d, c, s, 100.0, 10.0, URBAN, bad)
        with pytest.raises(ValueError):
            los_probability(lk, URBAN, bad)


def test_corner_critical_height_reference_case():
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    h0 = _link_limits(lk, 13.0, 13.0)[0]
    assert h0 == pytest.approx(18.273149339882607, rel=1e-14)
    assert URBAN.heights.cdf(h0) == pytest.approx(0.4617447020990846, rel=1e-14)


def test_corner_zero_widths_and_parallel_paths():
    lk = LinkGeometry(d=100.0, phi=0.3, h_uav=100.0, h_v=10.0)
    # zero-width streets collapse the corner onto the vehicle
    assert _link_limits(lk, 0.0, 0.0)[0] == 10.0
    lk0 = LinkGeometry(d=100.0, phi=0.0, h_uav=100.0, h_v=10.0)
    assert _link_limits(lk0, 13.0, 13.0)[0] == math.inf
    # float cos(pi/2) is 6.1e-17, so the critical height is finite but huge;
    # an exactly degenerate advance (d = 0) is the unbounded case
    lk90 = LinkGeometry(d=100.0, phi=0.5 * math.pi, h_uav=100.0, h_v=10.0)
    assert URBAN.heights.cdf(_link_limits(lk90, 13.0, 13.0)[0]) == 1.0
    overhead = LinkGeometry(d=0.0, phi=0.3, h_uav=100.0, h_v=10.0)
    assert _link_limits(overhead, 13.0, 13.0)[0] == math.inf
    assert URBAN.heights.cdf(_link_limits(lk0, 13.0, 13.0)[0]) == 1.0


def test_corner_mid_block_facing_wall_is_finite():
    # mid-block with the path straight down the street: the facing block
    # front at w_v/2 still caps the corner height, no crossing street needed
    lk0 = LinkGeometry(d=100.0, phi=0.0, h_uav=100.0, h_v=10.0)
    assert _link_limits(lk0, 13.0, 0.0)[0] == pytest.approx(15.85, rel=1e-14)


def test_corner_factor_saturates():
    low = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=5.5, h_v=5.0)
    assert URBAN.heights.cdf(_link_limits(low, 13.0, 13.0)[0]) == 0.0
    high = LinkGeometry(d=10.0, phi=0.25 * math.pi, h_uav=200.0, h_v=10.0)
    assert URBAN.heights.cdf(_link_limits(high, 13.0, 13.0)[0]) == 1.0


def test_integration_limits_intersection():
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    za, zb = axis_limits(lk, URBAN, "x", Placement.INTERSECTION)
    assert za == pytest.approx(6.5, rel=1e-12)
    assert zb == pytest.approx(100.0 * math.cos(0.25 * math.pi), rel=1e-15)
    za_y, zb_y = axis_limits(lk, URBAN, "y", Placement.INTERSECTION)
    assert za_y == pytest.approx(6.5, rel=1e-12)
    assert zb_y == pytest.approx(70.71067811865474, rel=1e-14)


def test_integration_limits_street():
    """Mid-block the own-street half width rules x; y clearance needs tan(phi)."""
    lk = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    za, _ = axis_limits(lk, URBAN, "x", Placement.STREET)
    assert za == 6.5
    phi = 0.3
    lk2 = LinkGeometry(d=100.0, phi=phi, h_uav=100.0, h_v=10.0)
    za_y, _ = axis_limits(lk2, URBAN, "y", Placement.STREET)
    assert za_y == pytest.approx(6.5 * math.tan(phi), rel=1e-12)
    # the crossing street at an intersection shields everything under w_h/2
    za_y_sec, _ = axis_limits(lk2, URBAN, "y", Placement.INTERSECTION)
    assert za_y_sec == 6.5


def test_limits_collapse_for_axis_parallel_paths():
    lk0 = LinkGeometry(d=100.0, phi=0.0, h_uav=100.0, h_v=10.0)
    za, zb = axis_limits(lk0, URBAN, "y", Placement.INTERSECTION)
    assert not za < zb
    assert axis_factor(lk0, URBAN, "y", Placement.INTERSECTION) == 1.0
    # x side at an intersection: the ray never leaves the crossing street's gap
    za_x, _ = axis_limits(lk0, URBAN, "x", Placement.INTERSECTION)
    assert za_x == math.inf
    assert axis_factor(lk0, URBAN, "x", Placement.INTERSECTION) == 1.0
    # mid-block the same path has real x exposure
    assert axis_limits(lk0, URBAN, "x", Placement.STREET) == (6.5, 100.0)
    assert axis_factor(lk0, URBAN, "x", Placement.STREET) < 1.0


def test_axis_factor_reference_values():
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    assert axis_factor(lk, URBAN, "x", Placement.INTERSECTION) == pytest.approx(0.9493255852250619, rel=1e-13)
    assert axis_factor(lk, URBAN, "y", Placement.INTERSECTION) == pytest.approx(0.922202373660614, rel=1e-13)
    lk2 = LinkGeometry(d=100.0, phi=0.25 * math.pi, h_uav=100.0, h_v=10.0)
    assert axis_factor(lk2, URBAN, "x", Placement.STREET) == pytest.approx(0.9634031326977367, rel=1e-13)
    assert axis_factor(lk2, URBAN, "y", Placement.STREET) == pytest.approx(0.9634031326977367, rel=1e-13)


def test_axis_factor_is_one_when_buildings_cannot_reach():
    shrub = CityModel(mu_s=13.0, mu_b=45.0, w_v=13.0, w_h=13.0,
                      heights=HeightDistribution(2.0, 6.0))
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    assert axis_factor(lk, shrub, "x", Placement.INTERSECTION) == 1.0
    assert los_probability(lk, shrub, Placement.STREET) == 1.0


def test_axis_factor_quadrature_agreement():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lk = LinkGeometry(d=rng.uniform(5.0, 240.0), phi=rng.uniform(0.0, 2.0 * math.pi),
                          h_uav=rng.uniform(11.0, 250.0), h_v=10.0)
        for city in PRESETS.values():
            for axis in ("x", "y"):
                for pl in (Placement.INTERSECTION, Placement.STREET):
                    a = axis_factor(lk, city, axis, pl)
                    q = axis_factor_quadrature(lk, city, axis, pl)
                    assert a == pytest.approx(q, rel=1e-9, abs=1e-12)


def test_exponent_scales_linearly_with_crossing_intensity():
    # halving the block period doubles the crossing intensity: factor squares
    heights = HeightDistribution(9.5, 28.5)
    base = CityModel(mu_s=13.0, mu_b=45.0, w_v=13.0, w_h=13.0, heights=heights)
    dense = CityModel(mu_s=6.5, mu_b=22.5, w_v=13.0, w_h=13.0, heights=heights)
    lk = LinkGeometry(d=150.0, phi=1.0, h_uav=100.0, h_v=10.0)
    f1 = axis_factor(lk, base, "x", Placement.INTERSECTION)
    f2 = axis_factor(lk, dense, "x", Placement.INTERSECTION)
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
        want.append(city.heights.cdf(_link_limits(lk, w_v, w_h)[0])
                    * axis_factor_quadrature(lk, city, "x", pl)
                    * axis_factor_quadrature(lk, city, "y", pl))
    return want


def _batch(d, phi, h_uav, city, pl):
    # the batch kernel on raw azimuths, folded by numpy as the chunk layout folds them
    phi = np.asarray(phi, dtype=float)
    return los_probability_batch(d, np.abs(np.cos(phi)), np.abs(np.sin(phi)), h_uav, 10.0, city, pl)


def test_batch_matches_scalar():
    """The batch kernel against per-link quadrature of both axis integrals."""
    rng = np.random.default_rng(11)
    d = rng.uniform(0.0, 240.0, 400)
    phi = rng.uniform(0.0, 2.0 * math.pi, 400)
    for city in PRESETS.values():
        for pl in (Placement.INTERSECTION, Placement.STREET):
            got = _batch(d, phi, 120.0, city, pl)
            want = _quadrature_reference(d, phi, 120.0, city, pl)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_batch_handles_degenerate_links():
    d = np.array([50.0, 50.0, 50.0, 0.0])
    phi = np.array([0.0, 0.5 * math.pi, 0.25 * math.pi, 1.0])
    for pl in (Placement.INTERSECTION, Placement.STREET):
        got = _batch(d, phi, 100.0, URBAN, pl)
        want = _quadrature_reference(d, phi, 100.0, URBAN, pl)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert np.all((0.0 <= got) & (got <= 1.0))
    # a UAV straight overhead is always visible
    assert _batch(np.zeros(1), np.ones(1), 100.0, URBAN, Placement.STREET)[0] == 1.0


def test_scalar_is_the_batch_kernel_bit_for_bit():
    rng = np.random.default_rng(17)
    d = rng.uniform(0.0, 240.0, 300)
    phi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 300)
    h_uav = rng.uniform(11.0, 250.0, 300)
    for city in PRESETS.values():
        for pl in (Placement.INTERSECTION, Placement.STREET):
            for a, b, h in zip(d, phi, h_uav):
                lk = LinkGeometry(d=float(a), phi=float(b), h_uav=float(h), h_v=10.0)
                batch = _batch(np.array([a]), np.array([b]), float(h), city, pl)[0]
                assert los_probability(lk, city, pl) == batch


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _reference_axis_ramp(za, zb, delta_h, h_v, heights, lambda_s):
    # the closed form's axis survival as it was first written, in z rather than
    # path fractions: exp(-lambda_s * (len_full + 0.5 * (g_lo + g_hi) * len_ramp))
    slope = delta_h / zb
    z1 = (heights.h_min - h_v) / slope
    z2 = (heights.h_max - h_v) / slope
    lo = np.maximum(za, z1)
    hi = np.minimum(zb, z2)
    len_ramp = hi - lo
    length = np.maximum(np.minimum(zb, z1) - za, 0.0)
    g_lo = (z2 - lo) * slope / heights.span
    g_hi = (z2 - hi) * slope / heights.span
    ramp = 0.5 * (g_lo + g_hi) * len_ramp
    np.add(length, ramp, out=length, where=len_ramp > 0.0)
    return np.exp(-lambda_s * length)


def _reference_los(d, c, s, h_uav, h_v, city, pl):
    # corner survival times two separately exponentiated axis survivals
    delta_h = h_uav - h_v
    za_x, zb_x, za_y, zb_y, h0 = _geometry(d, c, s, delta_h, h_v, *effective_widths(city, pl))
    return (city.heights.cdf(h0)
            * _reference_axis_ramp(za_x, zb_x, delta_h, h_v, city.heights, city.lambda_s)
            * _reference_axis_ramp(za_y, zb_y, delta_h, h_v, city.heights, city.lambda_s))


def _links(rng, n, r_max):
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return rng.uniform(0.0, r_max, n), np.abs(np.cos(phi)), np.abs(np.sin(phi))


@pytest.mark.parametrize("h_v, h_hi", [
    # the CLI's vehicle, inside the urban and suburban height ranges
    (10.0, 260.0),
    # a low vehicle under UAVs below every preset's h_min: every side blocks
    (1.5, 5.0),
    # a vehicle above every preset's h_max: no side blocks
    (40.0, 290.0),
])
def test_batch_matches_reference_kernel(h_v, h_hi):
    """The one-fraction kernel (one survivor integral, one exp) against the two-exp reference."""
    rng = np.random.default_rng(23)
    for city in PRESETS.values():
        for pl in (Placement.INTERSECTION, Placement.STREET):
            for h_uav in rng.uniform(h_v, h_hi, 20):
                d, c, s = _links(rng, 1000, 250.0)
                got = los_probability_batch(d, c, s, float(h_uav), h_v, city, pl)
                np.testing.assert_allclose(got, _reference_los(d, c, s, h_uav, h_v, city, pl),
                                           rtol=1e-13, atol=0.0)


def test_batch_matches_reference_kernel_at_tiny_delta_h():
    # Delta h = 1e-3 m puts the unclamped ramp knots hundreds of path lengths
    # from the link, on either side of it
    rng = np.random.default_rng(29)
    for city in PRESETS.values():
        for h_v in (1.5, 10.0, 20.0, 40.0):
            for pl in (Placement.INTERSECTION, Placement.STREET):
                d, c, s = _links(rng, 2000, 250.0)
                got = los_probability_batch(d, c, s, h_v + 1e-3, h_v, city, pl)
                np.testing.assert_allclose(got, _reference_los(d, c, s, h_v + 1e-3, h_v, city, pl),
                                           rtol=1e-13, atol=0.0)


def test_zero_width_city_has_no_nan():
    """0 / 0 clearances (no street, no advance) score finite and block nothing."""
    bare = CityModel(mu_s=13.0, mu_b=45.0, w_v=0.0, w_h=0.0,
                     heights=HeightDistribution(9.5, 28.5))
    d = np.array([0.0, 50.0, 50.0, 0.0])
    c, s = np.array([0.6, 1.0, 0.0, 1.0]), np.array([0.8, 0.0, 1.0, 0.0])
    for pl in (Placement.INTERSECTION, Placement.STREET):
        p = los_probability_batch(d, c, s, 100.0, 10.0, bare, pl)
        assert np.all(np.isfinite(p))
        # overhead, the corner at the vehicle is the only obstacle
        assert p[0] == p[3] == bare.heights.cdf(10.0)
        for phi in (0.0, 0.5 * math.pi, 0.7):
            overhead = LinkGeometry(d=0.0, phi=phi, h_uav=100.0, h_v=10.0)
            for axis in ("x", "y"):
                assert axis_factor(overhead, bare, axis, pl) == 1.0
        # a path along one axis never advances along the other
        along_x = LinkGeometry(d=50.0, phi=0.0, h_uav=100.0, h_v=10.0)
        assert axis_factor(along_x, bare, "y", pl) == 1.0
        assert axis_factor(along_x, bare, "x", pl) < 1.0


# (h_min, h_max, h_v, h_uav) whose ramp from t1 to t2 has no usable slope:
# t1 == t2 once rounded (a band narrower than the spacing of the heights), a
# subnormal t2 - t1 (1 / (t2 - t1) overflows), and an infinite t2 - t1.
FLAT_RAMPS = {
    "band below the float spacing at h_v 10": (5e-321, 1.5e-320, 10.0, 100.0),
    "band below the float spacing at h_v 1e9": (19.0, 19.00000001, 1e9, 1e9 + 100.0),
    "subnormal ramp": (1e-320, 3e-320, 0.0, 100.0),
    "ramp past the largest double": (0.0, 1e308, 0.0, 0.1),
}


@pytest.mark.parametrize("name", FLAT_RAMPS)
def test_a_ramp_without_slope_scores_its_limit(name):
    """The ramp adds at most hi - lo to F, so F is its limit max(hi - t, 0), never NaN."""
    h_min, h_max, h_v, h_uav = FLAT_RAMPS[name]
    city = dataclasses.replace(URBAN, heights=HeightDistribution(h_min, h_max))
    delta_h = h_uav - h_v
    hi = min(max((h_max - h_v) / delta_h, 0.0), 1.0)
    d, c, s = _links(np.random.default_rng(31), 1000, 250.0)
    d[:2] = 0.0
    for pl in (Placement.INTERSECTION, Placement.STREET):
        za_x, zb_x, _, zb_y, h0 = _geometry(d, c, s, delta_h, h_v, *effective_widths(city, pl))
        # the kernel's IEEE limits: d = 0 gives t = inf, a subnormal band an inf corner slope
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            limit = np.fmax(hi - za_x / zb_x, 0.0)
            want = np.exp(-city.lambda_s * ((zb_x + zb_y) * limit)) * city.heights.cdf(h0)
        got = los_probability_batch(d, c, s, h_uav, h_v, city, pl)
        assert np.all((0.0 <= got) & (got <= 1.0))
        np.testing.assert_array_equal(got, want)


def test_ray_clearing_h_max_before_the_gap_is_exactly_clear():
    # at 0.2 m per m of advance the ray clears h_max = 28.5 m 92.5 m out, before
    # either gap clearance of a 200 m wide crossing
    wide = CityModel(mu_s=13.0, mu_b=45.0, w_v=200.0, w_h=200.0,
                     heights=HeightDistribution(9.5, 28.5))
    lk = LinkGeometry(d=math.hypot(150.0, 150.0), phi=0.25 * math.pi, h_uav=10.0 + 0.2 * 212.0,
                      h_v=10.0)
    for axis in ("x", "y"):
        za, zb = axis_limits(lk, wide, axis, Placement.INTERSECTION)
        assert za < zb
        assert axis_factor(lk, wide, axis, Placement.INTERSECTION) == 1.0
    assert los_probability(lk, wide, Placement.INTERSECTION) == 1.0


WIDTH_CASES = {
    # only the crossing street is open: the clearance fraction comes from the y axis
    "w_v=0<w_h": dataclasses.replace(URBAN, w_v=0.0),
    "w_h=0<w_v": dataclasses.replace(URBAN, w_h=0.0),
    "both zero": dataclasses.replace(URBAN, w_v=0.0, w_h=0.0),
    "unequal": dataclasses.replace(URBAN, w_v=20.0, w_h=5.0),
}


@pytest.mark.parametrize("name", WIDTH_CASES)
def test_width_edge_cases_match_reference(name):
    """Zero and unequal street widths, links overhead and along either axis, against the reference."""
    city = WIDTH_CASES[name]
    rng = np.random.default_rng(31)
    d, c, s = _links(rng, 10_000, 250.0)
    # overhead, along x and along y, with exact zeros in the folded cosines
    d = np.concatenate([d, [0.0, 0.0, 0.0, 80.0, 80.0]])
    c = np.concatenate([c, [0.6, 1.0, 0.0, 1.0, 0.0]])
    s = np.concatenate([s, [0.8, 0.0, 1.0, 0.0, 1.0]])
    for pl in (Placement.INTERSECTION, Placement.STREET):
        for h_uav in (10.5, 30.0, 100.0, 250.0):
            got = los_probability_batch(d, c, s, h_uav, 10.0, city, pl)
            np.testing.assert_allclose(got, _reference_los(d, c, s, h_uav, 10.0, city, pl),
                                       rtol=1e-13, atol=0.0)
    # the one-axis view, on LinkGeometry's own fold (phi = pi / 2 leaves |cos| = 6.1e-17)
    phis = np.concatenate([[0.0, 0.5 * math.pi, 0.25 * math.pi], rng.uniform(0.0, 2.0 * math.pi, 200)])
    dists = np.concatenate([[80.0, 80.0, 0.0], rng.uniform(0.0, 250.0, 200)])
    for pl in (Placement.INTERSECTION, Placement.STREET):
        for a, b in zip(dists, phis):
            lk = LinkGeometry(d=float(a), phi=float(b), h_uav=60.0, h_v=10.0)
            za_x, zb_x, za_y, zb_y, _ = _geometry(*(np.array([v]) for v in (lk.d, lk.cos_phi, lk.sin_phi)),
                                                  lk.delta_h, lk.h_v, *effective_widths(city, pl))
            for axis, za, zb in (("x", za_x, zb_x), ("y", za_y, zb_y)):
                want = _reference_axis_ramp(za, zb, lk.delta_h, lk.h_v, city.heights, city.lambda_s)[0]
                assert axis_factor(lk, city, axis, pl) == pytest.approx(want, rel=1e-13, abs=0.0)


def _guarded_corner(d, c, s, delta_h, h_v, w_v, w_h):
    # the corner arithmetic in one expression per array, h0 behind its zero guard
    za_x = np.maximum(0.5 * w_v, 0.5 * w_h * c / s) if w_h > 0.0 else np.full_like(c, 0.5 * w_v)
    zb_x = d * c
    h0 = np.where(za_x > 0.0, za_x * delta_h / zb_x, 0.0) + h_v
    return za_x, zb_x, h0


def test_corner_is_the_guarded_arithmetic_bit_for_bit(monkeypatch):
    """The in-place corner, guard dropped while w_v / 2 > 0, scores the written-out arithmetic's bits."""
    cities = [*PRESETS.values(), *WIDTH_CASES.values(),
              # half of the least subnormal width rounds to zero: the guard stays
              dataclasses.replace(URBAN, w_v=5e-324)]
    rng = np.random.default_rng(37)
    d, c, s = _links(rng, 5000, 250.0)
    # overhead, along x and along y: d = 0, s = 0 and c = 0
    d = np.concatenate([d, [0.0, 0.0, 0.0, 80.0, 80.0, 0.0]])
    c = np.concatenate([c, [0.6, 1.0, 0.0, 1.0, 0.0, 1.0]])
    s = np.concatenate([s, [0.8, 0.0, 1.0, 0.0, 1.0, 0.0]])
    for city in cities:
        for pl in (Placement.INTERSECTION, Placement.STREET):
            widths = effective_widths(city, pl)
            for h_uav in (10.5, 30.0, 100.0, 250.0):
                got = los_probability_batch(d, c, s, h_uav, 10.0, city, pl)
                geometry = _geometry(d, c, s, h_uav - 10.0, 10.0, *widths)
                with monkeypatch.context() as m:
                    m.setattr(los, "_corner", _guarded_corner)
                    want = los_probability_batch(d, c, s, h_uav, 10.0, city, pl)
                    want_geometry = _geometry(d, c, s, h_uav - 10.0, 10.0, *widths)
                assert np.array_equal(got, want), (city, pl, h_uav)
                # the subnormal city's za_y is 0 / 0 on a path along y, either way
                for a, b in zip(geometry, want_geometry):
                    assert np.array_equal(a, b, equal_nan=True), (city, pl, h_uav)
