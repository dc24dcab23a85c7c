import pytest

from uavgrid.geometry import PRESETS, RadioParams


@pytest.fixture
def urban():
    return PRESETS["urban"]


@pytest.fixture
def radio():
    return RadioParams(r_max=250.0, h_uav=100.0, h_v=10.0, lambda_uav=20e-6)
