import pytest

from uavgrid.connectivity import ScenarioConfig
from uavgrid.geometry import PRESETS


@pytest.fixture
def urban():
    return PRESETS["urban"]


@pytest.fixture
def scenario():
    """The urban scenario the unit tests share; dataclasses.replace sets its run."""
    return ScenarioConfig(PRESETS["urban"], r_max=250.0, h_v=10.0, lambda_uav=20e-6, h_uav=100.0)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything opens a worker pool."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("opened a worker pool")

    # the pool is imported where it is opened, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
