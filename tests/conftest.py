import numpy as np
import pytest

from uavgrid.connectivity import PlacementMode, _chunk_scores, _map_chunks, _scenario
from uavgrid.geometry import PRESETS


@pytest.fixture
def urban():
    return PRESETS["urban"]


@pytest.fixture
def scenario():
    """The urban one-cell scenario the unit tests share, by argument name."""
    return {"city": PRESETS["urban"], "r_max": 250.0, "h_v": 10.0, "lambda_uav": 20e-6,
            "h_uav": 100.0}


@pytest.fixture
def realization_scores():
    """Each realization's connectivity 1 - prod(1 - p_LoS) at one positive-density cell.

    The function it returns maps the chunks as estimate_distribution does,
    and reduces each to its last-rank scores: a (2, n_realizations) array,
    intersection then street, in realization order.
    """
    def scores(city, r_max, h_v, lambda_uav, h_uav, n_realizations, seed, lambda_cap=None,
               d_cap=None, workers=1):
        placements = PlacementMode.MIXTURE.placements
        _, _, envelope = _scenario(r_max, h_v, [lambda_uav], [h_uav], lambda_cap, d_cap)

        def last_rank(layout):
            survival = _chunk_scores(layout, city, r_max, h_v, [h_uav], placements,
                                     last_only=True)
            return np.stack([1.0 - last for _, _, last in survival])

        chunks = _map_chunks(last_rank, envelope, seed, n_realizations,
                             lambda_uav / envelope.lambda_cap, workers)
        return np.concatenate(chunks, axis=1)

    return scores


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything opens a worker pool."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("opened a worker pool")

    # the pool is imported where it is opened, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
