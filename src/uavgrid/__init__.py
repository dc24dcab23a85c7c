"""LoS connectivity of UAV swarms over grid cities.

Closed-form per-link LoS probabilities for a vehicle in a random street grid,
Monte Carlo estimation of the connectivity distribution under Poisson UAV
deployments, and altitude optimization under an outage constraint.
"""

__version__ = "0.1.0"

from .geometry import (
    CityModel,
    HeightDistribution,
    InvalidGeometryError,
    PRESETS,
    SamplingEnvelope,
    ground_range,
    intersection_weight,
    sample_envelope_points,
)
from .los import (
    LinkGeometry,
    Placement,
    effective_widths,
    los_probability,
    los_probability_batch,
)
from .oracle import (
    ValidationCase,
    empirical_los_probability,
    validation_sweep,
)
from .connectivity import (
    PlacementMode,
    estimate_distribution,
    mixture_cdf,
    outage_grid,
)
from .optimize import (
    InfeasibleSearchError,
    grid_points,
    min_density_for_outage,
    optimize_height,
    sweep_contour,
)

__all__ = [
    "__version__",
    "CityModel",
    "HeightDistribution",
    "InfeasibleSearchError",
    "InvalidGeometryError",
    "LinkGeometry",
    "PRESETS",
    "Placement",
    "PlacementMode",
    "SamplingEnvelope",
    "ValidationCase",
    "effective_widths",
    "empirical_los_probability",
    "estimate_distribution",
    "grid_points",
    "ground_range",
    "intersection_weight",
    "los_probability",
    "los_probability_batch",
    "min_density_for_outage",
    "mixture_cdf",
    "optimize_height",
    "outage_grid",
    "sample_envelope_points",
    "sweep_contour",
    "validation_sweep",
]
