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
    RadioParams,
    SamplingEnvelope,
    ground_range,
    intersection_weight,
    sample_envelope_points,
)
from .los import (
    Axis,
    LinkGeometry,
    Placement,
    axis_factor,
    axis_factor_quadrature,
    effective_widths,
    integration_limits,
    los_probability,
    los_probability_batch,
)
from .oracle import (
    ValidationCase,
    empirical_los_probability,
    validation_sweep,
)
from .connectivity import (
    EmpiricalDistribution,
    MixtureCDF,
    PlacementMode,
    ScenarioConfig,
    estimate_distribution,
    mixture_cdf,
    outage_grid,
)
from .optimize import (
    ContourGrid,
    HeightSearchSpec,
    InfeasibleSearchError,
    grid_points,
    min_density_for_outage,
    optimize_height,
    sweep_contour,
)

__all__ = [
    "__version__",
    "Axis",
    "CityModel",
    "ContourGrid",
    "EmpiricalDistribution",
    "HeightDistribution",
    "HeightSearchSpec",
    "InfeasibleSearchError",
    "InvalidGeometryError",
    "LinkGeometry",
    "MixtureCDF",
    "PRESETS",
    "Placement",
    "PlacementMode",
    "RadioParams",
    "SamplingEnvelope",
    "ScenarioConfig",
    "ValidationCase",
    "axis_factor",
    "axis_factor_quadrature",
    "effective_widths",
    "empirical_los_probability",
    "estimate_distribution",
    "grid_points",
    "ground_range",
    "integration_limits",
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
