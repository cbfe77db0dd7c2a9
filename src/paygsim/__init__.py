"""Stochastic projection of a pay-as-you-go pension fund with restricted
entrance.

The package splits into a small set of layers: `stochastic` holds the random
streams, `entrants` the education-to-membership arrival model, `cohorts` the
member grid and its step primitives, `cashflows` the money side and the
ledger, `engine` the cohort engine every run uses, `projection` the
deterministic run and the stepwise grid oracle, `montecarlo` the
replication machinery, and `config`/`outputs`/`cli` the scenario and file
plumbing. The names below are the Python API the README documents.
"""

from ._version import __version__
from .config import (RunSettings, ScenarioConfig, StochasticFlags,
                     default_config_path, load_config)
from .entrants import variance_new_entrants
from .errors import ConfigError, CoverageError, PaygsimError, StateError
from .montecarlo import (SimulationResult, distribution_moments,
                         percentile_bands, run_simulation)
from .projection import (ProjectionResult, run_deterministic_projection,
                         stepwise_projection)
from .schedules import Schedule
from .stochastic import ar1_stationary_std

__all__ = [
    "__version__",
    "ConfigError", "CoverageError", "PaygsimError",
    "ProjectionResult", "RunSettings", "ScenarioConfig", "Schedule",
    "SimulationResult", "StateError", "StochasticFlags",
    "ar1_stationary_std", "default_config_path",
    "distribution_moments", "load_config", "percentile_bands",
    "run_deterministic_projection", "run_simulation", "stepwise_projection",
    "variance_new_entrants",
]
