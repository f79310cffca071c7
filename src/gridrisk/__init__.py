"""Vulnerability, detectability, and risk of combined data-integrity and
data-availability attacks on DC power system state estimation."""

from .attack import perturb_model
from .detector import make_bdd_config
from .estimator import Gains, compute_gains, compute_reduced_gains
from .milp import MilpError
from .network import (
    CaseValidationError,
    UnobservableError,
    build_model,
    load_bundled_case,
    load_case_file,
)
from .risk import default_mu_grid, empirical_detection, risk_sweep, tuple_attack_variants
from .security import (
    IndexQuery,
    SecurityIndexError,
    combined_index,
    cost_weighted_index,
    fdi_index,
    index_sweep,
)

__version__ = "0.5.0"

__all__ = [
    "CaseValidationError",
    "Gains",
    "IndexQuery",
    "MilpError",
    "SecurityIndexError",
    "UnobservableError",
    "build_model",
    "combined_index",
    "compute_gains",
    "compute_reduced_gains",
    "cost_weighted_index",
    "default_mu_grid",
    "empirical_detection",
    "fdi_index",
    "index_sweep",
    "load_bundled_case",
    "load_case_file",
    "make_bdd_config",
    "perturb_model",
    "risk_sweep",
    "tuple_attack_variants",
]
