"""Interval-valued probability distributions over finite multivariate spaces.

The package models per-cell probability intervals, computes the exact joint
envelopes a database of (interval) marginal tables admits, projects and
reconstructs distributions across database schemes, and quantifies the
uncertainty and information loss involved — all exact, not endpoint
arithmetic: single-table bounds in closed form, and a database envelope as
the Fréchet combination of its components' envelopes, each by linear
programming unless it is one table and no table's bounds miss 1 in floats.
"""

from .errors import (
    ConvergenceError,
    DocumentError,
    EnumerationLimitError,
    InfeasibleError,
    IvprobError,
    SolverError,
    SpaceMismatchError,
    UnknownVariableError,
    ValidationError,
)
from .model import (
    Database,
    IntervalDistribution,
    RealDistribution,
    Scheme,
    Space,
    Variable,
    is_more_informative,
    require_valid,
    validate,
)
from .simplex import SimplexResult
from .polytope import (
    ConstraintSystem,
    constraints_from_box,
    constraints_from_database,
    is_consistent,
    normalization_row,
    optimize,
)
from .extension import (
    extension_star,
    joint_intervals,
    project_database,
    project_interval,
    project_real,
    reconstruct,
    tighten,
)
from .entropy import (
    box_maxent,
    box_minent,
    conditional_entropy,
    kl_divergence,
    maxent_ipf,
    measure_u1,
    measure_u2,
    mvd_strength,
    shannon_entropy,
)
from .measures import (
    SchemeReport,
    distance_d0,
    enumerate_schemes,
    information_loss,
    is_refinement,
    measure_u0,
    rank_schemes,
)
from .docio import (
    format_scalar,
    load_document,
    parse_document,
    serialize_document,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DocumentError",
    "EnumerationLimitError",
    "InfeasibleError",
    "IvprobError",
    "SolverError",
    "SpaceMismatchError",
    "UnknownVariableError",
    "ValidationError",
    "Database",
    "IntervalDistribution",
    "RealDistribution",
    "Scheme",
    "Space",
    "Variable",
    "is_more_informative",
    "require_valid",
    "validate",
    "SimplexResult",
    "ConstraintSystem",
    "constraints_from_box",
    "constraints_from_database",
    "is_consistent",
    "normalization_row",
    "optimize",
    "extension_star",
    "joint_intervals",
    "project_database",
    "project_interval",
    "project_real",
    "reconstruct",
    "tighten",
    "box_maxent",
    "box_minent",
    "conditional_entropy",
    "kl_divergence",
    "maxent_ipf",
    "measure_u1",
    "measure_u2",
    "mvd_strength",
    "shannon_entropy",
    "SchemeReport",
    "distance_d0",
    "enumerate_schemes",
    "information_loss",
    "is_refinement",
    "measure_u0",
    "rank_schemes",
    "format_scalar",
    "load_document",
    "parse_document",
    "serialize_document",
    "__version__",
]
