"""Compact And-Or DAG representation of discrete probabilistic belief states.

The package provides the DAG itself (:mod:`aobs.core`), action application
(:mod:`aobs.acting`), condition inference (:mod:`aobs.query`), greedy size
optimization (:mod:`aobs.optimize`), a tabular brute-force oracle
(:mod:`aobs.oracle`), a one-hot ROBDD baseline (:mod:`aobs.bdd`), and a
benchmark harness (:mod:`aobs.bench`).
"""

from .core import (
    Aobs,
    AobsError,
    ExpansionTooLarge,
    MismatchedSubspaces,
    MismatchedUniverse,
    Node,
    OverlappingSubspaces,
    PartialAssignment,
    Store,
    UnknownVariable,
    count_states,
    enumerate_states,
    from_physical_state,
    from_tabular,
    size_metric,
    union_roots,
)
from .oracle import Action, Condition, tab_apply_action, tab_canonical, tab_equal, tab_prob
from .acting import (
    ApplyResult,
    MassLeak,
    apply_action,
    normalize,
)
from .query import probability, select_substate
from .optimize import greedy_optimize

__all__ = [
    "Aobs",
    "AobsError",
    "Action",
    "ApplyResult",
    "Condition",
    "ExpansionTooLarge",
    "MassLeak",
    "MismatchedSubspaces",
    "MismatchedUniverse",
    "Node",
    "OverlappingSubspaces",
    "PartialAssignment",
    "Store",
    "UnknownVariable",
    "apply_action",
    "count_states",
    "enumerate_states",
    "from_physical_state",
    "from_tabular",
    "greedy_optimize",
    "normalize",
    "probability",
    "select_substate",
    "size_metric",
    "tab_apply_action",
    "tab_canonical",
    "tab_equal",
    "tab_prob",
    "union_roots",
]

__version__ = "0.1.0"
