"""Native hypergraph active-learning seed selection.

Selects a budgeted seed set of nodes by greedily maximizing a submodular
objective combining feature-space coverage with expected one-hop diffusion,
computed directly on the hypergraph (no clique expansion).
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, HialError
from .hypergraph import Hypergraph, build
from .propagation import (
    build_hgnn_transition,
    build_hoi_transition,
    build_transition,
    influence_columns,
    propagate,
)
from .objective import (
    build_activation_sets,
    build_feature_balls,
    edv,
    marginal_gain,
    unified_objective,
)
from .selector import (
    SelectionConfig,
    SelectionResult,
    prepare,
    select_lazy,
    select_naive,
)

__all__ = [
    "__version__",
    "HialError", "DataError", "ConfigError",
    "Hypergraph", "build",
    "build_hoi_transition", "build_hgnn_transition", "build_transition",
    "propagate", "influence_columns",
    "build_activation_sets", "build_feature_balls",
    "edv", "marginal_gain", "unified_objective",
    "SelectionConfig", "SelectionResult",
    "prepare", "select_naive", "select_lazy",
]
