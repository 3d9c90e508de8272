"""opminer: learn edit operations from model version histories.

Pipeline: difference successive model versions, reduce to simple change
graphs, mine frequent connected subgraphs over their components, rank by
compression, and emit declarative edit rules. Includes a synthetic-history
generator and a MAP@k evaluation harness for controlled experiments.
"""

from .graphcore import (
    CanonicalCode,
    GraphError,
    LabeledGraph,
    canonical_code,
    connected_components,
    is_subgraph_isomorphic,
)
from .miner import (
    CalibrationConfig,
    MiningBudgetExceeded,
    Pattern,
    TransactionDB,
    calibrate_threshold,
    mine,
    size_at_threshold,
)
from .modeldiff import (
    ChangeGraph,
    DifferenceGraph,
    MetaModel,
    ModelError,
    ModelVersion,
    difference_graph,
    simple_change_graph,
)
from .ranker import RankedList, compression, prune, rank
from .rulegen import EditRule, NoMatchError, RuleError, pattern_to_rule
from .simgen import RepoBundle, SimConfig, build_initial, default_catalogs, simulate
from .evalharness import GridSpec, ap_at_k, locate_truth, run_grid, spearman

__version__ = "0.1.0"
