"""Bayesian network structure discovery for categorical data.

Structures are compared by the total length of a two-part message that
states the network and then the data under it; a Metropolis sampler over
DAG space visits structures in proportion to exp(-length) and reports the
posterior mass of each Markov equivalence class. Nodes can be coded with
full conditional tables, with an additive first-order logit model, or with
the cheaper of the two per node.
"""

from .cpt_full import FullCptScore, full_cpt_message_length, full_cpt_predictive
from .dataset import (
    ContingencyCounts,
    DiscreteDataset,
    VariableMeta,
    config_digits,
    config_index,
    counts_for,
    load_csv,
    load_csv_with_labels,
    split_train_test,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    CycleError,
    DataFormatError,
    DegenerateVariableError,
    MissingValueError,
    MmlbnError,
    NoArcError,
    ParameterCapError,
    ParentCapError,
)
from .evaluation import (
    EvalSummary,
    FittedNetwork,
    RepeatMetrics,
    case_log_prob,
    cross_validate,
    evaluate_split,
    fit_network,
    model_averaged_test_nll,
)
from .fom import (
    FomObjective,
    FomParams,
    FomScore,
    fit_fom_map,
    fom_message_length,
    fom_probability,
    free_dimension,
)
from .graph import (
    DagStructure,
    apply_move,
    count_linear_extensions,
    cpdag_key,
    structure_log_prior,
)
from .sampler import (
    ChainState,
    ClassRecord,
    PosteriorReport,
    SamplerConfig,
    SamplerContext,
    clean_network,
    initial_state,
    metropolis_step,
    run_sampler,
)
from .scoring import (
    ModelPolicy,
    NetworkScorer,
    NodeScore,
    ScoreCache,
    network_message_length,
    node_length,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChainState",
    "ClassRecord",
    "ContingencyCounts",
    "ConvergenceError",
    "CycleError",
    "DagStructure",
    "DataFormatError",
    "DegenerateVariableError",
    "DiscreteDataset",
    "EvalSummary",
    "FittedNetwork",
    "FomObjective",
    "FomParams",
    "FomScore",
    "FullCptScore",
    "MissingValueError",
    "MmlbnError",
    "ModelPolicy",
    "NetworkScorer",
    "NoArcError",
    "NodeScore",
    "ParameterCapError",
    "ParentCapError",
    "PosteriorReport",
    "RepeatMetrics",
    "SamplerConfig",
    "SamplerContext",
    "ScoreCache",
    "VariableMeta",
    "apply_move",
    "case_log_prob",
    "clean_network",
    "config_digits",
    "config_index",
    "count_linear_extensions",
    "counts_for",
    "cpdag_key",
    "cross_validate",
    "evaluate_split",
    "fit_fom_map",
    "fit_network",
    "fom_message_length",
    "fom_probability",
    "free_dimension",
    "full_cpt_message_length",
    "full_cpt_predictive",
    "initial_state",
    "load_csv",
    "load_csv_with_labels",
    "metropolis_step",
    "model_averaged_test_nll",
    "network_message_length",
    "node_length",
    "run_sampler",
    "split_train_test",
    "structure_log_prior",
]
