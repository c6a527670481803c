"""Fitting reported structures and measuring held-out predictive loss.

Held-out cases are scored in blocks of at most `_BLOCK_ROWS` = 2^15 cases.
In a block each distinct node of the report's networks (same child, parents
and fitted model) is scored once and its per-case column is added into every
network that holds it. A table node reads each case's entry directly; a
logit node runs its softmax once per distinct parent configuration in the
block (keyed by `config_keys`, the tally's rule), on one case holding it,
and each case takes its configuration's row. So a block's working arrays
stay bounded whatever the test set's size: the block's codes take 256 KiB
per variable, the (networks x cases) float64 scores 256 KiB per network, a
node's keys and column 256 KiB each, and its configuration arrays at most
2^15 x (largest parent arity) entries of 8 bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import DiscreteDataset, config_keys, split_train_test
from .errors import as_index
from .fom import FomParams, _logsumexp, predictive_log_probs
from .graph import DagStructure
from .sampler import PosteriorReport, SamplerConfig, run_sampler
from .scoring import NetworkScorer

# Not called here: the benchmark's tracer (bench/spans.py) wraps these three
# by their name in this module, so they stay importable from it.
from .dataset import counts_for  # noqa: F401
from .fom import fit_fom_map  # noqa: F401
from .scoring import node_length  # noqa: F401

_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True, eq=False)
class FittedNetwork:
    """A structure with one fitted conditional model per node.

    A node is either a full table of log probabilities, shaped (parent
    arities..., child arity) so that parent and child values index it
    directly, or the FomParams of a first-order logit model.
    """

    dag: DagStructure
    nodes: tuple
    chosen_models: tuple[str, ...]
    parameter_count: int


def fit_network(dag: DagStructure, scorer: NetworkScorer) -> FittedNetwork:
    """Fit each node, on the scorer's data, with the model its node score chose.

    Node scores, logit fits and log tables (`NetworkScorer.node_table`) come
    from the scorer's cache, so a report's scorer fits no node twice.
    """
    scores = scorer.node_scores(dag)
    nodes = tuple(
        scorer.node_table(*node) if score.chosen_model == "full" else score.fom_params
        for node, score in zip(enumerate(dag.parent_sets), scores)
    )
    chosen = tuple(score.chosen_model for score in scores)
    parameters = sum(score.parameter_count for score in scores)
    return FittedNetwork(dag, nodes, chosen, parameters)


def _node_log_probs(node, child: int, parents: tuple, columns) -> np.ndarray:
    """Log probability of each case's child value under one fitted node, in
    nits, from the cases' codes as one row per variable. A logit node runs
    its softmax once per distinct parent configuration, on one case holding
    it, and each case takes its configuration's row."""
    values = columns[child]
    if not isinstance(node, FomParams):
        return node[tuple(columns[p] for p in parents) + (values,)]
    n = len(values)
    key, radix, _ = config_keys([columns[p] for p in parents], node.parent_arities, n)
    case = np.full(radix, -1, dtype=np.intp)
    case[key] = np.arange(n)
    observed = np.flatnonzero(case >= 0)
    slot = np.empty(radix, dtype=np.intp)
    slot[observed] = np.arange(len(observed))
    log_probs = predictive_log_probs(node, columns[list(parents)][:, case[observed]].T)
    return log_probs[slot[key], values]


def case_log_prob(network: FittedNetwork, case) -> float:
    """Log joint probability of one complete case, in nits.

    The case holds one integer code per variable; a code outside its
    variable's arity raises ValueError, as does a case of the wrong length.
    """
    case = np.asarray(case)
    if case.shape != (network.dag.m,):
        raise ValueError(
            f"case of shape {case.shape} does not hold one code for each of "
            f"{network.dag.m} variables"
        )
    if case.size and case.dtype.kind not in "biu":
        raise ValueError(f"codes must be integers; got dtype {case.dtype}")
    nodes = tuple(zip(network.dag.parent_sets, network.nodes))
    for variable, (code, (_, node)) in enumerate(zip(case.tolist(), nodes)):
        arity = node.child_arity if isinstance(node, FomParams) else node.shape[-1]
        if not 0 <= code < arity:
            raise ValueError(f"variable {variable}: code {code} outside [0, {arity})")
    columns = case.astype(np.int64)[:, None]
    return float(
        sum(
            _node_log_probs(node, child, parents, columns)[0]
            for child, (parents, node) in enumerate(nodes)
        )
    )


def _fit_classes(report: PosteriorReport):
    """Renormalised visit weights and each class's fitted best network."""
    visits = np.array([c.visits for c in report.classes], dtype=float)
    if visits.size == 0 or visits.sum() <= 0:
        raise ValueError("report holds no visited classes")
    if report.scorer is None:
        raise ValueError("report carries no scorer to fit its classes with")
    networks = [
        fit_network(record.best_network, report.scorer) for record in report.classes
    ]
    return visits / visits.sum(), networks


def _check_test_variables(train: DiscreteDataset, test: DiscreteDataset) -> None:
    """Test cases index the fitted tables by code, so they must use the
    training data's variables and labels."""
    if test.variables != train.variables:
        raise ValueError(
            "test data is not coded with the training variables and labels; "
            "read it with load_csv_with_labels"
        )


def _mixture_nll(networks, weights, test: DiscreteDataset) -> float:
    # Each distinct node, in child order, with the networks that hold it, so
    # a network adds its nodes' columns in the order case_log_prob does.
    holders: dict = {}
    for child in range(networks[0].dag.m):
        for k, network in enumerate(networks):
            node, parents = network.nodes[child], network.dag.parent_sets[child]
            holders.setdefault((child, parents, id(node)), (node, []))[1].append(k)
    log_weights = np.log(weights)[:, None]
    total = 0.0
    for start in range(0, test.n_cases, _BLOCK_ROWS):
        block = test.rows[start : start + _BLOCK_ROWS]
        columns = np.ascontiguousarray(block.T, dtype=np.int64)
        scores = np.zeros((len(networks), len(block)))
        for (child, parents, _), (node, held_by) in holders.items():
            column = _node_log_probs(node, child, parents, columns)
            for k in held_by:
                scores[k] += column
        total -= float(_logsumexp(scores + log_weights, 0).sum())
    return total


def model_averaged_test_nll(report: PosteriorReport, test: DiscreteDataset) -> float:
    """Negative log likelihood of the test cases under the posterior mixture.

    Each reported class's best network is fitted with the report's scorer, on
    its training data, and the classes are mixed by their renormalised visit
    weights, case by case. The test cases must be coded with the training
    data's variables and labels.
    """
    if report.scorer is not None:  # else _fit_classes refuses the report
        _check_test_variables(report.scorer.ds, test)  # before any fit
    weights, networks = _fit_classes(report)
    return _mixture_nll(networks, weights, test)


@dataclass(frozen=True)
class RepeatMetrics:
    seed: int
    train_cases: int
    test_cases: int
    message_length: float  # posterior-weighted best length, nits
    test_nll: float  # nits
    arcs: float  # posterior-weighted
    parameters: float  # posterior-weighted


@dataclass(frozen=True)
class EvalSummary:
    repeats: tuple[RepeatMetrics, ...]

    def to_dict(self) -> dict:
        repeats = [asdict(r) for r in self.repeats]
        means = ("message_length", "test_nll", "arcs", "parameters")
        return {
            "repeats": repeats,
            "means": {k: float(np.mean([r[k] for r in repeats])) for k in means},
        }


def evaluate_split(
    train: DiscreteDataset,
    test: DiscreteDataset,
    config: SamplerConfig,
) -> RepeatMetrics:
    """Run the sampler on the training part and score the test part."""
    _check_test_variables(train, test)
    report = run_sampler(train, config)
    weights, networks = _fit_classes(report)
    classes = report.classes
    return RepeatMetrics(
        seed=config.seed,
        train_cases=train.n_cases,
        test_cases=test.n_cases,
        message_length=float(np.dot(weights, [c.best_length for c in classes])),
        test_nll=_mixture_nll(networks, weights, test),
        arcs=float(np.dot(weights, [c.best_network.arc_count for c in classes])),
        parameters=float(np.dot(weights, [n.parameter_count for n in networks])),
    )


def cross_validate(
    ds: DiscreteDataset,
    repeats: int,
    config: SamplerConfig,
    test_fraction: float = 0.1,
) -> EvalSummary:
    """Repeated random splits; repeat r uses seed config.seed + r throughout."""
    if as_index(repeats, "repeats") < 1:
        raise ValueError("repeats must be at least 1")
    config.validate()  # before the first split draws with its seed
    metrics = []
    for r in range(repeats):
        seed = config.seed + r
        train, test = split_train_test(ds, test_fraction, seed)
        metrics.append(evaluate_split(train, test, replace(config, seed=seed)))
    return EvalSummary(tuple(metrics))
