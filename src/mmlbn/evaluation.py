"""Fitting reported structures and measuring held-out predictive loss."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .cpt_full import full_cpt_predictive
from .dataset import DiscreteDataset, counts_for, split_train_test
from .errors import as_index
from .fom import FomParams, _logsumexp, predictive_log_probs
from .graph import DagStructure
from .sampler import PosteriorReport, SamplerConfig, run_sampler
from .scoring import NetworkScorer

# Not called here: the benchmark's tracer (bench/spans.py) wraps these by
# their name in this module, so they stay importable from it.
from .fom import fit_fom_map  # noqa: F401
from .scoring import node_length  # noqa: F401

_BLOCK_ROWS = 2048


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

    Node scores, logit fits included, come from the scorer's cache, so a
    sampler run's scorer (`PosteriorReport.scorer`) fits nothing again.
    """
    scores = scorer.node_scores(dag)
    nodes = []
    for child, (parents, score) in enumerate(zip(dag.parent_sets, scores)):
        if score.chosen_model == "full":
            counts = counts_for(scorer.ds, child, parents)
            # Unseen configurations keep the uniform row full_cpt_predictive gives.
            table = np.log(full_cpt_predictive(counts))
            nodes.append(table.reshape(counts.parent_arities + (counts.child_arity,)))
        else:
            nodes.append(score.fom_params)
    chosen = tuple(score.chosen_model for score in scores)
    parameters = sum(score.parameter_count for score in scores)
    return FittedNetwork(dag, tuple(nodes), chosen, parameters)


def _log_probs(network: FittedNetwork, rows: np.ndarray) -> np.ndarray:
    """Log joint probability of each complete case (row), in nits."""
    total = np.zeros(rows.shape[0])
    for child, parents in enumerate(network.dag.parent_sets):
        node, values = network.nodes[child], rows[:, child]
        if isinstance(node, FomParams):
            log_probs = predictive_log_probs(node, rows[:, list(parents)])
            total += log_probs[np.arange(len(rows)), values]
        else:
            total += node[tuple(rows[:, p] for p in parents) + (values,)]
    return total


def case_log_prob(network: FittedNetwork, case) -> float:
    """Log joint probability of one complete case, in nits."""
    return float(_log_probs(network, np.asarray(case)[None, :])[0])


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
    log_weights = np.log(weights)[:, None]
    total = 0.0
    # Blocks of rows bound the working arrays whatever the test set's size.
    for start in range(0, test.n_cases, _BLOCK_ROWS):
        rows = test.rows[start : start + _BLOCK_ROWS]
        scores = np.array([_log_probs(network, rows) for network in networks])
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
