"""Fitting reported structures and measuring held-out predictive loss."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .cpt_full import full_cpt_predictive
from .dataset import DiscreteDataset, counts_for, split_train_test
from .fom import DEFAULT_SIGMA, FomParams
from .graph import DagStructure
from .sampler import PosteriorReport, SamplerConfig, run_sampler
from .scoring import ModelPolicy, NetworkScorer, ScoreCache

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


def fit_network(
    dag: DagStructure,
    train: DiscreteDataset,
    policy: ModelPolicy,
    sigma: float = DEFAULT_SIGMA,
    cache: ScoreCache | None = None,
) -> FittedNetwork:
    """Fit each node with the model the policy's node score chose.

    Node scores, logit fits included, come from `cache` when it holds the
    scores of `train` under `sigma` (a sampler run's cache); the result is the
    same either way.
    """
    if dag.m != train.n_variables:
        raise ValueError("structure and dataset disagree on variable count")
    if cache is not None and not cache.holds(train, sigma):
        cache = None
    scorer = NetworkScorer(train, policy, sigma=sigma, cache=cache)
    nodes = []
    chosen = []
    parameters = 0
    for child, parents in enumerate(dag.parent_sets):
        score = scorer.node_score(child, parents)
        chosen.append(score.chosen_model)
        parameters += score.parameter_count
        if score.chosen_model == "full":
            counts = counts_for(train, child, parents)
            # Unseen configurations keep the uniform row full_cpt_predictive gives.
            table = np.log(full_cpt_predictive(counts))
            nodes.append(table.reshape(counts.parent_arities + (counts.child_arity,)))
        else:
            nodes.append(score.fom_params)
    return FittedNetwork(dag, tuple(nodes), tuple(chosen), parameters)


def _log_probs(network: FittedNetwork, rows: np.ndarray) -> np.ndarray:
    """Log joint probability of each complete case (row), in nits."""
    total = np.zeros(rows.shape[0])
    for child, parents in enumerate(network.dag.parent_sets):
        node, values = network.nodes[child], rows[:, child]
        if isinstance(node, FomParams):
            logits = np.tile(node.a, (rows.shape[0], 1))
            for block, parent in zip(node.blocks, parents):
                logits += block[:, rows[:, parent]].T
            total += logits[np.arange(len(rows)), values] - logsumexp(logits, axis=1)
        else:
            total += node[tuple(rows[:, p] for p in parents) + (values,)]
    return total


def case_log_prob(network: FittedNetwork, case) -> float:
    """Log joint probability of one complete case, in nits."""
    return float(_log_probs(network, np.asarray(case)[None, :])[0])


def _fit_classes(report: PosteriorReport, train, policy, sigma):
    """Renormalised visit weights and each class's fitted best network."""
    visits = np.array([c.visits for c in report.classes], dtype=float)
    if visits.size == 0 or visits.sum() <= 0:
        raise ValueError("report holds no visited classes")
    networks = [
        fit_network(record.best_network, train, policy, sigma, report.cache)
        for record in report.classes
    ]
    return visits / visits.sum(), networks


def _mixture_nll(networks, weights, test: DiscreteDataset) -> float:
    log_weights = np.log(weights)[:, None]
    total = 0.0
    # Blocks of rows bound the working arrays whatever the test set's size.
    for start in range(0, test.n_cases, _BLOCK_ROWS):
        rows = test.rows[start : start + _BLOCK_ROWS]
        scores = np.array([_log_probs(network, rows) for network in networks])
        total -= float(logsumexp(scores + log_weights, axis=0).sum())
    return total


def model_averaged_test_nll(
    report: PosteriorReport,
    train: DiscreteDataset,
    test: DiscreteDataset,
    policy: ModelPolicy,
    sigma: float = DEFAULT_SIGMA,
) -> float:
    """Negative log likelihood of the test cases under the posterior mixture.

    Each reported class's best network is fitted on the training data and the
    classes are mixed by their renormalised visit weights, case by case.
    """
    weights, networks = _fit_classes(report, train, policy, sigma)
    return _mixture_nll(networks, weights, test)


@dataclass(frozen=True)
class RepeatMetrics:
    seed: int
    train_cases: int
    test_cases: int
    message_length: float  # posterior-weighted best length, nits
    test_nll: float  # nits
    arc_count: float  # posterior-weighted
    parameter_count: float  # posterior-weighted

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "train_cases": self.train_cases,
            "test_cases": self.test_cases,
            "message_length": self.message_length,
            "test_nll": self.test_nll,
            "arcs": self.arc_count,
            "parameters": self.parameter_count,
        }


@dataclass(frozen=True)
class EvalSummary:
    repeats: tuple[RepeatMetrics, ...]

    def _mean(self, attribute: str) -> float:
        return float(np.mean([getattr(r, attribute) for r in self.repeats]))

    @property
    def mean_message_length(self) -> float:
        return self._mean("message_length")

    @property
    def mean_test_nll(self) -> float:
        return self._mean("test_nll")

    @property
    def mean_arc_count(self) -> float:
        return self._mean("arc_count")

    @property
    def mean_parameter_count(self) -> float:
        return self._mean("parameter_count")

    def to_dict(self) -> dict:
        return {
            "repeats": [r.to_dict() for r in self.repeats],
            "means": {
                "message_length": self.mean_message_length,
                "test_nll": self.mean_test_nll,
                "arcs": self.mean_arc_count,
                "parameters": self.mean_parameter_count,
            },
        }


def evaluate_split(
    train: DiscreteDataset,
    test: DiscreteDataset,
    config: SamplerConfig,
) -> RepeatMetrics:
    """Run the sampler on the training part and score the test part."""
    report = run_sampler(train, config)
    weights, networks = _fit_classes(report, train, config.policy, config.sigma)
    classes = report.classes
    return RepeatMetrics(
        seed=config.seed,
        train_cases=train.n_cases,
        test_cases=test.n_cases,
        message_length=float(np.dot(weights, [c.best_length for c in classes])),
        test_nll=_mixture_nll(networks, weights, test),
        arc_count=float(np.dot(weights, [c.best_network.arc_count for c in classes])),
        parameter_count=float(np.dot(weights, [n.parameter_count for n in networks])),
    )


def cross_validate(
    ds: DiscreteDataset,
    repeats: int,
    config: SamplerConfig,
    test_fraction: float = 0.1,
) -> EvalSummary:
    """Repeated random splits; repeat r uses seed config.seed + r throughout."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    metrics = []
    for r in range(repeats):
        seed = config.seed + r
        train, test = split_train_test(ds, test_fraction, seed)
        metrics.append(evaluate_split(train, test, replace(config, seed=seed)))
    return EvalSummary(tuple(metrics))
