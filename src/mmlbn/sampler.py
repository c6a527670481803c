"""Metropolis search over structures, with equivalence-class aggregation.

The chain walks DAG space with symmetric proposals (arc toggles and arc
reversals of uniformly random ordered pairs) and accepts by the usual
Metropolis rule on the network code length, so its stationary distribution
is proportional to exp(-length). The raw, uncleaned network is what the
chain carries forward; each post-burn-in visit is separately cleaned of
arcs that do not pay for themselves and binned by the Markov equivalence
class of the cleaned network.

The structure prior is an exact count of linear extensions, the costliest
term of a test, so both the Metropolis test and the cleaning test are first
tried against exact bounds on it (see graph.py): a DAG with E arcs has a log
prior within log m! below `log_prior_ceiling(m, E, p)`, an added arc lowers
it by at least odds = log((1 - p) / p), and a removed arc raises it by
between odds and odds + log m!. Extensions are counted only when the node
lengths and these bounds cannot settle the test; every decision and every
random draw is the one the exact prior gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads its random module on first use; loading it with the package
# keeps that cost out of the first chain.
import numpy.random  # noqa: F401

from .errors import CycleError, NoArcError, ParentCapError
from .fom import DEFAULT_SIGMA, check_sigma
from .graph import ArcMove, DagStructure, apply_move, cpdag_key, log_prior_ceiling
from .scoring import ModelPolicy, NetworkScorer


@dataclass
class SamplerConfig:
    iterations: int = 200000
    burn_in: int = 10000
    seed: int = 0
    policy: ModelPolicy = ModelPolicy.DUAL
    p: float = 0.5
    sigma: float = DEFAULT_SIGMA
    max_parents: int = 10
    top_k: int = 10

    def validate(self):
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        if not 0.0 < self.p < 1.0:
            raise ValueError("arc prior probability must lie strictly in (0, 1)")
        check_sigma(self.sigma)
        if self.max_parents < 0:
            raise ValueError("max_parents must be non-negative")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass(frozen=True, eq=False)
class ChainState:
    """Current structure with its cached score decomposition."""

    dag: DagStructure
    node_lengths: tuple[float, ...]
    log_prior: float
    total: float


@dataclass
class SamplerContext:
    scorer: NetworkScorer
    max_parents: int


@dataclass(frozen=True)
class ClassRecord:
    key: bytes
    visits: int
    best_network: DagStructure
    best_length: float


@dataclass(frozen=True)
class PosteriorReport:
    classes: tuple[ClassRecord, ...]
    total_samples: int
    # The chain's scoring context (data, policy, p, sigma and node scores), so
    # that readers of the report score nothing again.
    scorer: NetworkScorer | None = field(default=None, compare=False, repr=False)

    def weights(self) -> tuple[float, ...]:
        return tuple(c.visits / self.total_samples for c in self.classes)


def initial_state(scorer: NetworkScorer) -> ChainState:
    dag = DagStructure.empty(scorer.ds.n_variables)
    lengths = tuple(
        scorer.node_length_or_inf(child, parents)
        for child, parents in enumerate(dag.parent_sets)
    )
    log_prior = scorer.structure_log_prior(dag)
    total = math.inf if any(math.isinf(x) for x in lengths) else -log_prior + sum(lengths)
    return ChainState(dag, lengths, log_prior, total)


def _slack(m: int, p: float, scale: float) -> float:
    """Rounding guard for settling a test from bounds on the prior.

    A relative 1e-9 of the terms compared (scale, and the largest |log prior|
    of any DAG on m nodes) lies far above the float error of the few sums
    involved and far below any difference a test acts on.
    """
    pairs = m * (m - 1) // 2
    floor = min(log_prior_ceiling(m, 0, p), log_prior_ceiling(m, pairs, p))
    return 1e-9 * (1.0 + abs(scale) + math.lgamma(m + 1) - floor)


def metropolis_step(
    state: ChainState, rng: np.random.Generator, ctx: SamplerContext
) -> ChainState:
    """One proposal; returns the new state, or the old one on rejection.

    Moves that would break acyclicity or the parent cap, and reversals of
    absent arcs, leave the chain where it is (and still count as a visit).

    From a codable state, the ceiling of the proposal's log prior bounds
    delta from above. When that bound is negative the uniform is drawn at
    once, as the rule would draw it, and a uniform that rejects even against
    the bound rejects without counting extensions. An uncodable proposal
    (infinite length) is rejected that way too.
    """
    m = state.dag.m
    if m < 2:
        return state
    kind = "toggle" if rng.random() < 0.5 else "reverse"
    pair = int(rng.integers(0, m * (m - 1)))
    i, rem = divmod(pair, m - 1)
    j = rem + (rem >= i)
    try:
        new_dag = apply_move(state.dag, ArcMove(kind, i, j), ctx.max_parents)
    except (CycleError, ParentCapError, NoArcError):
        return state
    affected = (j,) if kind == "toggle" else (i, j)
    lengths = list(state.node_lengths)
    for v in affected:
        lengths[v] = ctx.scorer.node_length_or_inf(v, new_dag.parent_sets[v])
    node_sum = sum(lengths)
    log_u = None
    if not math.isinf(state.total):
        p = ctx.scorer.p
        ceiling = log_prior_ceiling(m, new_dag.arc_count, p)
        if kind == "toggle" and i not in state.dag.parent_sets[j]:
            # an added arc never adds orders
            ceiling = min(ceiling, state.log_prior + math.log(p) - math.log1p(-p))
        delta_hi = state.total - node_sum + ceiling
        slack = _slack(m, p, state.total)
        if delta_hi < -slack:
            log_u = math.log(rng.random())
            if log_u >= delta_hi + slack:
                return state
    log_prior = ctx.scorer.structure_log_prior(new_dag)
    if any(math.isinf(x) for x in lengths):
        total = math.inf
    else:
        total = -log_prior + node_sum
    delta = state.total - total  # positive when the proposal is better
    if delta < 0:
        if log_u is None:
            log_u = math.log(rng.random())
        if log_u >= delta:
            return state
    return ChainState(new_dag, tuple(lengths), log_prior, total)


def clean_network(dag: DagStructure, scorer: NetworkScorer) -> DagStructure:
    """Drop every arc whose removal does not strictly increase the length.

    Nodes are visited in ascending index order and each node's original
    parents in ascending order; every removal is applied before the next
    parent is tested, and each parent is tested exactly once. Scoring
    errors during a test count as removals.

    Removing an arc changes the log prior by between odds = log((1 - p) / p)
    and odds + log m!, so a length gain (without minus with) at most odds
    removes the arc and one above odds + log m! keeps it, with no prior
    computed. Only a gain between the two prices the candidate exactly; the
    current network is priced when such a test first needs it, at most once,
    and its prior is carried forward with each removal the test makes.
    """
    m, p = dag.m, scorer.p
    odds = math.log1p(-p) - math.log(p)
    log_m_factorial = math.lgamma(m + 1)
    current, current_prior = dag, None
    for node in range(m):
        for parent in dag.parent_sets[node]:
            kept = current.parent_sets[node]
            reduced = tuple(u for u in kept if u != parent)
            with_len = scorer.node_length_or_inf(node, kept)
            without_len = scorer.node_length_or_inf(node, reduced)
            sets = list(current.parent_sets)
            sets[node] = reduced
            # removing an arc keeps the parents sorted and makes no cycle
            candidate = DagStructure._trusted(current.m, tuple(sets))
            if math.isinf(with_len) or math.isinf(without_len):
                current, current_prior = candidate, None
                continue
            gain = without_len - with_len
            slack = _slack(m, p, gain)
            if gain - odds <= -slack:
                current, current_prior = candidate, None
                continue
            if gain - odds - log_m_factorial > slack:
                continue
            if current_prior is None:
                current_prior = scorer.structure_log_prior(current)
            candidate_prior = scorer.structure_log_prior(candidate)
            total_delta = gain - (candidate_prior - current_prior)
            if total_delta <= 0:
                current, current_prior = candidate, candidate_prior
    return current


def run_sampler(ds, config: SamplerConfig) -> PosteriorReport:
    """Run the chain from the empty structure and aggregate visited classes."""
    config.validate()
    m = ds.n_variables
    scorer = NetworkScorer(ds, config.policy, config.p, config.sigma)
    ctx = SamplerContext(scorer, min(config.max_parents, max(m - 1, 0)))
    rng = np.random.default_rng(config.seed)
    state = initial_state(scorer)
    clean_memo: dict = {}
    records: dict[bytes, list] = {}
    for step in range(config.iterations):
        state = metropolis_step(state, rng, ctx)
        if step < config.burn_in:
            continue
        memo_key = state.dag.parent_sets
        entry = clean_memo.get(memo_key)
        if entry is None:
            cleaned = clean_network(state.dag, scorer)
            entry = (
                cpdag_key(cleaned),
                cleaned,
                scorer.total_length(cleaned),
            )
            clean_memo[memo_key] = entry
        class_key, cleaned, clean_length = entry
        record = records.get(class_key)
        if record is None:
            records[class_key] = [1, cleaned, clean_length]
        else:
            record[0] += 1
            if clean_length < record[2]:
                record[1] = cleaned
                record[2] = clean_length
    ordered = sorted(
        records.items(), key=lambda item: (-item[1][0], item[0])
    )[: config.top_k]
    classes = tuple(
        ClassRecord(key, visits, network, length)
        for key, (visits, network, length) in ordered
    )
    return PosteriorReport(classes, config.iterations - config.burn_in, scorer)
