"""Metropolis search over structures, with equivalence-class aggregation.

The chain walks DAG space with symmetric proposals (arc toggles and arc
reversals of uniformly random ordered pairs) and accepts by the usual
Metropolis rule on the network code length, so its stationary distribution
is proportional to exp(-length). The raw, uncleaned network is what the
chain carries forward, and the chain only counts post-burn-in visits per
network. After it ends, each distinct visited network is cleaned once of
arcs that do not pay for themselves and its visits are binned by the Markov
equivalence class of the cleaned network.

The structure prior is an exact count of linear extensions, and a logit
node's length needs a fit: the two costliest terms of a test. So both tests
are first tried against the prior's bounds (graph.py) with the changed node
priced by its floor (`NetworkScorer.node_floor`), a lower bound on its
length that fits nothing, then with its length; extensions are counted only
when neither settles the test. Every decision and every random draw is the
one the exact lengths give.
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
from .graph import DEFAULT_ARC_PRIOR, ArcMove, DagStructure, apply_move
from .graph import check_arc_prior, cpdag_key, remove_arc, structure_prior
from .scoring import ModelPolicy, NetworkScorer


@dataclass
class SamplerConfig:
    iterations: int = 200000
    burn_in: int = 10000
    seed: int = 0
    policy: ModelPolicy = ModelPolicy.DUAL
    p: float = DEFAULT_ARC_PRIOR
    sigma: float = DEFAULT_SIGMA
    max_parents: int = 10
    top_k: int = 10

    def validate(self):
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        check_arc_prior(self.p)
        check_sigma(self.sigma)
        for name in ("seed", "max_parents"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
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
    lengths = tuple(scorer.node_length_or_inf(v, ()) for v in range(dag.m))
    log_prior = scorer.structure_log_prior(dag)
    return ChainState(dag, lengths, log_prior, -log_prior + sum(lengths))


def metropolis_step(
    state: ChainState, rng: np.random.Generator, ctx: SamplerContext
) -> ChainState:
    """One proposal; returns the new state, or the old one on rejection.

    Moves that would break acyclicity or the parent cap, and reversals of
    absent arcs, leave the chain where it is (and still count as a visit).

    The ceiling of the proposal's log prior, with the changed nodes priced
    by their floors and then by their lengths, bounds delta from above. When
    a bound is negative the uniform is drawn at once, as the rule would draw
    it; one that rejects against the floors' bound rejects without fitting
    the nodes, and against the lengths' without counting extensions. Uncodable
    lengths are +inf and the prior is finite, so an uncodable proposal from a
    codable state has delta_hi = -inf and is rejected that way; from an
    uncodable state the slack is inf and delta inf or NaN, so the move is
    accepted, as by the rule.
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
    prior = structure_prior(m, ctx.scorer.p)
    if kind == "toggle" and not state.dag.parent_masks[j] >> i & 1:
        ceiling = state.log_prior - prior.odds  # an added arc never adds orders
    else:
        ceiling = prior.ceiling(new_dag.arc_count)
    slack = prior.slack(state.total)
    log_u = None
    for price in (ctx.scorer.node_floor, ctx.scorer.node_length_or_inf):
        for v in affected:
            lengths[v] = price(v, new_dag.parent_sets[v])
        node_sum = sum(lengths)
        delta_hi = state.total - node_sum + ceiling
        if delta_hi < -slack:
            if log_u is None:
                log_u = math.log(rng.random())
            if log_u >= delta_hi + slack:
                return state
    log_prior = ctx.scorer.structure_log_prior(new_dag)
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
    parent is tested, and each parent is tested exactly once. Each test
    weighs the current network against its `remove_arc` candidate. Scoring
    errors during a test count as removals.

    A removal raises the log prior within a window graph.py bounds, so a
    length gain (without minus with) below it removes the arc and one above
    it keeps it, with no prior computed. A gain inside prices the candidate
    exactly; the current network is priced when such a test first needs it,
    at most once, and its prior is carried forward with each removal it makes.

    The candidate's node is first priced by its floor
    (`NetworkScorer.node_floor`): a gain from the floor above the window
    keeps the arc without fitting the node, as the exact gain is no lower.
    An infinite gain is never above it, as the window's rounding guard
    grows with the gain, so an uncodable candidate is removed, as by the rule.
    """
    prior = structure_prior(dag.m, scorer.p)

    def kept_by_the_bounds(gain):
        return gain - prior.odds - prior.log_m_factorial > prior.slack(gain)

    current, current_prior = dag, None
    for node in range(dag.m):
        for parent in dag.parent_sets[node]:
            candidate = remove_arc(current, parent, node)
            reduced = candidate.parent_sets[node]
            with_len = scorer.node_length_or_inf(node, current.parent_sets[node])
            if kept_by_the_bounds(scorer.node_floor(node, reduced) - with_len):
                continue
            without_len = scorer.node_length_or_inf(node, reduced)
            gain = without_len - with_len
            if math.isinf(with_len) or math.isinf(without_len) or (
                gain - prior.odds <= -prior.slack(gain)
            ):
                current, current_prior = candidate, None
                continue
            if kept_by_the_bounds(gain):
                continue
            if current_prior is None:
                current_prior = scorer.structure_log_prior(current)
            candidate_prior = scorer.structure_log_prior(candidate)
            total_delta = gain - (candidate_prior - current_prior)
            if total_delta <= 0:
                current, current_prior = candidate, candidate_prior
    return current


def run_sampler(ds, config: SamplerConfig) -> PosteriorReport:
    """Run the chain from the empty structure, then clean and classify each
    distinct visited network once, with its visit count."""
    config.validate()
    scorer = NetworkScorer(ds, config.policy, config.p, config.sigma)
    ctx = SamplerContext(scorer, config.max_parents)
    rng = np.random.default_rng(config.seed)
    state = initial_state(scorer)
    visited: dict[tuple, list] = {}  # parent sets -> [dag, visits]
    for step in range(config.iterations):
        state = metropolis_step(state, rng, ctx)
        if step >= config.burn_in:
            entry = visited.setdefault(state.dag.parent_sets, [state.dag, 0])
            entry[1] += 1
    # in first-visit order, so a class's best network is its first-visited shortest
    records: dict[bytes, list] = {}
    for dag, visits in visited.values():
        cleaned = clean_network(dag, scorer)
        length = scorer.total_length(cleaned)
        record = records.setdefault(cpdag_key(cleaned), [0, cleaned, length])
        record[0] += visits
        if length < record[2]:
            record[1:] = cleaned, length
    ordered = sorted(
        records.items(), key=lambda item: (-item[1][0], item[0])
    )[: config.top_k]
    classes = tuple(
        ClassRecord(key, visits, network, length)
        for key, (visits, network, length) in ordered
    )
    return PosteriorReport(classes, config.iterations - config.burn_in, scorer)
