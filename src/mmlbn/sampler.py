"""Metropolis search over structures, with equivalence-class aggregation.

The chain walks DAG space with symmetric proposals (arc toggles and arc
reversals of uniformly random ordered pairs) and accepts by the usual
Metropolis rule on the network code length, so its stationary distribution
is proportional to exp(-length). The raw, uncleaned network is what the
chain carries forward, and the chain only counts post-burn-in visits per
network. After it ends, each distinct visited network is cleaned once of
arcs that do not pay for themselves and its visits are binned by the Markov
equivalence class of the cleaned network. Across those networks each (node,
parents) is cleaned once: what a node keeps is worked out by its tests the
first time and read from the scorer's memo after, unless a test of it
reaches the exact prior, which depends on the rest of the network.

The structure prior is an exact count of linear extensions, and a logit
node's length needs a fit: the two costliest terms of a test. So both tests
climb one ladder against the prior's bounds (graph.py): the changed nodes
are priced first by their floors (`NetworkScorer.node_floor`), lower bounds
on their lengths that fit nothing, then by their lengths; extensions are
counted only when neither rung settles the test. Every decision and every
random draw is the one the exact lengths give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads its random module on first use; loading it with the package
# keeps that cost out of the first chain.
import numpy.random  # noqa: F401

from .errors import CycleError, NoArcError, ParentCapError, as_index
from .fom import DEFAULT_SIGMA, check_sigma
from .graph import DEFAULT_ARC_PRIOR, DagStructure, apply_move
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
        for name in ("iterations", "burn_in", "seed", "max_parents", "top_k"):
            as_index(getattr(self, name), name)
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
    lengths = tuple(scorer._length(v, ()) for v in range(dag.m))
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
        new_dag = apply_move(state.dag, kind, i, j, ctx.max_parents)
    except (CycleError, ParentCapError, NoArcError):
        return state
    affected = (j,) if kind == "toggle" else (i, j)
    lengths = list(state.node_lengths)
    prior = structure_prior(m, ctx.scorer.p)
    if new_dag.arc_count > state.dag.arc_count:
        ceiling = state.log_prior - prior.odds  # an added arc never adds orders
    else:
        ceiling = prior.ceiling(new_dag.arc_count)
    slack = prior.slack(state.total)
    log_u = None
    for price in (ctx.scorer._floor, ctx.scorer._length):
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

    The test climbs the chain's ladder: the length gain (without minus with)
    is taken with the candidate's node priced first by its floor, then by
    its length. A removal raises the log prior by between odds and
    odds + log m! (graph.py), so a gain above that window keeps the arc; on
    the floor's rung it does so without fitting the node, as the exact gain
    is no lower. Past both rungs, a gain that is not finite (an uncodable
    node on either side) or lies below the window removes the arc, and one
    inside it is settled by the exact priors. The current network's prior
    is computed when a test first needs it, at most once, and carried
    forward with each removal it makes. The window's rounding guard grows
    with the gain, so no infinite gain keeps an arc, as by the rule.

    A node's tests read only its own lengths, unless one reaches the exact
    priors. So the parents a node keeps when none does are kept in the
    scorer's memo under (node, original parents), and a later network with
    that node cleans it from the memo, with no test.
    """
    prior = structure_prior(dag.m, scorer.p)
    memo = scorer._cleanings
    current, current_prior = dag, None
    for node, parents in enumerate(dag.parent_sets):
        kept = memo.get((node, parents))
        if kept is not None:
            for parent in parents:
                if parent not in kept:
                    current, current_prior = remove_arc(current, parent, node), None
            continue
        by_the_bounds = True
        for parent in parents:
            candidate = remove_arc(current, parent, node)
            reduced = candidate.parent_sets[node]
            with_len = scorer._length(node, current.parent_sets[node])
            for price in (scorer._floor, scorer._length):
                gain = price(node, reduced) - with_len
                if gain - prior.odds - prior.log_m_factorial > prior.slack(gain):
                    break
            else:
                if not math.isfinite(gain) or gain - prior.odds <= -prior.slack(gain):
                    current, current_prior = candidate, None
                    continue
                by_the_bounds = False
                if current_prior is None:
                    current_prior = scorer.structure_log_prior(current)
                candidate_prior = scorer.structure_log_prior(candidate)
                if gain <= candidate_prior - current_prior:
                    current, current_prior = candidate, candidate_prior
        if by_the_bounds:
            memo[node, parents] = current.parent_sets[node]
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
