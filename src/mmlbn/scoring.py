"""Node and network code lengths under the three model policies.

TBN scores every node with a full conditional table, FON with the
first-order model. DUAL picks the cheaper of the two per node and charges
one extra bit (log 2 nits) for saying which, except for nodes with at most
one parent, where the two models have the same expressive power and the
full table is used without a selection bit.

A node can also be priced by a floor that needs no logit fit
(`NetworkScorer.node_floor`), so that a test the floor settles fits nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .cpt_full import FullCptScore, full_cpt_message_length
from .dataset import DiscreteDataset, counts_for
from .errors import ConvergenceError, MmlbnError, ParameterCapError
from .fom import DEFAULT_SIGMA, FomParams, FomScore, check_sigma
from .fom import fom_length_floor, fom_message_length
from .graph import DEFAULT_ARC_PRIOR, DagStructure, check_arc_prior, structure_prior

MODEL_CHOICE_NITS = math.log(2.0)


class ModelPolicy(enum.Enum):
    TBN = "tbn"
    FON = "fon"
    DUAL = "dual"


@dataclass(frozen=True)
class NodeScore:
    length: float  # nits; may be any real number
    chosen_model: str  # "full" or "fom"
    parameter_count: int
    # The logit fit of a "fom" node, kept so that nothing fits it again.
    fom: FomScore | None = field(default=None, compare=False, repr=False)

    @property
    def fom_params(self) -> FomParams | None:
        """The fitted logit model of a "fom" node, built on the first read."""
        return None if self.fom is None else self.fom.map_params


class ScoreCache:
    """Shared map from (child, parents, policy) to node scores.

    Scoring errors are cached too and re-raised on later lookups. `source`
    is the (dataset, sigma) of the first NetworkScorer that used the cache:
    the keys name neither, so a NetworkScorer on other data or another sigma
    refuses the cache.
    """

    def __init__(self):
        self._entries: dict = {}
        self.source = None
        self.hits = 0
        self.misses = 0

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get_or_compute(self, key, compute):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            try:
                entry = compute()
            except MmlbnError as err:
                entry = err
            self._entries[key] = entry
        else:
            self.hits += 1
        if isinstance(entry, MmlbnError):
            # a bare raise would append this call's frames to the stored
            # traceback on every hit, and keep them alive
            raise entry.with_traceback(None)
        return entry


def node_length(
    counts,
    policy: ModelPolicy,
    sigma: float = DEFAULT_SIGMA,
    *,
    full: FullCptScore | None = None,
) -> NodeScore:
    """Code length of one node's counts under a model policy; `full` is the
    counts' full-table score under `dual` when already worked out."""
    if policy is ModelPolicy.TBN or (
        policy is ModelPolicy.DUAL and counts.n_parents <= 1
    ):
        score = full_cpt_message_length(counts)
        return NodeScore(score.message_length, "full", score.free_params)
    if policy is ModelPolicy.FON:
        score = fom_message_length(counts, sigma)
        return NodeScore(score.message_length, "fom", score.free_dim, score)
    if policy is not ModelPolicy.DUAL:
        raise ValueError(f"unknown policy {policy!r}")
    if full is None:
        try:
            full = full_cpt_message_length(counts)
        except ParameterCapError:
            pass
    try:
        fom = fom_message_length(counts, sigma)
    except (ConvergenceError, ParameterCapError):
        if full is None:
            raise
        fom = None
    if full is not None and (fom is None or full.message_length <= fom.message_length):
        return NodeScore(full.message_length + MODEL_CHOICE_NITS, "full", full.free_params)
    return NodeScore(
        fom.message_length + MODEL_CHOICE_NITS, "fom", fom.free_dim, fom
    )


class NetworkScorer:
    """Scoring context binding a dataset, a policy and shared caches; the one
    owner of a network's size check, node scores, node floors and total
    length."""

    def __init__(
        self,
        ds: DiscreteDataset,
        policy: ModelPolicy,
        p: float = DEFAULT_ARC_PRIOR,
        sigma: float = DEFAULT_SIGMA,
        cache: ScoreCache | None = None,
    ):
        check_arc_prior(p)
        check_sigma(sigma)
        self.ds = ds
        self.policy = policy
        self.p = p
        self.sigma = sigma
        self.cache = cache if cache is not None else ScoreCache()
        if self.cache.source is None:
            self.cache.source = (ds, sigma)
        elif self.cache.source[0] is not ds or self.cache.source[1] != sigma:
            raise ValueError("the score cache holds scores of another dataset or sigma")
        # (child, parents) -> (floor, counts, full-table score or None) of
        # each node priced by its floor and not yet scored
        self._floored: dict = {}

    def node_score(self, child: int, parents: tuple) -> NodeScore:
        parents = tuple(parents)
        key = (child, parents, self.policy)
        return self.cache.get_or_compute(key, lambda: self._score(child, parents))

    def _score(self, child: int, parents: tuple) -> NodeScore:
        _, counts, full = self._floored.pop((child, parents), (None, None, None))
        if counts is None:
            counts = counts_for(self.ds, child, parents)
        return node_length(counts, self.policy, self.sigma, full=full)

    def node_floor(self, child: int, parents: tuple) -> float:
        """A lower bound on `node_length_or_inf` that fits no logit model.

        It is that length unless the node is a `dual` node of two or more
        parents not yet scored, whose floor is min(full table,
        `fom_length_floor`) + log 2, or -inf when its table is over the cap;
        so a finite floor belongs to a codable node. The node is tallied
        once, and its tally and table are kept for `node_score`.
        """
        parents = tuple(parents)
        if (
            self.policy is not ModelPolicy.DUAL
            or len(parents) <= 1
            or (child, parents, self.policy) in self.cache
        ):
            return self.node_length_or_inf(child, parents)
        floored = self._floored.get((child, parents))
        if floored is None:
            counts = counts_for(self.ds, child, parents)
            try:
                full = full_cpt_message_length(counts)
            except ParameterCapError:
                floor, full = -math.inf, None
            else:
                floor = min(full.message_length, fom_length_floor(counts))
                floor += MODEL_CHOICE_NITS
            floored = self._floored[child, parents] = (floor, counts, full)
        return floored[0]

    def node_length_or_inf(self, child: int, parents: tuple) -> float:
        try:
            return self.node_score(child, parents).length
        except MmlbnError:
            return math.inf

    def _check_size(self, dag: DagStructure) -> None:
        if dag.m != self.ds.n_variables:
            raise ValueError("structure and dataset disagree on variable count")

    def node_scores(self, dag: DagStructure) -> tuple[NodeScore, ...]:
        """Each node's score in node order; raises the first node's error."""
        self._check_size(dag)
        return tuple(self.node_score(*node) for node in enumerate(dag.parent_sets))

    def structure_log_prior(self, dag: DagStructure) -> float:
        self._check_size(dag)
        return structure_prior(dag.m, self.p).log_prior(dag)

    def total_length(self, dag: DagStructure) -> float:
        """Network code length in nits; inf when some node cannot be scored.

        It is the chain's sum (`initial_state`), so it equals a chain state's
        total bit for bit. The prior is priced first, and its errors (another
        size, more variables than it handles) raise before any node is scored.
        """
        log_prior = self.structure_log_prior(dag)
        nodes = enumerate(dag.parent_sets)
        return -log_prior + sum(self.node_length_or_inf(*node) for node in nodes)


def network_message_length(
    dag: DagStructure,
    ds: DiscreteDataset,
    policy: ModelPolicy,
    p: float = DEFAULT_ARC_PRIOR,
    sigma: float = DEFAULT_SIGMA,
    cache: ScoreCache | None = None,
) -> float:
    """Structure cost plus the sum of node code lengths, in nits; inf when
    some node cannot be scored under the policy."""
    return NetworkScorer(ds, policy, p, sigma, cache).total_length(dag)
