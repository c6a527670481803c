"""Node and network code lengths under the three model policies.

TBN scores every node with a full conditional table, FON with the
first-order model. DUAL picks the cheaper of the two per node and charges
one extra bit (log 2 nits) for saying which, except for nodes with at most
one parent, where the two models have the same expressive power and the
full table is used without a selection bit.

A node can also be priced by a floor that needs no logit fit
(`NetworkScorer.node_floor`), so that a test the floor settles fits nothing.
Each node's scores, floor and log table share one `ScoreCache` entry,
which only this module touches, so scorers of all policies fit no node twice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cpt_full import full_cpt_message_length, full_cpt_predictive
from .dataset import DiscreteDataset, counts_for
from .errors import ConvergenceError, MmlbnError, ParameterCapError, as_index
from .fom import DEFAULT_SIGMA, FomParams, FomScore, check_sigma
from .fom import fom_length_floor, fom_message_length
from .graph import DEFAULT_ARC_PRIOR, DagStructure, check_arc_prior, structure_prior

MODEL_CHOICE_NITS = math.log(2.0)


class ModelPolicy(enum.Enum):
    TBN = "tbn"
    FON = "fon"
    DUAL = "dual"

    __hash__ = object.__hash__  # members are singletons; Enum's hash is slow Python


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
    """One dict per node, keyed by (child, parents) as ints, for the scorers
    of every policy on the data and sigma of the first one (`source`).

    An entry holds, from first need on, the table score ("full"), logit score
    ("fom"), `dual` floor ("floor"), each policy's NodeScore (keyed by the
    policy), `node_table`'s log table ("table") and, from the floor that
    priced the node until a score reads it, the tally ("counts"). A failed
    score is held as its MmlbnError. `hits` and `misses` count policy scores.
    """

    def __init__(self):
        self.entries: dict = {}
        self.source = None
        self.hits = 0
        self.misses = 0


def _held(entry: dict, slot, score, *args):
    """entry[slot], worked out as score(*args) on first need. A held error is
    raised afresh, so no reader's frames pile up on its traceback."""
    if slot not in entry:
        try:
            entry[slot] = score(*args)
        except MmlbnError as err:
            entry[slot] = err
    if isinstance(entry[slot], MmlbnError):
        raise entry[slot].with_traceback(None)
    return entry[slot]


def node_length(
    counts, policy: ModelPolicy, sigma: float = DEFAULT_SIGMA, entry: dict | None = None
) -> NodeScore:
    """Code length of one node's counts under a model policy. `entry` is the
    node's ScoreCache entry: the table and logit scores it holds are read,
    and those worked out here are put in it."""
    entry = {} if entry is None else entry
    if policy is ModelPolicy.TBN or (
        policy is ModelPolicy.DUAL and counts.n_parents <= 1
    ):
        score = _held(entry, "full", full_cpt_message_length, counts)
        return NodeScore(score.message_length, "full", score.free_params)
    if policy is ModelPolicy.FON:
        score = _held(entry, "fom", fom_message_length, counts, sigma)
        return NodeScore(score.message_length, "fom", score.free_dim, score)
    if policy is not ModelPolicy.DUAL:
        raise ValueError(f"unknown policy {policy!r}")
    try:
        full = _held(entry, "full", full_cpt_message_length, counts)
    except ParameterCapError:
        full = None
    try:
        fom = _held(entry, "fom", fom_message_length, counts, sigma)
    except (ConvergenceError, ParameterCapError):
        if full is None:
            raise
        fom = None
    if full is not None and (fom is None or full.message_length <= fom.message_length):
        return NodeScore(full.message_length + MODEL_CHOICE_NITS, "full", full.free_params)
    return NodeScore(fom.message_length + MODEL_CHOICE_NITS, "fom", fom.free_dim, fom)


def _checked_key(child, parents) -> tuple:
    """A node's (child, parents) as ints, each index checked: a float would
    hash as the int it equals and read that int's entry."""
    parents = tuple(as_index(p, "parent index") for p in parents)
    return as_index(child, "child index"), parents


class NetworkScorer:
    """Scoring context binding a dataset, a policy and shared caches; the one
    owner of a network's size check, node scores, floors and log tables, and
    total length.

    The public lookups check each index of a node. The chain's (`_floor`,
    `_length`) take a `DagStructure`'s own node and parent tuple, which it
    has checked, as they are. `_cleanings` is `clean_network`'s memo of the
    parents each cleaned (node, parents) keeps: it depends on the policy, p,
    sigma and data, so it is the scorer's, not the shared cache's.
    """

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
        self._cleanings: dict = {}

    def _entry(self, key: tuple) -> dict:
        """The entry of a node's key of ints, made only once it is tallied."""
        entry = self.cache.entries.get(key)
        if entry is None:
            entry = self.cache.entries[key] = {"counts": counts_for(self.ds, *key)}
        return entry

    def node_score(self, child: int, parents) -> NodeScore:
        return self._node_score(_checked_key(child, parents))

    def _node_score(self, key: tuple) -> NodeScore:
        entry = self._entry(key)
        if self.policy in entry:
            self.cache.hits += 1
        else:
            self.cache.misses += 1
        return _held(entry, self.policy, self._score, key, entry)

    def _score(self, key: tuple, entry: dict) -> NodeScore:
        counts = _held(entry, "counts", counts_for, self.ds, *key)
        del entry["counts"]  # held for a score, not after it
        return node_length(counts, self.policy, self.sigma, entry)

    def node_floor(self, child: int, parents) -> float:
        """A lower bound on `node_length_or_inf` that fits no logit model.

        It is that length unless the node is a `dual` node of two or more
        parents not yet scored under `dual`: then min(full table,
        `fom_length_floor`) + log 2, or -inf when its table is over the cap,
        so a finite floor belongs to a codable node.
        """
        return self._floor(*_checked_key(child, parents))

    def _floor(self, child: int, parents: tuple) -> float:
        """`node_floor` of a key of ints, such as a `DagStructure`'s node and
        parent tuple, used as it is."""
        if self.policy is not ModelPolicy.DUAL or len(parents) <= 1:
            return self._length(child, parents)
        key = child, parents
        entry = self._entry(key)
        if self.policy in entry:
            return self._length(child, parents)
        if "floor" not in entry:
            counts = _held(entry, "counts", counts_for, self.ds, *key)
            try:
                full = _held(entry, "full", full_cpt_message_length, counts)
            except ParameterCapError:
                entry["floor"] = -math.inf
            else:
                floor = min(full.message_length, fom_length_floor(counts))
                entry["floor"] = floor + MODEL_CHOICE_NITS
        return entry["floor"]

    def node_table(self, child: int, parents) -> np.ndarray:
        """Log of `full_cpt_predictive`, shaped (parent arities..., child arity):
        a view of the child-major log table, so no reshape copies it."""
        key = _checked_key(child, parents)
        entry = self._entry(key)
        if "table" not in entry:
            counts = entry["counts"] if "counts" in entry else counts_for(self.ds, *key)
            table = np.log(full_cpt_predictive(counts).T)
            table = table.reshape((counts.child_arity,) + counts.parent_arities)
            entry["table"] = np.moveaxis(table, 0, -1)
        return entry["table"]

    def node_length_or_inf(self, child: int, parents) -> float:
        return self._length(*_checked_key(child, parents))

    def _length(self, child: int, parents: tuple) -> float:
        """`node_length_or_inf` of a key of ints, used as it is."""
        try:
            return self._node_score((child, parents)).length
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
        return -log_prior + sum(self._length(*node) for node in nodes)


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
