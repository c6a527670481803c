"""Directed acyclic structures, edit moves, and the structure prior.

A DAG is stored as sorted parent tuples and carries the bit mask of each
node's parents and its arc count, built once by the checked constructor or
by the edit that made the DAG. Every graph walk reads the masks and takes
one kind of step: `_closure` gathers every node reachable from a start set
through a table of neighbour masks. Over parent masks that gives a node's
ancestors, which is the cycle test of an edit and of the checked
constructor; over undirected neighbour masks it gives a weakly connected
component. Every edit of a DAG (`apply_move`, `remove_arc`) lives in this
module. A move of `apply_move` is of one of two kinds: "toggle" adds the
arc i -> j or removes it, and "reverse" turns the arc j -> i into i -> j.

The prior over structures weights each DAG by its number of linear
extensions (total orders consistent with the arcs), normalised by m!, times
an independent Bernoulli factor per possible arc slot. Summed over all DAGs
on m nodes this is exactly 1: conditioned on a total order, the arc slots
are independent coin flips.

Because 1 <= extensions <= m!, the arc factor alone bounds the prior: with E
arcs the log prior lies within log m! below `StructurePrior.ceiling(E)`. An
added arc only removes orders, so it lowers the log prior by at least
odds = log((1 - p) / p); a removed arc raises it by between odds and
odds + log m!. The sampler settles most tests from these bounds, whose
constants `structure_prior(m, p)` works out once per (m, p).

Linear extensions are counted exactly, as Python integers. Weakly connected
components are counted apart and their orders interleaved by a multinomial
factor. Within a component a dynamic program walks the reachable prefix
sets (node sets some topological order places first), one node per level,
so it touches only sets an order can actually reach rather than all 2^k
subsets. It only tests set membership, so each component keeps its nodes'
own bits. The count depends only on the poset, the transitive closure of
the arcs: `count_linear_extensions` memoises each DAG's count, and
`_poset_extensions` each poset's, keyed by every node's ancestor mask, so
DAGs of one closure are counted once. The per-DAG memo stays: a repeated
DAG skips the m ancestor closures of its poset key (2454 replayed counts
took 44 ms with it and 59 ms without). `count_linear_extensions` refuses
more than `MAX_NODES` nodes with a `CapacityError` and caches nothing then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import CapacityError, CycleError, NoArcError, ParentCapError, as_index

MAX_NODES = 24


@dataclass(frozen=True)
class DagStructure:
    """Immutable DAG over nodes 0..m-1, stored as sorted parent tuples.

    parent_masks (each node's parents as a bit mask) and arc_count are
    derived from them, so equality and hashing ignore them."""

    m: int
    parent_sets: tuple[tuple[int, ...], ...]
    parent_masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    arc_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", as_index(self.m, "node count"))
        if self.m < 0:
            raise ValueError("node count must be non-negative")
        if len(self.parent_sets) != self.m:
            raise ValueError("parent_sets length does not match node count")
        normalised, masks = [], []
        for v, parents in enumerate(self.parent_sets):
            parents = tuple(as_index(u, f"node {v}: parent") for u in parents)
            if any(not 0 <= u < self.m for u in parents):
                raise ValueError(f"node {v}: parent index out of range")
            if len(set(parents)) != len(parents):
                raise ValueError(f"node {v}: duplicate parents")
            if v in parents:
                raise CycleError(f"node {v} lists itself as a parent")
            normalised.append(tuple(sorted(parents)))
            masks.append(sum(1 << u for u in parents))
        object.__setattr__(self, "parent_sets", tuple(normalised))
        object.__setattr__(self, "parent_masks", tuple(masks))
        object.__setattr__(self, "arc_count", sum(map(len, normalised)))
        # a cycle runs through v iff v is among its own parents' ancestors
        if any(_closure(masks, mask) >> v & 1 for v, mask in enumerate(masks)):
            raise CycleError("parent sets describe a directed cycle")

    @classmethod
    def _trusted(
        cls, m: int, parent_sets, parent_masks, arc_count: int
    ) -> "DagStructure":
        """The result of an edit in this module that checked its own rules:
        parent sets known to be sorted tuples of in-range ints that form no
        cycle, with the masks and arc count the edit derived from them.
        Skips __post_init__."""
        dag = object.__new__(cls)
        object.__setattr__(dag, "m", m)
        object.__setattr__(dag, "parent_sets", parent_sets)
        object.__setattr__(dag, "parent_masks", parent_masks)
        object.__setattr__(dag, "arc_count", arc_count)
        return dag

    @classmethod
    def empty(cls, m: int) -> "DagStructure":
        return cls(m, ((),) * as_index(m, "node count"))

    @classmethod
    def from_arcs(cls, m: int, arcs) -> "DagStructure":
        parents = [[] for _ in range(as_index(m, "node count"))]
        for u, v in arcs:
            v = as_index(v, f"arc {u}->{v}: child")
            if not 0 <= v < m:
                raise ValueError(f"arc {u}->{v}: child index out of range")
            parents[v].append(u)
        return cls(m, tuple(tuple(p) for p in parents))

    def arcs(self) -> list[tuple[int, int]]:
        return sorted(
            (u, v) for v, parents in enumerate(self.parent_sets) for u in parents
        )


def apply_move(
    dag: DagStructure, kind: str, i: int, j: int, max_parents: int
) -> DagStructure:
    """Apply one move, enforcing acyclicity and the parent cap.

    kind "toggle" flips the presence of the arc i -> j; kind "reverse"
    replaces the arc j -> i by i -> j. The edit's own tests are the only
    checks its result needs, so the result is built without DagStructure's
    validation.
    """
    if kind not in ("toggle", "reverse"):
        raise ValueError(f"unknown move kind {kind!r}")
    if i == j:
        raise ValueError("move endpoints must differ")
    i, j = as_index(i, "move endpoint"), as_index(j, "move endpoint")
    if not (0 <= i < dag.m and 0 <= j < dag.m):
        raise ValueError("move endpoints out of range")
    if kind == "reverse":
        # j -> i becomes i -> j: remove j -> i, then add i -> j
        if not dag.parent_masks[i] >> j & 1:
            raise NoArcError(f"no arc {j}->{i} to reverse")
        dag, edit = remove_arc(dag, j, i), f"reversing {j}->{i}"
    elif dag.parent_masks[j] >> i & 1:
        return remove_arc(dag, i, j)
    else:
        edit = f"adding {i}->{j}"
    if len(dag.parent_sets[j]) + 1 > max_parents:
        raise ParentCapError(f"node {j} would exceed the parent cap of {max_parents}")
    # i -> j closes a cycle iff j is already an ancestor of i
    if _closure(dag.parent_masks, 1 << i) >> j & 1:
        raise CycleError(f"{edit} would create a cycle")
    sets, masks = list(dag.parent_sets), list(dag.parent_masks)
    sets[j] = tuple(sorted(sets[j] + (i,)))
    masks[j] |= 1 << i
    return DagStructure._trusted(dag.m, tuple(sets), tuple(masks), dag.arc_count + 1)


def remove_arc(dag: DagStructure, u: int, v: int) -> DagStructure:
    """The DAG without the arc u -> v (equal to dag if it has none). A
    removal keeps the parents sorted and makes no cycle, so only the
    endpoints are checked."""
    u, v = as_index(u, "arc endpoint"), as_index(v, "arc endpoint")
    if not (0 <= u < dag.m and 0 <= v < dag.m):
        raise ValueError("arc endpoints out of range")
    sets, masks = list(dag.parent_sets), list(dag.parent_masks)
    sets[v] = tuple(w for w in sets[v] if w != u)
    arcs = dag.arc_count - (masks[v] >> u & 1)
    masks[v] &= ~(1 << u)
    return DagStructure._trusted(dag.m, tuple(sets), tuple(masks), arcs)


def _closure(links, start_mask: int) -> int:
    """Mask of every node reachable from start_mask, links[v] being the mask
    of the nodes one step from v."""
    reached = frontier = start_mask
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = links[low.bit_length() - 1] & ~reached
        reached |= new
        frontier |= new
    return reached


def _extensions_in_component(nodes) -> int:
    """Count topological orders of one component over its prefix sets.

    nodes holds a (bit, ancestor mask) pair per node. ways maps each reachable
    prefix set (bit mask) to the number of orders that place exactly those
    nodes first; level t holds the sets of size t.
    """
    ways = {0: 1}
    for _ in nodes:
        grown: dict[int, int] = {}
        for placed, count in ways.items():
            for bit, need in nodes:
                if not placed & bit and placed & need == need:
                    key = placed | bit
                    grown[key] = grown.get(key, 0) + count
        ways = grown
    (count,) = ways.values()
    return count


@lru_cache(maxsize=1 << 16)
def count_linear_extensions(dag: DagStructure) -> int:
    """Number of total orders consistent with every arc (exact integer)."""
    if dag.m > MAX_NODES:
        raise CapacityError(
            f"the structure prior handles at most {MAX_NODES} variables; "
            f"this network has {dag.m}"
        )
    pmasks = dag.parent_masks
    return _poset_extensions(tuple(_closure(pmasks, mask) for mask in pmasks))


@lru_cache(maxsize=1 << 16)
def _poset_extensions(ancestors: tuple[int, ...]) -> int:
    """Linear extensions of the poset whose node v lies above the nodes of
    ancestors[v], a bit mask."""
    # Weakly connected components order independently; interleavings of the
    # component orders contribute a multinomial factor.
    neighbours = list(ancestors)
    for v, below in enumerate(ancestors):
        while below:
            low = below & -below
            below ^= low
            neighbours[low.bit_length() - 1] |= 1 << v
    total, placed = 1, 0
    left = (1 << len(ancestors)) - 1
    while left:
        comp = _closure(neighbours, left & -left)
        left &= ~comp
        nodes = [(1 << v, need) for v, need in enumerate(ancestors) if comp >> v & 1]
        k = len(nodes)
        total *= math.comb(placed + k, k) * _extensions_in_component(nodes)
        placed += k
    return total


DEFAULT_ARC_PRIOR = 0.5


def check_arc_prior(p: float) -> None:
    """Reject an arc prior probability outside the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("arc prior probability must lie strictly in (0, 1)")


@dataclass(frozen=True)
class StructurePrior:
    """The structure prior of DAGs on m nodes at arc probability p, with p
    checked and the constants of the module docstring's bounds worked out once."""

    m: int
    p: float

    def __post_init__(self):
        check_arc_prior(self.p)
        log_p, log_q = math.log(self.p), math.log1p(-self.p)
        pairs = self.m * (self.m - 1) // 2
        # Frozen, so set through the instance dict. _floor, the least arc
        # factor, comes from the logs: 1 - p rounds to 1 below p ~ 1.1e-16.
        vars(self).update(
            pairs=pairs,
            odds=log_q - log_p,
            log_m_factorial=math.log(math.factorial(self.m)),
            _log_p=log_p, _log_q=log_q,
            _floor=pairs * min(log_p, log_q),
        )

    def ceiling(self, arcs: int) -> float:
        """The arc factor E log p + (C - E) log(1 - p), C being `pairs`."""
        return arcs * self._log_p + (self.pairs - arcs) * self._log_q

    def log_prior(self, dag: DagStructure) -> float:
        """log((linear extensions / m!) * p^E * (1 - p)^(C - E)), in nits."""
        log_ratio = math.log(count_linear_extensions(dag)) - self.log_m_factorial
        return log_ratio + self.ceiling(dag.arc_count)

    def slack(self, scale: float) -> float:
        """Rounding guard of a test settled from the bounds: 1e-9 of the terms
        compared (scale, the largest |log prior| on m nodes), far above their
        sums' float error and far below any difference a test acts on."""
        return 1e-9 * (1.0 + abs(scale) + self.log_m_factorial - self._floor)


structure_prior = lru_cache(maxsize=64)(StructurePrior)


def structure_log_prior(dag: DagStructure, p: float) -> float:
    """Log prior probability of a DAG, in nits (`StructurePrior.log_prior`)."""
    return structure_prior(dag.m, p).log_prior(dag)


def cpdag_key(dag: DagStructure) -> bytes:
    """Canonical key of the Markov equivalence class.

    Two DAGs get the same key iff they share the same skeleton and the same
    set of unshielded colliders.
    """
    masks = dag.parent_masks
    skeleton = sorted(
        (min(u, v), max(u, v))
        for v, parents in enumerate(dag.parent_sets)
        for u in parents
    )
    colliders = sorted(
        (x, y, w)
        for w, parents in enumerate(dag.parent_sets)
        for x, y in combinations(parents, 2)
        if not (masks[y] >> x | masks[x] >> y) & 1
    )
    skeleton_part = ",".join(f"{u}-{v}" for u, v in skeleton)
    collider_part = ",".join(f"{x}.{y}>{w}" for x, y, w in colliders)
    return f"{dag.m}|{skeleton_part}|{collider_part}".encode("ascii")
