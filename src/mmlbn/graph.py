"""Directed acyclic structures, edit moves, and the structure prior.

A DAG is stored as sorted parent tuples. Every graph walk reads them as bit
masks, one per node, and takes one kind of step: `_closure` gathers every
node reachable from a start set through a table of neighbour masks. Over
parent masks that gives a node's ancestors, which is the cycle test of an
edit; over undirected neighbour masks it gives a weakly connected component.

The prior over structures weights each DAG by its number of linear
extensions (total orders consistent with the arcs), normalised by m!, times
an independent Bernoulli factor per possible arc slot. Summed over all DAGs
on m nodes this is exactly 1: conditioned on a total order, the arc slots
are independent coin flips.

Because 1 <= extensions <= m!, the arc factor alone bounds the prior: with E
arcs the log prior lies within log m! below `log_prior_ceiling`. An added
arc only removes orders, so it lowers the log prior by at least
odds = log((1 - p) / p); a removed arc raises it by between odds and
odds + log m!. The sampler settles most tests from these bounds and counts
extensions only when they do not suffice.

Linear extensions are counted exactly, as Python integers. Weakly connected
components are counted apart and their orders interleaved by a multinomial
factor. Within a component a dynamic program walks the reachable prefix
sets (node sets some topological order places first), one node per level,
so it touches only sets an order can actually reach rather than all 2^k
subsets. It only tests set membership, so each component keeps its nodes'
own bits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from .errors import CapacityError, CycleError, NoArcError, ParentCapError

MAX_NODES = 24


@dataclass(frozen=True)
class DagStructure:
    """Immutable DAG over nodes 0..m-1, stored as sorted parent tuples."""

    m: int
    parent_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("node count must be non-negative")
        if len(self.parent_sets) != self.m:
            raise ValueError("parent_sets length does not match node count")
        normalised = []
        for v, parents in enumerate(self.parent_sets):
            parents = tuple(int(u) for u in parents)
            if any(not 0 <= u < self.m for u in parents):
                raise ValueError(f"node {v}: parent index out of range")
            if len(set(parents)) != len(parents):
                raise ValueError(f"node {v}: duplicate parents")
            if v in parents:
                raise CycleError(f"node {v} lists itself as a parent")
            normalised.append(tuple(sorted(parents)))
        object.__setattr__(self, "parent_sets", tuple(normalised))
        if len(self.topological_order()) != self.m:
            raise CycleError("parent sets describe a directed cycle")

    @classmethod
    def _trusted(cls, m: int, parent_sets) -> "DagStructure":
        """A DAG from parent sets already known to be sorted tuples of
        in-range ints that form no cycle: the result of an edit that checked
        its own rules. Skips __post_init__."""
        dag = object.__new__(cls)
        object.__setattr__(dag, "m", m)
        object.__setattr__(dag, "parent_sets", parent_sets)
        return dag

    @classmethod
    def empty(cls, m: int) -> "DagStructure":
        return cls(m, tuple(() for _ in range(m)))

    @classmethod
    def from_arcs(cls, m: int, arcs) -> "DagStructure":
        parents = [[] for _ in range(m)]
        for u, v in arcs:
            parents[v].append(u)
        return cls(m, tuple(tuple(p) for p in parents))

    @property
    def arc_count(self) -> int:
        return sum(len(p) for p in self.parent_sets)

    def arcs(self) -> list[tuple[int, int]]:
        return sorted(
            (u, v) for v, parents in enumerate(self.parent_sets) for u in parents
        )

    def topological_order(self) -> list[int]:
        remaining = [len(p) for p in self.parent_sets]
        children = [[] for _ in range(self.m)]
        for v, parents in enumerate(self.parent_sets):
            for u in parents:
                children[u].append(v)
        # Kahn's algorithm; the order list doubles as its FIFO queue, and on a
        # cycle it stops short of m nodes.
        order = [v for v in range(self.m) if remaining[v] == 0]
        for u in order:
            for w in children[u]:
                remaining[w] -= 1
                if remaining[w] == 0:
                    order.append(w)
        return order


@dataclass(frozen=True)
class ArcMove:
    """One structural edit.

    toggle: flip presence of the arc from_node -> to_node.
    reverse: replace the arc to_node -> from_node by from_node -> to_node.
    """

    kind: Literal["toggle", "reverse"]
    from_node: int
    to_node: int

    def __post_init__(self):
        if self.kind not in ("toggle", "reverse"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.from_node == self.to_node:
            raise ValueError("move endpoints must differ")


def apply_move(dag: DagStructure, move: ArcMove, max_parents: int) -> DagStructure:
    """Apply an edit, enforcing acyclicity and the parent cap.

    The edit's own tests are the only checks its result needs, so the result
    is built without DagStructure's validation.
    """
    i, j = move.from_node, move.to_node
    if not (0 <= i < dag.m and 0 <= j < dag.m):
        raise ValueError("move endpoints out of range")
    sets = list(dag.parent_sets)
    if move.kind == "reverse":
        # j -> i becomes i -> j: drop j from i's parents, then add i -> j
        if j not in sets[i]:
            raise NoArcError(f"no arc {j}->{i} to reverse")
        sets[i] = tuple(u for u in sets[i] if u != j)
        edit = f"reversing {j}->{i}"
    elif i in sets[j]:
        sets[j] = tuple(u for u in sets[j] if u != i)
        return DagStructure._trusted(dag.m, tuple(sets))
    else:
        edit = f"adding {i}->{j}"
    if len(sets[j]) + 1 > max_parents:
        raise ParentCapError(f"node {j} would exceed the parent cap of {max_parents}")
    # i -> j closes a cycle iff j is already an ancestor of i
    if _closure(_parent_masks(sets), 1 << i) >> j & 1:
        raise CycleError(f"{edit} would create a cycle")
    sets[j] = _with_parent(sets[j], i)
    return DagStructure._trusted(dag.m, tuple(sets))


def _with_parent(parents: tuple[int, ...], new: int) -> tuple[int, ...]:
    """A sorted parent tuple with one more parent, inserted in order."""
    at = bisect.bisect(parents, new)
    return parents[:at] + (int(new),) + parents[at:]


def _parent_masks(parent_sets) -> list[int]:
    """Bit mask of each node's parents."""
    masks = []
    for parents in parent_sets:
        mask = 0
        for u in parents:
            mask |= 1 << u
        masks.append(mask)
    return masks


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

    nodes holds a (bit, parent mask) pair per node. ways maps each reachable
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
def _count_extensions(parent_sets) -> int:
    # Weakly connected components order independently; interleavings of the
    # component orders contribute a multinomial factor.
    pmasks = _parent_masks(parent_sets)
    neighbours = list(pmasks)
    for v, parents in enumerate(parent_sets):
        for u in parents:
            neighbours[u] |= 1 << v
    total, placed = 1, 0
    left = (1 << len(pmasks)) - 1
    while left:
        comp = _closure(neighbours, left & -left)
        left &= ~comp
        nodes = [(1 << v, need) for v, need in enumerate(pmasks) if comp >> v & 1]
        k = len(nodes)
        total *= math.comb(placed + k, k) * _extensions_in_component(nodes)
        placed += k
    return total


def count_linear_extensions(dag: DagStructure) -> int:
    """Number of total orders consistent with every arc (exact integer)."""
    if dag.m > MAX_NODES:
        raise CapacityError(
            f"the structure prior handles at most {MAX_NODES} variables; "
            f"this network has {dag.m}"
        )
    return _count_extensions(dag.parent_sets)


def structure_log_prior(dag: DagStructure, p: float) -> float:
    """Log prior probability of a DAG, in nits.

    The prior is: (linear extensions / m!) * p^E * (1-p)^(C-E) with C the
    number of unordered node pairs and E the arc count.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("arc prior probability must lie strictly in (0, 1)")
    extensions = count_linear_extensions(dag)
    m, e = dag.m, dag.arc_count
    pairs = m * (m - 1) // 2
    return (
        math.log(extensions)
        - math.log(math.factorial(m))
        + e * math.log(p)
        + (pairs - e) * math.log1p(-p)
    )


def log_prior_ceiling(m: int, arcs: int, p: float) -> float:
    """The arc factor of structure_log_prior: E log p + (C - E) log(1 - p).

    Since 1 <= extensions <= m!, every DAG on m nodes with this many arcs has
    a log prior in [ceiling - log m!, ceiling].
    """
    pairs = m * (m - 1) // 2
    return arcs * math.log(p) + (pairs - arcs) * math.log1p(-p)


def cpdag_key(dag: DagStructure) -> bytes:
    """Canonical key of the Markov equivalence class.

    Two DAGs get the same key iff they share the same skeleton and the same
    set of unshielded colliders.
    """
    adjacent = set()
    for v, parents in enumerate(dag.parent_sets):
        for u in parents:
            adjacent.add((min(u, v), max(u, v)))
    colliders = []
    for w, parents in enumerate(dag.parent_sets):
        for a in range(len(parents)):
            for b in range(a + 1, len(parents)):
                x, y = parents[a], parents[b]
                if (x, y) not in adjacent:
                    colliders.append((x, y, w))
    skeleton = ",".join(f"{u}-{v}" for u, v in sorted(adjacent))
    collider_part = ",".join(f"{x}.{y}>{w}" for x, y, w in sorted(colliders))
    return f"{dag.m}|{skeleton}|{collider_part}".encode("ascii")
