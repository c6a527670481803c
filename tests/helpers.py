"""Shared oracles and data builders for the test suite.

Everything here recomputes expected values through routes that are
independent of the library's own code paths: exact integer factorials,
explicit design matrices, permutation enumeration, pairwise graph
comparison. None of it imports the module internals it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from mmlbn import DagStructure, DiscreteDataset, VariableMeta
from mmlbn.errors import CycleError


# -- datasets ------------------------------------------------------------


def make_dataset(columns, names=None, arities=None):
    """Dataset from per-variable value lists."""
    columns = [list(col) for col in columns]
    m = len(columns)
    if names is None:
        names = [f"v{i}" for i in range(m)]
    rows = np.array(columns, dtype=np.int32).T
    variables = []
    for i in range(m):
        arity = arities[i] if arities else int(max(columns[i])) + 1
        variables.append(
            VariableMeta(names[i], arity, tuple(f"c{k}" for k in range(arity)))
        )
    return DiscreteDataset(tuple(variables), rows)


def collinear_problem():
    """A node whose logit fit raises ConvergenceError: collinear parents
    (column 1 copies column 0) with the 1 / sigma^2 ridge lost in rounding."""
    rng = np.random.default_rng(60)
    columns = [rng.integers(0, r, size=60) for r in (3, 3, 2, 3)]
    columns[1] = columns[0]
    return make_dataset(columns, arities=[3, 3, 2, 3]), 3, (0, 1, 2), 1e10


def sample_network(rng, n_cases, arities, parent_sets, tables):
    """Forward-sample cases; tables[v] has one row per parent configuration.

    Row order is mixed-radix over parent_sets[v] with the first listed
    parent most significant.
    """
    m = len(arities)
    rows = np.zeros((n_cases, m), dtype=np.int32)
    for v in topological_order(parent_sets):
        parents = parent_sets[v]
        table = np.asarray(tables[v], dtype=float)
        if not parents:
            rows[:, v] = rng.choice(arities[v], size=n_cases, p=table[0])
            continue
        index = np.zeros(n_cases, dtype=np.int64)
        for p in parents:
            index = index * arities[p] + rows[:, p]
        for cfg in np.unique(index):
            sel = index == cfg
            rows[sel, v] = rng.choice(arities[v], size=int(sel.sum()), p=table[cfg])
    return rows


def additive_logit_table(rng, r_y, parent_arities, n_cases, scale=1.5):
    """Dense (n_configs, r_y) counts of n_cases draws from an additive logit.

    Configurations are uniform (mixed radix, first parent most significant);
    the child's logits at (w_1, ..., w_q) are a + sum_i b_i[:, w_i], with
    every entry drawn from N(0, scale^2).
    """
    arities = tuple(parent_arities)
    offsets = rng.normal(0.0, scale, r_y)
    effects = [rng.normal(0.0, scale, (r_y, r_i)) for r_i in arities]
    configs = rng.integers(0, math.prod(arities), n_cases)
    logits = np.tile(offsets, (n_cases, 1))
    index = configs.copy()
    for effect, r_i in zip(reversed(effects), reversed(arities)):
        index, digit = np.divmod(index, r_i)
        logits += effect[:, digit].T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    values = (rng.random((n_cases, 1)) > probs.cumsum(axis=1)).sum(axis=1)
    values = np.minimum(values, r_y - 1)
    table = np.zeros((math.prod(arities), r_y), dtype=np.int64)
    np.add.at(table, (configs, values), 1)
    return table


# -- full-table oracle ----------------------------------------------------


def dirichlet_multinomial_log_marginal(table):
    """Log marginal likelihood of counts under per-configuration uniform
    priors, via exact integer factorials."""
    table = np.asarray(table)
    r_y = table.shape[1]
    log_marginal = 0.0
    for row in table:
        n = int(row.sum())
        value = math.factorial(r_y - 1)
        for k in row:
            value *= math.factorial(int(k))
        log_marginal += math.log(value) - math.log(math.factorial(n + r_y - 1))
    return log_marginal


# -- first-order model oracles --------------------------------------------


def constraint_matrix(r_y, parent_arities):
    """Rows spanning the sum-to-zero constraints on the raw parameters.

    Raw layout: the offsets occupy [0, r_y); effect block i follows as one
    contiguous span with entry (k, w) at offset k * r_i + w. One row sums the
    offsets, and each block has one row per column (sum over k) and one per
    row (sum over w).
    """
    total = r_y * (1 + sum(parent_arities))
    rows = [np.zeros(total)]
    rows[0][:r_y] = 1.0
    base = r_y
    for r_i in parent_arities:
        for w in range(r_i):
            row = np.zeros(total)
            for k in range(r_y):
                row[base + k * r_i + w] = 1.0
            rows.append(row)
        for k in range(r_y):
            row = np.zeros(total)
            row[base + k * r_i : base + (k + 1) * r_i] = 1.0
            rows.append(row)
        base += r_y * r_i
    return np.vstack(rows)


def constraint_rank_dimension(r_y, parent_arities):
    """Free dimension as total size minus numeric rank of the constraints."""
    matrix = constraint_matrix(r_y, parent_arities)
    return matrix.shape[1] - np.linalg.matrix_rank(matrix)


def dense_information_matrix(params, counts):
    """Expected information of the raw parameters via explicit per-config
    design matrices (slow, obviously correct)."""
    r_y = params.child_arity
    arities = params.parent_arities
    total = r_y * (1 + sum(arities))
    info = np.zeros((total, total))
    flat = params.flatten()
    for digits, row in zip(counts.config_digits, counts.counts):
        n_cfg = int(row.sum())
        design = np.zeros((r_y, total))
        for k in range(r_y):
            design[k, k] = 1.0
            base = r_y
            for i, r_i in enumerate(arities):
                design[k, base + k * r_i + int(digits[i])] = 1.0
                base += r_y * r_i
        logits = design @ flat
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        weight = n_cfg * (np.diag(probs) - np.outer(probs, probs))
        info += design.T @ weight @ design
    return info


# -- graph oracles ---------------------------------------------------------


def topological_order(parent_sets):
    """Nodes with every parent placed before its child, found by repeated
    sweeps that place each node whose parents are all placed. The parent
    sets must form a DAG."""
    m = len(parent_sets)
    order = []
    placed = set()
    while len(order) < m:
        for v in range(m):
            if v not in placed and all(u in placed for u in parent_sets[v]):
                order.append(v)
                placed.add(v)
    return order


def is_acyclic(m, arcs):
    """No directed cycle (self-loops included): the adjacency matrix is
    nilpotent."""
    adjacency = np.zeros((m, m), dtype=np.int64)
    for u, v in arcs:
        adjacency[u, v] = 1
    return not np.linalg.matrix_power(adjacency, m).any()


@st.composite
def dags(draw, min_nodes=0, max_nodes=7):
    """A DAG on min_nodes to max_nodes nodes: a random order, then a coin per
    slot."""
    m = draw(st.integers(min_nodes, max_nodes))
    order = draw(st.permutations(range(m)))
    slots = [(order[a], order[b]) for a in range(m) for b in range(a + 1, m)]
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return DagStructure.from_arcs(m, [arc for arc, k in zip(slots, keep) if k])


def enumerate_dags(m):
    """All labelled DAGs on m nodes."""
    pairs = list(itertools.combinations(range(m), 2))
    dags = []
    for assignment in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (u, v), state in zip(pairs, assignment):
            if state == 1:
                arcs.append((u, v))
            elif state == 2:
                arcs.append((v, u))
        try:
            dags.append(DagStructure.from_arcs(m, arcs))
        except CycleError:
            continue
    return dags


_PERM_POSITIONS = {}


def brute_force_extensions(dag):
    """Count consistent total orders by checking every permutation."""
    m = dag.m
    if m not in _PERM_POSITIONS:
        perms = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
        positions = np.argsort(perms, axis=1)
        _PERM_POSITIONS[m] = positions
    positions = _PERM_POSITIONS[m]
    good = np.ones(positions.shape[0], dtype=bool)
    for u, v in dag.arcs():
        good &= positions[:, u] < positions[:, v]
    return int(good.sum())


def skeleton_and_colliders(dag):
    adjacent = set()
    for v, parents in enumerate(dag.parent_sets):
        for u in parents:
            adjacent.add(frozenset((u, v)))
    colliders = set()
    for w, parents in enumerate(dag.parent_sets):
        for x, y in itertools.combinations(parents, 2):
            if frozenset((x, y)) not in adjacent:
                colliders.add((frozenset((x, y)), w))
    return frozenset(adjacent), frozenset(colliders)


def equivalent_by_definition(dag_a, dag_b):
    return skeleton_and_colliders(dag_a) == skeleton_and_colliders(dag_b)
