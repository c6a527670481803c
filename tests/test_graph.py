"""Structures, moves, extension counts, prior, equivalence keys."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmlbn import (
    DagStructure,
    ModelPolicy,
    NetworkScorer,
    apply_move,
    clean_network,
    count_linear_extensions,
    cpdag_key,
    structure_log_prior,
)
from mmlbn import graph
from mmlbn.errors import CapacityError, CycleError, NoArcError, ParentCapError
from mmlbn.graph import StructurePrior, remove_arc, structure_prior
from helpers import (
    brute_force_extensions,
    dags,
    enumerate_dags,
    equivalent_by_definition,
    is_acyclic,
    make_dataset,
    topological_order,
)


def random_dag(rng, m, arc_prob=0.4):
    order = rng.permutation(m)
    arcs = []
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < arc_prob:
                arcs.append((int(order[a]), int(order[b])))
    return DagStructure.from_arcs(m, arcs)


class TestDagStructure:
    def test_construction_normalises(self):
        dag = DagStructure(3, ((), (2, 0), ()))
        assert dag.parent_sets == ((), (0, 2), ())
        assert dag.parent_masks == (0, 0b101, 0)
        assert dag.arc_count == 2
        assert dag.arcs() == [(0, 1), (2, 1)]

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            DagStructure(3, ((1,), (2,), (0,)))
        with pytest.raises(CycleError):
            DagStructure(2, ((0,), ()))

    def test_non_integer_parents_refused(self):
        # int() would read these as the parents (0,) and (1,)
        with pytest.raises(ValueError, match="must be an integer"):
            DagStructure(3, ((), (0.9,), (1.5,)))
        numpy = DagStructure(3, ((), (np.int64(0),), (np.int32(1), np.int8(0))))
        assert numpy == DagStructure(3, ((), (0,), (0, 1)))
        assert all(type(u) is int for parents in numpy.parent_sets for u in parents)

    def test_non_integer_sizes_and_arcs_refused(self):
        with pytest.raises(ValueError, match="node count must be an integer"):
            DagStructure(2.0, ((), ()))
        with pytest.raises(ValueError, match="child must be an integer"):
            DagStructure.from_arcs(3, [(0, 1.5)])
        with pytest.raises(ValueError, match="parent must be an integer"):
            DagStructure.from_arcs(3, [(0.5, 1)])
        with pytest.raises(ValueError, match="node count must be an integer"):
            DagStructure.empty(2.0)
        assert DagStructure(np.int64(2), ((), (0,))).m == 2

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            DagStructure(2, ((5,), ()))
        with pytest.raises(ValueError):
            DagStructure(2, ((1, 1), ()))
        with pytest.raises(ValueError, match="non-negative"):
            DagStructure(-1, ())
        with pytest.raises(ValueError, match="does not match node count"):
            DagStructure(2, ((),))
        for child in (-1, 3):
            with pytest.raises(ValueError, match=f"arc 0->{child}"):
                DagStructure.from_arcs(3, [(0, child)])

    def test_topological_order(self):
        # the order the test data generators sample nodes in
        dag = DagStructure.from_arcs(4, [(2, 0), (0, 3), (1, 3)])
        order = topological_order(dag.parent_sets)
        assert sorted(order) == list(range(4))
        pos = {v: i for i, v in enumerate(order)}
        for u, v in dag.arcs():
            assert pos[u] < pos[v]


@st.composite
def parent_set_lists(draw, max_nodes=8):
    """Parent sets on up to max_nodes nodes, each in a random order. They
    name only nodes earlier in a random node order (a DAG), or any other
    node (often a cycle), or any node, the child itself included."""
    m = draw(st.integers(0, max_nodes))
    kind = draw(st.sampled_from(("ordered", "others", "any")))
    if kind == "ordered":
        order = draw(st.permutations(range(m)))
        allowed = [order[: order.index(v)] for v in range(m)]
    else:
        allowed = [[u for u in range(m) if kind == "any" or u != v] for v in range(m)]
    return [
        draw(st.lists(st.sampled_from(nodes), unique=True)) if nodes else []
        for nodes in allowed
    ]


class TestCheckedConstructor:
    """DagStructure's own validation against a brute-force cycle check: a
    self-parent is named first, any other cycle raises, and acyclic parent
    sets come out sorted."""

    @given(parent_set_lists())
    def test_cycles_match_brute_force(self, sets):
        m = len(sets)
        arcs = [(u, v) for v, parents in enumerate(sets) for u in parents]
        own = [v for v, parents in enumerate(sets) if v in parents]
        if is_acyclic(m, arcs):
            dag = DagStructure(m, tuple(map(tuple, sets)))
            assert dag.parent_sets == tuple(tuple(sorted(p)) for p in sets)
            return
        if own:
            message = f"node {own[0]} lists itself as a parent"
        else:
            message = "parent sets describe a directed cycle"
        with pytest.raises(CycleError) as caught:
            DagStructure(m, tuple(map(tuple, sets)))
        assert str(caught.value) == message


class TestApplyMove:
    def test_toggle_add_then_remove(self):
        dag = DagStructure.empty(3)
        added = apply_move(dag, "toggle", 0, 1, max_parents=10)
        assert 0 in added.parent_sets[1]
        back = apply_move(added, "toggle", 0, 1, max_parents=10)
        assert back == dag

    def test_original_untouched(self):
        dag = DagStructure.from_arcs(3, [(0, 1)])
        apply_move(dag, "toggle", 1, 2, max_parents=10)
        assert dag.arcs() == [(0, 1)]

    def test_toggle_cycle_error(self):
        dag = DagStructure.from_arcs(3, [(0, 1), (1, 2)])
        with pytest.raises(CycleError):
            apply_move(dag, "toggle", 2, 0, max_parents=10)

    def test_parent_cap(self):
        dag = DagStructure.from_arcs(3, [(0, 2), (1, 2)])
        with pytest.raises(ParentCapError):
            apply_move(dag, "toggle", 0, 1, max_parents=0)
        with pytest.raises(ParentCapError):
            apply_move(DagStructure.empty(3), "toggle", 0, 1, max_parents=0)

    def test_reverse(self):
        dag = DagStructure.from_arcs(2, [(1, 0)])
        flipped = apply_move(dag, "reverse", 0, 1, max_parents=10)
        assert flipped.arcs() == [(0, 1)]

    def test_reverse_missing_arc(self):
        with pytest.raises(NoArcError):
            apply_move(DagStructure.empty(2), "reverse", 0, 1, max_parents=10)

    def test_reverse_cycle_error(self):
        # 0->1, 1->2, 0->2; reversing 0->2 to 2->0 closes a cycle via 0->1->2
        dag = DagStructure.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(CycleError):
            apply_move(dag, "reverse", 2, 0, max_parents=10)

    def test_move_validation(self):
        dag = DagStructure.empty(2)
        with pytest.raises(ValueError, match="unknown move kind 'swap'"):
            apply_move(dag, "swap", 0, 1, max_parents=10)
        with pytest.raises(ValueError, match="move endpoints must differ"):
            apply_move(dag, "toggle", 1, 1, max_parents=10)
        with pytest.raises(ValueError, match="move endpoints out of range"):
            apply_move(dag, "toggle", 0, 5, max_parents=10)

    def test_toggle_involution_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dag = random_dag(rng, 5)
            i, j = rng.choice(5, size=2, replace=False)
            try:
                once = apply_move(dag, "toggle", i, j, max_parents=10)
                twice = apply_move(once, "toggle", i, j, max_parents=10)
            except (CycleError, ParentCapError):
                continue
            assert twice == dag

    @pytest.mark.parametrize("m", [5, 70])
    @pytest.mark.parametrize("as_index", [np.int32, np.int64])
    def test_numpy_endpoints(self, m, as_index):
        """Numpy integer endpoints edit as Python ints do, also on nodes past
        bit 63 of a mask."""
        far = m - 1
        dag = expected = DagStructure.empty(m)
        for kind, i, j in [
            ("toggle", 1, 2), ("toggle", far, 3), ("reverse", 2, 1), ("toggle", 3, 1)
        ]:
            dag = apply_move(dag, kind, as_index(i), as_index(j), max_parents=2)
            expected = apply_move(expected, kind, i, j, max_parents=2)
            assert dag == expected
            assert dag.parent_masks == expected.parent_masks
            assert_equals_checked_rebuild(dag, 2)
        # far -> 3 -> 1 is a path, so 1 -> far closes a cycle
        with pytest.raises(CycleError):
            apply_move(dag, "toggle", as_index(1), as_index(far), max_parents=2)

    def test_numpy_endpoint_past_bit_63_keeps_its_arc(self):
        dag = DagStructure.empty(70)
        dag = apply_move(dag, "toggle", np.int64(65), np.int64(3), max_parents=2)
        assert dag.parent_masks[3] == 1 << 65
        with pytest.raises(CycleError):
            apply_move(dag, "toggle", 3, 65, max_parents=2)


@st.composite
def moves_on_dags(draw):
    """A DAG on 2-7 nodes, a parent cap it meets, and a move (kind and two
    of its nodes)."""
    dag = draw(dags(min_nodes=2))
    widest = max(len(parents) for parents in dag.parent_sets)
    max_parents = draw(st.integers(widest, dag.m))
    i, j = draw(st.permutations(range(dag.m)))[:2]
    return dag, draw(st.sampled_from(("toggle", "reverse"))), i, j, max_parents


def assert_equals_checked_rebuild(dag, max_parents):
    """The DAG is what the checked constructor makes of its parent sets
    (sorted tuples, acyclic, and the parent masks, which == ignores) and
    meets the parent cap."""
    rebuilt = DagStructure(dag.m, dag.parent_sets)
    assert dag == rebuilt
    assert dag.parent_masks == rebuilt.parent_masks
    assert all(type(u) is int for parents in dag.parent_sets for u in parents)
    assert all(type(x) is int for x in (*dag.parent_masks, dag.arc_count))
    assert max(map(len, dag.parent_sets), default=0) <= max_parents


def parity_data(dag, seed, n_cases=60):
    """Binary cases in which each node is the parity of its parents, flipped
    with probability 0.3, so that some arcs pay for themselves and some do
    not."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n_cases, dag.m), dtype=np.int64)
    for v in topological_order(dag.parent_sets):
        flip = rng.random(n_cases) < (0.3 if dag.parent_sets[v] else 0.5)
        rows[:, v] = (rows[:, list(dag.parent_sets[v])].sum(axis=1) + flip) % 2
    return make_dataset(rows.T, arities=[2] * dag.m)


class TestApplyMoveProperties:
    """apply_move against the arc set the move describes, checked by brute
    force: it raises exactly when that set breaks a rule, and the error
    names the first rule broken (missing arc, then parent cap, then cycle).
    Edits build their results without DagStructure's validation, so every
    result must equal its rebuild through the checked constructor."""

    @given(moves_on_dags())
    def test_matches_brute_force(self, case):
        dag, kind, i, j, max_parents = case
        arcs = set(dag.arcs())
        expected_error = None
        if kind == "toggle" and (i, j) in arcs:
            arcs.discard((i, j))
        elif kind == "reverse" and (j, i) not in arcs:
            expected_error = NoArcError
        else:
            if kind == "reverse":
                arcs.discard((j, i))
            arcs.add((i, j))
            if sum(v == j for _, v in arcs) > max_parents:
                expected_error = ParentCapError
            elif not is_acyclic(dag.m, arcs):
                expected_error = CycleError
        if expected_error is not None:
            with pytest.raises(expected_error):
                apply_move(dag, kind, i, j, max_parents)
            return
        result = apply_move(dag, kind, i, j, max_parents)
        assert set(result.arcs()) == arcs
        assert is_acyclic(result.m, result.arcs())
        assert max(len(parents) for parents in result.parent_sets) <= max_parents
        assert_equals_checked_rebuild(result, max_parents)

    @given(st.data())
    def test_walk_carries_the_masks(self, data):
        """Masks carried through a walk of edits from the empty DAG match
        the masks the checked constructor builds, after every edit."""
        m = data.draw(st.integers(2, 7))
        max_parents = data.draw(st.integers(1, m - 1))
        dag = DagStructure.empty(m)
        for _ in range(data.draw(st.integers(30, 60))):
            i, j = data.draw(st.permutations(range(m)))[:2]
            kind = data.draw(st.sampled_from(("toggle", "reverse")))
            try:
                dag = apply_move(dag, kind, i, j, max_parents)
            except (CycleError, NoArcError, ParentCapError):
                continue
            assert_equals_checked_rebuild(dag, max_parents)

    @given(st.data())
    def test_every_edit_carries_the_arc_count(self, data):
        """The arc count carried through toggles, reversals and removals of
        present and absent arcs is the sum of the parent set sizes."""
        m = data.draw(st.integers(2, 7))
        dag = DagStructure.empty(m)
        assert dag.arc_count == 0
        for _ in range(data.draw(st.integers(30, 60))):
            i, j = data.draw(st.permutations(range(m)))[:2]
            kind = data.draw(st.sampled_from(("toggle", "reverse", "remove")))
            if kind == "remove":
                dag = remove_arc(dag, i, j)
            else:
                try:
                    dag = apply_move(dag, kind, i, j, m - 1)
                except (CycleError, NoArcError):
                    continue
            assert dag.arc_count == sum(map(len, dag.parent_sets))
            assert dag.arc_count == DagStructure(m, dag.parent_sets).arc_count
        compared = [f.name for f in dataclasses.fields(DagStructure) if f.compare]
        assert compared == ["m", "parent_sets"]

    def test_remove_arc(self):
        dag = DagStructure.from_arcs(3, [(0, 2), (1, 2)])
        reduced = remove_arc(dag, 0, 2)
        assert reduced.arcs() == [(1, 2)]
        assert_equals_checked_rebuild(reduced, 1)
        assert dag.arcs() == [(0, 2), (1, 2)]
        # removing an absent arc, the reverse of a present one or not, changes nothing
        for u, v in [(2, 0), (0, 1), (1, 0)]:
            same = remove_arc(dag, u, v)
            assert same == dag
            assert same.parent_masks == dag.parent_masks
        # numpy endpoints remove as Python ints do
        for as_index in (np.int32, np.int64):
            same = remove_arc(dag, as_index(0), as_index(2))
            assert same == reduced
            assert same.parent_masks == reduced.parent_masks
            assert_equals_checked_rebuild(same, 1)
            assert count_linear_extensions(same) == 3

    @pytest.mark.parametrize("u, v", [(0, -1), (0, 7), (-3, 2), (3, 2)])
    def test_remove_arc_rejects_endpoints_out_of_range(self, u, v):
        # node -1 would index node 2 and remove 0 -> 2; node 7 does not exist
        dag = DagStructure.from_arcs(3, [(0, 2)])
        with pytest.raises(ValueError, match="arc endpoints out of range"):
            remove_arc(dag, u, v)

    @given(
        dags(min_nodes=1, max_nodes=6),
        st.sampled_from([ModelPolicy.TBN, ModelPolicy.DUAL]),
        st.integers(0, 2**32 - 1),
    )
    def test_cleaned_network_equals_checked_rebuild(self, dag, policy, seed):
        scorer = NetworkScorer(parity_data(dag, seed), policy)
        cleaned = clean_network(dag, scorer)
        assert set(cleaned.arcs()) <= set(dag.arcs())
        assert_equals_checked_rebuild(cleaned, max(map(len, dag.parent_sets)))


class TestLinearExtensions:
    def test_known_values(self):
        assert count_linear_extensions(DagStructure.empty(3)) == 6
        chain = DagStructure.from_arcs(3, [(0, 1), (1, 2)])
        assert count_linear_extensions(chain) == 1
        collider = DagStructure.from_arcs(3, [(0, 1), (2, 1)])
        assert count_linear_extensions(collider) == 2
        assert count_linear_extensions(DagStructure.empty(1)) == 1
        # no nodes: no components, one (empty) order, log prior 0
        assert count_linear_extensions(DagStructure.empty(0)) == 1
        assert structure_log_prior(DagStructure.empty(0), 0.3) == 0.0
        # 24 single-node components, right at the node cap
        assert count_linear_extensions(DagStructure.empty(24)) == math.factorial(24)

    def test_all_small_graphs(self):
        for m in range(1, 4):
            for dag in enumerate_dags(m):
                assert count_linear_extensions(dag) == brute_force_extensions(dag)

    def test_random_medium_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            dag = random_dag(rng, 6)
            assert count_linear_extensions(dag) == brute_force_extensions(dag)

    def test_big_int_path_agrees(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dag = random_dag(rng, 7, arc_prob=0.3)
            assert count_linear_extensions(dag) == brute_force_extensions(dag)

    def test_exact_beyond_float_precision(self):
        # K_{12,12}: every left node precedes every right node, so the count
        # is 12! * 12! ~ 2.3e17, above 2^53 where float64 loses integers.
        arcs = [(u, 12 + v) for u in range(12) for v in range(12)]
        dag = DagStructure.from_arcs(24, arcs)
        expected = math.factorial(12) ** 2
        assert expected > 2**53
        assert count_linear_extensions(dag) == expected

    def test_disconnected_multinomial(self):
        # two independent chains of lengths 2 and 3: C(5,2) interleavings
        dag = DagStructure.from_arcs(5, [(0, 1), (2, 3), (3, 4)])
        assert count_linear_extensions(dag) == math.comb(5, 2)

    def test_node_cap(self):
        message = "at most 24 variables; this network has 25"
        with pytest.raises(CapacityError, match=message):
            count_linear_extensions(DagStructure.empty(25))

    def test_a_refused_network_is_not_cached(self):
        # the cap is checked inside the memoised counter, and a raise leaves
        # nothing in its memo
        cached = count_linear_extensions.cache_info().currsize
        message = "the structure prior handles at most 24 variables; this network has 25"
        with pytest.raises(CapacityError, match=message):
            count_linear_extensions(DagStructure.from_arcs(25, [(0, 1)]))
        assert count_linear_extensions.cache_info().currsize == cached
        assert count_linear_extensions(DagStructure.empty(24)) == math.factorial(24)

    @given(dags(), st.data())
    def test_property_one_count_per_poset(self, dag, data):
        # Every arc set between the transitive reduction and the closure
        # has one poset. Two such DAGs get one count, brute force's, and the
        # memo runs the component counter for the first of them only.
        m = dag.m
        above = [set() for _ in range(m)]  # each node's ancestors
        for v in topological_order(dag.parent_sets):
            for u in dag.parent_sets[v]:
                above[v] |= above[u] | {u}
        closure = [(u, v) for v in range(m) for u in sorted(above[v])]
        implied = [(u, v) for u, v in closure if any(u in above[w] for w in above[v])]
        flags = st.lists(st.booleans(), min_size=len(implied), max_size=len(implied))
        dropped = {arc for arc, keep in zip(implied, data.draw(flags)) if not keep}
        other = DagStructure.from_arcs(m, [a for a in closure if a not in dropped])
        calls = []
        counter = graph._extensions_in_component

        def counted(nodes):
            calls.append(len(nodes))
            return counter(nodes)

        count_linear_extensions.cache_clear()
        graph._poset_extensions.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_extensions_in_component", counted)
            first = count_linear_extensions(dag)
            components = len(calls)
            assert count_linear_extensions(other) == first
        assert first == brute_force_extensions(dag)
        assert sum(calls) == m and len(calls) == components
        assert graph._poset_extensions.cache_info().currsize == 1

    @given(dags())
    def test_property_matches_brute_force(self, dag):
        assert count_linear_extensions(dag) == brute_force_extensions(dag)

    @given(st.data())
    def test_property_relabelling_invariant(self, data):
        dag = data.draw(dags(max_nodes=10))
        label = data.draw(st.permutations(range(dag.m)))
        relabelled = DagStructure.from_arcs(
            dag.m, [(label[u], label[v]) for u, v in dag.arcs()]
        )
        assert count_linear_extensions(relabelled) == count_linear_extensions(dag)

    @given(dags(max_nodes=8), dags(max_nodes=8))
    def test_property_disjoint_union(self, a, b):
        m = a.m + b.m
        union = DagStructure.from_arcs(
            m, a.arcs() + [(a.m + u, a.m + v) for u, v in b.arcs()]
        )
        assert count_linear_extensions(union) == (
            math.comb(m, a.m) * count_linear_extensions(a) * count_linear_extensions(b)
        )


# Arc priors from anywhere in (0, 1), with the extremes: the least positive
# float, and the largest below 1.
ARC_PRIORS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1 - 2**-53]),
)


def _grown_by_one_arc(dag):
    """Every DAG that adds one arc to dag."""
    for u in range(dag.m):
        for v in range(dag.m):
            if u == v or u in dag.parent_sets[v]:
                continue
            sets = list(dag.parent_sets)
            sets[v] += (u,)
            try:
                yield DagStructure(dag.m, tuple(sets))
            except CycleError:
                continue


class TestStructurePrior:
    def test_two_node_empty(self):
        value = structure_log_prior(DagStructure.empty(2), 0.5)
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    def test_three_node_chain(self):
        chain = DagStructure.from_arcs(3, [(0, 1), (1, 2)])
        expected = math.log(1 / 6) + 2 * math.log(0.3) + 1 * math.log(0.7)
        assert structure_log_prior(chain, 0.3) == pytest.approx(expected, abs=1e-12)

    def test_p_validated(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                structure_log_prior(DagStructure.empty(2), bad)

    def test_proper_over_two_nodes(self):
        total = sum(
            math.exp(structure_log_prior(dag, 0.4)) for dag in enumerate_dags(2)
        )
        assert total == pytest.approx(1.0, abs=1e-13)

    @given(dags(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_property_within_the_ceiling_bounds(self, dag, p):
        ceiling = StructurePrior(dag.m, p).ceiling(dag.arc_count)
        value = structure_log_prior(dag, p)
        assert value <= ceiling
        # equality at one extension, up to the rounding of the two sums
        log_m_factorial = math.log(math.factorial(dag.m))
        assert value >= ceiling - log_m_factorial - 1e-12 * (1 + abs(ceiling))

    @given(dags(), ARC_PRIORS)
    def test_property_adding_an_arc_lowers_the_prior_by_at_least_odds(self, dag, p):
        prior = structure_prior(dag.m, p)
        before = prior.log_prior(dag)
        for grown in _grown_by_one_arc(dag):
            after = prior.log_prior(grown)
            tol = 1e-12 * max(abs(before), abs(after), abs(prior.odds))
            assert before - after >= prior.odds - tol

    @given(dags(), ARC_PRIORS)
    def test_property_removing_an_arc_raises_the_prior_within_the_window(
        self, dag, p
    ):
        prior = structure_prior(dag.m, p)
        before = prior.log_prior(dag)
        window = (prior.odds, prior.odds + prior.log_m_factorial)
        for u, v in dag.arcs():
            sets = list(dag.parent_sets)
            sets[v] = tuple(w for w in sets[v] if w != u)
            after = prior.log_prior(DagStructure(dag.m, tuple(sets)))
            tol = 1e-12 * max(abs(before), abs(after), *map(abs, window))
            assert window[0] - tol <= after - before <= window[1] + tol

    @given(dags(), ARC_PRIORS, st.floats(-1e6, 1e6))
    def test_property_slack_finite_and_positive(self, dag, p, scale):
        slack = structure_prior(dag.m, p).slack(scale)
        assert math.isfinite(slack) and slack > 0

    @given(dags(), ARC_PRIORS)
    def test_property_same_arithmetic_as_the_formula(self, dag, p):
        m, arcs = dag.m, dag.arc_count
        pairs = m * (m - 1) // 2
        expected = math.log(count_linear_extensions(dag)) - math.log(
            math.factorial(m)
        ) + (arcs * math.log(p) + (pairs - arcs) * math.log1p(-p))
        assert structure_log_prior(dag, p) == expected

    def test_one_object_per_nodes_and_arc_prior(self):
        prior = structure_prior(5, 0.3)
        assert structure_prior(5, 0.3) is prior
        assert prior == StructurePrior(5, 0.3)
        assert structure_prior(6, 0.3) is not prior
        with pytest.raises(ValueError):
            structure_prior(5, 1.0)

    @given(dags())
    def test_property_adding_an_arc_never_adds_orders(self, dag):
        before = count_linear_extensions(dag)
        for grown in _grown_by_one_arc(dag):
            assert count_linear_extensions(grown) <= before


class TestCpdagKey:
    def test_single_arc_reversible(self):
        a = DagStructure.from_arcs(2, [(0, 1)])
        b = DagStructure.from_arcs(2, [(1, 0)])
        assert cpdag_key(a) == cpdag_key(b)

    def test_chains_equivalent(self):
        a = DagStructure.from_arcs(3, [(0, 1), (1, 2)])
        b = DagStructure.from_arcs(3, [(2, 1), (1, 0)])
        fork = DagStructure.from_arcs(3, [(1, 0), (1, 2)])
        assert cpdag_key(a) == cpdag_key(b) == cpdag_key(fork)

    def test_collider_distinct(self):
        chain = DagStructure.from_arcs(3, [(0, 1), (1, 2)])
        collider = DagStructure.from_arcs(3, [(0, 1), (2, 1)])
        assert cpdag_key(chain) != cpdag_key(collider)

    def test_shielded_collider_not_marked(self):
        # complete triangle: no unshielded collider, all orderings equivalent
        a = DagStructure.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        b = DagStructure.from_arcs(3, [(2, 1), (2, 0), (1, 0)])
        assert cpdag_key(a) == cpdag_key(b)

    @given(dags())
    def test_covered_arc_reversal_keeps_the_key(self, dag):
        # Chickering (1995): reversing a covered arc u -> v, one where the
        # parents of v are those of u plus u, gives an equivalent DAG
        key = cpdag_key(dag)
        for u, v in dag.arcs():
            if set(dag.parent_sets[v]) != set(dag.parent_sets[u]) | {u}:
                continue
            sets = list(dag.parent_sets)
            sets[v] = tuple(w for w in sets[v] if w != u)
            sets[u] = sets[u] + (v,)
            reversed_dag = DagStructure(dag.m, tuple(sets))
            assert equivalent_by_definition(reversed_dag, dag)
            assert cpdag_key(reversed_dag) == key

    def test_exact_keys(self):
        # report order among classes with equal visits sorts by these bytes
        keys = {
            b"3||": [],
            b"3|0-1,1-2|": [(0, 1), (1, 2)],
            b"3|0-2,1-2|0.1>2": [(0, 2), (1, 2)],
            b"3|0-1,0-2,1-2|": [(0, 1), (0, 2), (1, 2)],
        }
        for key, arcs in keys.items():
            assert cpdag_key(DagStructure.from_arcs(3, arcs)) == key

    def test_skeleton_separates(self):
        assert cpdag_key(DagStructure.empty(2)) != cpdag_key(
            DagStructure.from_arcs(2, [(0, 1)])
        )
