"""Structure search: proposals, cleaning, class aggregation, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmlbn import (
    ArcMove,
    ChainState,
    DagStructure,
    ModelPolicy,
    NetworkScorer,
    SamplerConfig,
    SamplerContext,
    apply_move,
    clean_network,
    cpdag_key,
    initial_state,
    metropolis_step,
    network_message_length,
    run_sampler,
    structure_log_prior,
)
from mmlbn import scoring
from mmlbn.errors import CycleError, NoArcError, ParentCapError
from helpers import collinear_problem, dags, make_dataset, sample_network


def dependent_pair(seed=0, n=400, flip=0.05):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    noise = rng.random(n) < flip
    y = np.where(noise, 1 - x, x)
    return make_dataset([x, y], arities=[2, 2])


def independent_pair(seed=0, n=400):
    rng = np.random.default_rng(seed)
    return make_dataset(
        [rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)], arities=[2, 2]
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("iterations", 0),
            ("burn_in", -1),
            ("burn_in", 50),
            ("p", 0.0),
            ("p", 1.0),
            ("sigma", 0.0),
            # the logit fit divides by sigma^2 and the length takes log sigma
            ("sigma", float("nan")),
            ("sigma", float("inf")),
            ("sigma", 1e300),
            ("sigma", 1e-200),
            ("max_parents", -1),
            ("top_k", 0),
            ("seed", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        config = SamplerConfig(iterations=50, burn_in=5)
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_defaults_pass(self):
        SamplerConfig().validate()


def _step_by_the_rule(state, rng, ctx):
    """metropolis_step written out with the structure prior always computed."""
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
    lengths = list(state.node_lengths)
    for v in (j,) if kind == "toggle" else (i, j):
        lengths[v] = ctx.scorer.node_length_or_inf(v, new_dag.parent_sets[v])
    log_prior = ctx.scorer.structure_log_prior(new_dag)
    if any(math.isinf(x) for x in lengths):
        total = math.inf
    else:
        total = -log_prior + sum(lengths)
    delta = state.total - total
    if delta < 0 and math.log(rng.random()) >= delta:
        return state
    return ChainState(new_dag, tuple(lengths), log_prior, total)


def _run_by_the_rule(ds, config):
    """run_sampler's classes, with each post-burn-in visit cleaned, priced
    and classified as it happens: (key, visits, best network, best length)
    of the top classes."""
    scorer = NetworkScorer(ds, config.policy, config.p, config.sigma)
    ctx = SamplerContext(scorer, config.max_parents)
    rng = np.random.default_rng(config.seed)
    state = initial_state(scorer)
    records = {}
    for step in range(config.iterations):
        state = metropolis_step(state, rng, ctx)
        if step < config.burn_in:
            continue
        cleaned = clean_network(state.dag, scorer)
        length = scorer.total_length(cleaned)
        record = records.setdefault(cpdag_key(cleaned), [0, cleaned, length])
        record[0] += 1
        if length < record[2]:
            record[1:] = cleaned, length
    ordered = sorted(records.items(), key=lambda item: (-item[1][0], item[0]))
    return [(key, *record) for key, record in ordered[: config.top_k]]


class _PartlyUncodable(NetworkScorer):
    """The real scorer with some (child, parents) pairs uncodable; counts the
    networks it prices."""

    def __init__(self, ds, p, uncodable):
        super().__init__(ds, ModelPolicy.DUAL, p)
        self.uncodable = uncodable
        self.priced = 0

    def node_length_or_inf(self, child, parents):
        if (child, tuple(parents)) in self.uncodable:
            return math.inf
        return super().node_length_or_inf(child, parents)

    def structure_log_prior(self, dag):
        self.priced += 1
        return super().structure_log_prior(dag)


class TestChainMechanics:
    def test_initial_state_matches_network_length(self):
        ds = independent_pair(1)
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        state = initial_state(scorer)
        assert state.dag == DagStructure.empty(2)
        expected = network_message_length(
            DagStructure.empty(2), ds, ModelPolicy.DUAL
        )
        assert state.total == pytest.approx(expected, abs=1e-12)

    def test_single_node_chain_never_moves(self):
        ds = make_dataset([[0, 1, 0]], arities=[2])
        scorer = NetworkScorer(ds, ModelPolicy.TBN)
        state = initial_state(scorer)
        ctx = SamplerContext(scorer, 0)
        assert metropolis_step(state, np.random.default_rng(0), ctx) is state

    def test_zero_parent_cap_pins_the_empty_graph(self):
        ds = dependent_pair(2)
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        ctx = SamplerContext(scorer, 0)
        state = initial_state(scorer)
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert metropolis_step(state, rng, ctx) is state

    def test_running_total_stays_consistent(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(
            [rng.integers(0, 2, size=80) for _ in range(4)], arities=[2] * 4
        )
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        ctx = SamplerContext(scorer, 3)
        state = initial_state(scorer)
        chain_rng = np.random.default_rng(5)
        seen = {state.dag}
        for _ in range(300):
            state = metropolis_step(state, chain_rng, ctx)
            seen.add(state.dag)
            expected = network_message_length(state.dag, ds, ModelPolicy.DUAL)
            assert state.total == pytest.approx(expected, abs=1e-9)
        assert len(seen) > 3  # the chain actually explores

    @pytest.mark.parametrize("p", [0.5, 0.2])
    @pytest.mark.parametrize("policy", list(ModelPolicy))
    def test_total_length_is_the_chain_total_bit_for_bit(self, policy, p):
        rng = np.random.default_rng(31)
        arities = [2, 3, 2, 3, 2]
        parent_sets = ((), (0,), (0, 1), (2,), (1, 3))
        tables = [
            rng.dirichlet(np.ones(arities[v]), size=math.prod(arities[u] for u in ps))
            for v, ps in enumerate(parent_sets)
        ]
        rows = sample_network(rng, 300, arities, parent_sets, tables)
        ds = make_dataset(rows.T, arities=arities)
        scorer = NetworkScorer(ds, policy, p)
        ctx = SamplerContext(scorer, 4)
        state = initial_state(scorer)
        chain_rng = np.random.default_rng(7)
        totals = {state.dag: state.total}
        for _ in range(2000):
            state = metropolis_step(state, chain_rng, ctx)
            totals[state.dag] = state.total
        assert len(totals) > 20
        for dag, total in totals.items():
            assert scorer.total_length(dag) == total, dag

    # 1e-300 is below the least p whose 1 - p differs from 1
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1e-300])
    @pytest.mark.parametrize(
        "uncodable",
        [frozenset(), frozenset({(0, ()), (2, (1,)), (3, (0, 2)), (1, (0, 3))})],
        ids=["codable", "uncodable"],
    )
    def test_same_chain_as_the_rule_with_the_prior_always_computed(
        self, p, uncodable
    ):
        rng = np.random.default_rng(21)
        n = 120
        a = rng.integers(0, 2, size=n)
        b = np.where(rng.random(n) < 0.15, 1 - a, a)
        c = (b + rng.integers(0, 2, size=n)) % 3
        d = rng.integers(0, 2, size=n)
        ds = make_dataset([a, b, c, d], arities=[2, 2, 3, 2])
        fast, slow = (_PartlyUncodable(ds, p, uncodable) for _ in range(2))
        fast_ctx, slow_ctx = SamplerContext(fast, 3), SamplerContext(slow, 3)
        fast_state, slow_state = initial_state(fast), initial_state(slow)
        fast_rng, slow_rng = np.random.default_rng(22), np.random.default_rng(22)
        for _ in range(400):
            fast_state = metropolis_step(fast_state, fast_rng, fast_ctx)
            slow_state = _step_by_the_rule(slow_state, slow_rng, slow_ctx)
            assert fast_state.dag == slow_state.dag
            assert fast_state.node_lengths == slow_state.node_lengths
            assert fast_state.log_prior == slow_state.log_prior
            assert fast_state.total == slow_state.total
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        # the bounds settled some tests without the prior
        assert fast.priced < slow.priced

    def test_a_zero_delta_draws_no_uniform(self):
        # Adding 0 -> 2 to 0 -> 1 -> 2 keeps the one extension, so the bound
        # on the proposal's prior is tight up to rounding. With the node
        # length that brings delta to its smallest value >= 0, the step
        # accepts without drawing a uniform, as the rule does.
        p = 0.2
        chain = DagStructure(3, ((), (0,), (1,)))
        closed = DagStructure(3, ((), (0,), (0, 1)))
        chain_prior = structure_log_prior(chain, p)
        closed_prior = structure_log_prior(closed, p)
        state = ChainState(chain, (0.0, 2.0, 3.0), chain_prior, -chain_prior + 5.0)

        def delta(length):
            return state.total - (-closed_prior + sum((0.0, 2.0, length)))

        length = 3.0 + closed_prior - chain_prior
        while delta(length) < 0:
            length = math.nextafter(length, -math.inf)
        while delta(math.nextafter(length, math.inf)) >= 0:
            length = math.nextafter(length, math.inf)
        scorer = _PricedScorer(lambda node, parents: length, p)

        class Script:
            """Draws a toggle of the pair (0, 2), then uniforms of 0.9."""

            draws = 0

            def random(self):
                self.draws += 1
                return 0.1 if self.draws == 1 else 0.9

            def integers(self, low, high):
                return 1

        script = Script()
        step = metropolis_step(state, script, SamplerContext(scorer, 2))
        assert step.dag == closed
        assert script.draws == 1  # only the move kind's

    def test_deterministic_given_seed(self):
        ds = dependent_pair(6)
        config = SamplerConfig(iterations=400, burn_in=100, seed=11)
        first = run_sampler(ds, config)
        second = run_sampler(ds, config)
        assert first.total_samples == second.total_samples
        assert [c.key for c in first.classes] == [c.key for c in second.classes]
        assert [c.visits for c in first.classes] == [c.visits for c in second.classes]
        assert [c.best_network for c in first.classes] == [
            c.best_network for c in second.classes
        ]
        assert first.classes[0].best_length == second.classes[0].best_length


class _FakeScorer:
    """Table-driven stand-in for one node's lengths; flat structure prior.

    A flat prior keeps within the bounds cleaning assumes at p = 0.5: a
    removal changes the log prior by between odds = 0 and log m!.
    """

    p = 0.5

    def __init__(self, node, table):
        self.node = node
        self.table = table
        self.queried = []

    def node_length_or_inf(self, node, parents):
        assert node == self.node
        self.queried.append(tuple(parents))
        return self.table[tuple(parents)]

    def node_floor(self, node, parents):
        return self.table[tuple(parents)]

    def structure_log_prior(self, dag):
        return 0.0


class _PricedScorer:
    """Node lengths from lengths(node, parents), with the real structure
    prior at p; records every network it prices."""

    def __init__(self, lengths, p=0.5):
        self.lengths = lengths
        self.p = p
        self.priced = []

    def node_length_or_inf(self, node, parents):
        return self.lengths(node, tuple(parents))

    def node_floor(self, node, parents):
        return self.node_length_or_inf(node, parents)

    def structure_log_prior(self, dag):
        self.priced.append(dag)
        return structure_log_prior(dag, self.p)


class _FlooredScorer(_PricedScorer):
    """_PricedScorer whose nodes are priced first by floors, as NetworkScorer
    prices a node it has not scored: gaps(node, parents) below the length of
    a codable node. A node is exact once its length has been read.

    Nodes in `uncodable` have length inf and floor -inf, as NetworkScorer
    gives: a finite floor is the floor of a codable node."""

    def __init__(self, lengths, gaps, p, uncodable=()):
        super().__init__(lengths, p)
        self.gaps = gaps
        self.uncodable = frozenset(uncodable)
        self.scored = []

    def node_length_or_inf(self, node, parents):
        key = (node, tuple(parents))
        self.scored.append(key)
        return math.inf if key in self.uncodable else self.lengths(*key)

    def node_floor(self, node, parents):
        key = (node, tuple(parents))
        if key in self.scored:
            return self.node_length_or_inf(*key)
        if key in self.uncodable:
            return -math.inf
        return self.lengths(*key) - self.gaps(*key)


class _CountingRng:
    """A Generator's random and integers, counting the uniforms drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.uniforms = 0

    def random(self):
        self.uniforms += 1
        return self.rng.random()

    def integers(self, low, high):
        return self.rng.integers(low, high)


def _clean_by_the_rule(dag, scorer):
    """clean_network written out, with both priors computed at every test."""
    current = dag
    for node in range(dag.m):
        for parent in dag.parent_sets[node]:
            kept = current.parent_sets[node]
            reduced = tuple(u for u in kept if u != parent)
            sets = list(current.parent_sets)
            sets[node] = reduced
            candidate = DagStructure(current.m, tuple(sets))
            with_len = scorer.node_length_or_inf(node, kept)
            without_len = scorer.node_length_or_inf(node, reduced)
            if math.isinf(with_len) or math.isinf(without_len):
                current = candidate
                continue
            delta = (without_len - with_len) - (
                scorer.structure_log_prior(candidate)
                - scorer.structure_log_prior(current)
            )
            if delta <= 0:
                current = candidate
    return current


class TestCleaning:
    def test_keeps_a_paying_arc(self):
        ds = dependent_pair(7)
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        dag = DagStructure(2, ((), (0,)))
        assert clean_network(dag, scorer) == dag

    def test_removes_a_useless_arc(self):
        ds = independent_pair(8)
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        dag = DagStructure(2, ((), (0,)))
        assert clean_network(dag, scorer) == DagStructure.empty(2)

    def test_idempotent_on_real_data(self):
        rng = np.random.default_rng(9)
        rows = sample_network(
            rng,
            300,
            [2, 2, 2],
            [(), (0,), (1,)],
            [
                [[0.5, 0.5]],
                [[0.9, 0.1], [0.1, 0.9]],
                [[0.8, 0.2], [0.2, 0.8]],
            ],
        )
        ds = make_dataset(rows.T, arities=[2, 2, 2])
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        dag = DagStructure(3, ((), (0,), (0, 1)))
        once = clean_network(dag, scorer)
        assert clean_network(once, scorer) == once

    def test_prior_once_per_network_and_same_result(self):
        rng = np.random.default_rng(19)
        rows = sample_network(
            rng,
            300,
            [2, 3, 2, 2],
            [(), (0,), (1,), (0, 2)],
            [
                [[0.5, 0.5]],
                [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]],
                [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]],
                [[0.9, 0.1], [0.6, 0.4], [0.4, 0.6], [0.1, 0.9]],
            ],
        )
        ds = make_dataset(rows.T, arities=[2, 3, 2, 2])
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        dag = DagStructure(4, ((), (0,), (0, 1), (0, 1, 2)))

        expected = _clean_by_the_rule(dag, scorer)

        priced = []
        prior = scorer.structure_log_prior

        def counted_prior(network):
            priced.append(network)
            return prior(network)

        scorer.structure_log_prior = counted_prior
        assert clean_network(dag, scorer) == expected
        # at most the start network and one candidate per arc tested; tests
        # the bounds settle price nothing
        assert len(priced) <= 1 + dag.arc_count
        assert len(set(priced)) == len(priced)

    def test_gains_inside_the_window_are_priced_exactly(self):
        # p = 0.5 makes odds 0, so the bounds settle only gains <= 0 or
        # > log 3!; both gains here lie between. Dropping either parent of
        # node 2 takes its extensions from 2 to 3, a prior gain of log 1.5.
        table = {(0, 1): 10.0, (1,): 10.5, (0,): 10.2}
        scorer = _PricedScorer(lambda node, parents: table[parents])
        dag = DagStructure(3, ((), (), (0, 1)))
        cleaned = clean_network(dag, scorer)
        # 0.5 > log 1.5 keeps parent 0; 0.2 < log 1.5 drops parent 1
        assert cleaned == DagStructure(3, ((), (), (0,)))
        # the start network once, then each candidate
        assert scorer.priced == [
            dag,
            DagStructure(3, ((), (), (1,))),
            DagStructure(3, ((), (), (0,))),
        ]

    def test_a_removal_by_the_bounds_prices_the_next_network_afresh(self):
        # p = 0.5 and log 4! = 3.18. Node 3's parents 0, 1, 2 are tested
        # with gains 1.0 (priced: kept, as dropping 0 gains log(8/6) of
        # prior), -1.0 (removed by the bounds) and 0.5 (priced against the
        # network without 1 -> 3: dropping 2 gains log(12/8) = 0.41, so 2 is
        # kept, where the network before the removal would give log 2).
        table = {(0, 1, 2): 10.0, (1, 2): 11.0, (0, 2): 9.0, (0,): 9.5}
        scorer = _PricedScorer(lambda node, parents: table[parents])
        dag = DagStructure(4, ((), (), (), (0, 1, 2)))
        cleaned = clean_network(dag, scorer)
        assert cleaned == DagStructure(4, ((), (), (), (0, 2)))
        assert scorer.priced == [
            dag,
            DagStructure(4, ((), (), (), (1, 2))),
            cleaned,
            DagStructure(4, ((), (), (), (0,))),
        ]

    def test_a_gain_on_the_edge_of_the_window_is_priced(self):
        # Dropping 0 -> 2 from 0 -> 1 -> 2 keeps the one extension, so the
        # prior changes by odds up to rounding, and a gain of exactly odds
        # sits on the window's edge: only the exact prior can settle it.
        p = 0.2
        odds = math.log1p(-p) - math.log(p)
        table = {(1, (0,)): 0.0, (1, ()): 100.0, (2, (0, 1)): 0.0, (2, (1,)): odds}
        table[2, (0,)] = 100.0
        scorer = _PricedScorer(lambda node, parents: table[node, parents], p)
        dag = DagStructure(3, ((), (0,), (0, 1)))
        assert clean_network(dag, scorer) == _clean_by_the_rule(dag, scorer)
        assert DagStructure(3, ((), (0,), (1,))) in scorer.priced

    @given(st.data())
    def test_property_matches_the_rule_with_both_priors_computed(self, data):
        dag = data.draw(dags(min_nodes=2, max_nodes=5))
        p = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
        odds = math.log((1 - p) / p)
        log_m_factorial = math.log(math.factorial(dag.m))
        # gains on both sides of each edge of the window the bounds leave
        edge = st.sampled_from([odds, odds + log_m_factorial])
        offset = st.sampled_from([-1e-3, -1e-7, -1e-12, 0.0, 1e-12, 1e-7, 1e-3])
        gains = st.one_of(
            st.tuples(edge, offset).map(sum),
            st.floats(odds - 2, odds + log_m_factorial + 2),
            st.just(-math.inf),
        )
        weights = [[-data.draw(gains) for _ in range(dag.m)] for _ in range(dag.m)]

        # one weight per parent, so a test's gain is minus the tested
        # parent's weight; an infinite weight makes the node uncodable
        def lengths(node, parents):
            return 50.0 + sum(weights[node][u] for u in parents)

        scorer = _PricedScorer(lengths, p)
        expected = _clean_by_the_rule(dag, _PricedScorer(lengths, p))
        assert clean_network(dag, scorer) == expected
        assert len(set(scorer.priced)) == len(scorer.priced)

    def test_parents_tested_ascending_and_sequentially(self):
        table = {(0, 1): 10.0, (1,): 9.0, (0,): 8.0, (): 9.5}
        scorer = _FakeScorer(2, table)
        dag = DagStructure(3, ((), (), (0, 1)))
        cleaned = clean_network(dag, scorer)
        # parent 0 went first ((1,) beat (0, 1)); then () lost to (1,)
        assert cleaned.parent_sets[2] == (1,)
        assert scorer.queried == [(0, 1), (1,), (1,), ()]

    def test_tie_means_removal(self):
        scorer = _FakeScorer(1, {(0,): 5.0, (): 5.0})
        dag = DagStructure(2, ((), (0,)))
        assert clean_network(dag, scorer) == DagStructure.empty(2)

    def test_scoring_failure_means_removal(self):
        scorer = _FakeScorer(1, {(0,): math.inf, (): 3.0})
        dag = DagStructure(2, ((), (0,)))
        assert clean_network(dag, scorer) == DagStructure.empty(2)


class TestNodeFloors:
    """Tests priced by floors first are the tests of the exact lengths."""

    @staticmethod
    def _draw_problem(data):
        m = data.draw(st.integers(2, 5), label="m")
        p = data.draw(st.sampled_from([0.2, 0.5, 0.8]), label="p")
        weights = [
            [data.draw(st.floats(-6.0, 6.0), label="weight") for _ in range(m)]
            for _ in range(m)
        ]
        gap_values = st.sampled_from([0.0, 1e-12, 1e-3, 0.5, 3.0, 40.0, math.inf])
        gaps = {}

        # a pairwise term too, so that a parent's worth depends on the others
        def lengths(node, parents):
            pairs = sum(weights[u][w] for u in parents for w in parents if u < w)
            return 50.0 + sum(weights[node][u] for u in parents) + 0.3 * pairs

        def gap(node, parents):
            key = (node, parents)
            if key not in gaps:
                gaps[key] = data.draw(gap_values, label="gap")
            return gaps[key]

        uncodable = set()
        if data.draw(st.booleans(), label="some uncodable"):
            for node in range(m):
                for parents in data.draw(
                    st.lists(st.sets(st.integers(0, m - 1)), max_size=3),
                    label="uncodable",
                ):
                    uncodable.add((node, tuple(sorted(set(parents) - {node}))))
        floored = _FlooredScorer(lengths, gap, p, uncodable)

        def exact(node, parents):
            return math.inf if (node, parents) in uncodable else lengths(node, parents)

        return m, p, floored, _PricedScorer(exact, p)

    @given(data=st.data())
    def test_the_chain_is_the_rule(self, data):
        m, p, floored, exact = self._draw_problem(data)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        dag = DagStructure.empty(m)
        states = []
        for scorer in (floored, exact):
            lengths = tuple(scorer.node_length_or_inf(v, ()) for v in range(m))
            log_prior = structure_log_prior(dag, p)
            states.append(ChainState(dag, lengths, log_prior, -log_prior + sum(lengths)))
        fast, slow = states
        fast_rng, slow_rng = _CountingRng(seed), _CountingRng(seed)
        fast_ctx, slow_ctx = SamplerContext(floored, 3), SamplerContext(exact, 3)
        for _ in range(60):
            fast = metropolis_step(fast, fast_rng, fast_ctx)
            slow = _step_by_the_rule(slow, slow_rng, slow_ctx)
            assert fast.dag == slow.dag
            assert fast.node_lengths == slow.node_lengths
            assert fast.total == slow.total
            assert fast_rng.uniforms == slow_rng.uniforms

    @given(data=st.data())
    def test_cleaning_is_the_rule(self, data):
        m, p, floored, exact = self._draw_problem(data)
        order = data.draw(st.permutations(range(m)), label="order")
        slots = [(order[a], order[b]) for a in range(m) for b in range(a + 1, m)]
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)),
            label="arcs",
        )
        dag = DagStructure.from_arcs(m, [arc for arc, k in zip(slots, keep) if k])
        assert clean_network(dag, floored) == _clean_by_the_rule(dag, exact)

    def test_a_floor_keeps_an_arc_without_scoring_the_candidate(self):
        # dropping 0 -> 1 would cost 30 nits by the floor alone
        lengths = {(1, (0,)): 10.0, (1, ()): 45.0}
        scorer = _FlooredScorer(
            lambda node, parents: lengths[node, parents], lambda *_: 5.0, 0.5
        )
        dag = DagStructure(2, ((), (0,)))
        assert clean_network(dag, scorer) == dag
        assert scorer.scored == [(1, (0,))]

    def test_an_already_scored_uncodable_candidate_is_removed(self):
        # Once scored, the candidate's floor is its length, inf, so the floor
        # test sees an infinite gain; the bounds must not keep the arc for it.
        scorer = _FlooredScorer(
            lambda node, parents: 10.0, lambda *_: 5.0, 0.5, uncodable={(1, ())}
        )
        scorer.node_length_or_inf(1, ())
        assert scorer.node_floor(1, ()) == math.inf
        dag = DagStructure(2, ((), (0,)))
        expected = _clean_by_the_rule(dag, scorer)
        assert expected == DagStructure.empty(2)
        assert clean_network(dag, scorer) == expected

    def test_an_uncodable_fon_node_is_cleaned_as_by_the_rule(self):
        # Under fon a logit fit can fail: node 3's fit over its collinear
        # parents does, so its floor is its exact length, inf, and the arc
        # tested first goes, as the rule removes it.
        ds, child, parents, sigma = collinear_problem()
        dag = DagStructure(ds.n_variables, ((), (), (), parents))
        scorer = NetworkScorer(ds, ModelPolicy.FON, sigma=sigma)
        assert scorer.node_floor(child, parents) == math.inf
        expected = _clean_by_the_rule(
            dag, NetworkScorer(ds, ModelPolicy.FON, sigma=sigma)
        )
        assert parents[0] not in expected.parent_sets[child]
        assert clean_network(dag, scorer) == expected

    @pytest.mark.parametrize("policy", [ModelPolicy.DUAL, ModelPolicy.FON])
    def test_one_tally_per_node_and_fewer_fits(self, policy, monkeypatch):
        # each variable the sum of the (up to) two before it, one case in
        # ten redrawn
        rng = np.random.default_rng(24)
        n = 400
        columns = [rng.integers(0, 3, size=n)]
        for v in range(1, 6):
            total = (columns[-1] + (columns[-2] if v > 1 else 0)) % 3
            redrawn = rng.random(n) < 0.1
            columns.append(np.where(redrawn, rng.integers(0, 3, size=n), total))
        ds = make_dataset(columns, arities=[3] * 6)
        config = SamplerConfig(iterations=600, burn_in=100, seed=2, policy=policy)

        tallied, fits = [], []
        counts_for, fit = scoring.counts_for, scoring.fom_message_length

        def counted_tally(dataset, child, parents):
            tallied.append((child, tuple(parents)))
            return counts_for(dataset, child, parents)

        def counted_fit(*args, **kwargs):
            fits.append(None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(scoring, "counts_for", counted_tally)
        monkeypatch.setattr(scoring, "fom_message_length", counted_fit)
        report = run_sampler(ds, config)
        assert len(set(tallied)) == len(tallied)
        with_floors = len(fits)

        # every node priced exactly: the same report from more fits
        monkeypatch.setattr(
            NetworkScorer, "node_floor", NetworkScorer.node_length_or_inf
        )
        tallied.clear()
        fits.clear()
        assert run_sampler(ds, config) == report
        assert len(set(tallied)) == len(tallied)
        if policy is ModelPolicy.DUAL:
            assert with_floors < len(fits)
        else:  # fon has no floors
            assert with_floors == len(fits)


class TestRunSampler:
    def test_report_shape_and_ordering(self):
        ds = dependent_pair(10)
        report = run_sampler(ds, SamplerConfig(iterations=600, burn_in=100, seed=1))
        assert report.total_samples == 500
        visits = [c.visits for c in report.classes]
        assert sum(visits) <= report.total_samples
        assert visits == sorted(visits, reverse=True)
        assert sum(report.weights()) <= 1.0 + 1e-12
        for record in report.classes:
            assert record.key == cpdag_key(record.best_network)

    def test_top_k_truncates(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(
            [rng.integers(0, 2, size=50) for _ in range(3)], arities=[2] * 3
        )
        report = run_sampler(
            ds, SamplerConfig(iterations=500, burn_in=0, seed=2, top_k=1)
        )
        assert len(report.classes) == 1

    def test_independent_data_prefers_no_arcs(self):
        ds = independent_pair(13, n=600)
        report = run_sampler(ds, SamplerConfig(iterations=3000, burn_in=500, seed=3))
        assert report.classes[0].best_network.arc_count == 0
        assert report.classes[0].visits > 0.8 * report.total_samples

    def test_dependent_data_prefers_one_arc(self):
        ds = dependent_pair(14, n=600)
        report = run_sampler(ds, SamplerConfig(iterations=3000, burn_in=500, seed=4))
        top = report.classes[0]
        assert top.best_network.arc_count == 1
        assert top.visits > 0.8 * report.total_samples

    def test_best_length_matches_rescoring(self):
        ds = dependent_pair(15)
        config = SamplerConfig(iterations=800, burn_in=100, seed=5)
        report = run_sampler(ds, config)
        scorer = NetworkScorer(ds, config.policy, config.p, config.sigma)
        for record in report.classes:
            assert record.best_length == pytest.approx(
                scorer.total_length(record.best_network), abs=1e-9
            )

    @pytest.mark.parametrize("policy", [ModelPolicy.TBN, ModelPolicy.DUAL])
    @pytest.mark.parametrize("top_k", [2, 10])
    def test_same_classes_as_the_per_visit_rule(self, policy, top_k):
        # Weak dependence on few cases: the chain spreads over many classes,
        # and a class gathers networks whose cleaned lengths differ.
        rng = np.random.default_rng(24)
        n = 60

        def noisy(values, arity, flip):
            redrawn = rng.random(n) < flip
            return np.where(redrawn, rng.integers(0, arity, size=n), values)

        a = rng.integers(0, 3, size=n)
        b = noisy(a, 3, 0.4)
        c = noisy((a + b) % 3, 3, 0.4)
        d = noisy(c % 2, 2, 0.5)
        self._check_against_the_rule(
            make_dataset([a, b, c, d], arities=[3, 3, 3, 2]), policy, top_k
        )
        # Two copies of one column: 0 -> 1 and 1 -> 0 tie exactly, and the
        # class keeps the first visited.
        copies = make_dataset([a, a], arities=[3, 3])
        self._check_against_the_rule(copies, policy, top_k)

    def _check_against_the_rule(self, ds, policy, top_k):
        for seed in (1, 2, 3):
            config = SamplerConfig(
                iterations=800, burn_in=100, seed=seed, policy=policy, top_k=top_k
            )
            report = run_sampler(ds, config)
            assert report.total_samples == 700
            assert [
                (c.key, c.visits, c.best_network, c.best_length) for c in report.classes
            ] == _run_by_the_rule(ds, config)

    def test_max_parents_respected(self):
        rng = np.random.default_rng(16)
        ds = make_dataset(
            [rng.integers(0, 2, size=100) for _ in range(5)], arities=[2] * 5
        )
        report = run_sampler(
            ds,
            SamplerConfig(iterations=1500, burn_in=0, seed=6, max_parents=1),
        )
        for record in report.classes:
            assert all(len(p) <= 1 for p in record.best_network.parent_sets)
