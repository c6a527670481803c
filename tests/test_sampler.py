"""Structure search: proposals, cleaning, class aggregation, determinism."""

import math

import numpy as np
import pytest

from mmlbn import (
    DagStructure,
    ModelPolicy,
    NetworkScorer,
    SamplerConfig,
    SamplerContext,
    clean_network,
    cpdag_key,
    initial_state,
    metropolis_step,
    network_message_length,
    run_sampler,
)
from helpers import make_dataset, sample_network


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
            ("max_parents", -1),
            ("top_k", 0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        config = SamplerConfig(iterations=50, burn_in=5)
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_defaults_pass(self):
        SamplerConfig().validate()


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
    """Table-driven stand-in for one node's lengths; flat structure prior."""

    def __init__(self, node, table):
        self.node = node
        self.table = table
        self.queried = []

    def node_length_or_inf(self, node, parents):
        assert node == self.node
        self.queried.append(tuple(parents))
        return self.table[tuple(parents)]

    def structure_log_prior(self, dag):
        return 0.0


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

        # the rule written out, with both priors recomputed at every test
        expected = dag
        for node in range(dag.m):
            for parent in dag.parent_sets[node]:
                kept = expected.parent_sets[node]
                reduced = tuple(u for u in kept if u != parent)
                candidate = expected.with_parents(node, reduced)
                delta = (
                    scorer.node_length_or_inf(node, reduced)
                    - scorer.node_length_or_inf(node, kept)
                ) - (
                    scorer.structure_log_prior(candidate)
                    - scorer.structure_log_prior(expected)
                )
                if delta <= 0:
                    expected = candidate

        priced = []
        prior = scorer.structure_log_prior

        def counted_prior(network):
            priced.append(network)
            return prior(network)

        scorer.structure_log_prior = counted_prior
        assert clean_network(dag, scorer) == expected
        # the start network, then one candidate per arc tested
        assert len(priced) == 1 + dag.arc_count
        assert len(set(priced)) == len(priced)

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
