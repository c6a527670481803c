"""Node and network scoring across the three model policies."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmlbn import (
    ContingencyCounts,
    DagStructure,
    FomObjective,
    ModelPolicy,
    NetworkScorer,
    ScoreCache,
    counts_for,
    full_cpt_message_length,
    fom_message_length,
    network_message_length,
    node_length,
)
from mmlbn.errors import ConvergenceError, ParameterCapError
from helpers import make_dataset

LOG2 = math.log(2.0)


def random_counts(rng, r_y, arities, max_count=10):
    table = rng.integers(0, max_count, size=(math.prod(arities), r_y))
    return ContingencyCounts.from_dense(r_y, tuple(arities), table)


def random_dataset(rng, n, arities):
    columns = [rng.integers(0, r, size=n) for r in arities]
    return make_dataset(columns, arities=list(arities))


class TestNodeLength:
    def test_tbn_is_full_table(self):
        rng = np.random.default_rng(50)
        counts = random_counts(rng, 3, (2, 2))
        score = node_length(counts, ModelPolicy.TBN)
        reference = full_cpt_message_length(counts)
        assert score.length == reference.message_length
        assert score.chosen_model == "full"
        assert score.parameter_count == reference.free_params

    def test_fon_is_first_order(self):
        rng = np.random.default_rng(51)
        counts = random_counts(rng, 3, (2, 2))
        score = node_length(counts, ModelPolicy.FON)
        reference = fom_message_length(counts)
        assert score.length == reference.message_length
        assert score.chosen_model == "fom"
        assert score.parameter_count == reference.free_dim

    def test_dual_few_parents_equals_tbn_exactly(self):
        rng = np.random.default_rng(52)
        for arities in ((), (3,)):
            counts = random_counts(rng, 2, arities)
            dual = node_length(counts, ModelPolicy.DUAL)
            tbn = node_length(counts, ModelPolicy.TBN)
            assert dual.length == tbn.length
            assert dual.chosen_model == "full"

    def test_dual_many_parents_is_min_plus_one_bit(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            r_y = int(rng.integers(2, 4))
            q = int(rng.integers(2, 4))
            arities = tuple(int(rng.integers(2, 4)) for _ in range(q))
            counts = random_counts(rng, r_y, arities, max_count=int(rng.integers(1, 20)))
            dual = node_length(counts, ModelPolicy.DUAL)
            full = full_cpt_message_length(counts).message_length
            fom = fom_message_length(counts).message_length
            assert dual.length == min(full, fom) + LOG2
            assert dual.chosen_model == ("full" if full <= fom else "fom")

    def test_dual_capped_table_falls_back_to_fom(self):
        arities = (2,) * 16  # full table would need 2**16 free parameters
        table = np.zeros((1 << 16, 2), dtype=int)
        table[[0, 5, 100, 40000]] = [[3, 1], [0, 2], [4, 4], [1, 0]]
        counts = ContingencyCounts.from_dense(2, arities, table)
        with pytest.raises(ParameterCapError):
            node_length(counts, ModelPolicy.TBN)
        dual = node_length(counts, ModelPolicy.DUAL)
        fom = fom_message_length(counts).message_length
        assert dual.length == fom + LOG2
        assert dual.chosen_model == "fom"


class TestRelabellingInvariance:
    """Node lengths under every policy do not depend on how the child's or a
    parent's categories are coded, nor on the order the parents are listed."""

    @given(
        st.integers(2, 4),
        st.lists(st.integers(2, 4), min_size=1, max_size=3),
        st.integers(5, 200),
        st.integers(0, 2**32 - 1),
    )
    def test_category_codes_and_parent_order(self, r_y, arities, n, seed):
        rng = np.random.default_rng(seed)
        parents = [rng.integers(0, r, size=n) for r in arities]
        noise = rng.integers(0, r_y, size=n) * (rng.random(n) < 0.4)
        child = (sum(parents) + noise) % r_y
        all_arities = [r_y, *arities]
        ds = make_dataset([child, *parents], arities=all_arities)
        parent_ids = tuple(range(1, len(arities) + 1))
        recoded_child = make_dataset(
            [rng.permutation(r_y)[child], *parents], arities=all_arities
        )
        recoded_parents = make_dataset(
            [child, *(rng.permutation(r)[col] for r, col in zip(arities, parents))],
            arities=all_arities,
        )
        reordered = tuple(int(v) for v in rng.permutation(parent_ids))
        variants = (
            counts_for(recoded_child, 0, parent_ids),
            counts_for(recoded_parents, 0, parent_ids),
            counts_for(ds, 0, reordered),
        )
        for policy in ModelPolicy:
            base = node_length(counts_for(ds, 0, parent_ids), policy).length
            for counts in variants:
                length = node_length(counts, policy).length
                assert length == pytest.approx(base, rel=1e-9)


class TestNetworkLength:
    def test_empty_two_binary_nodes_no_data(self):
        ds = make_dataset([[], []], arities=[2, 2])
        dag = DagStructure.empty(2)
        value = network_message_length(dag, ds, ModelPolicy.TBN, p=0.5)
        assert value == pytest.approx(LOG2 + 2 * 0.17648520831067255, abs=1e-12)

    def test_policy_ordering_on_independent_data(self):
        # a saturated table can never beat the first-order model by less
        # than the dual policy loses to the better of the two
        rng = np.random.default_rng(54)
        ds = random_dataset(rng, 120, (2, 2, 2))
        dag = DagStructure(3, ((), (0,), (0, 1)))
        tbn = network_message_length(dag, ds, ModelPolicy.TBN)
        fon = network_message_length(dag, ds, ModelPolicy.FON)
        dual = network_message_length(dag, ds, ModelPolicy.DUAL)
        assert dual <= min(tbn, fon) + LOG2 + 1e-9

    def test_arc_toggle_changes_only_child_term(self):
        rng = np.random.default_rng(55)
        ds = random_dataset(rng, 60, (2, 3, 2, 2))
        scorer = NetworkScorer(ds, ModelPolicy.DUAL, p=0.3)
        before = DagStructure(4, ((), (0,), (), (1, 2)))
        after = DagStructure(4, ((), (0,), (0,), (1, 2)))  # toggled 0 -> 2
        total_gap = scorer.total_length(after) - scorer.total_length(before)
        node_gap = (
            scorer.node_score(2, (0,)).length - scorer.node_score(2, ()).length
        )
        prior_gap = scorer.structure_log_prior(before) - scorer.structure_log_prior(
            after
        )
        assert total_gap == pytest.approx(node_gap + prior_gap, abs=1e-10)

    def test_variable_count_mismatch(self):
        ds = make_dataset([[0, 1], [1, 0]], arities=[2, 2])
        with pytest.raises(ValueError):
            network_message_length(DagStructure.empty(3), ds, ModelPolicy.TBN)

    def test_arc_prior_validated(self):
        ds = make_dataset([[0, 1]], arities=[2])
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                NetworkScorer(ds, ModelPolicy.TBN, p=p)


class TestScoreCache:
    def test_hit_and_miss_counters(self):
        rng = np.random.default_rng(56)
        ds = random_dataset(rng, 40, (2, 2))
        cache = ScoreCache()
        scorer = NetworkScorer(ds, ModelPolicy.TBN, cache=cache)
        first = scorer.node_score(1, (0,))
        second = scorer.node_score(1, (0,))
        assert first is second
        assert cache.misses == 1 and cache.hits == 1
        scorer.node_score(1, ())
        assert cache.misses == 2

    def test_shared_across_scorers(self):
        rng = np.random.default_rng(57)
        ds = random_dataset(rng, 40, (2, 2))
        cache = ScoreCache()
        NetworkScorer(ds, ModelPolicy.TBN, cache=cache).node_score(0, (1,))
        NetworkScorer(ds, ModelPolicy.TBN, cache=cache).node_score(0, (1,))
        assert cache.hits == 1

    def test_cache_of_another_dataset_refused(self):
        rng = np.random.default_rng(61)
        ds = random_dataset(rng, 40, (2, 2))
        other = random_dataset(rng, 40, (2, 2))
        cache = ScoreCache()
        NetworkScorer(ds, ModelPolicy.TBN, cache=cache).node_score(0, (1,))
        with pytest.raises(ValueError, match="another dataset"):
            NetworkScorer(other, ModelPolicy.TBN, cache=cache)
        with pytest.raises(ValueError, match="another dataset"):
            network_message_length(
                DagStructure(2, ((1,), ())), other, ModelPolicy.TBN, cache=cache
            )

    def test_cache_of_another_sigma_refused(self):
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, 40, (2, 2, 2))
        cache = ScoreCache()
        NetworkScorer(ds, ModelPolicy.FON, sigma=3.0, cache=cache).node_score(2, (0, 1))
        with pytest.raises(ValueError, match="or sigma"):
            NetworkScorer(ds, ModelPolicy.FON, sigma=2.0, cache=cache)
        with pytest.raises(ValueError, match="or sigma"):
            network_message_length(
                DagStructure(3, ((), (), (0, 1))), ds, ModelPolicy.FON, sigma=2.0,
                cache=cache,
            )

    def test_errors_cached_and_reraised(self):
        calls = []

        def compute():
            calls.append(None)
            raise ParameterCapError("too many cells")

        cache = ScoreCache()
        for _ in range(2):
            with pytest.raises(ParameterCapError):
                cache.get_or_compute(("k",), compute)
        assert len(calls) == 1

    def test_a_cached_error_keeps_its_traceback_depth(self):
        def compute():
            raise ParameterCapError("too many cells")

        def depth(err):
            tb, frames = err.__traceback__, 0
            while tb is not None:
                tb, frames = tb.tb_next, frames + 1
            return frames

        cache = ScoreCache()
        depths = []
        for _ in range(20):
            with pytest.raises(ParameterCapError) as caught:
                cache.get_or_compute(("k",), compute)
            depths.append(depth(caught.value))
        # every lookup re-raises the stored error; its traceback must not grow
        assert len(set(depths)) == 1

    def test_length_or_inf_on_capped_node(self):
        rng = np.random.default_rng(58)
        ds = random_dataset(rng, 25, (2,) * 17)
        scorer = NetworkScorer(ds, ModelPolicy.TBN)
        assert scorer.node_length_or_inf(0, tuple(range(1, 17))) == math.inf
        dual = NetworkScorer(ds, ModelPolicy.DUAL, cache=ScoreCache())
        assert math.isfinite(dual.node_length_or_inf(0, tuple(range(1, 17))))

    def test_policies_do_not_collide(self):
        rng = np.random.default_rng(59)
        ds = random_dataset(rng, 80, (2, 2, 2))
        cache = ScoreCache()
        tbn = NetworkScorer(ds, ModelPolicy.TBN, cache=cache).node_score(2, (0, 1))
        fon = NetworkScorer(ds, ModelPolicy.FON, cache=cache).node_score(2, (0, 1))
        assert tbn.chosen_model == "full" and fon.chosen_model == "fom"
        assert tbn.length != fon.length


class TestLogitFailureStaysLocal:
    @pytest.mark.parametrize("failure", ["newton", "information", "start"])
    def test_fon_voids_the_node_and_dual_keeps_the_table(self, monkeypatch, failure):
        rng = np.random.default_rng(60)
        if failure == "start":
            # Collinear parents (column 1 copies column 0) with the 1 / sigma^2
            # ridge lost in rounding: the start system itself is singular.
            columns = [rng.integers(0, r, size=60) for r in (3, 3, 2, 3)]
            columns[1] = columns[0]
            ds = make_dataset(columns, arities=[3, 3, 2, 3])
            child, parents, sigma = 3, (0, 1, 2), 1e10
        else:
            ds = random_dataset(rng, 60, (2, 3, 2))
            child, parents, sigma = 2, (0, 1), 3.0
        table = full_cpt_message_length(counts_for(ds, child, parents)).message_length
        if failure == "newton":
            monkeypatch.setattr("mmlbn.fom.MAX_NEWTON_ITERS", 0)
        elif failure == "information":
            monkeypatch.setattr(
                FomObjective, "information_free", lambda self, probs: -np.eye(self.dim)
            )
        with pytest.raises(ConvergenceError):
            fom_message_length(counts_for(ds, child, parents), sigma)
        fon = NetworkScorer(ds, ModelPolicy.FON, sigma=sigma)
        assert fon.node_length_or_inf(child, parents) == math.inf
        dual = NetworkScorer(ds, ModelPolicy.DUAL, sigma=sigma)
        assert dual.node_length_or_inf(child, parents) == table + LOG2
        assert dual.node_score(child, parents).chosen_model == "full"
