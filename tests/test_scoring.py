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
    FomParams,
    ModelPolicy,
    NetworkScorer,
    SamplerConfig,
    ScoreCache,
    counts_for,
    fit_fom_map,
    fit_network,
    full_cpt_message_length,
    fom_message_length,
    network_message_length,
    node_length,
    run_sampler,
)
from mmlbn import fom, scoring
from mmlbn.errors import ConvergenceError, ParameterCapError
from helpers import collinear_problem, make_dataset

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

    def test_unknown_policy(self):
        counts = random_counts(np.random.default_rng(54), 2, (2, 2))
        with pytest.raises(ValueError, match="unknown policy 'dual'"):
            node_length(counts, "dual")


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
        # every entry point that prices or fits a DAG refuses another size
        ds = make_dataset([[0, 1, 1], [1, 0, 1], [0, 0, 1]], arities=[2, 2, 2])
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        entry_points = (
            scorer.total_length,
            scorer.structure_log_prior,
            scorer.node_scores,
            lambda dag: network_message_length(dag, ds, ModelPolicy.DUAL),
            lambda dag: fit_network(dag, scorer),
        )
        for m in (2, 4):
            for price in entry_points:
                with pytest.raises(ValueError, match="disagree on variable count"):
                    price(DagStructure.empty(m))
        assert len(scorer.node_scores(DagStructure.empty(3))) == 3

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

    def test_dual_voids_a_capped_node_whose_fit_fails(self):
        # Two copies of one arity-300 parent: the table needs 90000 free
        # parameters and, at the widest sigma, the logit start is singular.
        column = list(range(60))
        child = [k % 2 for k in column]
        ds = make_dataset([column, column, child], arities=[300, 300, 2])
        counts = counts_for(ds, 2, (0, 1))
        with pytest.raises(ParameterCapError, match="90000 free parameters"):
            full_cpt_message_length(counts)
        with pytest.raises(ConvergenceError):
            node_length(counts, ModelPolicy.DUAL, 1e10)
        dual = NetworkScorer(ds, ModelPolicy.DUAL, sigma=1e10)
        assert dual.node_floor(2, (0, 1)) == -math.inf
        assert dual.node_length_or_inf(2, (0, 1)) == math.inf

    def test_a_capped_logit_model_leaves_the_node_to_the_table(self):
        # three arity-40 columns: two parents need 3081 logit parameters and
        # 62400 table ones, a third parent 124800 table ones
        rng = np.random.default_rng(61)
        ds = random_dataset(rng, 120, (40, 40, 40, 2))
        counts = counts_for(ds, 2, (0, 1))
        with pytest.raises(ParameterCapError, match="3081 free parameters"):
            node_length(counts, ModelPolicy.FON)
        table = full_cpt_message_length(counts).message_length
        dual = NetworkScorer(ds, ModelPolicy.DUAL)
        assert dual.node_floor(2, (0, 1)) <= table + LOG2
        assert dual.node_score(2, (0, 1)).length == table + LOG2
        assert dual.node_score(2, (0, 1)).chosen_model == "full"
        fon = NetworkScorer(ds, ModelPolicy.FON)
        assert fon.node_length_or_inf(2, (0, 1)) == math.inf
        with pytest.raises(ParameterCapError, match="3120 free parameters"):
            node_length(counts_for(ds, 2, (0, 1, 3)), ModelPolicy.DUAL)


def count_fom_params(monkeypatch):
    """Count FomParams constructions from here on (each runs __post_init__)."""
    built = []
    validate = FomParams.__post_init__

    def counted(params):
        built.append(params)
        validate(params)

    monkeypatch.setattr(FomParams, "__post_init__", counted)
    return built


def additive_child_dataset(seed, n=3000):
    """v2 an additive logit of v0 and v1, all of arity 4: the logit model
    (21 free parameters) codes v2 given both parents in less than the full
    table (48)."""
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, 4, size=(2, n))
    logits = rng.normal(0, 1.5, (4, 1)) + sum(
        rng.normal(0, 1.5, (4, 4))[:, values] for values in parents
    )
    probs = np.exp(logits - logits.max(axis=0))
    probs /= probs.sum(axis=0)
    child = (rng.random(n) > probs.cumsum(axis=0)).sum(axis=0)
    return make_dataset([*parents, np.minimum(child, 3)], arities=[4, 4, 4])


class TestLogitParametersOnDemand:
    """A logit score's raw parameters are built the first time they are read."""

    def test_built_once_on_the_first_read(self, monkeypatch):
        ds = additive_child_dataset(60)
        built = count_fom_params(monkeypatch)
        report = run_sampler(
            ds, SamplerConfig(iterations=300, burn_in=50, seed=1, max_parents=2)
        )
        score = report.scorer.node_score(2, (0, 1))
        assert score.chosen_model == "fom"
        assert built == []
        params = score.fom_params
        assert len(built) == 1 and built[0] is params
        assert score.fom_params is params
        assert len(built) == 1
        assert np.array_equal(
            params.flatten(), fit_fom_map(counts_for(ds, 2, (0, 1))).flatten()
        )

    def test_a_full_table_node_has_none(self):
        ds = additive_child_dataset(61)
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        for parents in ((), (0,)):
            score = scorer.node_score(2, parents)
            assert score.chosen_model == "full"
            assert score.fom_params is None

    @pytest.mark.parametrize(
        "failure", ["no convergence", "not positive definite", "line search failed"]
    )
    def test_a_failed_fit_builds_no_parameters(self, monkeypatch, failure):
        # each of the fit's three raises, at the start: the error carries its
        # message only, so no FomParams is built for it
        counts = counts_for(additive_child_dataset(62), 2, (0, 1))
        built = count_fom_params(monkeypatch)
        if failure == "no convergence":
            monkeypatch.setattr(fom, "MAX_NEWTON_ITERS", 0)
        elif failure == "not positive definite":
            monkeypatch.setattr(
                FomObjective, "information_free", lambda self, probs: -np.eye(self.dim)
            )
        else:
            values = iter(range(1000))
            monkeypatch.setattr(
                FomObjective, "_value", lambda self, u, probs: next(values)
            )
        with pytest.raises(ConvergenceError, match=failure):
            fom_message_length(counts)
        assert built == []


@st.composite
def floor_problems(draw):
    """A small dataset, a child and 0-3 parents."""
    m = draw(st.integers(2, 5))
    arities = draw(st.lists(st.integers(2, 4), min_size=m, max_size=m))
    n = draw(st.integers(1, 40))
    columns = [
        draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)) for r in arities
    ]
    child = draw(st.integers(0, m - 1))
    others = draw(st.permutations([v for v in range(m) if v != child]))
    parents = tuple(sorted(others[: draw(st.integers(0, min(3, m - 1)))]))
    return make_dataset(columns, arities=arities), child, parents


class TestNodeFloor:
    def test_non_integer_parents_refused(self):
        # int() would price the parents (0, 1)
        ds = make_dataset([[0, 1, 1, 0], [1, 1, 0, 0], [0, 1, 0, 1]])
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        with pytest.raises(ValueError, match="parent index must be an integer"):
            scorer.node_floor(2, (0.5, 1.2))

    @given(floor_problems(), st.sampled_from([0.5, 3.0, 30.0]))
    def test_below_the_length(self, problem, sigma):
        ds, child, parents = problem
        for policy in ModelPolicy:
            scorer = NetworkScorer(ds, policy, sigma=sigma)
            floor = scorer.node_floor(child, parents)
            length = scorer.node_length_or_inf(child, parents)
            assert floor <= length
            # exact once scored
            assert scorer.node_floor(child, parents) == length

    @given(floor_problems())
    def test_exact_where_no_fit_is_needed(self, problem):
        # only a dual node of two or more parents gets a floor: a fon floor
        # costs more time than the fits it saves
        ds, child, parents = problem
        for policy in (ModelPolicy.TBN, ModelPolicy.FON):
            scorer = NetworkScorer(ds, policy)
            floor = scorer.node_floor(child, parents)
            assert floor == scorer.node_length_or_inf(child, parents)
        dual = NetworkScorer(ds, ModelPolicy.DUAL)
        for few in ((), parents[:1]):
            assert dual.node_floor(child, few) == dual.node_length_or_inf(child, few)

    def test_the_dual_floor_is_the_cheaper_floor_plus_the_choice(self):
        rng = np.random.default_rng(61)
        ds = random_dataset(rng, 30, (3, 2, 3, 2))
        for child, parents in ((3, (0, 1)), (0, (1, 2, 3)), (2, (0, 3))):
            counts = counts_for(ds, child, parents)
            full = full_cpt_message_length(counts).message_length
            expected = min(full, fom.fom_length_floor(counts)) + LOG2
            dual = NetworkScorer(ds, ModelPolicy.DUAL)
            assert dual.node_floor(child, parents) == expected
            fon = NetworkScorer(ds, ModelPolicy.FON)
            assert fon.node_floor(child, parents) == (
                fom_message_length(counts).message_length
            )

    def test_a_failed_fit_keeps_the_floors_below(self):
        ds, child, parents, sigma = collinear_problem()
        counts = counts_for(ds, child, parents)
        with pytest.raises(ConvergenceError):
            fom_message_length(counts, sigma)
        table = full_cpt_message_length(counts).message_length
        dual = NetworkScorer(ds, ModelPolicy.DUAL, sigma=sigma)
        assert dual.node_floor(child, parents) <= table + LOG2
        assert dual.node_length_or_inf(child, parents) == table + LOG2
        # under fon the floor is the exact length, inf
        fon = NetworkScorer(ds, ModelPolicy.FON, sigma=sigma)
        assert fon.node_floor(child, parents) == math.inf

    def test_a_capped_dual_table_gets_no_finite_floor(self):
        # a finite dual floor promises a finite length, and over the cap only
        # the logit fit could give one
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, 50, [2] * 17)
        scorer = NetworkScorer(ds, ModelPolicy.DUAL)
        assert scorer.node_floor(0, tuple(range(1, 17))) == -math.inf

    @pytest.mark.parametrize("policy", [ModelPolicy.DUAL, ModelPolicy.FON])
    def test_one_tally_and_one_table_per_node(self, policy, monkeypatch):
        rng = np.random.default_rng(63)
        ds = random_dataset(rng, 40, (3, 2, 3))
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("counts_for", "full_cpt_message_length"):
            monkeypatch.setattr(scoring, name, counted(name, getattr(scoring, name)))
        scorer = NetworkScorer(ds, policy)
        floor = scorer.node_floor(2, (0, 1))
        assert scorer.node_floor(2, (0, 1)) == floor
        score = scorer.node_score(2, (0, 1))
        assert floor <= score.length
        assert calls.count("counts_for") == 1
        assert calls.count("full_cpt_message_length") == (policy is ModelPolicy.DUAL)
        monkeypatch.undo()
        # and the score is the one a fresh scorer works out
        assert NetworkScorer(ds, policy).node_score(2, (0, 1)) == score
