"""Fitted networks, posterior mixtures, and split evaluation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from mmlbn import (
    ClassRecord,
    DagStructure,
    DiscreteDataset,
    ModelPolicy,
    NetworkScorer,
    PosteriorReport,
    SamplerConfig,
    VariableMeta,
    case_log_prob,
    config_index,
    counts_for,
    cpdag_key,
    cross_validate,
    evaluate_split,
    fit_fom_map,
    fit_network,
    fom_probability,
    load_csv_with_labels,
    model_averaged_test_nll,
    run_sampler,
    split_train_test,
)
from mmlbn import evaluation, scoring
from mmlbn.evaluation import _logsumexp
from helpers import make_dataset


def dependent_pair(seed=0, n=200, flip=0.1):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    noise = rng.random(n) < flip
    y = np.where(noise, 1 - x, x)
    return make_dataset([x, y], arities=[2, 2])


def report_for(train, *dags):
    """Posterior report naming the given structures, equal visit counts,
    scored under the dual policy on train."""
    classes = tuple(
        ClassRecord(cpdag_key(dag), 10, dag, 0.0) for dag in dags
    )
    return PosteriorReport(
        classes, 10 * len(dags), NetworkScorer(train, ModelPolicy.DUAL)
    )


class TestFittedNetwork:
    def test_empty_dag_is_product_of_smoothed_marginals(self):
        ds = make_dataset([[0, 0, 1], [1, 0, 1]], arities=[2, 2])
        network = fit_network(DagStructure.empty(2), NetworkScorer(ds, ModelPolicy.TBN))
        lp = case_log_prob(network, (0, 1))
        assert lp == pytest.approx(math.log(3 / 5) + math.log(3 / 5), abs=1e-12)
        lp = case_log_prob(network, (1, 0))
        assert lp == pytest.approx(math.log(2 / 5) + math.log(2 / 5), abs=1e-12)

    @pytest.mark.parametrize("policy", [ModelPolicy.TBN, ModelPolicy.FON])
    def test_joint_distribution_normalised(self, policy):
        rng = np.random.default_rng(60)
        ds = make_dataset(
            [rng.integers(0, 2, size=40), rng.integers(0, 3, size=40),
             rng.integers(0, 2, size=40)],
            arities=[2, 3, 2],
        )
        dag = DagStructure(3, ((), (0,), (0, 1)))
        network = fit_network(dag, NetworkScorer(ds, policy))
        total = sum(
            math.exp(case_log_prob(network, case))
            for case in itertools.product(range(2), range(3), range(2))
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_unseen_parent_configuration_is_uniform(self):
        ds = make_dataset([[0, 0, 0, 0], [0, 1, 1, 0]], arities=[2, 2])
        network = fit_network(
            DagStructure(2, ((), (0,))), NetworkScorer(ds, ModelPolicy.TBN)
        )
        # parent value 1 never occurs in training
        gap = case_log_prob(network, (1, 0)) - case_log_prob(network, (1, 1))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_logit_nodes_predict_with_the_map_fit(self):
        rng = np.random.default_rng(76)
        rows = np.column_stack(
            [rng.integers(0, r, size=120) for r in (3, 2, 3)]
        )
        # parent configuration (2, 1) of node 2 never occurs in training
        rows = rows[~((rows[:, 0] == 2) & (rows[:, 1] == 1))]
        train = make_dataset(rows.T, arities=[3, 2, 3])
        dag = DagStructure(3, ((), (0,), (0, 1)))
        network = fit_network(dag, NetworkScorer(train, ModelPolicy.FON))
        assert network.chosen_models == ("fom", "fom", "fom")
        fits = [fit_fom_map(counts_for(train, v, dag.parent_sets[v])) for v in range(3)]
        for case in itertools.product(range(3), range(2), range(3)):
            expected = 0.0
            for v, params in enumerate(fits):
                parent_values = [case[p] for p in dag.parent_sets[v]]
                config = config_index(parent_values, params.parent_arities)
                expected += math.log(fom_probability(params, config)[case[v]])
            assert case_log_prob(network, case) == pytest.approx(expected, abs=1e-10)

    def test_chosen_models_follow_policy(self):
        ds = dependent_pair(61)
        dag = DagStructure(2, ((), (0,)))
        def chosen(policy):
            return fit_network(dag, NetworkScorer(ds, policy)).chosen_models

        assert chosen(ModelPolicy.TBN) == ("full", "full")
        assert chosen(ModelPolicy.FON) == ("fom", "fom")
        # one parent: dual always keeps the table
        assert chosen(ModelPolicy.DUAL) == ("full", "full")

    def test_variable_count_mismatch(self):
        ds = dependent_pair(62)
        with pytest.raises(ValueError):
            fit_network(DagStructure.empty(3), NetworkScorer(ds, ModelPolicy.TBN))


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_scipy(self, axis):
        # (rows x classes) blocks as _log_probs (axis 1) and _mixture_nll
        # (axis 0) reduce them, with spreads wide enough to overflow exp
        rng = np.random.default_rng(88)
        for _ in range(60):
            shape = (int(rng.integers(1, 2049)), int(rng.integers(1, 9)))
            spread = float(rng.choice([0.01, 1.0, 40.0, 900.0]))
            values = rng.normal(-50.0, spread, size=shape)
            np.testing.assert_allclose(
                _logsumexp(values, axis),
                logsumexp(values, axis=axis),
                rtol=1e-13,
                atol=1e-12,
            )


class TestMixture:
    def test_weights_are_normalised_visits(self):
        dag = DagStructure.empty(2)
        classes = (
            ClassRecord(b"a", 3, dag, 1.0),
            ClassRecord(b"b", 1, dag, 2.0),
        )
        report = PosteriorReport(classes, 4)
        assert report.weights() == (0.75, 0.25)

    def test_single_class_equals_plain_nll(self):
        train = dependent_pair(63)
        test = dependent_pair(64, n=30)
        dag = DagStructure(2, ((), (0,)))
        report = report_for(train, dag)
        nll = model_averaged_test_nll(report, test)
        network = fit_network(dag, NetworkScorer(train, ModelPolicy.DUAL))
        direct = -sum(case_log_prob(network, case) for case in test.rows)
        assert nll == pytest.approx(direct, abs=1e-10)

    def test_mixture_between_per_case_extremes(self):
        train = dependent_pair(65)
        test = dependent_pair(66, n=40)
        dags = [DagStructure.empty(2), DagStructure(2, ((), (0,)))]
        report = report_for(train, *dags)
        nll = model_averaged_test_nll(report, test)
        networks = [fit_network(d, report.scorer) for d in dags]
        lps = np.array(
            [[case_log_prob(nw, case) for nw in networks] for case in test.rows]
        )
        lower = -float(lps.max(axis=1).sum())
        upper = -float(lps.min(axis=1).sum())
        assert lower - 1e-9 <= nll <= upper + 1e-9

    def test_visit_scale_invariance(self):
        train = dependent_pair(67)
        test = dependent_pair(68, n=25)
        dags = [DagStructure.empty(2), DagStructure(2, ((), (0,)))]
        scorer = NetworkScorer(train, ModelPolicy.DUAL)
        small = PosteriorReport(
            (
                ClassRecord(b"a", 3, dags[0], 0.0),
                ClassRecord(b"b", 1, dags[1], 0.0),
            ),
            4,
            scorer,
        )
        large = PosteriorReport(
            (
                ClassRecord(b"a", 300, dags[0], 0.0),
                ClassRecord(b"b", 100, dags[1], 0.0),
            ),
            400,
            scorer,
        )
        a = model_averaged_test_nll(small, test)
        b = model_averaged_test_nll(large, test)
        assert a == pytest.approx(b, abs=1e-12)

    def test_empty_report_rejected(self):
        train = dependent_pair(69)
        scorer = NetworkScorer(train, ModelPolicy.DUAL)
        with pytest.raises(ValueError, match="no visited classes"):
            model_averaged_test_nll(PosteriorReport((), 0, scorer), train)

    def test_report_without_a_scorer_rejected(self):
        train = dependent_pair(69)
        report = dataclasses.replace(
            report_for(train, DagStructure.empty(2)), scorer=None
        )
        with pytest.raises(ValueError, match="no scorer"):
            model_averaged_test_nll(report, train)


class TestSamplerCacheReuse:
    def three_variables(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, size=300)
        z = rng.integers(0, 2, size=300)
        y = np.where(rng.random(300) < 0.8, (x + z) % 3, rng.integers(0, 3, size=300))
        return make_dataset([x, z, y], arities=[3, 2, 3])

    def test_scores_and_fits_nothing_again(self):
        train, test = split_train_test(self.three_variables(77), 0.2, 3)
        config = SamplerConfig(
            iterations=400, burn_in=50, seed=11, policy=ModelPolicy.FON
        )
        report = run_sampler(train, config)
        misses = report.scorer.cache.misses
        nll = model_averaged_test_nll(report, test)
        assert report.scorer.cache.misses == misses
        fresh = dataclasses.replace(
            report, scorer=NetworkScorer(train, config.policy, sigma=config.sigma)
        )
        assert fresh == report
        assert nll == model_averaged_test_nll(fresh, test)
        assert fresh.scorer.cache.misses > 0

    def test_each_table_node_is_tallied_once_per_report(self, monkeypatch):
        train, test = split_train_test(self.three_variables(79), 0.2, 6)
        dags = [
            DagStructure.empty(3),
            DagStructure(3, ((), (0,), ())),
            DagStructure(3, ((), (0,), (0, 1))),
            DagStructure(3, ((1,), (), (0, 1))),
        ]
        report = report_for(train, *dags)
        for dag in dags:  # the scores' tallies come first and are not counted
            report.scorer.node_scores(dag)
        tallied = []
        tally = scoring.counts_for

        def counted(ds, child, parents):
            tallied.append((child, parents))
            return tally(ds, child, parents)

        monkeypatch.setattr(scoring, "counts_for", counted)
        nll = model_averaged_test_nll(report, test)
        # the 12 nodes are 6 distinct tables
        table_nodes = [(0, ()), (1, ()), (2, ()), (1, (0,)), (0, (1,)), (2, (0, 1))]
        assert report.scorer.node_score(2, (0, 1)).chosen_model == "full"
        assert sorted(tallied) == sorted(table_nodes)
        # identical nodes share one table, and nothing is tallied again
        networks = [fit_network(dag, report.scorer) for dag in dags]
        for a, b in itertools.combinations(networks, 2):
            for child in range(3):
                if a.dag.parent_sets[child] == b.dag.parent_sets[child]:
                    assert a.nodes[child] is b.nodes[child]
        assert model_averaged_test_nll(report, test) == nll
        assert len(tallied) == len(table_nodes)

    def test_cache_of_other_data_is_not_read(self):
        ds = self.three_variables(78)
        train, test = split_train_test(ds, 0.2, 4)
        other, _ = split_train_test(ds, 0.2, 5)
        config = SamplerConfig(
            iterations=300, burn_in=50, seed=12, policy=ModelPolicy.FON
        )
        report = run_sampler(other, config)
        # given a scorer on train, the report fits on train, not from the
        # chain's scores of other
        retargeted = dataclasses.replace(
            report, scorer=NetworkScorer(train, config.policy, sigma=config.sigma)
        )
        built = PosteriorReport(
            report.classes, report.total_samples, NetworkScorer(train, config.policy)
        )
        nll = model_averaged_test_nll(retargeted, test)
        assert nll == model_averaged_test_nll(built, test)
        assert nll != model_averaged_test_nll(report, test)


def recoded(ds):
    """The same cases, coded as a reader that met each variable's labels in
    the other order would code them."""
    variables = tuple(
        VariableMeta(v.name, v.arity, v.labels[::-1]) for v in ds.variables
    )
    return DiscreteDataset(variables, np.array(ds.arities) - 1 - ds.rows)


class TestTestDataCoding:
    """Fitted tables are indexed by code, so test cases coded with other
    variables or labels than the training data's are refused."""

    def test_mixture_rejects_other_labels_and_variables(self):
        train = dependent_pair(72)
        test = dependent_pair(73, n=30)
        report = report_for(train, DagStructure(2, ((), (0,))))
        assert recoded(test).variables != train.variables
        nll = model_averaged_test_nll(report, test)
        assert nll == model_averaged_test_nll(report, recoded(recoded(test)))
        rng = np.random.default_rng(74)
        three = make_dataset(rng.integers(0, 2, (3, 30)), arities=[2, 2, 2])
        for other in (recoded(test), three):
            with pytest.raises(ValueError, match="training variables and labels"):
                model_averaged_test_nll(report, other)

    def test_variables_given_as_a_list(self, tmp_path):
        """Test data read with the training variables passed as a list keeps
        them as a tuple, so the mixture takes it."""
        train = dependent_pair(77)
        report = report_for(train, DagStructure(2, ((), (0,))))
        path = tmp_path / "test.csv"
        path.write_text("v0,v1\nc1,c1\nc0,c1\nc0,c0\n", encoding="utf-8")
        test = load_csv_with_labels(path, list(train.variables))
        assert type(test.variables) is tuple
        assert test.variables == train.variables
        same = DiscreteDataset(train.variables, test.rows)
        assert model_averaged_test_nll(report, test) == model_averaged_test_nll(
            report, same
        )

    def test_mixture_checks_before_fitting(self, monkeypatch):
        train = dependent_pair(76)
        report = dataclasses.replace(
            report_for(train, DagStructure(2, ((), (0,)))),
            scorer=NetworkScorer(train, ModelPolicy.FON),
        )
        fits = []
        fit = scoring.fom_message_length

        def counted_fit(*args, **kwargs):
            fits.append(None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(scoring, "fom_message_length", counted_fit)
        with pytest.raises(ValueError, match="training variables and labels"):
            model_averaged_test_nll(report, recoded(train))
        assert fits == []
        model_averaged_test_nll(report, train)
        assert len(fits) == 2  # the fon network's two nodes

    def test_split_checks_before_running_the_chain(self, monkeypatch):
        train, test = split_train_test(dependent_pair(75, n=300), 0.2, 1)

        def chain_must_not_run(*args):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(evaluation, "run_sampler", chain_must_not_run)
        with pytest.raises(ValueError, match="training variables and labels"):
            evaluate_split(
                train, recoded(test), SamplerConfig(iterations=50, burn_in=5)
            )


class TestEvaluateSplit:
    def test_metrics_match_a_fresh_sampler_run(self):
        ds = dependent_pair(70, n=300)
        train, test = split_train_test(ds, 0.2, 1)
        config = SamplerConfig(iterations=500, burn_in=100, seed=9)
        metrics = evaluate_split(train, test, config)
        report = run_sampler(train, config)
        weights = np.array([c.visits for c in report.classes], dtype=float)
        weights /= weights.sum()
        assert metrics.train_cases == train.n_cases
        assert metrics.test_cases == test.n_cases
        assert metrics.message_length == pytest.approx(
            float(np.dot(weights, [c.best_length for c in report.classes])), abs=1e-9
        )
        assert metrics.arcs == pytest.approx(
            float(
                np.dot(weights, [c.best_network.arc_count for c in report.classes])
            ),
            abs=1e-12,
        )
        parameters = [
            sum(
                report.scorer.node_score(child, parents).parameter_count
                for child, parents in enumerate(c.best_network.parent_sets)
            )
            for c in report.classes
        ]
        assert metrics.parameters == pytest.approx(
            float(np.dot(weights, parameters)), abs=1e-12
        )
        expected_nll = model_averaged_test_nll(report, test)
        assert metrics.test_nll == pytest.approx(expected_nll, abs=1e-9)

    def test_dependence_helps_prediction(self):
        ds = dependent_pair(71, n=400, flip=0.05)
        train, test = split_train_test(ds, 0.25, 2)
        config = SamplerConfig(iterations=1500, burn_in=300, seed=10)
        informed = evaluate_split(train, test, config)
        independent_nll = -sum(
            case_log_prob(
                fit_network(
                    DagStructure.empty(2), NetworkScorer(train, ModelPolicy.DUAL)
                ),
                case,
            )
            for case in test.rows
        )
        assert informed.test_nll < independent_nll


class TestCrossValidate:
    def test_repeats_seeds_and_sizes(self):
        ds = dependent_pair(72, n=60)
        config = SamplerConfig(iterations=300, burn_in=50, seed=5)
        summary = cross_validate(ds, 3, config, test_fraction=0.2)
        assert len(summary.repeats) == 3
        assert [r.seed for r in summary.repeats] == [5, 6, 7]
        for r in summary.repeats:
            assert r.test_cases == 12
            assert r.train_cases == 48

    def test_deterministic(self):
        ds = dependent_pair(73, n=50)
        config = SamplerConfig(iterations=200, burn_in=20, seed=3)
        a = cross_validate(ds, 2, config, test_fraction=0.2)
        b = cross_validate(ds, 2, config, test_fraction=0.2)
        assert a.to_dict() == b.to_dict()

    def test_summary_means(self):
        ds = dependent_pair(74, n=50)
        config = SamplerConfig(iterations=200, burn_in=20, seed=4)
        summary = cross_validate(ds, 2, config, test_fraction=0.2)
        payload = summary.to_dict()
        assert payload["means"]["test_nll"] == pytest.approx(
            np.mean([r.test_nll for r in summary.repeats])
        )
        assert len(payload["repeats"]) == 2

    def test_rejects_zero_repeats(self):
        ds = dependent_pair(75, n=50)
        with pytest.raises(ValueError):
            cross_validate(ds, 0, SamplerConfig(iterations=100, burn_in=10))

    def test_rejects_non_integer_repeats(self):
        ds = dependent_pair(75, n=50)
        with pytest.raises(ValueError, match="repeats must be an integer"):
            cross_validate(ds, 2.0, SamplerConfig(iterations=100, burn_in=10))
