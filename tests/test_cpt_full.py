"""Full-table code lengths against the exact marginal-likelihood oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

import mmlbn.cpt_full
from mmlbn import ContingencyCounts, full_cpt_message_length, full_cpt_predictive
from mmlbn.errors import ParameterCapError
from helpers import dirichlet_multinomial_log_marginal

PENALTY = 0.5 * math.log(math.pi * math.e / 6.0)


def from_table(table, parent_arities=()):
    table = np.asarray(table)
    return ContingencyCounts.from_dense(table.shape[1], parent_arities, table)


class TestMessageLength:
    def test_empty_binary_node(self):
        score = full_cpt_message_length(from_table([[0, 0]]))
        assert score.free_params == 1
        assert score.message_length == pytest.approx(0.1764852083, abs=1e-9)

    def test_two_one_sided_cases(self):
        score = full_cpt_message_length(from_table([[0, 2]]))
        assert score.message_length == pytest.approx(1.2750974970, abs=1e-9)

    def test_zero_data_scales_with_free_params(self):
        for r_y, arities in [(2, ()), (3, ()), (2, (2,)), (4, (3, 2))]:
            n_configs = math.prod(arities)
            table = np.zeros((n_configs, r_y), dtype=int)
            score = full_cpt_message_length(
                ContingencyCounts.from_dense(r_y, arities, table)
            )
            free = (r_y - 1) * n_configs
            assert score.free_params == free
            assert score.message_length == pytest.approx(free * PENALTY, abs=1e-12)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            r_y = int(rng.integers(2, 5))
            arities = tuple(
                int(rng.integers(2, 4)) for _ in range(int(rng.integers(0, 3)))
            )
            n_configs = math.prod(arities)
            table = rng.integers(0, 7, size=(n_configs, r_y))
            counts = ContingencyCounts.from_dense(r_y, arities, table)
            score = full_cpt_message_length(counts)
            expected = (r_y - 1) * n_configs * PENALTY - dirichlet_multinomial_log_marginal(table)
            assert score.message_length == pytest.approx(expected, abs=1e-9)

    def test_unseen_configurations_cost_nothing_beyond_quantisation(self):
        # same observed counts, wildly different configuration spaces
        lhs = full_cpt_message_length(
            ContingencyCounts(2, (2,), np.array([[0]]), np.array([[3, 4]]))
        )
        rhs = full_cpt_message_length(
            ContingencyCounts(2, (2, 2, 2), np.array([[0, 0, 0]]), np.array([[3, 4]]))
        )
        assert rhs.message_length - rhs.free_params * PENALTY == pytest.approx(
            lhs.message_length - lhs.free_params * PENALTY, abs=1e-12
        )

    def test_child_label_permutation_invariant(self):
        rng = np.random.default_rng(22)
        table = rng.integers(0, 9, size=(4, 3))
        counts = ContingencyCounts.from_dense(3, (2, 2), table)
        permuted = ContingencyCounts.from_dense(3, (2, 2), table[:, [2, 0, 1]])
        assert full_cpt_message_length(counts).message_length == pytest.approx(
            full_cpt_message_length(permuted).message_length, abs=1e-12
        )

    def test_parameter_cap(self):
        # 16 binary parents with a binary child: exactly 65536 free parameters
        big = ContingencyCounts(
            2, (2,) * 16, np.zeros((0, 16), dtype=int), np.zeros((0, 2), dtype=int)
        )
        with pytest.raises(ParameterCapError):
            full_cpt_message_length(big)
        # cap is inclusive at 65000
        at_cap = ContingencyCounts(
            3,
            (2, 2, 5, 5, 5, 5, 13),
            np.zeros((0, 7), dtype=int),
            np.zeros((0, 3), dtype=int),
        )
        assert (3 - 1) * math.prod((2, 2, 5, 5, 5, 5, 13)) == 65000
        with pytest.raises(ParameterCapError):
            full_cpt_message_length(at_cap)
        under_cap = ContingencyCounts(
            2,
            (3, 5, 4, 4, 3, 2, 3, 3, 5),
            np.zeros((0, 9), dtype=int),
            np.zeros((0, 2), dtype=int),
        )
        assert full_cpt_message_length(under_cap).free_params == 64800


def gammaln_length(counts):
    """The full-table length written with scipy's log-gamma over floats."""
    r_y = counts.child_arity
    return (
        (r_y - 1) * counts.n_configs * PENALTY
        + float(np.sum(gammaln(counts.config_totals + r_y)))
        - counts.n_observed * float(gammaln(r_y))
        - float(np.sum(gammaln(counts.counts + 1)))
    )


class TestLogFactorialTable:
    @given(st.data())
    def test_matches_the_gammaln_formula(self, data):
        r_y = data.draw(st.integers(2, 6))
        arities = tuple(data.draw(st.lists(st.integers(2, 4), max_size=2)))
        cells = math.prod(arities) * r_y
        table = np.array(
            data.draw(st.lists(st.integers(0, 60), min_size=cells, max_size=cells)),
            dtype=np.int64,
        ).reshape(-1, r_y)
        if data.draw(st.booleans()):
            # a total past the end of the table every earlier call grew
            known = len(mmlbn.cpt_full._log_factorial_table)
            cell = data.draw(st.integers(0, cells - 1))
            table.flat[cell] += known + data.draw(st.integers(0, 300))
        counts = ContingencyCounts.from_dense(r_y, arities, table)
        length = full_cpt_message_length(counts).message_length
        assert length == pytest.approx(gammaln_length(counts), rel=1e-13, abs=0)


class TestPredictive:
    def test_posterior_mean_rows(self):
        table = from_table([[2, 0], [0, 0]], parent_arities=(2,))
        predictive = full_cpt_predictive(table)
        assert predictive[0].tolist() == [0.75, 0.25]
        assert predictive[1].tolist() == [0.5, 0.5]

    def test_rows_normalised_random(self):
        rng = np.random.default_rng(23)
        table = rng.integers(0, 10, size=(6, 4))
        predictive = full_cpt_predictive(
            ContingencyCounts.from_dense(4, (3, 2), table)
        )
        np.testing.assert_allclose(predictive.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            predictive, (table + 1) / (table.sum(axis=1, keepdims=True) + 4)
        )
