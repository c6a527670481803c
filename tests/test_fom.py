"""First-order model: probabilities, prior, fitting, curvature, code length."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space

from mmlbn import (
    ContingencyCounts,
    ConvergenceError,
    FomObjective,
    FomParams,
    config_index,
    fisher_log_det,
    fit_fom_map,
    fom_log_prior,
    fom_message_length,
    fom_probability,
    free_dimension,
)
from mmlbn.fom import constraint_basis
from helpers import (
    constraint_matrix,
    constraint_rank_dimension,
    dense_information_matrix,
)

SIGMA = 3.0


def random_params(rng, r_y, arities, scale=0.8):
    """Constraint-satisfying parameters from random free coordinates."""
    basis = constraint_basis(r_y, tuple(arities))
    u = rng.normal(0, scale, basis.shape[1])
    return FomParams.from_flat(r_y, tuple(arities), basis @ u)


def random_counts(rng, r_y, arities, max_count=8):
    n_configs = math.prod(arities)
    table = rng.integers(0, max_count, size=(n_configs, r_y))
    return ContingencyCounts.from_dense(r_y, tuple(arities), table)


def numerical_gradient(fun, u, step=1e-5):
    grad = np.zeros_like(u)
    for i in range(len(u)):
        forward = u.copy()
        forward[i] += step
        backward = u.copy()
        backward[i] -= step
        grad[i] = (fun(forward) - fun(backward)) / (2 * step)
    return grad


class TestFreeDimension:
    def test_examples(self):
        assert free_dimension(2, ()) == 1
        assert free_dimension(2, (2,)) == 2
        assert free_dimension(3, (2, 3)) == 8
        assert free_dimension(4, (4, 4, 4)) == 30

    def test_matches_rank_oracle(self):
        for r_y in (2, 3, 4):
            for q in range(4):
                for arities in {(2,) * q, (2, 3, 4)[:q], (4, 3, 2)[:q]}:
                    assert free_dimension(r_y, arities) == constraint_rank_dimension(
                        r_y, arities
                    )

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            free_dimension(1, ())
        with pytest.raises(ValueError):
            free_dimension(2, (1,))


class TestProbability:
    def test_uniform_at_zero(self):
        params = FomParams.zero(3, (2, 4))
        for cfg in range(8):
            np.testing.assert_allclose(fom_probability(params, cfg), 1 / 3, atol=1e-15)

    def test_binary_sigmoid(self):
        t = 0.7
        params = FomParams(2, (), np.array([t, -t]), ())
        probs = fom_probability(params, 0)
        expected = math.exp(t) / (math.exp(t) + math.exp(-t))
        assert probs[0] == pytest.approx(expected, abs=1e-12)

    def test_normalised_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            r_y = int(rng.integers(2, 5))
            arities = tuple(
                int(rng.integers(2, 5)) for _ in range(int(rng.integers(0, 4)))
            )
            params = random_params(rng, r_y, arities)
            cfg = int(rng.integers(0, math.prod(arities)))
            probs = fom_probability(params, cfg)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert (probs > 0).all()

    def test_log_odds_additive_across_parents(self):
        rng = np.random.default_rng(32)
        params = random_params(rng, 2, (2, 3))
        # effect of switching parent 0 must not depend on parent 1's value
        def log_odds(w, z):
            probs = fom_probability(params, w * 3 + z)
            return math.log(probs[1] / probs[0])

        deltas = [log_odds(1, z) - log_odds(0, z) for z in range(3)]
        np.testing.assert_allclose(deltas, deltas[0], atol=1e-12)

    def test_gauge_translations_no_effect(self):
        # shifting all offsets, or a whole effect column, or moving mass
        # between offsets and a block row, leaves every probability fixed
        rng = np.random.default_rng(33)
        base = random_params(rng, 3, (2, 2))
        a, blocks = base.a.copy(), [b.copy() for b in base.blocks]
        variants = []
        variants.append(FomParams(3, (2, 2), a + 1.3, tuple(blocks)))
        shifted = [b.copy() for b in blocks]
        shifted[0][:, 1] += -0.9
        variants.append(FomParams(3, (2, 2), a, tuple(shifted)))
        rowmove = [b.copy() for b in blocks]
        rowmove[1][2, :] += 0.4
        variants.append(FomParams(3, (2, 2), a - np.array([0, 0, 0.4]), tuple(rowmove)))
        for cfg in range(4):
            reference = fom_probability(base, cfg)
            for variant in variants:
                np.testing.assert_allclose(
                    fom_probability(variant, cfg), reference, atol=1e-12
                )

    def test_config_out_of_range(self):
        params = FomParams.zero(2, (2,))
        with pytest.raises(ValueError):
            fom_probability(params, 2)


class TestLogPrior:
    def test_zero_point_value(self):
        params = FomParams.zero(2, (2,))
        expected = math.log(2 * math.sqrt(2)) - math.log(18 * math.pi)
        assert fom_log_prior(params, SIGMA) == pytest.approx(expected, abs=1e-12)

    def test_quadratic_decay(self):
        rng = np.random.default_rng(34)
        params = random_params(rng, 3, (2,))
        at_zero = fom_log_prior(FomParams.zero(3, (2,)), SIGMA)
        expected = at_zero - params.sum_of_squares() / (2 * SIGMA**2)
        assert fom_log_prior(params, SIGMA) == pytest.approx(expected, abs=1e-12)

    def test_parent_order_symmetric(self):
        a = fom_log_prior(FomParams.zero(3, (2, 4)), SIGMA)
        b = fom_log_prior(FomParams.zero(3, (4, 2)), SIGMA)
        assert a == pytest.approx(b, abs=1e-12)

    def test_constraint_violation_rejected(self):
        params = FomParams(2, (), np.array([0.5, 0.1]), ())
        with pytest.raises(ValueError):
            fom_log_prior(params, SIGMA)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            fom_log_prior(FomParams.zero(2, ()), 0.0)


class TestObjectiveAndFit:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            r_y = int(rng.integers(2, 5))
            arities = tuple(
                int(rng.integers(2, 5)) for _ in range(int(rng.integers(0, 4)))
            )
            counts = random_counts(rng, r_y, arities)
            objective = FomObjective(counts, SIGMA)
            u = rng.normal(0, 0.7, objective.dim)
            analytic = objective.gradient(u)
            numeric = numerical_gradient(objective.value, u)
            scale = max(1.0, float(np.linalg.norm(numeric)))
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * scale

    def test_fit_zero_data_returns_zero(self):
        counts = ContingencyCounts.from_dense(3, (2,), np.zeros((2, 3), dtype=int))
        params = fit_fom_map(counts, SIGMA)
        assert params.sum_of_squares() == 0.0

    def test_fit_balanced_counts_zero(self):
        counts = ContingencyCounts.from_dense(2, (), np.array([[50, 50]]))
        params = fit_fom_map(counts, SIGMA)
        np.testing.assert_allclose(params.a, 0.0, atol=1e-9)

    def test_fit_satisfies_constraints(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            r_y = int(rng.integers(2, 4))
            arities = tuple(
                int(rng.integers(2, 4)) for _ in range(int(rng.integers(0, 3)))
            )
            params = fit_fom_map(random_counts(rng, r_y, arities), SIGMA)
            assert params.constraint_residual() < 1e-10

    def test_fit_is_stationary(self):
        rng = np.random.default_rng(37)
        counts = random_counts(rng, 3, (2, 3), max_count=30)
        objective = FomObjective(counts, SIGMA)
        u, _ = objective.fit()
        assert np.linalg.norm(objective.gradient(u)) <= 1e-8

    def test_fit_handles_perfect_separation(self):
        counts = ContingencyCounts.from_dense(2, (2,), np.array([[40, 0], [0, 40]]))
        params = fit_fom_map(counts, SIGMA)
        assert np.isfinite(params.flatten()).all()

    def test_recovery_single_seed(self):
        rng = np.random.default_rng(38)
        generator = random_params(rng, 2, (2, 2), scale=0.6)
        probs = np.vstack([fom_probability(generator, cfg) for cfg in range(4)])
        table = np.zeros((4, 2), dtype=int)
        for cfg in range(4):
            draws = rng.choice(2, size=2500, p=probs[cfg])
            table[cfg] = np.bincount(draws, minlength=2)
        fitted = fit_fom_map(
            ContingencyCounts.from_dense(2, (2, 2), table), SIGMA
        )
        refit = np.vstack([fom_probability(fitted, cfg) for cfg in range(4)])
        assert np.abs(refit - probs).max() < 0.05


def one_hot_design(r_y, arities, digits):
    """(r_y, raw dim) matrix mapping raw parameters to the logits of one
    configuration: row k picks a_k and entry (k, w_i) of every block."""
    design = np.zeros((r_y, r_y * (1 + sum(arities))))
    for k in range(r_y):
        design[k, k] = 1.0
        base = r_y
        for r_i, w in zip(arities, digits):
            design[k, base + k * r_i + int(w)] = 1.0
            base += r_y * r_i
    return design


class TestAssemblyMatchesDefinition:
    """Gradient and information in free coordinates equal the raw sums over
    one-hot configuration designs, projected on the constraint basis."""

    @given(
        st.integers(2, 4),
        st.lists(st.integers(2, 4), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_gradient_and_information(self, r_y, arities, seed):
        rng = np.random.default_rng(seed)
        counts = random_counts(rng, r_y, arities, max_count=5)
        objective = FomObjective(counts, SIGMA)
        u = rng.normal(0, 0.8, objective.dim)
        params = objective.params(u)
        basis = constraint_basis(r_y, tuple(arities))
        total = r_y * (1 + sum(arities))
        gradient = np.zeros(total)
        information = np.zeros((total, total))
        probs = []
        for digits, row in zip(counts.config_digits, counts.counts):
            p = fom_probability(params, config_index(digits, arities))
            probs.append(p)
            design = one_hot_design(r_y, arities, digits)
            n_cfg = float(row.sum())
            gradient += design.T @ (n_cfg * p - row)
            weight = -np.outer(p, p)
            weight[np.diag_indices(r_y)] += p
            weight *= n_cfg
            information += design.T @ weight @ design
        expected_gradient = basis.T @ gradient + u / SIGMA**2
        expected_information = (
            basis.T @ information @ basis + np.eye(objective.dim) / SIGMA**2
        )
        # rtol 1e-12 of each entry, with entries that cancel to rounding
        # noise measured against the largest entry
        for actual, expected in (
            (objective.gradient(u), expected_gradient),
            (
                objective.information_free(np.reshape(probs, (-1, r_y))),
                expected_information,
            ),
        ):
            np.testing.assert_allclose(
                actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
            )


class TestConstraintBasis:
    def test_orthonormal_basis_of_the_constraint_subspace(self):
        for r_y in (2, 3, 4, 5):
            for arities in ((), (2,), (3, 4), (2, 5, 3), (4, 2, 2, 3)):
                basis = constraint_basis(r_y, arities)
                assert basis.shape == (
                    r_y * (1 + sum(arities)),
                    free_dimension(r_y, arities),
                )
                np.testing.assert_allclose(
                    basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-14
                )
                np.testing.assert_allclose(
                    constraint_matrix(r_y, arities) @ basis, 0.0, rtol=0, atol=1e-14
                )

    def test_params_apply_the_basis(self):
        # FomObjective.params maps theta block by block; the dense basis is
        # the reference
        rng = np.random.default_rng(47)
        for r_y in (2, 3, 5):
            for arities in ((), (2,), (3, 4), (2, 5, 3)):
                objective = FomObjective(random_counts(rng, r_y, arities), SIGMA)
                u = rng.normal(0, 1.0, objective.dim)
                expected = constraint_basis(r_y, arities) @ u
                np.testing.assert_allclose(
                    objective.params(u).flatten(), expected, rtol=0, atol=1e-14
                )


class TestFisherLogDet:
    def test_single_free_dimension_closed_form(self):
        for n in (0, 10, 400):
            table = np.array([[n // 2, n - n // 2]])
            counts = ContingencyCounts.from_dense(2, (), table)
            value = fisher_log_det(FomParams.zero(2, ()), counts, SIGMA)
            assert value == pytest.approx(math.log(n / 2 + 1 / SIGMA**2), abs=1e-12)

    def test_matches_dense_oracle_and_any_basis(self):
        rng = np.random.default_rng(39)
        for _ in range(15):
            r_y = int(rng.integers(2, 4))
            arities = tuple(
                int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 4)))
            )
            counts = random_counts(rng, r_y, arities, max_count=12)
            params = random_params(rng, r_y, arities)
            value = fisher_log_det(params, counts, SIGMA)
            dense = dense_information_matrix(params, counts)
            # an unrelated orthonormal basis of the same constraint subspace
            basis = null_space(constraint_matrix(r_y, arities)[::-1])
            rotation = np.linalg.qr(
                rng.normal(size=(basis.shape[1], basis.shape[1]))
            )[0]
            basis = basis @ rotation
            ridged = basis.T @ dense @ basis + np.eye(basis.shape[1]) / SIGMA**2
            oracle = np.linalg.slogdet(ridged)[1]
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_matches_numerical_hessian(self):
        rng = np.random.default_rng(40)
        counts = random_counts(rng, 3, (2,), max_count=10)
        objective = FomObjective(counts, SIGMA)
        u = rng.normal(0, 0.5, objective.dim)
        params = objective.params(u)
        step = 1e-5
        dim = objective.dim
        hessian = np.zeros((dim, dim))
        for i in range(dim):
            forward = u.copy()
            forward[i] += step
            backward = u.copy()
            backward[i] -= step
            hessian[i] = (objective.gradient(forward) - objective.gradient(backward)) / (
                2 * step
            )
        hessian = 0.5 * (hessian + hessian.T)
        expected = np.linalg.slogdet(hessian)[1]
        assert fisher_log_det(params, counts, SIGMA) == pytest.approx(
            expected, abs=1e-5
        )

    def test_doubling_counts_adds_d_log_two(self):
        counts = ContingencyCounts.from_dense(
            3, (2,), np.array([[4000, 3000, 5000], [2000, 6000, 4000]])
        )
        doubled = ContingencyCounts.from_dense(
            3, (2,), 2 * counts.dense()
        )
        params = fit_fom_map(counts, SIGMA)
        gap = fisher_log_det(params, doubled, SIGMA) - fisher_log_det(
            params, counts, SIGMA
        )
        d = free_dimension(3, (2,))
        assert gap == pytest.approx(d * math.log(2), abs=1e-3)

    def test_not_positive_definite_is_convergence_error(self, monkeypatch):
        counts = random_counts(np.random.default_rng(36), 2, (2,))
        monkeypatch.setattr("mmlbn.fom._cholesky", lambda matrix: None)
        with pytest.raises(ConvergenceError):
            fisher_log_det(FomParams.zero(2, (2,)), counts, SIGMA)

    def test_newton_step_on_a_failed_factorisation(self, monkeypatch):
        # the factorisation of the first Newton step's information fails
        counts = random_counts(np.random.default_rng(37), 3, (2, 3))
        monkeypatch.setattr("mmlbn.fom._cholesky", lambda matrix: None)
        with pytest.raises(ConvergenceError) as caught:
            fom_message_length(counts, SIGMA)
        assert caught.value.best_params is not None

    def test_parameters_off_the_constraint_subspace(self):
        # raw parameters that break the sum-to-zero constraints give the same
        # probabilities as their free coordinates, and so the same log det as
        # the constrained parameters with those probabilities
        rng = np.random.default_rng(46)
        for _ in range(20):
            r_y = int(rng.integers(2, 5))
            arities = tuple(
                int(rng.integers(2, 5)) for _ in range(int(rng.integers(0, 4)))
            )
            raw = FomParams(
                r_y,
                arities,
                rng.normal(size=r_y),
                tuple(rng.normal(size=(r_y, r)) for r in arities),
            )
            counts = random_counts(rng, r_y, arities, max_count=6)
            objective = FomObjective(counts, SIGMA)
            u = objective.free_coordinates(raw)
            expected = [
                fom_probability(raw, config_index(digits, arities))
                for digits in counts.config_digits
            ]
            np.testing.assert_allclose(
                objective.probabilities(u), np.reshape(expected, (-1, r_y)), atol=1e-14
            )
            assert fisher_log_det(raw, counts, SIGMA) == pytest.approx(
                fisher_log_det(objective.params(u), counts, SIGMA), rel=1e-12
            )

    def test_shape_mismatch(self):
        counts = ContingencyCounts.from_dense(2, (), np.array([[1, 1]]))
        with pytest.raises(ValueError):
            fisher_log_det(FomParams.zero(2, (2,)), counts, SIGMA)


class TestMessageLength:
    def test_empty_binary_node_value(self):
        counts = ContingencyCounts.from_dense(2, (), np.zeros((1, 2), dtype=int))
        score = fom_message_length(counts, SIGMA)
        expected = 0.5 * (math.log(2 * math.pi) - math.log(2) + 1 - math.log(12))
        assert score.free_dim == 1
        assert score.message_length == pytest.approx(expected, abs=1e-12)
        assert score.message_length == pytest.approx(-0.1700883820, abs=1e-9)

    def test_child_label_permutation_invariant(self):
        rng = np.random.default_rng(41)
        table = rng.integers(0, 15, size=(6, 3))
        base = fom_message_length(
            ContingencyCounts.from_dense(3, (2, 3), table), SIGMA
        )
        permuted = fom_message_length(
            ContingencyCounts.from_dense(3, (2, 3), table[:, [1, 2, 0]]), SIGMA
        )
        assert base.message_length == pytest.approx(
            permuted.message_length, abs=1e-8
        )

    def test_parent_order_invariant(self):
        rng = np.random.default_rng(42)
        table = rng.integers(0, 15, size=(6, 2))  # parents arity (2, 3)
        swapped = np.zeros_like(table)
        for i in range(2):
            for j in range(3):
                swapped[j * 2 + i] = table[i * 3 + j]
        a = fom_message_length(ContingencyCounts.from_dense(2, (2, 3), table), SIGMA)
        b = fom_message_length(ContingencyCounts.from_dense(2, (3, 2), swapped), SIGMA)
        assert a.message_length == pytest.approx(b.message_length, abs=1e-8)

    def test_saturated_fit_for_one_parent(self):
        # with at most one parent the model can match any conditional table
        rng = np.random.default_rng(43)
        table = rng.integers(400, 900, size=(3, 3))
        counts = ContingencyCounts.from_dense(3, (3,), table)
        score = fom_message_length(counts, SIGMA)
        empirical = table / table.sum(axis=1, keepdims=True)
        fitted = np.vstack(
            [fom_probability(score.map_params, cfg) for cfg in range(3)]
        )
        assert np.abs(fitted - empirical).max() < 0.02

    def test_map_params_are_the_fit(self):
        rng = np.random.default_rng(44)
        counts = random_counts(rng, 2, (2, 2), max_count=20)
        score = fom_message_length(counts, SIGMA)
        direct = fit_fom_map(counts, SIGMA)
        np.testing.assert_allclose(
            score.map_params.flatten(), direct.flatten(), atol=1e-10
        )

    def test_length_is_prior_fisher_likelihood_and_quantisation(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            r_y = int(rng.integers(2, 5))
            arities = tuple(int(rng.integers(2, 4)) for _ in range(rng.integers(0, 3)))
            counts = random_counts(rng, r_y, arities, max_count=12)
            score = fom_message_length(counts, SIGMA)
            params = score.map_params
            nll = -sum(
                float(row @ np.log(fom_probability(params, config_index(digits, arities))))
                for digits, row in zip(counts.config_digits, counts.counts)
            )
            d = free_dimension(r_y, arities)
            expected = (
                -fom_log_prior(params, SIGMA)
                + 0.5 * fisher_log_det(params, counts, SIGMA)
                + nll
                + 0.5 * d * (1.0 - math.log(12.0))
            )
            assert score.message_length == pytest.approx(expected, rel=1e-10)
