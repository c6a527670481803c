"""First-order model: probabilities, prior, fitting, curvature, code length."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import null_space

from mmlbn import (
    ContingencyCounts,
    ConvergenceError,
    FomObjective,
    FomParams,
    ModelPolicy,
    NetworkScorer,
    config_index,
    fit_fom_map,
    fom_message_length,
    fom_probability,
    free_dimension,
)
from mmlbn import fom
from mmlbn.errors import ParameterCapError
from mmlbn.fom import GRADIENT_TOL, PARAMETER_CAP, constraint_basis, contrast_matrix
from helpers import (
    additive_logit_table,
    constraint_matrix,
    constraint_rank_dimension,
    dense_information_matrix,
    make_dataset,
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


def zero_case_length(r_y, arities, sigma=SIGMA):
    """Code length of a table without cases: the fit stays at zero, so the
    length is the prior normaliser, the ridge's log determinant d log(1 /
    sigma^2) / 2 and the lattice constant."""
    table = np.zeros((math.prod(arities), r_y), dtype=int)
    counts = ContingencyCounts.from_dense(r_y, tuple(arities), table)
    return fom_message_length(counts, sigma).message_length


def sum_of_squares(params):
    blocks = sum(float((b * b).sum()) for b in params.blocks)
    return float(params.a @ params.a) + blocks


def constraint_residual(params):
    """Largest absolute violation of the sum-to-zero constraints."""
    worst = abs(float(params.a.sum()))
    for b in params.blocks:
        worst = max(worst, float(np.abs(b.sum(axis=0)).max(initial=0.0)))
        worst = max(worst, float(np.abs(b.sum(axis=1)).max(initial=0.0)))
    return worst


def log_det_at(objective, u):
    """The length's log determinant: the ridged information at u, through
    the one route fom_message_length takes."""
    return fom._log_det(objective.information_free(objective.probabilities(u)))


def oracle_nll(params, counts):
    """Negative log likelihood of the counts, one configuration at a time."""
    total = 0.0
    for digits, row in zip(counts.config_digits, counts.counts):
        probs = fom_probability(params, config_index(digits, counts.parent_arities))
        total -= float(row @ np.log(probs))
    return total


def dense_log_det(params, counts, basis):
    """Oracle log determinant: the raw information from explicit designs,
    projected on an orthonormal basis of the constraint subspace, plus the
    ridge."""
    dense = dense_information_matrix(params, counts)
    ridged = basis.T @ dense @ basis + np.eye(basis.shape[1]) / SIGMA**2
    return np.linalg.slogdet(ridged)[1]


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

    @pytest.mark.parametrize(
        "a,blocks,message",
        [
            (np.zeros(3), (np.zeros((2, 3)),), r"offset vector has shape \(3,\)"),
            (np.zeros(2), (np.zeros((3, 2)),), r"effect block has shape \(3, 2\)"),
            (np.array([np.nan, 0.0]), (np.zeros((2, 3)),), "must be finite"),
        ],
        ids=["offsets", "block", "finite"],
    )
    def test_params_checked(self, a, blocks, message):
        with pytest.raises(ValueError, match=message):
            FomParams(2, (3,), a, blocks)


class TestLogPrior:
    """The prior term of the length, read off tables without cases and off
    fitted tables."""

    def test_zero_point_value(self):
        # length = -log peak - d log sigma + d (1 - log 12) / 2, with the
        # closed-form peaks of one binary child, alone and with a binary parent
        for arities, log_peak in (
            ((), 0.5 * math.log(2) - 0.5 * math.log(2 * math.pi * SIGMA**2)),
            ((2,), math.log(2 * math.sqrt(2)) - math.log(18 * math.pi)),
        ):
            d = free_dimension(2, arities)
            expected = -log_peak - d * math.log(SIGMA) + 0.5 * d * (1 - math.log(12))
            assert zero_case_length(2, arities) == pytest.approx(expected, abs=1e-12)

    def test_quadratic_decay(self):
        # above a table without cases, the prior term of a fitted table grows
        # by the raw parameters' sum of squares over 2 sigma^2
        rng = np.random.default_rng(34)
        counts = random_counts(rng, 3, (2,), max_count=12)
        score = fom_message_length(counts, SIGMA)
        params = score.map_params
        nll = oracle_nll(params, counts)
        d = free_dimension(3, (2,))
        log_det = dense_log_det(params, counts, constraint_basis(3, (2,)))
        prior_term = (
            score.message_length - nll - 0.5 * (log_det + 2 * d * math.log(SIGMA))
        ) - zero_case_length(3, (2,))
        assert sum_of_squares(params) > 0.0
        assert prior_term == pytest.approx(
            sum_of_squares(params) / (2 * SIGMA**2), abs=1e-9
        )

    def test_parent_order_symmetric(self):
        assert zero_case_length(3, (2, 4)) == pytest.approx(
            zero_case_length(3, (4, 2)), abs=1e-12
        )

    def test_sigma_validated(self):
        with pytest.raises(ValueError, match="sigma"):
            zero_case_length(2, (), sigma=0.0)


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
        assert sum_of_squares(params) == 0.0

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
            assert constraint_residual(params) < 1e-10

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


def zero_start(objective):
    return np.zeros(objective.dim)


def count_information(calls):
    """information_free that appends to calls before computing."""
    information = FomObjective.information_free

    def counted(objective, probs):
        calls.append(None)
        return information(objective, probs)

    return counted


@st.composite
def small_tables(draw):
    """Counts of 0-3 per cell: unseen child values, single-case and empty
    configurations, and separated cells are all common."""
    r_y = draw(st.integers(2, 4))
    arities = tuple(draw(st.lists(st.integers(2, 3), max_size=3)))
    cells = math.prod(arities) * r_y
    table = draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
    return r_y, arities, np.array(table).reshape(-1, r_y)


class TestStart:
    """Newton starts from the ridge fit of the smoothed log-odds; where it
    starts changes the work, not the optimum."""

    @given(small_tables())
    @example((2, (2,), np.array([[40, 0], [0, 40]])))  # perfect separation
    @example(  # one case per configuration
        (3, (2, 2), np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    )
    @example((3, (2,), np.zeros((2, 3), dtype=int)))  # no cases
    @example((2, (2,), np.full((2, 2), 5)))  # balanced
    @example((4, (), np.array([[7, 0, 2, 0]])))  # unseen child values
    def test_same_optimum_as_from_zero(self, table):
        r_y, arities, table = table
        counts = ContingencyCounts.from_dense(r_y, arities, table)
        objective = FomObjective(counts, SIGMA)
        lengths = {}
        for name, start in (("warm", FomObjective.start), ("cold", zero_start)):
            with mock.patch.object(FomObjective, "start", start):
                u, _ = objective.fit()
                assert np.linalg.norm(objective.gradient(u)) <= GRADIENT_TOL
                lengths[name] = fom_message_length(counts, SIGMA).message_length
                with mock.patch.object(fom, "GRADIENT_TOL", 1e-12):
                    tight = fom_message_length(counts, SIGMA)
                lengths[name, "tight"] = tight.message_length
        # Each fit stops within sigma^2 * GRADIENT_TOL of the optimum (the
        # curvature is at least 1/sigma^2), and the log determinant in the
        # length moves with it: about 1e-8 nits on a one-case table.
        assert lengths["warm"] == pytest.approx(
            lengths["cold"], rel=1e-9, abs=SIGMA**2 * GRADIENT_TOL
        )
        # stopped near enough to the optimum, both starts give the same length
        assert lengths["warm", "tight"] == pytest.approx(
            lengths["cold", "tight"], rel=1e-9
        )

    @pytest.mark.parametrize(
        "table",
        [np.zeros((3, 2), dtype=int), np.full((3, 2), 4)],
        ids=["empty", "balanced"],
    )
    def test_zero_for_no_cases_and_balanced_tables(self, table):
        objective = FomObjective(ContingencyCounts.from_dense(2, (3,), table), SIGMA)
        assert not objective.start().any()
        u, _ = objective.fit()
        assert not u.any()

    def test_lengths_do_not_depend_on_the_scoring_order(self):
        rng = np.random.default_rng(40)
        ds = make_dataset(rng.integers(0, 3, (4, 400)), arities=[3] * 4)
        families = [
            (child, parents)
            for child in range(4)
            for parents in ((), ((child + 1) % 4,), ((child + 1) % 4, (child + 2) % 4))
        ]
        forward = NetworkScorer(ds, ModelPolicy.FON, sigma=SIGMA)
        backward = NetworkScorer(ds, ModelPolicy.FON, sigma=SIGMA)
        lengths = [forward.node_score(*family).length for family in families]
        reversed_lengths = [backward.node_score(*f).length for f in families[::-1]]
        assert lengths == reversed_lengths[::-1]

    def test_saves_a_quarter_of_the_information_evaluations(self, monkeypatch):
        rng = np.random.default_rng(41)
        shapes = [(2, (3,)), (3, (2, 4)), (4, (3, 2)), (2, (4, 3)), (4, (2, 3, 2))]
        tables = [
            ContingencyCounts.from_dense(
                r_y, arities, additive_logit_table(rng, r_y, arities, n_cases)
            )
            for r_y, arities in shapes
            for n_cases in (300, 3000)
        ]
        warm, cold = [], []
        monkeypatch.setattr(FomObjective, "information_free", count_information(warm))
        for counts in tables:
            fom_message_length(counts, SIGMA)
        monkeypatch.undo()
        monkeypatch.setattr(FomObjective, "information_free", count_information(cold))
        monkeypatch.setattr(FomObjective, "start", zero_start)
        for counts in tables:
            fom_message_length(counts, SIGMA)
        assert 0 < len(warm) <= 0.75 * len(cold)


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


def kron_information(counts, probs, sigma=SIGMA):
    """The textbook ridged information, one configuration at a time:
    sum_c n_c (x_c x_c^T) kron W_c plus I / sigma^2, with design row
    x_c = [1, Q_{r_1}[w_1], ...] and W_c = Q_y^T (diag p_c - p_c p_c^T) Q_y."""
    q_y = contrast_matrix(counts.child_arity)
    dim = free_dimension(counts.child_arity, counts.parent_arities)
    total = np.eye(dim) / sigma**2
    for digits, row, p in zip(counts.config_digits, counts.counts, probs):
        x = np.concatenate(
            [[1.0]]
            + [contrast_matrix(r)[w] for r, w in zip(counts.parent_arities, digits)]
        )
        w = q_y.T @ (np.diag(p) - np.outer(p, p)) @ q_y
        total += row.sum() * np.kron(np.outer(x, x), w)
    return total


def assert_information_is_the_kron_sum(r_y, arities, seed, min_count=0):
    rng = np.random.default_rng(seed)
    table = rng.integers(min_count, 6, size=(math.prod(arities), r_y))
    counts = ContingencyCounts.from_dense(r_y, tuple(arities), table)
    logits = rng.normal(0.0, 2.0, (counts.n_observed, r_y))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    expected = kron_information(counts, probs)
    # rtol 1e-12 of each entry, with entries that cancel to rounding noise
    # measured against the largest entry
    np.testing.assert_allclose(
        FomObjective(counts, SIGMA).information_free(probs),
        expected,
        rtol=1e-12,
        atol=1e-12 * np.abs(expected).max(),
    )
    return counts


class TestInformationAssembly:
    """information_free's blocked one-product assembly is the Kronecker sum."""

    @given(
        st.integers(2, 5),
        st.lists(st.integers(2, 5), max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_kron_sum(self, r_y, arities, seed):
        assert_information_is_the_kron_sum(r_y, arities, seed)

    def test_several_blocks_ending_on_a_partial_one(self):
        counts = assert_information_is_the_kron_sum(3, [5, 5, 5, 5], 7, min_count=1)
        rows = fom.INFORMATION_BLOCK_ROWS
        assert counts.n_observed == 625
        assert rows < counts.n_observed < 2 * rows

    def test_memory_stays_flat_on_a_wide_node(self):
        # the Nursery grid: 8 parents, 12960 configurations with one case each
        rng = np.random.default_rng(63)
        arities = (3, 5, 4, 4, 3, 2, 3, 3)
        table = np.zeros((math.prod(arities), 5), dtype=int)
        table[np.arange(len(table)), rng.integers(0, 5, len(table))] = 1
        objective = FomObjective(ContingencyCounts.from_dense(5, arities, table), SIGMA)
        probs = objective.probabilities(objective.start())
        d = 1 + sum(r - 1 for r in arities)
        pairs = 4 * 5 // 2
        # At most two blocks' temporaries are alive at once: per block of
        # 512 configurations, the weights (pairs + 3 floats a configuration)
        # and the weighted design (d * pairs floats); then the Gram stack,
        # the matrix and 256 KiB of slack. Blocks of 1024 configurations peak
        # above this bound (3.6 MB), and one product over all 12960 needs
        # 20.7 MB for its weighted design alone.
        rows = 512
        floats = rows * ((d + 1) * pairs + 3) + d * d * pairs + 80**2
        bound = 2 * 8 * floats + 2**18
        tracemalloc.start()
        try:
            objective.information_free(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert objective.dim == 80 and len(probs) == 12960
        assert peak < bound


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


def indefinite_information(objective, probs):
    """Stands in for FomObjective.information_free: minus the identity."""
    return -np.eye(objective.dim)


class TestFisherLogDet:
    def test_single_free_dimension_closed_form(self):
        for n in (0, 10, 400):
            table = np.array([[n // 2, n - n // 2]])
            counts = ContingencyCounts.from_dense(2, (), table)
            objective = FomObjective(counts, SIGMA)
            value = log_det_at(objective, np.zeros(objective.dim))
            assert value == pytest.approx(math.log(n / 2 + 1 / SIGMA**2), abs=1e-12)

    def test_matches_dense_oracle_and_any_basis(self):
        rng = np.random.default_rng(39)
        for _ in range(15):
            r_y = int(rng.integers(2, 4))
            arities = tuple(
                int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 4)))
            )
            counts = random_counts(rng, r_y, arities, max_count=12)
            objective = FomObjective(counts, SIGMA)
            u = rng.normal(0, 0.8, objective.dim)
            value = log_det_at(objective, u)
            # an unrelated orthonormal basis of the same constraint subspace
            basis = null_space(constraint_matrix(r_y, arities)[::-1])
            rotation = np.linalg.qr(
                rng.normal(size=(basis.shape[1], basis.shape[1]))
            )[0]
            oracle = dense_log_det(objective.params(u), counts, basis @ rotation)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_matches_numerical_hessian(self):
        rng = np.random.default_rng(40)
        counts = random_counts(rng, 3, (2,), max_count=10)
        objective = FomObjective(counts, SIGMA)
        u = rng.normal(0, 0.5, objective.dim)
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
        assert log_det_at(objective, u) == pytest.approx(expected, abs=1e-5)

    def test_doubling_counts_adds_d_log_two(self):
        counts = ContingencyCounts.from_dense(
            3, (2,), np.array([[4000, 3000, 5000], [2000, 6000, 4000]])
        )
        doubled = ContingencyCounts.from_dense(
            3, (2,), 2 * counts.dense()
        )
        objective = FomObjective(counts, SIGMA)
        u, _ = objective.fit()
        gap = log_det_at(FomObjective(doubled, SIGMA), u) - log_det_at(objective, u)
        d = free_dimension(3, (2,))
        assert gap == pytest.approx(d * math.log(2), abs=1e-3)

    def test_not_positive_definite_is_convergence_error(self, monkeypatch):
        counts = random_counts(np.random.default_rng(36), 2, (2,))
        objective = FomObjective(counts, SIGMA)
        monkeypatch.setattr(FomObjective, "information_free", indefinite_information)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            log_det_at(objective, np.zeros(objective.dim))

    def test_newton_step_on_a_failed_factorisation(self, monkeypatch):
        # the first Newton step's information is indefinite: its step ascends
        counts = random_counts(np.random.default_rng(37), 3, (2, 3))
        monkeypatch.setattr(FomObjective, "information_free", indefinite_information)
        with pytest.raises(ConvergenceError, match="not positive definite") as caught:
            fom_message_length(counts, SIGMA)
        assert caught.value.best_params is not None

    def test_newton_step_on_a_singular_information(self, monkeypatch):
        # the solve itself fails; the error carries the current iterate (the start)
        counts = random_counts(np.random.default_rng(38), 3, (2, 3))
        objective = FomObjective(counts, SIGMA)
        start = objective.params(objective.start())
        monkeypatch.setattr(
            FomObjective, "information_free", lambda self, probs: np.zeros((self.dim,) * 2)
        )
        with pytest.raises(ConvergenceError, match="not positive definite") as caught:
            fom_message_length(counts, SIGMA)
        params = caught.value.best_params
        assert np.array_equal(params.flatten(), start.flatten())
        assert sum_of_squares(start) > 0.0
        assert params.child_arity == 3 and params.parent_arities == (2, 3)

    def test_line_search_that_finds_no_decrease(self, monkeypatch):
        # an objective that rises on every evaluation defeats each step size
        counts = random_counts(np.random.default_rng(39), 3, (2, 3))
        values = iter(range(1000))
        monkeypatch.setattr(FomObjective, "_value", lambda self, u, probs: next(values))
        with pytest.raises(ConvergenceError, match="line search failed") as caught:
            fom_message_length(counts, SIGMA)
        assert caught.value.best_params is not None

    def test_indefinite_information_at_the_optimum(self, monkeypatch):
        # balanced counts put the optimum at zero, so the fit takes no step and
        # the one information computed is the log determinant's, at the optimum
        counts = ContingencyCounts.from_dense(2, (2,), np.full((2, 2), 5))
        calls = []

        def information(objective, probs):
            calls.append(probs)
            return indefinite_information(objective, probs)

        monkeypatch.setattr(FomObjective, "information_free", information)
        with pytest.raises(ConvergenceError, match="not positive definite") as caught:
            fom_message_length(counts, SIGMA)
        assert len(calls) == 1
        assert caught.value.best_params is None


class TestParameterCap:
    """A logit model of PARAMETER_CAP or more free dimensions is refused
    before its design is built: the table's "or more" rule."""

    @staticmethod
    def no_cases(child_arity, parent_arities):
        digits = np.zeros((0, len(parent_arities)), dtype=int)
        return ContingencyCounts(
            child_arity, parent_arities, digits, np.zeros((0, child_arity), dtype=int)
        )

    def test_refused_at_the_cap(self):
        # a binary child of one parent has as many free dimensions as its parent
        # has states
        below = FomObjective(self.no_cases(2, (PARAMETER_CAP - 1,)))
        assert below.dim == PARAMETER_CAP - 1
        message = f"logit model needs {PARAMETER_CAP} free parameters"
        with pytest.raises(ParameterCapError, match=message):
            FomObjective(self.no_cases(2, (PARAMETER_CAP,)))
        with pytest.raises(ParameterCapError, match="3081 free parameters"):
            fom_message_length(self.no_cases(40, (40, 40)))


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
            nll = oracle_nll(params, counts)
            d = free_dimension(r_y, arities)
            # the log prior peak, read off the length of a table without cases
            log_peak = -(
                zero_case_length(r_y, arities)
                + d * math.log(SIGMA)
                - 0.5 * d * (1.0 - math.log(12.0))
            )
            log_det = dense_log_det(params, counts, constraint_basis(r_y, arities))
            expected = (
                -(log_peak - sum_of_squares(params) / (2 * SIGMA**2))
                + 0.5 * log_det
                + nll
                + 0.5 * d * (1.0 - math.log(12.0))
            )
            assert score.message_length == pytest.approx(expected, rel=1e-10)


@st.composite
def floor_tables(draw):
    """Child and parent arities 2-5, 0-3 parents and 0-39 cases, each in a
    random cell: empty, single-case and separated configurations abound."""
    r_y = draw(st.integers(2, 5))
    arities = tuple(draw(st.lists(st.integers(2, 5), max_size=3)))
    cells = math.prod(arities) * r_y
    n = draw(st.integers(0, 39))
    chosen = draw(st.lists(st.integers(0, cells - 1), min_size=n, max_size=n))
    table = np.bincount(np.array(chosen, dtype=np.intp), minlength=cells)
    return ContingencyCounts.from_dense(r_y, arities, table.reshape(-1, r_y))


class TestLengthFloor:
    """fom_length_floor bounds every sigma's length from below, with no fit."""

    @given(floor_tables())
    @example(ContingencyCounts.from_dense(2, (), np.zeros((1, 2), dtype=int)))
    def test_below_the_length_at_every_sigma(self, counts):
        floor = fom.fom_length_floor(counts)
        for sigma in (0.5, SIGMA, 30.0):
            try:
                length = fom_message_length(counts, sigma).message_length
            except ConvergenceError:
                continue
            assert floor <= length

    @pytest.mark.parametrize("sigma", [0.5, SIGMA, 30.0])
    @pytest.mark.parametrize("arities", [(), (2,), (3, 4), (5, 2, 3)])
    def test_tight_without_cases(self, arities, sigma):
        # no cases: the optimum is zero and the information the ridge alone,
        # so every inequality of the bound holds with equality
        for r_y in (2, 3, 5):
            table = np.zeros((math.prod(arities), r_y), dtype=int)
            counts = ContingencyCounts.from_dense(r_y, arities, table)
            gap = zero_case_length(r_y, arities, sigma) - fom.fom_length_floor(counts)
            assert 0.0 < gap < 1e-6

    def test_saturated_likelihood_and_normaliser(self):
        # one parent of arity 2 over a binary child: d = 2 and the
        # normaliser is (1/2) log 2 + (1/2)(log 2 + log 2)
        table = np.array([[3, 1], [0, 2]])
        counts = ContingencyCounts.from_dense(2, (2,), table)
        saturated = 4 * math.log(4) + 2 * math.log(2) - 3 * math.log(3) - 2 * math.log(2)
        norm = 1.5 * math.log(2)
        expected = saturated - norm + math.log(math.pi * math.e / 6)
        assert fom.fom_length_floor(counts) == pytest.approx(expected, abs=1e-7)
        assert fom.fom_length_floor(counts) < expected
