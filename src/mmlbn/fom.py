"""First-order conditional model: additive per-parent effects under a softmax.

The probability of child value k given parent values (w_1, ..., w_q) is
softmax over k of a_k + sum_i b_i[k, w_i]. Rows and columns of every effect
block sum to zero, as do the offsets a_k; those constraints pin down the
redundant softmax gauge, leaving (r_y - 1) * (1 + sum_i (r_i - 1)) free
dimensions. Fitting maximises the posterior under an isotropic Gaussian over
all raw entries.

Contrast basis. Each arity r has a fixed Helmert matrix Q_r, r x (r - 1)
with orthonormal columns orthogonal to the ones vector. The constrained
parameters are exactly a = Q_y alpha and b_i = Q_y B_i Q_{r_i}^T, so the free
coordinates form a D x (r_y - 1) matrix theta = [alpha^T; B_1^T; ...; B_q^T]
with D = 1 + sum_i (r_i - 1). Configuration c has the design row
x_c = [1, Q_{r_1}[w_1], ..., Q_{r_q}[w_q]]; with the rows stacked into X, the
logits of all observed configurations are X (theta Q_y^T) and the gradient
of the negative log likelihood is X^T (residual Q_y). The map from theta to
the raw parameters is orthonormal (``constraint_basis`` writes it out as a
matrix; the fit applies it block by block and never builds it), so the
Gaussian quadratic term is |theta|^2 / (2 sigma^2) and the constraints hold
by construction.

Kronecker information. The expected information of theta (read row by row)
is sum_c n_c (x_c x_c^T) kron W_c with W_c = Q_y^T (diag p_c - p_c p_c^T) Q_y.
Its (k, l) child-contrast slot is the Gram matrix X^T diag(n_c W_c[k, l]) X,
whose entry (i, j) is sum_c x_ci x_cj n_c W_c[k, l]. With P the products
x_ci x_cj of each design row for i <= j, T = D (D + 1) / 2 columns, and w
holding every pair k <= l's weights side by side, one product P^T w gives
the upper triangles of the Gram matrices of all pairs at once as a
(T, pairs) stack, and one gather places the stack in the matrix. The gather
index, Q_y^T, the pairs k <= l and i <= j and the products of Q_y's columns
depend only on the node's shape (D, r_y): ``_shape_layout`` forms them once
per shape, and the objective fetches them once. Each iterate's
probabilities are projected once, Q_y^T p_c, for its gradient and its
information both. The totals n_c are folded into the design the gradient
reads (N X, kept by the objective) and into P when it is formed, so w
carries none, and the gradient's constant term (Q_y^T C) X is formed once
per objective. Every per-configuration
array of the fit is held child-major, (r_y, n) or (pairs, n): the
probabilities, the counts and the weights w (used as a transposed view in
P^T w), so the softmax's max and sum over the child values and each pair's
product of two projected probabilities run across rows of n configurations.
numpy reduces along an axis of 2 to 5 elements several times slower. The
design is held once, as (n, D) rows, and read through its transpose; P
stays (block, T) rows. The product is summed over blocks of at most
``INFORMATION_BLOCK_ROWS`` configurations, and of fewer for a wide design,
so that a block's P stays within ``KEPT_PRODUCT_FLOATS`` floats: its
temporaries stay bounded however many configurations and design columns a
node has. P does not depend on the probabilities, so the objective keeps
the leading blocks of P that fit in ``KEPT_PRODUCT_FLOATS`` floats, formed
by its first evaluation and read by every later one (one per Newton
iterate, the optimum's too); a block past that cap is formed again
at each evaluation. Against the full (D, D, pairs) Gram stack, the upper
triangles halve the product's flops. The ridge makes the matrix positive
definite. A Newton step factors it once, in a numpy solve; as
grad @ step = -grad^T I^-1 grad < 0 for a positive definite I, a failed
solve or a step that does not descend is a ConvergenceError. The log
determinant the code length needs comes from a Cholesky factor of the
information the fit returns at the optimum, and its failure is one too.

Starting point. Newton's method starts from the ridge least-squares fit of
the smoothed empirical log-odds (``FomObjective.start``): each observed
configuration's log(counts + 1/2), in the child contrasts, weighted by the
configuration's total, with the prior's 1/sigma^2 as the ridge. It reads
the counts and sigma and nothing else, so a node's fit does not depend on
which nodes were fitted before it. Without cases, or with a balanced table,
the start is zero and so is the optimum. From this start a fit needs about
two thirds of the information evaluations it needs from zero.

No length depends on this choice of basis: any other orthonormal basis of
the constraint subspace is this one times an orthogonal matrix R. Under
u -> R u the quadratic term, the likelihood and the gradient norm are
unchanged, Newton steps map onto Newton steps, and the information becomes
R^T I R with the same determinant, so the fit and the code length agree up
to rounding.

The stated code length follows the usual quantised two-part construction:
negative log prior plus half the log determinant of the (ridged) expected
information, plus the negative log likelihood, plus a per-dimension lattice
quantisation constant of 1/12. ``_logit_length`` is its one statement; it
prices the objective the fit minimised, NLL + |u|^2 / (2 sigma^2). The
fit-free floor evaluates it at its fitted terms' least values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dataset import ContingencyCounts, config_digits
from .errors import ConvergenceError, ParameterCapError, as_index

DEFAULT_SIGMA = 3.0
# Free dimensions at which a logit model is refused. On 3000 random rows (2-core
# x86, tracemalloc on, layout not yet cached), a 23-state child of two 23-state
# parents (990 dimensions, D = 45) took 0.25 s and a 28.7 MB peak, a binary
# child of one 999-state parent (999, D = 999) 27.7 s, forming its design
# products one configuration at a time, and 63.2 MB, mostly dim^2 matrices.
PARAMETER_CAP = 1000
GRADIENT_TOL = 1e-8
MAX_NEWTON_ITERS = 200
# Configurations per product in information_free while T = D (D + 1) / 2 <=
# 512 (D <= 31); a wider design takes KEPT_PRODUCT_FLOATS // T (at least 1),
# so a block's temporaries, about rows * (T + pairs) floats, stay bounded. A
# binary child of one 300-state parent (D = 300) on 3000 rows peaked at
# 8.7 MB for the whole fit, against 220 MB with 512-row blocks.
INFORMATION_BLOCK_ROWS = 512
# Floats of design products (2 MiB) an objective keeps across its information
# evaluations; the blocks past them are formed at each evaluation.
KEPT_PRODUCT_FLOATS = 2**18

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_12 = math.log(12.0)


def check_sigma(sigma: float) -> None:
    """Reject a prior spread whose square or inverse square is not a finite
    positive float: the fit divides by sigma^2 and the length takes log sigma."""
    square = sigma * sigma
    if not (sigma > 0.0 and 0.0 < square < math.inf and 1.0 / square < math.inf):
        raise ValueError(
            "sigma must be positive, with a finite square and inverse square; "
            f"got {sigma!r}"
        )


def free_dimension(child_arity: int, parent_arities) -> int:
    """Dimension of the constraint subspace."""
    child_arity = as_index(child_arity, "child arity")
    arities = tuple(as_index(r, "parent arity") for r in parent_arities)
    if child_arity < 2 or any(r < 2 for r in arities):
        raise ValueError("arities must be at least 2")
    return (child_arity - 1) * (1 + sum(r - 1 for r in arities))


@lru_cache(maxsize=64)
def contrast_matrix(arity: int) -> np.ndarray:
    """Helmert contrasts: an (arity, arity - 1) matrix with orthonormal columns
    that are all orthogonal to the vector of ones.

    Column j weighs the first j + 1 levels equally against level j + 1.
    """
    q = np.zeros((arity, arity - 1))
    for j in range(arity - 1):
        q[: j + 1, j] = 1.0 / math.sqrt((j + 1) * (j + 2))
        q[j + 1, j] = -(j + 1) / math.sqrt((j + 1) * (j + 2))
    q.flags.writeable = False
    return q


@lru_cache(maxsize=512)
def constraint_basis(child_arity: int, parent_arities: tuple) -> np.ndarray:
    """Orthonormal basis of the constraint subspace, columns as directions.

    Block diagonal: ``Q_y`` for the offsets and ``kron(Q_y, Q_{r_i})`` for
    effect block i, with each block's columns ordered parent contrast major
    so that the weights of the basis are ``FomObjective``'s theta matrix
    read row by row.
    """
    r_y = child_arity
    q_y = contrast_matrix(r_y)
    parts = [q_y]
    for r_i in parent_arities:
        q_i = contrast_matrix(r_i)
        # kron column l * (r_i - 1) + m becomes column m * (r_y - 1) + l
        block = np.kron(q_y, q_i).reshape(r_y * r_i, r_y - 1, r_i - 1)
        parts.append(block.transpose(0, 2, 1).reshape(r_y * r_i, -1))
    shape = (sum(part.shape[0] for part in parts), sum(part.shape[1] for part in parts))
    basis = np.zeros(shape)
    row = col = 0
    for part in parts:
        n_rows, n_cols = part.shape
        basis[row : row + n_rows, col : col + n_cols] = part
        row, col = row + n_rows, col + n_cols
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=64)
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(size), read-only: the index pairs i <= j of a size x
    size matrix, row by row. Shapes share their sizes, so each is formed once."""
    pairs = np.triu_indices(size)
    for array in pairs:
        array.flags.writeable = False
    return pairs


@lru_cache(maxsize=256)
def _shape_layout(d: int, child_arity: int):
    """The read-only arrays of a logit fit with d design columns and child
    arity r_y: Q_y^T; the child contrast pairs k <= l; the products of Q_y's
    columns as (pairs, r_y) rows, so that products @ p_c gives
    (Q_y^T diag p_c Q_y)[k, l] for every pair; the design column pairs
    i <= j, row by row; and the index gathering the (d (d + 1) / 2, pairs)
    stack of Gram upper triangles into the information, whose entry
    (i (r_y - 1) + k, j (r_y - 1) + l) reads pair(k, l) at
    (min(i, j), max(i, j))."""
    q_y = contrast_matrix(child_arity)
    r = child_arity - 1
    k, l = _upper_pairs(r)
    products = np.ascontiguousarray((q_y[:, k] * q_y[:, l]).T)
    i, j = _upper_pairs(d)
    pair = np.empty((r, r), dtype=np.intp)
    pair[k, l] = pair[l, k] = np.arange(k.size)
    entry = np.empty((d, d), dtype=np.intp)
    entry[i, j] = entry[j, i] = np.arange(i.size)
    gather = entry[:, None, :, None] * k.size + pair[:, None, :]
    gather = gather.reshape(d * r, d * r)
    q_y_t = np.ascontiguousarray(q_y.T)
    for array in (q_y_t, products, gather):
        array.flags.writeable = False
    return q_y_t, (k, l), products, (i, j), gather


@dataclass(frozen=True, eq=False)
class FomParams:
    """Offsets and per-parent effect blocks of one fitted node."""

    child_arity: int
    parent_arities: tuple[int, ...]
    a: np.ndarray  # (child_arity,)
    blocks: tuple[np.ndarray, ...]  # one (child_arity, r_i) per parent

    def __post_init__(self):
        r_y = self.child_arity
        arities = tuple(self.parent_arities)
        a = np.array(self.a, dtype=float)
        if a.shape != (r_y,):
            raise ValueError(f"offset vector has shape {a.shape}, expected ({r_y},)")
        blocks = []
        for r_i, block in zip(arities, self.blocks, strict=True):
            block = np.array(block, dtype=float)
            if block.shape != (r_y, r_i):
                raise ValueError(
                    f"effect block has shape {block.shape}, expected ({r_y}, {r_i})"
                )
            block.flags.writeable = False
            blocks.append(block)
        if not all(np.isfinite(x).all() for x in (a, *blocks)):
            raise ValueError("parameters must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "parent_arities", arities)

    @classmethod
    def zero(cls, child_arity: int, parent_arities) -> "FomParams":
        arities = tuple(parent_arities)
        return cls(
            child_arity,
            arities,
            np.zeros(child_arity),
            tuple(np.zeros((child_arity, r)) for r in arities),
        )

    @classmethod
    def from_flat(cls, child_arity: int, parent_arities, flat) -> "FomParams":
        arities = tuple(parent_arities)
        flat = np.asarray(flat, dtype=float)
        a = flat[:child_arity]
        blocks = []
        base = child_arity
        for r_i in arities:
            blocks.append(flat[base : base + child_arity * r_i].reshape(child_arity, r_i))
            base += child_arity * r_i
        return cls(child_arity, arities, a, tuple(blocks))

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.a] + [b.ravel() for b in self.blocks])


def _params_from_free(
    child_arity: int, parent_arities: tuple, u: np.ndarray
) -> FomParams:
    """Raw parameters of free coordinates u: a = Q_y alpha and
    b_i = Q_y B_i Q_{r_i}^T, with B_i^T the rows of theta for parent i."""
    q_y = contrast_matrix(child_arity)
    theta = u.reshape(-1, child_arity - 1)
    blocks = []
    start = 1
    for r_i in parent_arities:
        effects = theta[start : start + r_i - 1]
        blocks.append(q_y @ effects.T @ contrast_matrix(r_i).T)
        start += r_i - 1
    return FomParams(child_arity, parent_arities, q_y @ theta[0], tuple(blocks))


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(values))) along an axis of finite values, each line
    shifted by its maximum so that no exponential overflows."""
    peak = values.max(axis=axis, keepdims=True)
    shifted = values - peak
    np.exp(shifted, out=shifted)
    return np.log(shifted.sum(axis=axis)) + peak.squeeze(axis)


def predictive_log_probs(params: FomParams, parent_values: np.ndarray) -> np.ndarray:
    """Log child distributions, shape (n, r_y), at the rows of an (n, q)
    integer array of parent values: the transpose of a child-major (r_y, n)
    array, whose log-sum-exp over child values runs across rows."""
    logits = np.empty((params.child_arity, parent_values.shape[0]))
    logits[:] = params.a[:, None]
    for block, values in zip(params.blocks, parent_values.T):
        logits += block[:, values]
    logits -= _logsumexp(logits, 0)
    return logits.T


def fom_probability(params: FomParams, parent_config: int) -> np.ndarray:
    """Child distribution at one parent configuration (mixed-radix index)."""
    digits = config_digits(parent_config, params.parent_arities)
    return np.exp(predictive_log_probs(params, np.array([digits], dtype=int)))[0]


def _log_det(matrix: np.ndarray) -> float:
    """Log determinant of a symmetric positive definite matrix, from its
    Cholesky factor."""
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ConvergenceError("information matrix is not positive definite") from None
    return 2.0 * float(np.log(factor.diagonal()).sum())


@lru_cache(maxsize=512)
def _prior_log_normaliser(child_arity: int, parent_arities: tuple) -> float:
    """The factor, in logs, for restricting the isotropic Gaussian over all
    raw entries to the constraint subspace; it does not depend on sigma."""
    log_r_y = math.log(child_arity)
    norm = 0.5 * log_r_y
    for r_i in parent_arities:
        norm += 0.5 * ((r_i - 1) * log_r_y + (child_arity - 1) * math.log(r_i))
    return norm


def _logit_length(
    d: int, norm: float, sigma: float, objective: float, log_det: float
) -> float:
    """The logit code length in nits: -log prior peak + objective
    + (1/2) log det I_sigma + (d/2)(1 - log 12), with objective the fit's
    NLL + |u|^2 / (2 sigma^2), I_sigma the ridged information, d the free
    dimension and the prior's log peak norm - d ((1/2) log 2 pi + log sigma),
    norm being ``_prior_log_normaliser`` of the node's arities."""
    neg_log_peak = d * (0.5 * _LOG_2PI + math.log(sigma)) - norm
    return neg_log_peak + objective + 0.5 * log_det + 0.5 * d * (1.0 - _LOG_12)


class FomObjective:
    """Negative log posterior of one node's counts, in free coordinates.

    The free coordinates u are the (D, r_y - 1) matrix theta read row by row:
    row 0 holds the offset contrasts and the next r_i - 1 rows the effect
    contrasts of parent i. Observed configuration c has the design row
    x_c = [1, Q_{r_1}[w_1], ..., Q_{r_q}[w_q]], and its logits are
    x_c @ theta @ Q_y.T. Because u maps to the raw parameters orthonormally
    (a = Q_y alpha, b_i = Q_y B_i Q_{r_i}^T), the Gaussian quadratic term is
    just |u|^2 / (2 sigma^2) and constraint satisfaction is automatic.
    """

    def __init__(self, counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA):
        check_sigma(sigma)
        self.counts = counts
        self._ridge = 1.0 / (sigma * sigma)
        self.r_y = counts.child_arity
        self.arities = counts.parent_arities
        self.dim = free_dimension(self.r_y, self.arities)
        if self.dim >= PARAMETER_CAP:
            raise ParameterCapError(
                f"logit model needs {self.dim} free parameters (cap {PARAMETER_CAP})"
            )
        # the counts child-major, (r_y, n), as the tally holds them and the
        # probabilities are read
        self._counts = counts.counts.T.astype(float)
        self._totals = counts.config_totals.astype(float)
        digits = counts.config_digits
        d = self.dim // (self.r_y - 1)
        self._design = np.empty((digits.shape[0], d))
        self._design[:, 0] = 1.0
        # each parent's contrast rows go straight into its columns; "clip"
        # alters no digit (all are in range) and, unlike "raise", buffers no copy
        start = 1
        for i, r_i in enumerate(self.arities):
            columns = self._design[:, start : start + r_i - 1]
            contrast_matrix(r_i).take(digits[:, i], axis=0, out=columns, mode="clip")
            start += r_i - 1
        # the design with each row times its configuration's total, N X, which
        # the start and the gradient read
        self._weighted = self._design * self._totals[:, None]
        # Q_y^T, which every evaluation reads, and what information_free reads
        self._q_y_t, *self._layout = _shape_layout(d, self.r_y)
        # the gradient's constant term, (Q_y^T C) X
        self._counts_design = self._q_y_t @ (self._counts @ self._design)
        # the last probabilities given and their projection Q_y^T p_c
        self._projection = None, None
        # the leading blocks' design products, kept by information_free
        self._products = []

    def _project(self, probs: np.ndarray) -> np.ndarray:
        """Q_y^T p_c at each configuration, child-major (r_y - 1, n). The
        projection of the last probabilities given is kept, so that the
        gradient and the information at one iterate project it once."""
        held, projected = self._projection
        if held is not probs:
            projected = self._q_y_t @ probs.T
            self._projection = probs, projected
        return projected

    def probabilities(self, u: np.ndarray) -> np.ndarray:
        """Softmax child distributions at each observed configuration, as the
        (n, r_y) transpose of a child-major (r_y, n) array.

        The logits are (theta Q_y^T)^T X^T, formed through the transposed
        view of the design, so the max and the sum over the r_y child values
        run across n-long rows rather than along r_y-long ones, which numpy
        reduces slowly.
        """
        logits = (u.reshape(-1, self.r_y - 1) @ self._q_y_t).T @ self._design.T
        logits -= logits.max(axis=0)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=0)
        return logits.T

    def _gradient(self, u: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """The objective's gradient at u, given the probabilities at u:
        (Q_y^T P N - Q_y^T C) X, with P and C child-major, read row by row."""
        residual = self._project(probs) @ self._weighted
        residual -= self._counts_design
        return residual.T.ravel() + self._ridge * u

    def information_free(self, probs: np.ndarray) -> np.ndarray:
        """Ridged expected information in free coordinates.

        The information is sum_c n_c (x_c x_c^T) kron W_c with
        W_c = Q_y^T (diag p_c - p_c p_c^T) Q_y. Entry (k, l) of every W_c
        weighs one Gram matrix of the design. Per block of configurations,
        P^T w, with P the products x_ci x_cj (i <= j) of the block's design
        rows and w the weights of all pairs k <= l side by side, adds to the
        upper triangles of all of them; the (D (D + 1) / 2, pairs) stack
        then fills the (k, l) and (l, k) child-contrast slots in one gather.
        The products carry each configuration's total, n_c x_ci x_cj. The
        first call keeps the products of the leading blocks, up to
        ``KEPT_PRODUCT_FLOATS`` floats, and later calls read them; the
        products of any later block are formed at each call.

        The probabilities are read child-major, as the (r_y, n) transpose of
        probs, with their projection Q_y^T p_c (the gradient's, when it has
        just read the same probabilities), and the weights formed as
        (pairs, block) rows, so each pair's weight is a product of two rows
        of the projected probabilities rather than of two columns; the
        products stay (block, T) rows and the weights enter the product as a
        transposed view.
        """
        (k, l), pair_products, (i, j), gather = self._layout
        design, kept = self._design, self._products
        projected = self._project(probs)
        rows = max(1, min(INFORMATION_BLOCK_ROWS, KEPT_PRODUCT_FLOATS // i.size))
        stack = np.zeros((i.size, k.size))
        for index, start in enumerate(range(0, design.shape[0], rows)):
            stop = start + rows
            if index < len(kept):
                products = kept[index]
            else:
                block = design[start:stop]
                products = (block * self._totals[start:stop, None])[:, i]
                products *= block[:, j]
                if (start + len(block)) * i.size <= KEPT_PRODUCT_FLOATS:
                    kept.append(products)
            block_projected = projected[:, start:stop]
            weights = pair_products @ probs[start:stop].T
            weights -= block_projected.take(k, axis=0) * block_projected.take(l, axis=0)
            stack += products.T @ weights.T
        matrix = np.take(stack, gather)
        matrix.ravel()[:: self.dim + 1] += self._ridge
        return matrix

    def params(self, u: np.ndarray) -> FomParams:
        """Raw parameters of free coordinates u."""
        return _params_from_free(self.r_y, self.arities, u)

    def _value(self, u: np.ndarray, probs: np.ndarray) -> float:
        """NLL + |u|^2 / (2 sigma^2) at u, given the probabilities at u."""
        nll = -float((self._counts * np.log(probs.T)).sum())
        return nll + 0.5 * self._ridge * float(u @ u)

    def value(self, u: np.ndarray) -> float:
        return self._value(u, self.probabilities(u))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self._gradient(u, self.probabilities(u))

    def start(self) -> np.ndarray:
        """Newton's starting point, from the counts and sigma alone: the ridge
        least-squares fit of the smoothed empirical log-odds.

        Configuration c's target is its log(counts + 1/2) row, shifted so
        that child value 0 reads zero, in the child contrasts: z_c, the rows
        of Z. Q_y drops any per-configuration shift, so this is the centred
        row's projection too, and a balanced row gives exactly zero. Weighing
        each configuration by its total n_c (N = diag n_c) with the prior's
        1/sigma^2 as the ridge, theta solves
        (X^T N X + I / sigma^2) theta = X^T N Z: one D x D system with
        r_y - 1 right-hand sides. No cases or a balanced table start at zero.
        A singular system (collinear parents, the ridge lost in rounding) is
        the ConvergenceError a Newton step raises for the same condition.
        """
        logs = np.log(self._counts + 0.5)
        targets = self._q_y_t @ (logs - logs[:1])
        system = self._weighted.T @ self._design
        system.flat[:: system.shape[0] + 1] += self._ridge
        try:
            return np.linalg.solve(system, self._weighted.T @ targets.T).ravel()
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "information matrix is not positive definite"
            ) from None

    def fit(self):
        """Newton iteration from ``start``, each step backtracked until the
        objective does not rise; returns u with the value and information at u."""
        u = self.start()
        probs = self.probabilities(u)
        value = self._value(u, probs)
        for iteration in range(MAX_NEWTON_ITERS + 1):
            grad = self._gradient(u, probs)
            converged = math.sqrt(float(grad @ grad)) <= GRADIENT_TOL
            if not converged and iteration == MAX_NEWTON_ITERS:
                raise ConvergenceError(
                    f"no convergence after {MAX_NEWTON_ITERS} Newton iterations"
                )
            information = self.information_free(probs)
            if converged:
                return u, value, information
            # A positive definite information gives a strict descent step, so
            # a failed solve or any other step (NaN included) shows it is not.
            try:
                step = np.linalg.solve(information, -grad)
            except np.linalg.LinAlgError:
                step = None
            del information  # one (dim x dim) information held at a time
            if step is None or not float(grad @ step) < 0.0:
                raise ConvergenceError("information matrix is not positive definite")
            # Slack at the rounding noise floor: near the optimum the true
            # decrease of a full step drops below evaluation noise, and a
            # strictly monotone test would stall with the gradient still
            # above tolerance.
            slack = 1e-12 * (1.0 + abs(value))
            scale = 1.0
            while scale >= 1e-12:
                candidate = u + scale * step
                cand_probs = self.probabilities(candidate)
                cand_value = self._value(candidate, cand_probs)
                if cand_value <= value + slack:
                    break
                scale *= 0.5
            else:
                raise ConvergenceError("line search failed to find a decrease")
            u, probs, value = candidate, cand_probs, cand_value


@dataclass(frozen=True, eq=False)
class FomScore:
    """A fitted node's code length, and its optimum in free coordinates.

    The raw parameters (``map_params``) are built, and validated by
    FomParams, the first time they are read; most scores are never read.
    """

    message_length: float  # nits
    free_dim: int
    child_arity: int
    parent_arities: tuple[int, ...]
    free_coordinates: np.ndarray = field(repr=False)  # (free_dim,)

    @cached_property
    def map_params(self) -> FomParams:
        return _params_from_free(
            self.child_arity, self.parent_arities, self.free_coordinates
        )


def fom_message_length(
    counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA
) -> FomScore:
    """Code length in nits of stating fitted effects and the data under them."""
    objective = FomObjective(counts, sigma)
    u, value, information = objective.fit()
    norm = _prior_log_normaliser(objective.r_y, objective.arities)
    length = _logit_length(objective.dim, norm, sigma, value, _log_det(information))
    u.flags.writeable = False
    return FomScore(length, objective.dim, objective.r_y, objective.arities, u)


def fit_fom_map(counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA) -> FomParams:
    """Posterior-mode parameters for one node's counts: the optimum
    ``fom_message_length`` scores."""
    return fom_message_length(counts, sigma).map_params


_x_log_x_table = np.zeros(1)  # k log k at index k, 0 log 0 read as 0


def _sum_x_log_x(values: np.ndarray) -> float:
    """Sum of x log x over an array of non-negative integers, 0 log 0 read
    as 0: one lookup per entry in a table of k log k that grows to the
    largest entry seen so far."""
    global _x_log_x_table
    table = _x_log_x_table
    top = int(values.max(initial=0))
    if top >= len(table):
        grown = np.arange(len(table), top + 1, dtype=float)
        grown *= np.log(grown)
        table = _x_log_x_table = np.concatenate([table, grown])
    return float(table[values].sum())


def fom_length_floor(counts: ContingencyCounts) -> float:
    """A lower bound on ``fom_message_length(counts, sigma).message_length``
    for every sigma, from the counts alone: no fit.

    It is ``_logit_length`` at the least value of each fitted term. The
    objective >= the saturated NLL: |u|^2 >= 0, and no model's NLL is below
    that of the one giving each observed configuration its empirical child
    distribution, sum_c n_c log n_c - sum_{c,k} n_ck log n_ck. I_sigma is a positive
    semidefinite matrix plus I / sigma^2, so log det I_sigma >= -2 d log
    sigma, whose d log sigma cancels that of -log peak: priced at sigma = 1,
    both vanish.

    The bound is tight without cases, where the optimum is zero and the
    information is the ridge alone, so a rounding guard is subtracted: 1e-9
    of the terms compared, far above their float error.

    Both x log x sums read the tally's own arrays, the totals and the
    child-major counts, through ``_sum_x_log_x``'s table of k log k, one
    process-wide table grown to the largest count seen, as cpt_full's table
    of log k! is.
    """
    d = free_dimension(counts.child_arity, counts.parent_arities)
    norm = _prior_log_normaliser(counts.child_arity, counts.parent_arities)
    scale = _sum_x_log_x(counts.config_totals)  # the largest of the NLL terms
    saturated = scale - _sum_x_log_x(counts.counts)
    floor = _logit_length(d, norm, 1.0, saturated, 0.0)
    return floor - 1e-9 * (1.0 + scale + norm + d)
