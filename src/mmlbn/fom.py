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
so assembling it costs one dense product per contrast pair k <= l. The
ridge makes it positive definite. A Newton step factors it once, in a numpy
solve; as grad @ step = -grad^T I^-1 grad < 0 for a positive definite I, a
failed solve or a step that does not descend is a ConvergenceError. The log
determinant the code length needs comes from a Cholesky factor at the
optimum, whose failure is a ConvergenceError too.

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
quantisation constant of 1/12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import ContingencyCounts, config_digits
from .errors import ConvergenceError

DEFAULT_SIGMA = 3.0
GRADIENT_TOL = 1e-8
MAX_NEWTON_ITERS = 200

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
    arities = tuple(parent_arities)
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
        if not np.isfinite(a).all() or any(
            not np.isfinite(b).all() for b in blocks
        ):
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
        parts = [self.a] + [b.ravel() for b in self.blocks]
        return np.concatenate(parts) if parts else np.zeros(0)


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(values))) along an axis of finite values, each line
    shifted by its maximum so that no exponential overflows."""
    peak = values.max(axis=axis, keepdims=True)
    shifted = values - peak
    np.exp(shifted, out=shifted)
    return np.log(shifted.sum(axis=axis)) + peak.squeeze(axis)


def predictive_log_probs(params: FomParams, parent_values: np.ndarray) -> np.ndarray:
    """Log child distributions, shape (n, r_y), at the rows of an (n, q)
    integer array of parent values."""
    logits = np.tile(params.a, (parent_values.shape[0], 1))
    for block, values in zip(params.blocks, parent_values.T):
        logits += block[:, values].T
    return logits - _logsumexp(logits, 1)[:, None]


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


def _prior_log_peak(child_arity: int, parent_arities, sigma: float) -> float:
    """Log density of the constrained Gaussian prior at zero: an isotropic
    Gaussian over the d free coordinates, times the factor for restricting
    the one over all raw entries to the constraint subspace."""
    log_r_y = math.log(child_arity)
    norm = 0.5 * log_r_y
    for r_i in parent_arities:
        norm += 0.5 * ((r_i - 1) * log_r_y + (child_arity - 1) * math.log(r_i))
    d = free_dimension(child_arity, parent_arities)
    return norm - d * (0.5 * _LOG_2PI + math.log(sigma))


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
        self.sigma = sigma
        self.r_y = counts.child_arity
        self.arities = counts.parent_arities
        self.dim = free_dimension(self.r_y, self.arities)
        self._counts = counts.counts.astype(float)
        self._totals = counts.config_totals.astype(float)
        digits = counts.config_digits
        self._q_y = contrast_matrix(self.r_y)
        self._design = np.hstack(
            [np.ones((digits.shape[0], 1))]
            + [contrast_matrix(r_i)[digits[:, i]] for i, r_i in enumerate(self.arities)]
        )
        # Child contrast pairs k <= l and the products of their columns, so
        # that p_c @ products gives (Q_y^T diag p_c Q_y)[k, l] for every pair.
        self._pairs = np.triu_indices(self.r_y - 1)
        k, l = self._pairs
        self._pair_products = self._q_y[:, k] * self._q_y[:, l]

    def probabilities(self, u: np.ndarray) -> np.ndarray:
        """Softmax child distributions at each observed configuration."""
        logits = self._design @ (u.reshape(-1, self.r_y - 1) @ self._q_y.T)
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return logits

    def _likelihood_gradient(self, probs: np.ndarray) -> np.ndarray:
        residual = self._totals[:, None] * probs - self._counts
        return (self._design.T @ (residual @ self._q_y)).ravel()

    def information_free(self, probs: np.ndarray) -> np.ndarray:
        """Ridged expected information in free coordinates.

        The information is sum_c n_c (x_c x_c^T) kron W_c with
        W_c = Q_y^T (diag p_c - p_c p_c^T) Q_y; entry (k, l) of every W_c
        weighs one Gram matrix of the design, which fills the (k, l) and
        (l, k) child-contrast slots of the matrix.
        """
        k, l = self._pairs
        projected = probs @ self._q_y
        weights = probs @ self._pair_products - projected[:, k] * projected[:, l]
        weights *= self._totals[:, None]
        d, r = self._design.shape[1], self.r_y - 1
        matrix = np.empty((d, r, d, r))
        for pair, (row, col) in enumerate(zip(k, l)):
            gram = self._design.T @ (self._design * weights[:, pair, None])
            matrix[:, row, :, col] = gram
            matrix[:, col, :, row] = gram
        matrix = matrix.reshape(d * r, d * r)
        matrix.flat[:: d * r + 1] += 1.0 / self.sigma**2
        return matrix

    def params(self, u: np.ndarray) -> FomParams:
        """Raw parameters of free coordinates u: a = Q_y alpha and
        b_i = Q_y B_i Q_{r_i}^T, with B_i^T the rows of theta for parent i."""
        theta = u.reshape(-1, self.r_y - 1)
        blocks = []
        start = 1
        for r_i in self.arities:
            effects = theta[start : start + r_i - 1]
            blocks.append(self._q_y @ effects.T @ contrast_matrix(r_i).T)
            start += r_i - 1
        return FomParams(self.r_y, self.arities, self._q_y @ theta[0], tuple(blocks))

    def negative_log_likelihood(self, probs: np.ndarray) -> float:
        if self._counts.size == 0:
            return 0.0
        return -float(np.sum(self._counts * np.log(probs)))

    def _value(self, u: np.ndarray, probs: np.ndarray) -> float:
        """The objective at u, given the probabilities at u."""
        quad = float(u @ u) / (2.0 * self.sigma**2)
        return self.negative_log_likelihood(probs) + quad

    def value(self, u: np.ndarray) -> float:
        return self._value(u, self.probabilities(u))

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self._likelihood_gradient(self.probabilities(u)) + u / self.sigma**2

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
        targets = (logs - logs[:, :1]) @ self._q_y
        weighted = self._design * self._totals[:, None]
        system = weighted.T @ self._design
        system.flat[:: system.shape[0] + 1] += 1.0 / self.sigma**2
        try:
            return np.linalg.solve(system, weighted.T @ targets).ravel()
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "information matrix is not positive definite"
            ) from None

    def fit(self):
        """Newton iteration from ``start``, each step backtracked until the
        objective does not rise; returns (u, probabilities at u)."""
        u = self.start()
        probs = self.probabilities(u)
        value = self._value(u, probs)
        for iteration in range(MAX_NEWTON_ITERS + 1):
            grad = self._likelihood_gradient(probs) + u / self.sigma**2
            if math.sqrt(float(grad @ grad)) <= GRADIENT_TOL:
                return u, probs
            if iteration == MAX_NEWTON_ITERS:
                raise ConvergenceError(
                    f"no convergence after {MAX_NEWTON_ITERS} Newton iterations",
                    self.params(u),
                )
            # A positive definite information gives a strict descent step, so
            # a failed solve or any other step (NaN included) shows it is not.
            try:
                step = np.linalg.solve(self.information_free(probs), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not float(grad @ step) < 0.0:
                raise ConvergenceError(
                    "information matrix is not positive definite", self.params(u)
                )
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
                raise ConvergenceError(
                    "line search failed to find a decrease", self.params(u)
                )
            u, probs, value = candidate, cand_probs, cand_value


def fit_fom_map(counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA) -> FomParams:
    """Posterior-mode parameters for one node's counts."""
    objective = FomObjective(counts, sigma)
    u, _ = objective.fit()
    return objective.params(u)


@dataclass(frozen=True, eq=False)
class FomScore:
    message_length: float  # nits
    free_dim: int
    map_params: FomParams


def fom_message_length(
    counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA
) -> FomScore:
    """Code length in nits of stating fitted effects and the data under them."""
    objective = FomObjective(counts, sigma)
    u, probs = objective.fit()
    d = objective.dim
    quad = float(u @ u) / (2.0 * sigma * sigma)
    length = (
        -_prior_log_peak(counts.child_arity, counts.parent_arities, sigma)
        + quad
        + 0.5 * _log_det(objective.information_free(probs))
        + objective.negative_log_likelihood(probs)
        + 0.5 * d * (1.0 - _LOG_12)
    )
    return FomScore(length, d, objective.params(u))
