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
so one product X^T (X * w), with w holding every pair k <= l's weights side
by side, gives the Gram matrices of all pairs at once as a (D, D, pairs)
stack, and one gather through an index layout kept per (D, r_y) places the
stack in the matrix. The product is summed over blocks of at most
``INFORMATION_BLOCK_ROWS`` configurations, so its temporaries stay the same
size however many configurations a node has. The ridge makes the matrix
positive definite. A Newton step factors it once, in a numpy solve; as
grad @ step = -grad^T I^-1 grad < 0 for a positive definite I, a failed
solve or a step that does not descend is a ConvergenceError. The log
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
quantisation constant of 1/12. ``_logit_length`` is its one statement, and
the fit-free floor evaluates it at its fitted terms' least values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dataset import ContingencyCounts, config_digits
from .errors import ConvergenceError, ParameterCapError

DEFAULT_SIGMA = 3.0
# Free dimensions at which a logit model is refused. On 3000 random rows a
# 990-dimension fit took 0.48 s and a 61 MB traced peak, a 1953-dimension
# one 2.55 s and 279 MB.
PARAMETER_CAP = 1000
GRADIENT_TOL = 1e-8
MAX_NEWTON_ITERS = 200
# Configurations per product in information_free: its temporaries take
# about INFORMATION_BLOCK_ROWS * D * pairs floats, whatever the node's size.
INFORMATION_BLOCK_ROWS = 512

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


@lru_cache(maxsize=64)
def _child_constants(child_arity: int):
    """Q_y, its transpose, the child contrast pairs k <= l, and the products
    of their columns, so that p_c @ products gives (Q_y^T diag p_c Q_y)[k, l]
    for every pair."""
    q_y = contrast_matrix(child_arity)
    k, l = np.triu_indices(child_arity - 1)
    products = q_y[:, k] * q_y[:, l]
    q_y_t = np.ascontiguousarray(q_y.T)
    for array in (k, l, products, q_y_t):
        array.flags.writeable = False
    return q_y, q_y_t, k, l, products


@lru_cache(maxsize=256)
def _information_layout(d: int, child_arity: int) -> np.ndarray:
    """Where each entry of the (d (r_y - 1))^2 information sits in the
    flattened (d, d, pairs) stack of Gram matrices: entry (i (r_y - 1) + k,
    j (r_y - 1) + l) reads Gram matrix pair(k, l) at (i, j)."""
    r = child_arity - 1
    k, l = _child_constants(child_arity)[2:4]
    pair = np.empty((r, r), dtype=np.intp)
    pair[k, l] = pair[l, k] = np.arange(k.size)
    rows = np.arange(d)
    layout = (rows[:, None, None, None] * d + rows[:, None]) * k.size + pair[:, None, :]
    layout = layout.reshape(d * r, d * r)
    layout.flags.writeable = False
    return layout


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
    counts: ContingencyCounts, sigma: float, quad: float, log_det: float, nll: float
) -> float:
    """The logit code length in nits: -log prior peak + quad
    + (1/2) log det I_sigma + NLL + (d/2)(1 - log 12), with quad |u|^2 /
    (2 sigma^2), I_sigma the ridged information, d the free dimension and the
    prior's log peak norm - d ((1/2) log 2 pi + log sigma)."""
    d = free_dimension(counts.child_arity, counts.parent_arities)
    norm = _prior_log_normaliser(counts.child_arity, counts.parent_arities)
    neg_log_peak = d * (0.5 * _LOG_2PI + math.log(sigma)) - norm
    return neg_log_peak + quad + 0.5 * log_det + nll + 0.5 * d * (1.0 - _LOG_12)


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
        self._ridge = 1.0 / (sigma * sigma)
        self.r_y = counts.child_arity
        self.arities = counts.parent_arities
        self.dim = free_dimension(self.r_y, self.arities)
        if self.dim >= PARAMETER_CAP:
            raise ParameterCapError(
                f"logit model needs {self.dim} free parameters (cap {PARAMETER_CAP})"
            )
        self._counts = counts.counts.astype(float)
        self._totals = self._counts.sum(axis=1)
        digits = counts.config_digits
        self._design = np.hstack(
            [np.ones((digits.shape[0], 1))]
            + [contrast_matrix(r_i)[digits[:, i]] for i, r_i in enumerate(self.arities)]
        )
        self._q_y, self._q_y_t, k, l, self._pair_products = _child_constants(self.r_y)
        self._pairs = k, l
        self._counts_q = self._counts @ self._q_y

    def probabilities(self, u: np.ndarray) -> np.ndarray:
        """Softmax child distributions at each observed configuration."""
        logits = self._design @ (u.reshape(-1, self.r_y - 1) @ self._q_y_t)
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return logits

    def _gradient(self, u: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """The objective's gradient at u, given the probabilities at u."""
        residual = self._totals[:, None] * (probs @ self._q_y)
        residual -= self._counts_q
        return (self._design.T @ residual).ravel() + self._ridge * u

    def information_free(self, probs: np.ndarray) -> np.ndarray:
        """Ridged expected information in free coordinates.

        The information is sum_c n_c (x_c x_c^T) kron W_c with
        W_c = Q_y^T (diag p_c - p_c p_c^T) Q_y. Entry (k, l) of every W_c
        weighs one Gram matrix of the design, and one product per block of
        configurations, X^T (X * w) with the weights of all pairs k <= l
        side by side, adds to all of them; the (D, D, pairs) stack then
        fills the (k, l) and (l, k) child-contrast slots in one gather.
        """
        k, l = self._pairs
        design = self._design
        n, d = design.shape
        grams = np.zeros((d, d * k.size))
        for start in range(0, n, INFORMATION_BLOCK_ROWS):
            stop = start + INFORMATION_BLOCK_ROWS
            block, p = design[start:stop], probs[start:stop]
            projected = p @ self._q_y
            weights = p @ self._pair_products - projected[:, k] * projected[:, l]
            weights *= self._totals[start:stop, None]
            weighted = block[:, :, None] * weights[:, None, :]
            grams += block.T @ weighted.reshape(len(block), -1)
        matrix = np.take(grams, _information_layout(d, self.r_y))
        matrix.ravel()[:: self.dim + 1] += self._ridge
        return matrix

    def params(self, u: np.ndarray) -> FomParams:
        """Raw parameters of free coordinates u."""
        return _params_from_free(self.r_y, self.arities, u)

    def negative_log_likelihood(self, probs: np.ndarray) -> float:
        return -float((self._counts * np.log(probs)).sum())

    def _value(self, u: np.ndarray, probs: np.ndarray) -> float:
        """The objective at u, given the probabilities at u."""
        quad = 0.5 * self._ridge * float(u @ u)
        return self.negative_log_likelihood(probs) + quad

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
        targets = (logs - logs[:, :1]) @ self._q_y
        weighted = self._design * self._totals[:, None]
        system = weighted.T @ self._design
        system.flat[:: system.shape[0] + 1] += self._ridge
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
            grad = self._gradient(u, probs)
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
    u, probs = objective.fit()
    quad = float(u @ u) / (2.0 * sigma * sigma)
    log_det = _log_det(objective.information_free(probs))
    nll = objective.negative_log_likelihood(probs)
    length = _logit_length(counts, sigma, quad, log_det, nll)
    u.flags.writeable = False
    return FomScore(length, objective.dim, objective.r_y, objective.arities, u)


def _sum_x_log_x(values: np.ndarray) -> float:
    """Sum of x log x over an integer array, 0 log 0 read as 0."""
    positive = values[values > 0].astype(float)
    return float((positive * np.log(positive)).sum())


def fom_length_floor(counts: ContingencyCounts) -> float:
    """A lower bound on ``fom_message_length(counts, sigma).message_length``
    for every sigma, from the counts alone: no fit.

    It is ``_logit_length`` at the least value of each fitted term. quad
    >= 0. No model's NLL is below the saturated one, which gives each
    observed configuration its empirical child distribution:
    NLL >= sum_c n_c log n_c - sum_{c,k} n_ck log n_ck. I_sigma is a positive
    semidefinite matrix plus I / sigma^2, so log det I_sigma >= -2 d log
    sigma, whose d log sigma cancels that of -log peak: priced at sigma = 1,
    both vanish.

    The bound is tight without cases, where the optimum is zero and the
    information is the ridge alone, so a rounding guard is subtracted: 1e-9
    of the terms compared, far above their float error.
    """
    d = free_dimension(counts.child_arity, counts.parent_arities)
    norm = _prior_log_normaliser(counts.child_arity, counts.parent_arities)
    scale = _sum_x_log_x(counts.config_totals)  # the largest of the NLL terms
    saturated = scale - _sum_x_log_x(counts.counts)
    floor = _logit_length(counts, 1.0, 0.0, 0.0, saturated)
    return floor - 1e-9 * (1.0 + scale + norm + d)
