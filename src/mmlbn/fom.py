"""First-order conditional model: additive per-parent effects under a softmax.

The probability of child value k given parent values (w_1, ..., w_q) is
softmax over k of a_k + sum_i b_i[k, w_i]. Rows and columns of every effect
block sum to zero, as do the offsets a_k; those constraints pin down the
redundant softmax gauge, leaving (r_y - 1) * (1 + sum_i (r_i - 1)) free
dimensions. Fitting maximises the posterior under an isotropic Gaussian over
all raw entries, working in an orthonormal basis of the constraint subspace
so the constraints hold exactly by construction.

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
from scipy.linalg import cho_factor, cho_solve, null_space

from .dataset import ContingencyCounts, config_digits
from .errors import ConvergenceError

DEFAULT_SIGMA = 3.0
GRADIENT_TOL = 1e-8
MAX_NEWTON_ITERS = 200

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_12 = math.log(12.0)
_CONSTRAINT_TOL = 1e-8


def free_dimension(child_arity: int, parent_arities) -> int:
    """Dimension of the constraint subspace."""
    arities = tuple(parent_arities)
    if child_arity < 2 or any(r < 2 for r in arities):
        raise ValueError("arities must be at least 2")
    return (child_arity - 1) * (1 + sum(r - 1 for r in arities))


def _total_dim(child_arity: int, parent_arities) -> int:
    return child_arity * (1 + sum(parent_arities))


def _constraint_matrix(child_arity: int, parent_arities) -> np.ndarray:
    """Rows spanning the sum-to-zero constraints on the raw parameters.

    Raw layout: a occupies [0, r_y); block i occupies a contiguous span with
    entry (k, w) at offset k * r_i + w.
    """
    r_y = child_arity
    total = _total_dim(r_y, parent_arities)
    rows = [np.zeros(total)]
    rows[0][:r_y] = 1.0
    base = r_y
    for r_i in parent_arities:
        for w in range(r_i):
            row = np.zeros(total)
            row[base + w : base + r_y * r_i : r_i] = 1.0  # sum over k
            rows.append(row)
        for k in range(r_y):
            row = np.zeros(total)
            row[base + k * r_i : base + (k + 1) * r_i] = 1.0  # sum over w
            rows.append(row)
        base += r_y * r_i
    return np.vstack(rows)


@lru_cache(maxsize=512)
def constraint_basis(child_arity: int, parent_arities: tuple) -> np.ndarray:
    """Orthonormal basis of the constraint subspace, columns as directions."""
    basis = null_space(_constraint_matrix(child_arity, parent_arities))
    expected = free_dimension(child_arity, parent_arities)
    if basis.shape[1] != expected:
        raise RuntimeError(
            f"constraint null space has dimension {basis.shape[1]}, "
            f"expected {expected}"
        )
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

    def sum_of_squares(self) -> float:
        return float(self.a @ self.a) + sum(float((b * b).sum()) for b in self.blocks)

    def constraint_residual(self) -> float:
        """Largest absolute violation of the sum-to-zero constraints."""
        worst = abs(float(self.a.sum()))
        for b in self.blocks:
            worst = max(worst, float(np.abs(b.sum(axis=0)).max(initial=0.0)))
            worst = max(worst, float(np.abs(b.sum(axis=1)).max(initial=0.0)))
        return worst


def fom_probability(params: FomParams, parent_config: int) -> np.ndarray:
    """Child distribution at one parent configuration (mixed-radix index)."""
    digits = config_digits(parent_config, params.parent_arities)
    logits = params.a.copy()
    for block, w in zip(params.blocks, digits):
        logits += block[:, w]
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def _prior_log_norm(child_arity: int, parent_arities) -> float:
    """Log of the factor the constrained Gaussian prior's density carries for
    restricting an isotropic Gaussian to the constraint subspace."""
    log_r_y = math.log(child_arity)
    norm = 0.5 * log_r_y
    for r_i in parent_arities:
        norm += 0.5 * ((r_i - 1) * log_r_y + (child_arity - 1) * math.log(r_i))
    return norm


def fom_log_prior(params: FomParams, sigma: float = DEFAULT_SIGMA) -> float:
    """Log density of the constrained Gaussian prior at the parameters.

    The normaliser accounts for restricting an isotropic Gaussian over all
    raw entries to the constraint subspace; the quadratic term runs over
    every raw entry, redundant ones included.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if params.constraint_residual() > _CONSTRAINT_TOL:
        raise ValueError("parameters violate the sum-to-zero constraints")
    d = free_dimension(params.child_arity, params.parent_arities)
    return (
        _prior_log_norm(params.child_arity, params.parent_arities)
        - d * (0.5 * _LOG_2PI + math.log(sigma))
        - params.sum_of_squares() / (2.0 * sigma * sigma)
    )


class FomObjective:
    """Negative log posterior of one node's counts, in free coordinates.

    Free coordinates are weights of the orthonormal constraint-subspace
    basis; because the basis is orthonormal, the Gaussian quadratic term is
    just |u|^2 / (2 sigma^2) and constraint satisfaction is automatic.
    """

    def __init__(self, counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.counts = counts
        self.sigma = sigma
        self.r_y = counts.child_arity
        self.arities = counts.parent_arities
        self.basis = constraint_basis(self.r_y, self.arities)
        self.dim = self.basis.shape[1]
        self.total_dim = self.basis.shape[0]
        self._counts = counts.counts.astype(float)
        self._totals = counts.config_totals.astype(float)
        digits = counts.config_digits
        # Treat the offset vector as an effect block of arity 1 so that the
        # information matrix assembly can run one uniform double loop.
        n_obs = digits.shape[0]
        self._ext_arities = (1,) + self.arities
        self._ext_digits = [np.zeros(n_obs, dtype=np.int32)] + [
            digits[:, i] for i in range(len(self.arities))
        ]
        offsets = []
        base = 0
        for r_i in self._ext_arities:
            offsets.append(base)
            base += self.r_y * r_i
        self._ext_offsets = offsets

    # -- raw-parameter helpers -------------------------------------------

    def _probabilities_flat(self, flat: np.ndarray) -> np.ndarray:
        """Softmax child distributions at each observed configuration."""
        n_obs = self._counts.shape[0]
        logits = np.zeros((n_obs, self.r_y))
        for r_i, dig, off in zip(self._ext_arities, self._ext_digits, self._ext_offsets):
            block = flat[off : off + self.r_y * r_i].reshape(self.r_y, r_i)
            logits += block[:, dig].T
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return logits

    def _gradient_flat(self, probs: np.ndarray) -> np.ndarray:
        residual = self._totals[:, None] * probs - self._counts
        grad = np.zeros(self.total_dim)
        child_values = np.arange(self.r_y)
        for r_i, dig, off in zip(self._ext_arities, self._ext_digits, self._ext_offsets):
            # entry (k, w) of the block sums residual[:, k] over configurations
            # with digit w, at raw offset off + k*r_i + w
            idx = dig[:, None] + child_values * r_i
            grad[off : off + self.r_y * r_i] = np.bincount(
                idx.ravel(), weights=residual.ravel(), minlength=self.r_y * r_i
            )
        return grad

    def information_flat(self, probs: np.ndarray) -> np.ndarray:
        """Expected information of the raw parameters at given probabilities.

        Block (i, j) of the matrix groups the per-configuration multinomial
        weight matrices by the pair of parent digits; one bincount over
        (child-value pair, digit pair) cells does the grouping.
        """
        r_y = self.r_y
        weights = -probs[:, :, None] * probs[:, None, :]
        diag = np.arange(r_y)
        weights[:, diag, diag] += probs
        weights *= self._totals[:, None, None]
        flat_w = weights.ravel()
        value_pairs = np.arange(r_y * r_y)
        matrix = np.zeros((self.total_dim, self.total_dim))
        n_ext = len(self._ext_arities)
        for i in range(n_ext):
            r_i, dig_i, off_i = (
                self._ext_arities[i],
                self._ext_digits[i],
                self._ext_offsets[i],
            )
            for j in range(i, n_ext):
                r_j, dig_j, off_j = (
                    self._ext_arities[j],
                    self._ext_digits[j],
                    self._ext_offsets[j],
                )
                cells = r_i * r_j
                cell = dig_i.astype(np.int64) * r_j + dig_j
                idx = cell[:, None] + value_pairs * cells
                acc = np.bincount(
                    idx.ravel(), weights=flat_w, minlength=r_y * r_y * cells
                ).reshape(r_y * r_y, cells)
                # entry (k, w), (l, w2) of the block sits at raw offsets
                # off_i + k*r_i + w, off_j + l*r_j + w2
                block = (
                    acc.reshape(r_y, r_y, r_i, r_j)
                    .transpose(0, 2, 1, 3)
                    .reshape(r_y * r_i, r_y * r_j)
                )
                matrix[off_i : off_i + r_y * r_i, off_j : off_j + r_y * r_j] += block
                if i != j:
                    matrix[
                        off_j : off_j + r_y * r_j, off_i : off_i + r_y * r_i
                    ] += block.T
        return matrix

    # -- free-coordinate interface ---------------------------------------

    def params(self, u: np.ndarray) -> FomParams:
        return FomParams.from_flat(self.r_y, self.arities, self.basis @ u)

    def free_coordinates(self, params: FomParams) -> np.ndarray:
        return self.basis.T @ params.flatten()

    def negative_log_likelihood(self, probs: np.ndarray) -> float:
        if self._counts.size == 0:
            return 0.0
        return -float(np.sum(self._counts * np.log(probs)))

    def value(self, u: np.ndarray) -> float:
        probs = self._probabilities_flat(self.basis @ u)
        quad = float(u @ u) / (2.0 * self.sigma**2)
        return self.negative_log_likelihood(probs) + quad

    def gradient(self, u: np.ndarray) -> np.ndarray:
        probs = self._probabilities_flat(self.basis @ u)
        return self.basis.T @ self._gradient_flat(probs) + u / self.sigma**2

    def information_free(self, probs: np.ndarray) -> np.ndarray:
        """Ridged expected information in free coordinates."""
        inner = self.basis.T @ self.information_flat(probs) @ self.basis
        inner[np.diag_indices_from(inner)] += 1.0 / self.sigma**2
        return inner

    def fit(self):
        """Newton iteration from zero; returns (u, probabilities at u)."""
        u = np.zeros(self.dim)
        probs = self._probabilities_flat(self.basis @ u)
        value = self.negative_log_likelihood(probs)
        for _ in range(MAX_NEWTON_ITERS):
            grad = self.basis.T @ self._gradient_flat(probs) + u / self.sigma**2
            if np.linalg.norm(grad) <= GRADIENT_TOL:
                return u, probs
            matrix = self.information_free(probs)
            try:
                step = cho_solve(cho_factor(matrix), -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(matrix, -grad)
            # Slack at the rounding noise floor: near the optimum the true
            # decrease of a full step drops below evaluation noise, and a
            # strictly monotone test would stall with the gradient still
            # above tolerance.
            slack = 1e-12 * (1.0 + abs(value))
            scale = 1.0
            while scale >= 1e-12:
                candidate = u + scale * step
                cand_probs = self._probabilities_flat(self.basis @ candidate)
                cand_value = self.negative_log_likelihood(cand_probs) + float(
                    candidate @ candidate
                ) / (2.0 * self.sigma**2)
                if cand_value <= value + slack:
                    break
                scale *= 0.5
            else:
                raise ConvergenceError(
                    "line search failed to find a decrease", self.params(u)
                )
            u, probs, value = candidate, cand_probs, cand_value
        grad = self.basis.T @ self._gradient_flat(probs) + u / self.sigma**2
        if np.linalg.norm(grad) <= GRADIENT_TOL:
            return u, probs
        raise ConvergenceError(
            f"no convergence after {MAX_NEWTON_ITERS} Newton iterations",
            self.params(u),
        )


def fit_fom_map(counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA) -> FomParams:
    """Posterior-mode parameters for one node's counts."""
    objective = FomObjective(counts, sigma)
    u, _ = objective.fit()
    return objective.params(u)


def fisher_log_det(
    params: FomParams, counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA
) -> float:
    """Log determinant of the ridged expected information at the parameters.

    The value is invariant to the choice of orthonormal basis for the
    constraint subspace.
    """
    objective = FomObjective(counts, sigma)
    if (params.child_arity, params.parent_arities) != (
        counts.child_arity,
        counts.parent_arities,
    ):
        raise ValueError("parameter shape does not match the counts")
    probs = objective._probabilities_flat(params.flatten())
    sign, logdet = np.linalg.slogdet(objective.information_free(probs))
    if sign <= 0:
        raise ConvergenceError("information matrix is not positive definite")
    return float(logdet)


@dataclass(frozen=True, eq=False)
class FomScore:
    message_length: float  # nits
    free_dim: int
    map_params: FomParams
    fisher_log_det: float


def fom_message_length(
    counts: ContingencyCounts, sigma: float = DEFAULT_SIGMA
) -> FomScore:
    """Code length in nits of stating fitted effects and the data under them."""
    objective = FomObjective(counts, sigma)
    u, probs = objective.fit()
    d = objective.dim
    quad = float(u @ u) / (2.0 * sigma * sigma)
    sign, logdet = np.linalg.slogdet(objective.information_free(probs))
    if sign <= 0:
        raise ConvergenceError("information matrix is not positive definite")
    length = (
        d * (0.5 * _LOG_2PI + math.log(sigma))
        - _prior_log_norm(counts.child_arity, counts.parent_arities)
        + quad
        + 0.5 * float(logdet)
        + objective.negative_log_likelihood(probs)
        + 0.5 * d * (1.0 - _LOG_12)
    )
    return FomScore(length, d, objective.params(u), float(logdet))
