"""Two-part code length of a node under a full conditional probability table.

The stated length is the adaptive-code form of the joint message: a fixed
quantisation penalty of (1/2) log(pi e / 6) per free parameter, plus the
negative log of the marginal likelihood of the counts under a uniform prior
over each configuration's child distribution. Configurations with no cases
contribute nothing, so only observed configurations need to be touched.

Every log-gamma argument of that likelihood is a positive integer, so each
is a lookup in one table of log k! (``math.lgamma(k + 1)``) that grows to
the largest argument seen so far. The logit floor keeps a sibling table of
k log k in ``fom`` (``_sum_x_log_x``), grown the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ContingencyCounts
from .errors import ParameterCapError

PARAMETER_CAP = 65000

_PENALTY_PER_PARAM = 0.5 * math.log(math.pi * math.e / 6.0)

_log_factorial_table = np.zeros(1)  # log k! at index k


def _log_factorials(top: int) -> np.ndarray:
    """The table of log k!, extended to cover k = 0 .. top if it is shorter."""
    global _log_factorial_table
    table = _log_factorial_table
    if top >= len(table):
        grown = np.fromiter(map(math.lgamma, range(len(table) + 1, top + 2)), float)
        table = _log_factorial_table = np.concatenate([table, grown])
    return table


@dataclass(frozen=True)
class FullCptScore:
    message_length: float  # nits
    free_params: int


def full_cpt_message_length(counts: ContingencyCounts) -> FullCptScore:
    """Code length in nits of stating a full table and the data under it."""
    r_y = counts.child_arity
    free = (r_y - 1) * counts.n_configs  # exact integer, may be huge
    if free >= PARAMETER_CAP:
        raise ParameterCapError(
            f"full table needs {free} free parameters (cap {PARAMETER_CAP})"
        )
    # Gamma(total + r_y) = (total + r_y - 1)!, and no count exceeds its total.
    shifted = counts.config_totals + (r_y - 1)
    table = _log_factorials(int(shifted.max(initial=0)))
    length = free * _PENALTY_PER_PARAM
    length += float(table[shifted].sum())
    length -= counts.n_observed * math.lgamma(r_y)
    # take lays the terms out row by row, (n_observed, r_y), though the counts
    # are held child-major: the sum adds them configuration by configuration
    length -= float(table.take(counts.counts).sum())
    return FullCptScore(length, int(free))


def full_cpt_predictive(counts: ContingencyCounts) -> np.ndarray:
    """Posterior-mean table: (count + 1) / (total + arity), rows sum to 1.

    Unseen configurations get the uniform distribution. The (n_configs,
    child arity) result is the transpose of a child-major array, so the
    totals sum across rows rather than along the short child axis.
    """
    table = counts.dense().T.astype(float, order="C")
    totals = table.sum(axis=0)
    totals += counts.child_arity
    table += 1.0
    table /= totals
    return table.T
