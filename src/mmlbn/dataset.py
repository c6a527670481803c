"""Categorical datasets, train/test splitting, and contingency counts.

Values are stored as small integer codes per variable, assigned in order of
first appearance in the source file. Contingency counts keep only the parent
configurations that actually occur in the data; every configuration that never
occurs contributes nothing to any code length computed downstream, so nothing
is lost by not materialising the full table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    DataFormatError,
    DegenerateVariableError,
    MissingValueError,
)

MISSING_TOKEN = "?"

# Dense tables above this many cells are refused outright.
MAX_DENSE_CELLS = 1 << 22


@dataclass(frozen=True)
class VariableMeta:
    """Name, arity and category labels of one discrete variable."""

    name: str
    arity: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.arity < 2:
            raise DegenerateVariableError(
                f"variable {self.name!r} has arity {self.arity}; need at least 2"
            )
        if len(self.labels) != self.arity:
            raise DataFormatError(
                f"variable {self.name!r}: {len(self.labels)} labels for arity {self.arity}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise DataFormatError(f"variable {self.name!r} has duplicate labels")


@dataclass(frozen=True, eq=False)
class DiscreteDataset:
    """A table of categorical cases with per-variable metadata."""

    variables: tuple[VariableMeta, ...]
    rows: np.ndarray  # (n_cases, n_variables) int32, read-only

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int32)
        if rows.ndim != 2 or rows.shape[1] != len(self.variables):
            raise DataFormatError(
                f"row array of shape {rows.shape} does not match "
                f"{len(self.variables)} variables"
            )
        for i, var in enumerate(self.variables):
            col = rows[:, i]
            if col.size and (col.min() < 0 or col.max() >= var.arity):
                raise DataFormatError(
                    f"column {var.name!r} holds codes outside [0, {var.arity})"
                )
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_cases(self) -> int:
        return self.rows.shape[0]

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(v.arity for v in self.variables)

    def arity(self, index: int) -> int:
        return self.variables[index].arity

    @cached_property
    def columns(self) -> np.ndarray:
        """The codes as one contiguous int64 row per variable, (n_variables,
        n_cases), made on the first read: tallies read whole columns."""
        columns = np.ascontiguousarray(self.rows.T, dtype=np.int64)
        columns.flags.writeable = False
        return columns

    def subset(self, row_indices) -> "DiscreteDataset":
        """New dataset holding the selected rows; metadata is shared."""
        return DiscreteDataset(self.variables, self.rows[np.asarray(row_indices)])


def load_csv(path, missing_policy: str = "extra-category") -> DiscreteDataset:
    """Read a comma-separated file with one header row.

    Category codes are assigned in order of first appearance, column by
    column. The token "?" marks a missing value: under "extra-category" it
    becomes a category of its own, under "reject" it raises.
    """
    if missing_policy not in ("extra-category", "reject"):
        raise ValueError(f"unknown missing policy {missing_policy!r}")
    return _read_csv(path, None, missing_policy == "reject")


def load_csv_with_labels(path, variables: tuple[VariableMeta, ...]) -> DiscreteDataset:
    """Read a file using an existing dataset's label-to-code mapping.

    Used to align a held-out test file with its training data. The header
    must name the training columns in the same order, and tokens that the
    training data never produced are rejected.
    """
    return _read_csv(path, variables, False)


def _read_csv(path, variables, reject_missing: bool) -> DiscreteDataset:
    """Code a CSV file one record at a time through one dict per column.

    Without `variables` a new token gets the next code of its column; with
    them the header must repeat their names, the dicts hold their labels and
    a token outside them raises.
    Empty records (blank lines) are skipped, before the header too, but line
    numbers in errors count them: they count CSV records from 1. A record
    csv cannot read, or a file that is not UTF-8, raises DataFormatError too.
    """
    lineno = 0  # the last record read
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = enumerate(csv.reader(fh), start=1)
            for lineno, header in records:
                if header:
                    break
            else:
                raise DataFormatError(f"{path}: empty file")
            names = [h.strip() for h in header]
            m = len(names)
            if variables is None:
                codes: list[dict[str, int]] = [{} for _ in range(m)]
            elif m != len(variables):
                raise DataFormatError(f"{path}: {m} columns, expected {len(variables)}")
            else:
                for k, (name, v) in enumerate(zip(names, variables), start=1):
                    if name != v.name:
                        raise DataFormatError(
                            f"{path}: column {k} is named {name!r}, expected {v.name!r}"
                        )
                codes = [dict(zip(v.labels, range(v.arity))) for v in variables]
            data: list[int] = []  # every code, record after record
            for lineno, row in records:
                if not row:
                    continue
                if len(row) != m:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {m} fields, found {len(row)}"
                    )
                for i, token in enumerate(row):
                    token = token.strip()
                    if reject_missing and token == MISSING_TOKEN:
                        raise MissingValueError(
                            f"{path}:{lineno}: missing value in column {names[i]!r}"
                        )
                    try:
                        data.append(codes[i][token])
                    except KeyError:
                        if variables is not None:
                            raise DataFormatError(
                                f"{path}:{lineno}: unknown value {token!r} in column "
                                f"{names[i]!r}"
                            ) from None
                        data.append(codes[i].setdefault(token, len(codes[i])))
    except csv.Error as err:  # a field over csv's size limit, say
        raise DataFormatError(f"{path}:{lineno + 1}: {err}") from None
    except UnicodeDecodeError as err:  # decoded in blocks: no record to name
        raise DataFormatError(f"{path}: not UTF-8 text ({err.reason})") from None
    if not data:
        raise DataFormatError(f"{path}: no data rows")
    if variables is None:
        for name, table in zip(names, codes):
            if len(table) < 2:
                raise DegenerateVariableError(
                    f"{path}: column {name!r} has a single distinct value"
                )
        variables = tuple(
            VariableMeta(name, len(table), tuple(table))  # first-appearance order
            for name, table in zip(names, codes)
        )
    rows = np.array(data, dtype=np.int32).reshape(-1, m)
    return DiscreteDataset(variables, rows)


def split_train_test(ds: DiscreteDataset, test_fraction: float, seed: int):
    """Random split into (train, test); test size is round(N * test_fraction).

    Halves are rounded up. Both parts must end up non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = ds.n_cases
    if math.floor(n * test_fraction) < 1:
        raise ValueError("test split would be empty")
    n_test = math.floor(n * test_fraction + 0.5)
    if n - n_test < 1:
        raise ValueError("train split would be empty")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.subset(train_idx), ds.subset(test_idx)


def config_index(digits, parent_arities) -> int:
    """Mixed-radix index of one parent configuration (exact integer)."""
    arities = tuple(parent_arities)
    if len(digits) != len(arities):
        raise ValueError("digit count does not match parent count")
    index = 0
    for d, r in zip(digits, arities):
        d = int(d)
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for arity {r}")
        index = index * r + d
    return index


def config_digits(index, parent_arities) -> tuple[int, ...]:
    """Inverse of config_index."""
    arities = tuple(parent_arities)
    index = int(index)
    total = math.prod(arities)
    if not 0 <= index < max(total, 1):
        raise ValueError(f"configuration index {index} out of range")
    digits = [0] * len(arities)
    for i in range(len(arities) - 1, -1, -1):
        index, digits[i] = divmod(index, arities[i])
    return tuple(digits)


def _rows_strictly_increase(digits: np.ndarray) -> bool:
    """True when each row is lexicographically above the one before it."""
    if digits.shape[1] == 0:  # every row is the one empty configuration
        return False
    step = np.diff(digits, axis=0)
    first = np.argmax(step != 0, axis=1)
    return bool((step[np.arange(step.shape[0]), first] > 0).all())


@dataclass(frozen=True, eq=False)
class ContingencyCounts:
    """Child-value counts per observed parent configuration.

    config_digits holds the observed configurations as rows of parent values,
    sorted lexicographically (equivalently: ascending mixed-radix index, first
    parent most significant). counts[row, k] is the number of cases with the
    child at value k under that configuration.
    """

    child_arity: int
    parent_arities: tuple[int, ...]
    config_digits: np.ndarray  # (n_observed, n_parents) int32
    counts: np.ndarray  # (n_observed, child_arity) int64

    def __post_init__(self):
        digits = np.array(self.config_digits, dtype=np.int32)
        counts = np.array(self.counts, dtype=np.int64)
        if digits.ndim != 2 or digits.shape[1] != len(self.parent_arities):
            raise ValueError("configuration array shape mismatch")
        if counts.shape != (digits.shape[0], self.child_arity):
            raise ValueError("count array shape mismatch")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        for j, r in enumerate(self.parent_arities):
            col = digits[:, j]
            if col.size and (col.min() < 0 or col.max() >= r):
                raise ValueError(f"parent digit out of range for arity {r}")
        if digits.shape[0] > 1 and not _rows_strictly_increase(digits):
            raise ValueError(
                "parent configurations must be distinct and sorted lexicographically"
            )
        digits.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "config_digits", digits)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "parent_arities", tuple(self.parent_arities))

    @classmethod
    def _trusted(cls, child_arity, parent_arities, config_digits, counts):
        """Counts from arrays already known to hold the shape, dtypes, ranges
        and row order the constructor checks: a tally that kept its own
        rules. Skips __post_init__ and freezes the arrays in place."""
        config_digits.flags.writeable = False
        counts.flags.writeable = False
        tally = object.__new__(cls)
        object.__setattr__(tally, "child_arity", child_arity)
        object.__setattr__(tally, "parent_arities", parent_arities)
        object.__setattr__(tally, "config_digits", config_digits)
        object.__setattr__(tally, "counts", counts)
        return tally

    @property
    def n_parents(self) -> int:
        return len(self.parent_arities)

    @property
    def n_observed(self) -> int:
        return self.config_digits.shape[0]

    @property
    def n_configs(self) -> int:
        """Total number of parent configurations (exact integer)."""
        return math.prod(self.parent_arities)

    @property
    def config_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def n_cases(self) -> int:
        return int(self.counts.sum())

    def dense(self) -> np.ndarray:
        """Full (n_configs, child_arity) table, zeros for unseen configs."""
        cells = self.n_configs * self.child_arity
        if cells > MAX_DENSE_CELLS:
            raise CapacityError(f"dense table would need {cells} cells")
        index = np.zeros(self.n_observed, dtype=np.int64)  # first parent most significant
        for digit, r in zip(self.config_digits.T, self.parent_arities):
            index = index * r + digit
        table = np.zeros((self.n_configs, self.child_arity), dtype=np.int64)
        table[index] = self.counts
        return table

    @classmethod
    def from_dense(cls, child_arity, parent_arities, table) -> "ContingencyCounts":
        """Build from a full table indexed by mixed-radix configuration."""
        parent_arities = tuple(parent_arities)
        table = np.asarray(table, dtype=np.int64)
        n_configs = math.prod(parent_arities)
        if table.shape != (n_configs, child_arity):
            raise ValueError(
                f"table shape {table.shape} does not match "
                f"({n_configs}, {child_arity})"
            )
        observed = np.flatnonzero(table.sum(axis=1) > 0)
        digits = np.array(
            [config_digits(i, parent_arities) for i in observed], dtype=np.int32
        ).reshape(len(observed), len(parent_arities))
        return cls(child_arity, parent_arities, digits, table[observed])


def counts_for(ds: DiscreteDataset, child: int, parents) -> ContingencyCounts:
    """Tally child values against each observed parent configuration.

    Each case gets one int64 key: its configuration's mixed-radix index with
    the first parent most significant, so ascending keys are exactly the
    lexicographic row order ContingencyCounts requires. One bincount tallies
    the cases into the dense (radix, r_y) table of every possible key, and
    the rows with cases are the observed configurations, in order. Before
    the running radix would pass the number of cases, the key so far is
    replaced by its rank among the distinct keys; ranks keep the order, so
    the table never has more than n * (largest parent arity) rows and wide
    arities stay exact. Without a re-rank a row is its configuration's index,
    and its digits are read off the index; after one, from any case that has
    the configuration.
    """
    parents = tuple(int(p) for p in parents)
    m = ds.n_variables
    if not 0 <= child < m:
        raise ValueError(f"child index {child} out of range")
    if any(not 0 <= p < m for p in parents):
        raise ValueError("parent index out of range")
    if len(set(parents)) != len(parents):
        raise ValueError("duplicate parent indices")
    if child in parents:
        raise ValueError("child cannot be its own parent")
    r_y = ds.arity(child)
    parent_arities = tuple(ds.arity(p) for p in parents)
    columns = ds.columns
    n = ds.n_cases
    key = np.zeros(n, dtype=np.int64)
    radix = 1  # keys lie in [0, radix)
    reranked = False
    for p, r in zip(parents, parent_arities):
        if radix * r > n:
            distinct, key = np.unique(key, return_inverse=True)
            radix, reranked = len(distinct), True
        key = key * r + columns[p]
        radix *= r
    table = np.bincount(key * r_y + columns[child], minlength=radix * r_y)
    table = table.reshape(radix, r_y)
    observed = np.flatnonzero(table.any(axis=1))
    if reranked:
        case = np.empty(radix, dtype=np.intp)
        case[key] = np.arange(n)
        digits = ds.rows[case[observed]][:, list(parents)]
    else:
        digits = np.empty((len(observed), len(parents)), dtype=np.int32)
        index = observed
        for i in range(len(parents) - 1, -1, -1):
            index, digits[:, i] = np.divmod(index, parent_arities[i])
    return ContingencyCounts._trusted(r_y, parent_arities, digits, table[observed])
