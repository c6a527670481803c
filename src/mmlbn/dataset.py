"""Categorical datasets, train/test splitting, and contingency counts.

Values are stored as small integer codes per variable, assigned in order of
first appearance in the source file. Contingency counts keep only the parent
configurations that actually occur in the data; every configuration that never
occurs contributes nothing to any code length computed downstream, so nothing
is lost by not materialising the full table.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    DataFormatError,
    DegenerateVariableError,
    MissingValueError,
    as_index,
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
        arity = as_index(self.arity, f"variable {self.name!r}: arity", DataFormatError)
        object.__setattr__(self, "arity", arity)
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
        object.__setattr__(self, "variables", tuple(self.variables))
        rows = np.asarray(self.rows)  # checked before the int32 cast truncates or wraps
        if rows.size and rows.dtype.kind not in "biu":
            raise DataFormatError(f"codes must be integers; got dtype {rows.dtype}")
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
        rows = rows.astype(np.int32)
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


# Characters of whole lines read per chunk after the header.
_CHUNK_CHARS = 1 << 16
# The keys of a chunk may take at most this many bytes per byte of the chunk,
# counted in 8-byte words; a chunk of mostly empty fields goes to csv.
_KEY_BYTES_PER_BYTE = 4
# The ASCII characters str.strip removes.
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])
# _MASKS[k] keeps the low k bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Even, so that each word of a wide token is multiplied by an odd number.
_FOLD = np.uint64(0x9E3779B97F4A7C16)


def _read_csv(
    path, variables, reject_missing: bool, *, plain_chunks=True
) -> DiscreteDataset:
    """Code a CSV file through one dict per column.

    Without `variables` a new token gets the next code of its column; with
    them the header must repeat their names, the dicts hold their labels and
    a token outside them raises.
    Empty records (blank lines) are skipped, before the header too, but line
    numbers in errors count them: they count CSV records from 1. A record
    csv cannot read, or a file that is not UTF-8, raises DataFormatError too.

    After the header the file is read in chunks of whole lines, and each
    chunk that `_code_plain_chunk` can code is coded by numpy, with the codes
    the record loop would give: its tokens are keyed by integers and looked
    up in each column's `_LabelKeys`, which holds the dict's labels and grows
    with it, a chunk at a time. From the first chunk it refuses, the record
    loop reads the rest of the file; it alone raises the errors. Chunks are
    decoded ahead of the record loop, so text that is not UTF-8 reruns the
    record loop alone on the whole file: it names a bad record that comes
    before the bad text.
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
            known = [_LabelKeys().plus(list(table)) for table in codes]
            blocks = []  # (records, m) codes of the chunks numpy coded
            lines = fh.readlines(_CHUNK_CHARS) if plain_chunks else []
            while lines:
                block = _code_plain_chunk(
                    "".join(lines), m, codes, known, variables is None, reject_missing
                )
                if block is None:
                    break
                blocks.append(block)
                lineno += len(block)
                lines = fh.readlines(_CHUNK_CHARS)
            data: list[int] = []  # every later code, record after record
            records = enumerate(csv.reader(itertools.chain(lines, fh)), lineno + 1)
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
        if plain_chunks:
            return _read_csv(path, variables, reject_missing, plain_chunks=False)
        raise DataFormatError(f"{path}: not UTF-8 text ({err.reason})") from None
    blocks.append(np.array(data, dtype=np.int32).reshape(-1, m))
    rows = np.concatenate(blocks)
    if not len(rows):
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
    return DiscreteDataset(variables, rows)


def _code_plain_chunk(text, m, codes, known, grow, reject_missing):
    """The (records, m) int32 codes of a chunk of whole lines, or None.

    A chunk is plain when it is ASCII with no quote or NUL, each carriage
    return is followed by a newline or ends the chunk, every line holds m
    fields (so none is blank), no field passes csv's size limit and the keys
    stay small. Then each line is one record, and its fields are the runs
    between commas, stripped as str.strip does.
    A field's words are its bytes as little-endian 8-byte words, zeroed
    past its width; a token holds no NUL, so tokens with the same words are
    the same. Every field's first word is read at once, through one
    unaligned view of the chunk, and is its key; a field wider than 8 bytes
    is keyed by all its words (`_fold`). Each column looks its fields' keys
    up in its `known` labels and checks each field's width, and a wider
    field's words, against its label's. Keys that miss are new labels:
    their first appearances extend `codes` and `known` as the record loop
    would. A chunk that is not plain, holds "?" under `reject_missing`,
    holds a field unlike its key's label, or without `grow` holds a token
    outside `codes`, is refused before `codes` or `known` changes.
    """
    if not text.isascii() or '"' in text or "\0" in text:
        return None
    # The file's last line may have no end, and the chunk's may end in a lone
    # "\r": csv ends a record there as it does at "\r\n".
    if not text.endswith("\n"):
        text += "\n"
    data = text.encode("ascii") + bytes(8)  # a word read at the last byte
    buf = np.frombuffer(data, dtype=np.uint8, count=len(text))
    returns = np.flatnonzero(buf == ord("\r"))
    if (buf[returns + 1] != ord("\n")).any():
        return None
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    line_ends = buf[ends] == ord("\n")
    n = np.count_nonzero(line_ends)
    if len(ends) != n * m or not line_ends.reshape(n, m)[:, -1].all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(n, m)
    ends = ends.reshape(n, m)
    if len(returns):  # a CRLF line's last field ends before its "\r"
        ends[:, -1] -= buf[ends[:, -1] - 1] == ord("\r")
    widths = ends - starts
    if widths.max() > csv.field_size_limit() or (m == 1 and not widths.all()):
        return None
    if np.count_nonzero(buf <= ord(" ")) > n + len(returns):  # a token to strip
        solid = np.flatnonzero(~_ASCII_SPACE[buf])
        solid = np.concatenate(([-1], solid, [len(buf)]))
        starts = np.minimum(solid[np.searchsorted(solid, starts)], ends)
        ends = np.maximum(solid[np.searchsorted(solid, ends) - 1] + 1, starts)
        widths = ends - starts
    del ends  # (records, m) index arrays are the chunk's largest: keep few
    starts = starts.T.copy()  # column after column
    widths = widths.T.copy()
    # Every field's first word, read at once; a key of 63 is the token "?".
    view = np.ndarray(len(buf), dtype="<u8", buffer=data, strides=(1,))
    keys = view.take(starts)
    keys &= _MASKS[np.minimum(widths, 8)]
    if reject_missing and (keys == ord(MISSING_TOKEN)).any():
        return None
    # A wider field's key folds all its words.
    wide = np.flatnonzero(widths > 8)
    cols, rows = np.divmod(wide, n)
    wide_widths = widths[cols, rows]
    counts = (wide_widths + 7) // 8
    if 8 * (keys.size + int(counts.sum()) - len(wide)) > _KEY_BYTES_PER_BYTE * len(buf):
        return None
    words, first, index = _words(view, starts[cols, rows], wide_widths)
    keys[cols, rows] = _fold(words, first, index)
    row = np.repeat(rows, counts)  # each word's record
    bounds = np.append(first, len(words))[np.searchsorted(wide, np.arange(m + 1) * n)]
    bounds = bounds.tolist()  # where each column's words begin
    block = np.empty((m, n), dtype=np.int32)
    grown = []
    for c, labels in enumerate(known):
        code, hit = labels.find(keys[c])
        tokens = []
        if not hit.all():
            if not grow:
                return None
            miss = np.flatnonzero(~hit)
            _, at, inverse = np.unique(
                keys[c, miss], return_index=True, return_inverse=True
            )
            order = np.argsort(at)  # new labels in order of first appearance
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            code[miss] = len(codes[c]) + rank[inverse]
            at = miss[at[order]]
            spans = zip(starts[c, at].tolist(), widths[c, at].tolist())
            tokens = [text[i : i + w] for i, w in spans]
            labels = labels.plus(tokens)
        # Keys may be shared: each field must have its label's width, and a
        # wider field its label's words.
        part = slice(bounds[c], bounds[c + 1])
        if not (labels.width[code] == widths[c]).all() or not (
            labels.words[labels.first[code[row[part]]] + index[part]] == words[part]
        ).all():
            return None
        block[c] = code
        grown.append((labels, tokens))
    for c, (labels, tokens) in enumerate(grown):
        known[c] = labels
        codes[c].update(zip(tokens, range(len(codes[c]), len(codes[c]) + len(tokens))))
    return block.T


def _words(view, starts, widths):
    """(words, first, index) of tokens widths[k] bytes long from starts[k].

    view[i] is the little-endian word at byte i of a zero-padded buffer. A
    token's words, at least one, are zeroed past its width; first[k] is its
    first word and index[j] word j's place in its token.
    """
    counts = np.maximum(-(-widths // 8), 1)
    first = np.cumsum(counts) - counts
    index = np.arange(counts.sum()) - np.repeat(first, counts)
    words = view.take(np.repeat(starts, counts) + 8 * index)
    words &= _MASKS[np.minimum(np.repeat(widths, counts) - 8 * index, 8)]
    return words, first, index


def _fold(words, first, index):
    """One uint64 lookup key per token from its words: the XOR of word i
    times 1 + i * _FOLD, so a token of one word is its own key. Wider tokens
    may share a key, so a lookup is checked against the label's words."""
    if not len(first):  # no token: nothing for reduceat to index
        return words
    return np.bitwise_xor.reduceat(words * (index.astype(np.uint64) * _FOLD + 1), first)


class _LabelKeys:
    """One column's known labels, as a plain chunk looks its tokens up.

    `keys` holds the sorted keys (`_fold`) of the labels a plain token can
    be, ASCII without NUL, and `codes` the code of each. Code c's label is
    width[c] bytes long, -1 for one no plain token can be, and its words
    (`_words`) begin at words[first[c]].
    """

    def __init__(self):
        self.keys = np.empty(0, dtype=np.uint64)
        self.codes = np.empty(0, dtype=np.intp)
        self.width = np.empty(0, dtype=np.intp)
        self.words = np.empty(0, dtype=np.uint64)
        self.first = np.empty(0, dtype=np.intp)

    def plus(self, labels) -> "_LabelKeys":
        """A copy that also holds `labels`, as the next codes in order."""
        plain = [label.isascii() and "\0" not in label for label in labels]
        text = [label.encode("ascii") for label, p in zip(labels, plain) if p]
        widths = np.array([len(t) for t in text], dtype=np.intp)
        data = b"".join(text) + bytes(8)
        view = np.ndarray(len(data) - 7, dtype="<u8", buffer=data, strides=(1,))
        words, first, index = _words(view, np.cumsum(widths) - widths, widths)
        codes = len(self.width) + np.flatnonzero(plain)
        new = _LabelKeys()
        keys = np.concatenate([self.keys, _fold(words, first, index)])
        order = np.argsort(keys)
        new.keys = keys[order]
        new.codes = np.concatenate([self.codes, codes])[order]
        new.width = np.concatenate([self.width, np.full(len(labels), -1, dtype=np.intp)])
        new.width[codes] = widths
        new.first = np.concatenate([self.first, np.zeros(len(labels), dtype=np.intp)])
        new.first[codes] = len(self.words) + first
        new.words = np.concatenate([self.words, words])
        return new

    def find(self, keys):
        """(codes, hit): each key's label code, and whether it has one."""
        if not len(self.keys):
            return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), dtype=bool)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return self.codes[at], self.keys[at] == keys


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
        d = as_index(d, "digit")
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for arity {r}")
        index = index * r + d
    return index


def config_digits(index, parent_arities) -> tuple[int, ...]:
    """Inverse of config_index."""
    arities = tuple(parent_arities)
    index = as_index(index, "configuration index")
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
        child_arity = as_index(self.child_arity, "child arity")
        arities = tuple(as_index(r, "parent arity") for r in self.parent_arities)
        object.__setattr__(self, "child_arity", child_arity)
        object.__setattr__(self, "parent_arities", arities)
        digits, counts = np.asarray(self.config_digits), np.asarray(self.counts)
        if any(a.size and a.dtype.kind not in "biu" for a in (digits, counts)):
            raise ValueError("parent digits and counts must be integers")
        counts = counts.astype(np.int64)
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
        digits = digits.astype(np.int32)
        if digits.shape[0] > 1 and not _rows_strictly_increase(digits):
            raise ValueError(
                "parent configurations must be distinct and sorted lexicographically"
            )
        digits.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "config_digits", digits)
        object.__setattr__(self, "counts", counts)

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
        table = np.asarray(table)  # the constructor refuses non-integer counts
        n_configs = math.prod(parent_arities)
        if table.shape != (n_configs, child_arity):
            raise ValueError(
                f"table shape {table.shape} does not match "
                f"({n_configs}, {child_arity})"
            )
        observed = np.flatnonzero(table.any(axis=1))
        digits = np.array(
            [config_digits(i, parent_arities) for i in observed], dtype=np.int32
        ).reshape(len(observed), len(parent_arities))
        return cls(child_arity, parent_arities, digits, table[observed])


def config_keys(columns, arities, n: int):
    """Each of n cases' parent-configuration key: (keys, radix, reranked).

    `columns` holds one array of n codes per parent and `arities` their
    arities. A key is the int64 mixed-radix index of the case's configuration,
    first parent most significant, so ascending keys are the lexicographic
    order of the configurations. Before the running radix would pass n, the
    key so far is replaced by its rank among the distinct keys; ranks keep
    the order, so keys lie in [0, radix) with radix at most n * (largest
    arity), and wide arities stay exact. Without a re-rank (`reranked`
    false) a key is its configuration's index.
    """
    key = np.zeros(n, dtype=np.int64)
    radix = 1
    reranked = False
    for column, r in zip(columns, arities):
        if radix * r > n:
            distinct, key = np.unique(key, return_inverse=True)
            radix, reranked = len(distinct), True
        key = key * r + column
        radix *= r
    return key, radix, reranked


def counts_for(ds: DiscreteDataset, child: int, parents) -> ContingencyCounts:
    """Tally child values against each observed parent configuration.

    Each case gets its `config_keys` key, so ascending keys are exactly the
    lexicographic row order ContingencyCounts requires. One bincount tallies
    the cases into the dense (radix, r_y) table of every possible key, and
    the rows with cases are the observed configurations, in order. Without a
    re-rank a row is its configuration's index, and its digits are read off
    the index; after one, from any case that has the configuration.
    """
    child = as_index(child, "child index")
    parents = tuple(as_index(p, "parent index") for p in parents)
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
    key, radix, reranked = config_keys([columns[p] for p in parents], parent_arities, n)
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
