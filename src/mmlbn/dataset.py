"""Categorical datasets, train/test splitting, and contingency counts.

Values are stored as small integer codes per variable, assigned in order of
first appearance in the source file. Contingency counts keep only the parent
configurations that actually occur in the data; every configuration that never
occurs contributes nothing to any code length computed downstream, so nothing
is lost by not materialising the full table.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field
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


# Bytes read per chunk of the file; a chunk ends after its last line end.
_CHUNK_CHARS = 1 << 16
# The ASCII characters str.strip removes.
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])
# _MASKS[k] keeps the low k bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Odd multipliers of the label table's hash and of its column salts. numpy
# 1.23 takes a Python int mixed with uint64 to float64: constants are uint64.
_MIX = np.uint64(0xBF58476D1CE4E5B9)
_SALT = np.uint64(0x94D049BB133111EB)
# The label table has 2**_TABLE_BITS slots, and holds at most half as many
# labels.
_TABLE_BITS = 12
# A label lies fewer slots than this past its home slot in the label table.
_MAX_PROBES = 32
# A chunk's first misses name most of the labels the table lacks, in either
# read: the table takes this many, then four times as many of those left
# after a new lookup, and so on.
_FIRST_MISSES = 4096


def _read_csv(path, variables, reject_missing: bool) -> DiscreteDataset:
    """Code a CSV file through one dict per column.

    Without `variables` a new token gets the next code of its column; with
    them the header must repeat their names, the dicts hold their labels and
    a token outside them raises.
    Empty records (blank lines) are skipped, before the header too, but line
    numbers in errors count them: they count CSV records from 1. A record
    csv cannot read, or a file that is not UTF-8, raises DataFormatError too.

    The file is read as bytes, from its first byte, as one stream of
    `_chunks`. csv reads the header from the stream's first chunks, split
    into lines by `_lines`. The lines of the header's chunk past the header
    come next, then the rest of the stream, and each chunk that
    `_code_plain_chunk` can code is coded by numpy, with the codes the
    record loop would give, through one `_LabelTable` that caches the dicts.
    numpy codes a chunk of plain records whose fields are each at most 8
    bytes once stripped, while the table has room for their labels. Both
    reads add a label to the table on its first miss, with the code from
    its column's dict; in a labelled read a token outside the dicts refuses
    its chunk, and the record loop names it. From the first chunk numpy
    refuses (a quote or a wider field, say), the record loop reads that
    chunk and the rest of the stream through `_text_lines`, with the same
    codes, and alone raises the errors. Text that is
    not UTF-8 is met when the record loop reaches its line, after any fault
    of an earlier record; the error names the file only.
    """
    lineno = 0  # the last record read
    try:
        with open(path, "rb") as fh:
            chunks = _chunks(fh)
            head, used = b"", 0  # the chunk the header ends in, and its bytes csv read

            def header_lines():
                nonlocal head, used
                for head in chunks:
                    used = 0
                    for line in _lines(head):
                        used += len(line)
                        yield line.decode("utf-8")

            for lineno, header in enumerate(csv.reader(header_lines()), start=1):
                if header:
                    break
            else:
                raise DataFormatError(f"{path}: empty file")
            names = [h.strip() for h in header]
            m = len(names)
            table = _LabelTable(m)
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
            blocks = []  # (records, m) codes of the chunks numpy coded
            # numpy would refuse an empty chunk, and hand csv the whole file
            chunks = itertools.chain(filter(None, [head[used:]]), chunks)
            for chunk in chunks:
                block = _code_plain_chunk(
                    chunk, m, codes, table, variables is None, reject_missing
                )
                if block is None:  # csv reads it from its first line on
                    chunks = itertools.chain([chunk], chunks)
                    break
                blocks.append(block)
                lineno += len(block)
            data: list[int] = []  # every later code, record after record
            for lineno, row in enumerate(csv.reader(_text_lines(chunks)), lineno + 1):
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
    except UnicodeDecodeError as err:
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


def _chunks(fh):
    """Binary file `fh` from its first byte, a UTF-8 BOM dropped, in chunks
    that end after their last "\n" or lone "\r" (never between "\r" and
    "\n") or where the file ends. A read takes `_CHUNK_CHARS` bytes, or as
    many as the line left over from the last, if longer."""
    rest = fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
    while True:
        more = fh.read(max(_CHUNK_CHARS, len(rest)))
        chunk = rest + more
        if not chunk:
            return
        end = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1))
        cut = end + 1 if more else len(chunk)
        chunk, rest = chunk[:cut], chunk[cut:]
        if chunk:
            yield chunk


def _text_lines(chunks):
    """The text lines of chunks of whole lines of UTF-8, split as
    open(..., newline="") splits them: at "\r\n", "\r" or "\n". A chunk
    is decoded whole; one that is not UTF-8 is decoded a line at a time
    (`_lines`), so the lines before its bad line come first, then the
    UnicodeDecodeError."""
    for chunk in chunks:
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:  # raised again at the line that holds it
            yield from (line.decode("utf-8") for line in _lines(chunk))
        else:
            yield from io.StringIO(text, newline="")


def _lines(chunk):
    """The lines of bytes `chunk`, line ends kept, split as
    open(..., newline="") splits text: at "\r\n", a lone "\r" or "\n"."""
    for line in re.finditer(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", chunk):
        yield line[0]


def _code_plain_chunk(data, m, codes, table, grow, reject_missing):
    """The (records, m) int32 codes of a chunk of whole lines, or None.

    `data` holds the chunk's bytes. A chunk is plain when it is ASCII with
    no quote or NUL, each carriage return is followed by a newline or ends
    the chunk, every line holds m fields (so none is blank), no field
    passes csv's size limit, and every field is at most 8 bytes once
    stripped. Then each line is one record, and its fields are the runs
    between commas, stripped as str.strip does; the carriage-return and
    strip passes run only on bytes that need them. A field's key is its
    bytes as one little-endian 8-byte word, zeroed past its width; a token
    holds no NUL, so the key is the token itself. Every field's key is read
    at once, through one unaligned view of the chunk, and the keys of all m
    columns are looked up in `table` at once. Keys that miss are labels the
    table lacks: it takes the first `_FIRST_MISSES` misses in one go, and
    those still missing after a new lookup in rounds four times larger. A
    label it takes gets its code from its column's dict in `codes`; a token
    the dict lacks is new, and with `grow` its first appearances extend
    `codes` column by column as the record loop would. A chunk that is not
    plain, holds "?" under `reject_missing`, has labels the table cannot
    take, or without `grow` holds a token outside `codes`, is refused before
    `codes` changes; the table is read no more.
    """
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    # The file's last line may have no end, and a chunk's last line may end
    # in a lone "\r": csv ends a record there as it does at "\r\n".
    if not data.endswith(b"\n"):
        data += b"\n"
    size = len(data)
    data += bytes(8)  # a word read at the last byte
    buf = np.frombuffer(data, dtype=np.uint8, count=size)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    line_ends = buf[ends] == ord("\n")
    n = np.count_nonzero(line_ends)
    if len(ends) != n * m or not line_ends.reshape(n, m)[:, -1].all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    returns = np.count_nonzero(buf == ord("\r")) if b"\r" in data else 0
    if returns:  # each must end a line's last field, before its "\n"
        last = ends[m - 1 :: m]
        crlf = buf[last - 1] == ord("\r")
        if np.count_nonzero(crlf) != returns:
            return None
        last -= crlf
    widths = ends - starts
    if widths.max() > csv.field_size_limit() or (m == 1 and not widths.all()):
        return None
    if np.count_nonzero(buf <= ord(" ")) > n + returns:  # a token to strip
        solid = np.flatnonzero(~_ASCII_SPACE[buf])
        solid = np.concatenate(([-1], solid, [len(buf)]))
        starts = np.minimum(solid[np.searchsorted(solid, starts)], ends)
        ends = np.maximum(solid[np.searchsorted(solid, ends) - 1] + 1, starts)
        widths = ends - starts
    del ends  # records x m index arrays are the chunk's largest: keep few
    if widths.max() > 8:
        return None
    # Every field's key, read at once; a key of 63 is the token "?".
    view = np.ndarray(size + 1, dtype="<u8", buffer=data, strides=(1,))
    keys = view.take(starts)
    keys &= _MASKS[widths]
    if reject_missing and (keys == ord(MISSING_TOKEN)).any():
        return None
    keys = keys.reshape(n, m)
    slots = table.find(keys)
    new = []  # (column, token) of each new label, in order of first appearance
    next_code = [len(column) for column in codes]
    part = _FIRST_MISSES
    while len(miss := np.flatnonzero(slots < 0)):
        some = miss[:part]
        placed = table.add(some % m, keys.ravel()[some])
        if placed is None:
            return None
        at = some[placed[1]]
        labels = placed[0][placed[1]], at, starts[at], widths[at]
        for slot, f, i, w in zip(*(a.tolist() for a in labels)):
            c, token = f % m, data[i : i + w].decode("ascii")
            code = codes[c].get(token)
            if code is None:
                if not grow:
                    return None
                code = next_code[c]
                next_code[c] += 1
                new.append((c, token))
            table.code[slot] = code
        if len(miss) <= part:
            slots[miss] = placed[0]
        else:  # misses are left
            slots = table.find(keys)
        part *= 4
    for c, token in new:
        codes[c][token] = len(codes[c])
    return table.code[slots].reshape(n, m).astype(np.int32)


def _hash(keys):
    """The uint64 hashes of salted keys; a home slot is a hash's top bits."""
    return keys * _MIX


class _LabelTable:
    """A cache of the labels of every column's dict, as plain chunks look
    their tokens up. A label enters on its first miss, in either read.

    An open-addressing hash table of 2**`_TABLE_BITS` slots with linear
    probing, keyed by (column, key), with keys as `_code_plain_chunk` makes
    them. A pair's home slot is the top bits of the `_hash` of its key XOR
    its column's salt. A slot holds its label's column (-1 when free), key
    and code. The table is at most half full, and no label lies
    `_MAX_PROBES` or more slots past its home: `add` fails instead. It
    holds only labels a plain token can be, ASCII of at most 8 bytes
    without NUL.
    """

    def __init__(self, m):
        self.salt = (np.arange(m, dtype=np.uint64) + np.uint64(1)) * _SALT
        self.columns = np.arange(m)
        self.shift = np.uint64(64 - _TABLE_BITS)
        self.col = np.full(1 << _TABLE_BITS, -1, dtype=np.int32)
        self.key = np.zeros(1 << _TABLE_BITS, dtype=np.uint64)
        self.code = np.zeros(1 << _TABLE_BITS, dtype=np.intp)
        self.count = 0
        self.reach = 0  # the farthest any label lies past its home slot

    def _home(self, keys):
        """The home slots of keys already XORed with their columns' salts."""
        return (_hash(keys) >> self.shift).view(np.int64)  # below 2**_TABLE_BITS

    def find(self, keys):
        """The slot of each of (records, m) keys, column c's in keys[:, c],
        flattened record by record; -1 where its column lacks the key."""
        at = self._home(keys ^ self.salt)
        col = self.col[at]
        hit = (col == self.columns) & (self.key[at] == keys)
        slots = np.where(hit, at, -1).ravel()
        todo = np.flatnonzero(~hit)
        todo = todo[col.ravel()[todo] >= 0]  # a free slot ends a probe
        at = at.ravel()[todo]
        keys = keys.ravel()
        for _ in range(self.reach):
            if not len(todo):
                break
            at = (at + 1) & (len(self.col) - 1)
            col = self.col[at]
            hit = (col == todo % len(self.salt)) & (self.key[at] == keys[todo])
            slots[todo[hit]] = at[hit]
            go = ~hit & (col >= 0)
            todo, at = todo[go], at[go]
        return slots

    def add(self, cols, keys):
        """Place the labels of tokens: token k lies in column cols[k] and is
        keyed keys[k]. A label the table holds keeps its slot. Those it lacks
        are placed one at a time, in order of their home slots, each in the
        first free slot from its home on. Then no label is passed over by
        one placed after it with a nearer home (short of a run that wraps
        past the last slot), so no order of placement probes less far.
        Returns (slots, firsts): each token's slot, and in order the tokens
        that first name a label the table lacked; the caller sets such a
        label's code. None once the table passes half full, or if a label
        would lie `_MAX_PROBES` slots past its home.
        """
        homes = self._home(keys ^ self.salt[cols])
        # the tokens grouped by label, each group in token order (a stable
        # sort): first holds each label's first token, label each token's label
        order = np.lexsort((keys, cols))
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = np.diff(cols[order]) != 0
        starts[1:] |= keys[order][1:] != keys[order][:-1]
        first = order[starts]
        label = np.empty(len(order), dtype=np.intp)
        label[order] = np.cumsum(starts) - 1
        slots = np.empty(len(first), dtype=np.intp)
        fresh = []
        last = len(self.col) - 1
        for n in np.argsort(homes[first], kind="stable").tolist():
            k = first[n]
            # the key stays a uint64: numpy 1.23 compares a large Python int
            # with a uint64 as float64
            col, key, at = int(cols[k]), keys[k], int(homes[k])
            for probe in range(_MAX_PROBES):
                if self.col[at] < 0:
                    self.col[at], self.key[at] = col, key
                    self.count += 1
                    self.reach = max(self.reach, probe)
                    if 2 * self.count > len(self.col):
                        return None
                    fresh.append(k)
                    break
                if self.col[at] == col and self.key[at] == key:
                    break
                at = (at + 1) & last
            else:
                return None
            slots[n] = at
        return slots[label], np.sort(np.array(fresh, dtype=np.intp))


def split_train_test(ds: DiscreteDataset, test_fraction: float, seed: int):
    """Random split into (train, test) of N cases.

    The test part takes N * test_fraction cases, rounded to the nearest with
    halves rounded up. The split is refused when N * test_fraction is below
    one whole case (so N = 5 at 0.1 is refused, though it rounds to one) or
    when no training case is left.
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
    arities = _checked_arities(parent_arities)
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
    arities = _checked_arities(parent_arities)
    index = as_index(index, "configuration index")
    if not 0 <= index < math.prod(arities):
        raise ValueError(f"configuration index {index} out of range")
    digits = [0] * len(arities)
    for i in range(len(arities) - 1, -1, -1):
        index, digits[i] = divmod(index, arities[i])
    return tuple(digits)


def _checked_arities(parent_arities) -> tuple[int, ...]:
    """Parent arities as ints, each at least 1, or a ValueError."""
    arities = tuple(as_index(r, "parent arity") for r in parent_arities)
    if any(r < 1 for r in arities):
        raise ValueError(f"parent arities must be at least 1; got {arities}")
    return arities


def _index_digits(index: np.ndarray, parent_arities) -> np.ndarray:
    """config_digits of each of an array of indexes, as int32 rows."""
    digits = np.empty((len(index), len(parent_arities)), dtype=np.int32)
    if parent_arities:
        digits.T[...] = np.unravel_index(index, parent_arities)
    return digits


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
    child at value k under that configuration, and config_totals[row] the
    number of cases under it.

    The counts are held child-major: counts is the (n_observed, child_arity)
    transposed view of a C-contiguous (child_arity, n_observed) array, which
    counts.T returns without a copy, so a reader that sums over the child
    values or reads one child value at a time runs across rows of n_observed
    configurations; numpy reduces along an axis of 2 to 5 elements several
    times slower. The tally keeps its totals too, so no reader sums the
    counts again. Both constructors give every tally this layout, and the
    digits, the counts and the totals are read-only.
    """

    child_arity: int
    parent_arities: tuple[int, ...]
    config_digits: np.ndarray  # (n_observed, n_parents) int32
    counts: np.ndarray  # (n_observed, child_arity) int64, a child-major view
    config_totals: np.ndarray = field(init=False, repr=False)  # (n_observed,) int64

    def __post_init__(self):
        child_arity = as_index(self.child_arity, "child arity")
        arities = tuple(as_index(r, "parent arity") for r in self.parent_arities)
        object.__setattr__(self, "child_arity", child_arity)
        object.__setattr__(self, "parent_arities", arities)
        digits, counts = np.asarray(self.config_digits), np.asarray(self.counts)
        if any(a.size and a.dtype.kind not in "biu" for a in (digits, counts)):
            raise ValueError("parent digits and counts must be integers")
        if digits.ndim != 2 or digits.shape[1] != len(self.parent_arities):
            raise ValueError("configuration array shape mismatch")
        if counts.shape != (digits.shape[0], self.child_arity):
            raise ValueError("count array shape mismatch")
        by_child = np.array(counts.T, dtype=np.int64, order="C")
        if by_child.size and by_child.min() < 0:
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
        self._freeze(digits, by_child, by_child.sum(axis=0))

    @classmethod
    def _trusted(cls, child_arity, parent_arities, config_digits, by_child, totals):
        """Counts from arrays already known to hold the shape, dtypes, ranges
        and row order the constructor checks: a tally that kept its own
        rules, with its counts child-major, (child_arity, n_observed)
        C-contiguous, and their sums across rows. Skips __post_init__ and
        freezes the arrays in place."""
        tally = object.__new__(cls)
        object.__setattr__(tally, "child_arity", child_arity)
        object.__setattr__(tally, "parent_arities", parent_arities)
        tally._freeze(config_digits, by_child, totals)
        return tally

    def _freeze(self, config_digits, by_child, totals):
        """Set the digits, the counts as the view of by_child and the totals,
        all read-only."""
        for array in (config_digits, by_child, totals):
            array.flags.writeable = False
        object.__setattr__(self, "config_digits", config_digits)
        object.__setattr__(self, "counts", by_child.T)
        object.__setattr__(self, "config_totals", totals)

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
    def n_cases(self) -> int:
        return int(self.config_totals.sum())

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
        digits = _index_digits(observed, parent_arities)
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
    false) a key is its configuration's index. The key is built in one array
    of its own, in place; the columns are only read.
    """
    key = np.zeros(n, dtype=np.int64)
    radix = 1
    reranked = False
    for column, r in zip(columns, arities):
        if radix * r > n:
            distinct, key = np.unique(key, return_inverse=True)
            radix, reranked = len(distinct), True
        if radix == 1:  # the key so far is all zeros
            np.copyto(key, column)
        else:
            key *= r
            key += column
        radix *= r
    return key, radix, reranked


def counts_for(ds: DiscreteDataset, child: int, parents) -> ContingencyCounts:
    """Tally child values against each observed parent configuration.

    Each case gets its `config_keys` key, so ascending keys are exactly the
    lexicographic row order ContingencyCounts requires. One bincount of
    child * radix + key tallies the cases child-major, into the dense
    (r_y, radix) table of every possible key; its sums across rows are the
    totals, and the columns with a nonzero total are the observed
    configurations, in order. Both are kept as they come out of that table,
    so no reader sums the counts again or transposes them. Without a re-rank
    a column is its configuration's index, and its digits are read off the
    index; after one, from any case that has the configuration.
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
    cell = columns[child] * radix
    cell += key
    table = np.bincount(cell, minlength=r_y * radix).reshape(r_y, radix)
    totals = table.sum(axis=0)
    observed = np.flatnonzero(totals)
    if reranked:
        case = np.empty(radix, dtype=np.intp)
        case[key] = np.arange(n)
        digits = ds.rows[case[observed]][:, list(parents)]
    else:
        digits = _index_digits(observed, parent_arities)
    return ContingencyCounts._trusted(
        r_y, parent_arities, digits, table.take(observed, axis=1), totals[observed]
    )
