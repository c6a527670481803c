"""Loading, splitting and counting."""

import csv
import io
import math
import os
import tempfile
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmlbn import (
    ContingencyCounts,
    DiscreteDataset,
    VariableMeta,
    config_digits,
    config_index,
    counts_for,
    load_csv,
    load_csv_with_labels,
    split_train_test,
)
from mmlbn import dataset
from mmlbn.errors import (
    CapacityError,
    DataFormatError,
    DegenerateVariableError,
    MissingValueError,
    MmlbnError,
)
from helpers import make_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "a,b\nyes,low\nno,high\nyes,mid\nno,low\n")
        ds = load_csv(path)
        assert ds.n_cases == 4
        assert ds.n_variables == 2
        assert ds.arities == (2, 3)
        assert ds.variables[0].labels == ("yes", "no")
        assert ds.variables[1].labels == ("low", "high", "mid")
        # codes follow first appearance
        assert ds.rows[:, 0].tolist() == [0, 1, 0, 1]
        assert ds.rows[:, 1].tolist() == [0, 1, 2, 0]

    def test_missing_becomes_extra_category(self, tmp_path):
        path = write(tmp_path, "a,b\nx,1\n?,2\ny,1\n")
        ds = load_csv(path, missing_policy="extra-category")
        assert ds.variables[0].labels == ("x", "?", "y")
        assert ds.arity(0) == 3

    def test_missing_rejected(self, tmp_path):
        # the first bad record wins, and its columns are checked left to right
        for text, where in [
            ("a,b\nx,1\n?,2\n", "3: missing value in column 'a'"),
            ("a,b\nx,?\n?,1\n", "2: missing value in column 'b'"),
            ("a,b\nx,1\n?,?\n", "3: missing value in column 'a'"),
        ]:
            path = write(tmp_path, text)
            with pytest.raises(MissingValueError) as err:
                load_csv(path, missing_policy="reject")
            assert str(err.value) == f"{path}:{where}"

    def test_unknown_policy(self, tmp_path):
        path = write(tmp_path, "a,b\nx,1\ny,2\n")
        with pytest.raises(ValueError):
            load_csv(path, missing_policy="drop")

    def test_ragged_row(self, tmp_path):
        # a ragged record beats a later "?" and a "?" on the same record
        for text, policy, where in [
            ("a,b\nx,1\ny\n", "extra-category", "3: expected 2 fields, found 1"),
            ("a,b\nx,1\ny\n?,2\n", "reject", "3: expected 2 fields, found 1"),
            ("a,b\nx,1\n?,2,3\n", "reject", "3: expected 2 fields, found 3"),
        ]:
            path = write(tmp_path, text)
            with pytest.raises(DataFormatError) as err:
                load_csv(path, missing_policy=policy)
            assert str(err.value) == f"{path}:{where}"

    def test_single_valued_column(self, tmp_path):
        path = write(tmp_path, "a,b\nx,1\nx,2\n")
        with pytest.raises(DegenerateVariableError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        for text in ("", "\n\n\n"):
            path = write(tmp_path, text)
            with pytest.raises(DataFormatError) as err:
                load_csv(path)
            assert str(err.value) == f"{path}: empty file"

    def test_header_only(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(write(tmp_path, "a,b\n"))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "a,b\nx,1\n\ny,2\n\n\n")
        ds = load_csv(path)
        assert ds.n_cases == 2
        assert ds.rows.tolist() == [[0, 0], [1, 1]]
        test = write(tmp_path, "a,b\n\ny,1\n", "test.csv")
        assert load_csv_with_labels(test, ds.variables).rows.tolist() == [[1, 0]]

    def test_blank_lines_still_count_as_records(self, tmp_path):
        path = write(tmp_path, "a,b\nx,1\n\ny\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:4: expected 2 fields, found 1"

    def test_header_and_blank_lines_only(self, tmp_path):
        path = write(tmp_path, "a,b\n\n\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path)

    def test_blank_lines_before_the_header(self, tmp_path):
        path = write(tmp_path, "\na,b\nx,1\ny,2\n")
        ds = load_csv(path)
        assert [v.name for v in ds.variables] == ["a", "b"]
        assert ds.rows.tolist() == [[0, 0], [1, 1]]
        test = write(tmp_path, "\n\na,b\ny,1\n", "test.csv")
        assert load_csv_with_labels(test, ds.variables).rows.tolist() == [[1, 0]]
        # record numbers count the blank lines above the header
        ragged = write(tmp_path, "\n\na,b\nx,1\ny\n", "ragged.csv")
        with pytest.raises(DataFormatError) as err:
            load_csv(ragged)
        assert str(err.value) == f"{ragged}:5: expected 2 fields, found 1"

    @pytest.mark.parametrize(
        "text,where",
        [("a,{big}\nx,1\ny,2\n", 1), ("\na,b\nx,1\ny,{big}\n", 4)],
        ids=["header", "data"],
    )
    def test_an_unreadable_record_is_a_format_error(self, tmp_path, text, where):
        # csv refuses a field longer than its field size limit
        big = "z" * (csv.field_size_limit() + 1)
        path = write(tmp_path, text.format(big=big))
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value).startswith(f"{path}:{where}: field larger than")

    @pytest.mark.parametrize(
        "head,tail",
        [(b"a,", b"\nx,1\ny,2\n"), (b"a,b\n" + b"x,1\ny,2\n" * 3000, b",2\n")],
        ids=["header", "far-down"],
    )
    def test_a_file_that_is_not_utf8_is_a_format_error(self, tmp_path, head, tail):
        # a chunk that is not UTF-8 is decoded a line at a time up to its bad
        # line, but the error names the file only
        path = tmp_path / "data.csv"
        path.write_bytes(head + b"\xff" + tail)
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_whitespace_stripped(self, tmp_path):
        path = write(tmp_path, "a, b\n x ,1\n y ,2\n")
        ds = load_csv(path)
        assert ds.variables[1].name == "b"
        assert ds.variables[0].labels == ("x", "y")


class TestLoadWithLabels:
    def test_alignment(self, tmp_path):
        train = load_csv(write(tmp_path, "a,b\nx,1\ny,2\nz,1\n", "train.csv"))
        test = load_csv_with_labels(
            write(tmp_path, "a,b\nz,2\nx,1\n", "test.csv"), train.variables
        )
        assert test.rows[:, 0].tolist() == [2, 0]
        assert test.rows[:, 1].tolist() == [1, 0]

    def test_unknown_token(self, tmp_path):
        # the first bad record wins, a ragged record beats a bad token on it,
        # and columns are checked left to right
        train = load_csv(write(tmp_path, "a,b\nx,1\ny,2\n", "train.csv"))
        for text, where in [
            ("a,b\nq,1\n", "2: unknown value 'q' in column 'a'"),
            ("a,b\nx,1\nq,1\ny\n", "3: unknown value 'q' in column 'a'"),
            ("a,b\nq,1,2\n", "2: expected 2 fields, found 3"),
            ("a,b\nq,r\n", "2: unknown value 'q' in column 'a'"),
        ]:
            path = write(tmp_path, text, "test.csv")
            with pytest.raises(DataFormatError) as err:
                load_csv_with_labels(path, train.variables)
            assert str(err.value) == f"{path}:{where}"

    def test_header_names_checked(self, tmp_path):
        # swapped columns that share labels would otherwise load silently
        train = load_csv(write(tmp_path, "a,b\nyes,no\nno,yes\n", "train.csv"))
        path = write(tmp_path, "b,a\nyes,no\n", "test.csv")
        with pytest.raises(DataFormatError) as err:
            load_csv_with_labels(path, train.variables)
        assert str(err.value) == f"{path}: column 1 is named 'b', expected 'a'"
        path = write(tmp_path, " a ,c\nyes,no\n", "test.csv")
        with pytest.raises(DataFormatError) as err:
            load_csv_with_labels(path, train.variables)
        assert str(err.value) == f"{path}: column 2 is named 'c', expected 'b'"
        padded = write(tmp_path, " a , b \nyes,yes\n", "test.csv")
        assert load_csv_with_labels(padded, train.variables).rows.tolist() == [[0, 1]]

    @pytest.mark.parametrize(
        "text,where",
        [("a,{big}\nx,1\n", 1), ("a,b\nx,1\n\ny,{big}\n", 4)],
        ids=["header", "data"],
    )
    def test_an_unreadable_record_is_a_format_error(self, tmp_path, text, where):
        train = load_csv(write(tmp_path, "a,b\nx,1\ny,2\n", "train.csv"))
        big = "z" * (csv.field_size_limit() + 1)
        path = write(tmp_path, text.format(big=big), "test.csv")
        with pytest.raises(DataFormatError) as err:
            load_csv_with_labels(path, train.variables)
        assert str(err.value).startswith(f"{path}:{where}: field larger than")

    def test_a_file_that_is_not_utf8_is_a_format_error(self, tmp_path):
        train = load_csv(write(tmp_path, "a,b\nx,1\ny,2\n", "train.csv"))
        path = tmp_path / "test.csv"
        path.write_bytes(b"a,b\nx,1\n\xff,2\n")
        with pytest.raises(DataFormatError) as err:
            load_csv_with_labels(path, train.variables)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_column_count_mismatch(self, tmp_path):
        train = load_csv(write(tmp_path, "a,b\nx,1\ny,2\n", "train.csv"))
        with pytest.raises(DataFormatError):
            load_csv_with_labels(
                write(tmp_path, "a\nx\ny\n", "test.csv"), train.variables
            )


# Padded, empty and "?" tokens, and tokens that csv.writer must quote.
CSV_TOKENS = ["x", " x ", "y", "?", " ? ", "", "  ", "a,b", 'say "hi"', "z"]


@st.composite
def token_tables(draw):
    m = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(CSV_TOKENS), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=1, max_size=8))


class TestReaderProperty:
    @given(token_tables())
    def test_codes_follow_first_appearance(self, table):
        labels = [list(dict.fromkeys(t.strip() for t in col)) for col in zip(*table)]
        expected = [[labels[i].index(t.strip()) for i, t in enumerate(r)] for r in table]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([f" c{i} " for i in range(len(labels))])
                writer.writerows(table)
            if min(len(col) for col in labels) < 2:
                with pytest.raises(DegenerateVariableError):
                    load_csv(path)
                return
            ds = load_csv(path)
            again = load_csv_with_labels(path, ds.variables)
        assert [v.name for v in ds.variables] == [f"c{i}" for i in range(len(labels))]
        assert [list(v.labels) for v in ds.variables] == labels
        assert ds.rows.tolist() == expected
        assert again.rows.tolist() == expected


def read_outcome(read, *args):
    """What a read gives: its variables and rows, or its error."""
    try:
        ds = read(*args)
    except MmlbnError as err:
        return type(err), str(err)
    return [(v.name, v.labels) for v in ds.variables], ds.rows.tolist()


def record_loop_outcome(read, *args):
    """read_outcome with every chunk left to the csv record loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_code_plain_chunk", lambda *chunk: None)
        return read_outcome(read, *args)


def spy_on_chunks(monkeypatch):
    """A list that records, chunk by chunk, whether numpy coded it."""
    coded = []
    code_plain_chunk = dataset._code_plain_chunk

    def spy(*chunk):
        block = code_plain_chunk(*chunk)
        coded.append(block is not None)
        return block

    monkeypatch.setattr(dataset, "_code_plain_chunk", spy)
    return coded


# Tokens numpy codes, and pieces that send a chunk to the record loop:
# padding, quotes, NUL, non-ASCII text and, as line ends, blank lines and a
# lone "\r" inside the chunk (one that ends it does not); an empty end runs
# two lines together.
PLAIN_TOKENS = ["x", "y", "s0"]
ODD_TOKENS = [" x", "x\t", "\x0bx ", "\x1cy", " ", "", "?", " ? ", "z", "é",
              '"a,b"', '"q\nr"', '"', "x\0"]
LINE_ENDS = ["\r\n", "\r", "\n\n", "\r\n\r\n", ""]


@st.composite
def raw_files(draw):
    m = draw(st.integers(1, 3))
    token = st.sampled_from(PLAIN_TOKENS) | st.sampled_from(ODD_TOKENS)
    fields = st.lists(token, min_size=m, max_size=m) | st.lists(token, max_size=m + 1)
    end = st.sampled_from(["\n", "\r\n"])
    line = st.tuples(fields, end | st.sampled_from(LINE_ENDS))
    lines = draw(st.lists(line, max_size=16))
    if draw(st.booleans()):  # two values in every column: reads get past the tally
        lines[:0] = [(["x"] * m, draw(end)), (["y"] * m, draw(end))]
    header = ",".join(f"c{i}" for i in range(m)) + draw(end)
    return m, header + "".join(",".join(f) + e for f, e in lines)


# Tokens of one to three 8-byte words: Nursery labels, and tokens that share
# their first 8 or 16 bytes.
WIDE_TOKENS = ["?", "s0", "usual", "critical", "very_crit", "slightly_prob",
               "recommend", "recommended", "abcdefgh", "abcdefghX", "abcdefghY",
               "abcdefghijklmnop", "abcdefghijklmnopX", "abcdefghijklmnopY",
               "abcdefghijklmnopqrstuvwx"]
TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz_0123456789"


@st.composite
def wide_files(draw):
    """(m, text, labels): an unquoted file of 1-24 byte tokens, some padded
    (csv reads those), and labels for a labelled read that may miss one of
    its tokens."""
    m = draw(st.integers(1, 3))
    token = st.sampled_from(WIDE_TOKENS) | st.text(TOKEN_CHARS, min_size=1, max_size=24)
    tokens = draw(st.lists(token, min_size=3, max_size=8, unique=True))
    pad = st.sampled_from(["", " ", "\t", "  "])
    field = st.tuples(pad, st.sampled_from(tokens), pad).map("".join)
    lines = draw(st.lists(st.lists(field, min_size=m, max_size=m), min_size=1, max_size=40))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = ",".join(f"c{i}" for i in range(m)) + end
    text += "".join(",".join(line) + end for line in lines)
    labels = draw(st.permutations(tokens))
    return m, text, tuple(labels[: len(labels) - draw(st.integers(0, 1))])


class TestPlainChunks:
    """Chunks numpy codes give the record loop's rows, labels and errors."""

    @settings(max_examples=300)
    @given(raw_files(), st.sampled_from([1, 7, 32, 1 << 16]))
    def test_same_outcome_as_the_record_loop(self, file, chunk_chars):
        m, text = file
        variables = tuple(VariableMeta(f"c{i}", 3, ("x", "y", "?")) for i in range(m))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            reads = [
                (load_csv, path, "extra-category"),
                (load_csv, path, "reject"),
                (load_csv_with_labels, path, variables),
            ]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
                got = [read_outcome(*read) for read in reads]
                expected = [record_loop_outcome(*read) for read in reads]
        assert got == expected

    @pytest.mark.parametrize(
        "fault,records,policy,error",
        [
            ("y\n", 1, "extra-category", "expected 2 fields, found 1"),
            ('"two\nlines",1\ny\n', 2, "extra-category", "expected 2 fields, found 1"),
            ("z" * (csv.field_size_limit() + 1) + ",1\n", 1, "extra-category",
             "field larger than field limit"),
            ("?,1\n", 1, "reject", "missing value in column 'a'"),
        ],
        ids=["ragged", "quoted-then-ragged", "over-long", "missing"],
    )
    def test_handover_keeps_record_numbers(
        self, tmp_path, monkeypatch, fault, records, policy, error
    ):
        # several plain chunks, then a chunk the record loop reads from its
        # first record: its errors count the records numpy coded
        plain = 3 * dataset._CHUNK_CHARS // 4
        path = write(tmp_path, "a,b\n" + "x,1\ny,2\nz,1\n" * plain + fault + "x,2\n")
        coded = []
        code_plain_chunk = dataset._code_plain_chunk

        def spy(*chunk):
            block = code_plain_chunk(*chunk)
            coded.append(block is not None)
            return block

        monkeypatch.setattr(dataset, "_code_plain_chunk", spy)
        with pytest.raises(DataFormatError) as err:
            load_csv(path, policy)
        assert coded.count(True) >= 3 and coded[-1] is False
        assert str(err.value).startswith(f"{path}:{3 * plain + 1 + records}: {error}")
        expected = record_loop_outcome(load_csv, path, policy)
        assert (type(err.value), str(err.value)) == expected

    def test_a_record_fault_before_text_that_is_not_utf8_is_named(self, tmp_path):
        # the record loop decodes a block at a time and meets the ragged
        # record first; a chunk read ahead meets the bad byte first
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b\nx,1\ny\n" + b"x,1\ny,2\n" * 3000 + b"\xff,2\n")
        assert read_outcome(load_csv, path) == (
            DataFormatError, f"{path}:3: expected 2 fields, found 1"
        )
        assert read_outcome(load_csv, path) == record_loop_outcome(load_csv, path)

    def test_a_wide_token_is_read_by_csv_in_bounded_memory(
        self, tmp_path, monkeypatch
    ):
        # numpy codes the plain chunk before a 100 000-byte token; the
        # token's chunk goes to csv, which keeps no key of that width for
        # every record
        wide = "w" * 100_000
        assert len(wide) < csv.field_size_limit()
        path = write(tmp_path, "a,b\n" + "x,1\ny,2\n" * 300 + f"{wide},1\nx,2\n")
        coded = spy_on_chunks(monkeypatch)
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coded == [True, False]
        assert ds.variables[0].labels == ("x", "y", wide)
        assert ds.rows.tolist() == [[0, 0], [1, 1]] * 300 + [[2, 0], [0, 1]]
        assert peak < 4 << 20

    @settings(max_examples=200)
    @given(wide_files(), st.sampled_from([7, 32, 1 << 16]))
    def test_wide_tokens_match_the_record_loop(self, file, chunk_chars):
        m, text, labels = file
        variables = tuple(VariableMeta(f"c{i}", len(labels), labels) for i in range(m))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            reads = [
                (load_csv, path, "extra-category"),
                (load_csv, path, "reject"),
                (load_csv_with_labels, path, variables),
            ]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
                got = [read_outcome(*read) for read in reads]
                expected = [record_loop_outcome(*read) for read in reads]
        assert got == expected

    def test_many_labels_over_many_chunks(self, tmp_path, monkeypatch):
        # 20 000 distinct one-word tokens in 20 000 shuffled records over
        # about a hundred chunks: numpy codes chunks until the label table
        # fills, and csv reads the rest
        tokens, order, lines = many_label_lines()
        path = write(tmp_path, "a,b\n" + "".join(lines))
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 2048)
        coded = spy_on_chunks(monkeypatch)
        ds = load_csv(path)
        assert len(coded) > 5 and coded == [True] * (len(coded) - 1) + [False]
        assert read_outcome(load_csv, path) == record_loop_outcome(load_csv, path)
        assert ds.variables[0].labels == tuple(tokens[i] for i in order)
        test = write(tmp_path, "a,b\n" + "".join(reversed(lines)), "test.csv")
        expected = record_loop_outcome(load_csv_with_labels, test, ds.variables)
        assert read_outcome(load_csv_with_labels, test, ds.variables) == expected
        assert expected[1] == ds.rows[::-1].tolist()
        # an unknown token in the last chunk
        coded.clear()
        bad = write(tmp_path, "a,b\n" + "".join(lines) + "token_xx,y\n", "bad.csv")
        error = read_outcome(load_csv_with_labels, bad, ds.variables)
        assert error == (
            DataFormatError, f"{bad}:20002: unknown value 'token_xx' in column 'a'"
        )
        assert error == record_loop_outcome(load_csv_with_labels, bad, ds.variables)
        assert coded.count(True) >= 5 and coded[-1] is False


# Tokens of plain chunks, and the non-ASCII labels a late record brings.
BYTE_TOKENS = ["x", "y", "s0", "?", " y", "x\x0b"]
LATE_TOKENS = ["é", "naïve"]


@st.composite
def byte_files(draw):
    """(m, text): a file that may open with a UTF-8 BOM, then blank lines or
    a header whose quoted first field holds line ends; its header may end in
    a lone "\\r", its records mix LF and CRLF line ends, may hold one lone
    "\\r" line end and may lack a final line end; a non-ASCII label first
    appears in its second half."""
    m = draw(st.integers(1, 3))
    fields = st.lists(st.sampled_from(BYTE_TOKENS), min_size=m, max_size=m)
    rows = draw(st.lists(fields, min_size=2, max_size=30))
    late = draw(fields)
    late[draw(st.integers(0, m - 1))] = draw(st.sampled_from(LATE_TOKENS))
    rows.insert(draw(st.integers(len(rows) // 2, len(rows))), late)
    end = st.sampled_from(["\n", "\r\n"])
    ends = draw(st.lists(end, min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        ends[draw(st.integers(0, len(rows) - 1))] = "\r"
    if draw(st.booleans()):
        ends[-1] = ""
    text = "\ufeff" if draw(st.booleans()) else ""
    lead = draw(end | st.just("\r")) * draw(st.sampled_from([0, 1, 40]))
    names = [f"c{i}" for i in range(m)]
    if draw(st.booleans()):
        text += lead
    else:  # csv keeps the line ends in the field, and strip drops them
        names[0] = f'"{lead}c0"'
    text += ",".join(names) + draw(end | st.just("\r"))
    return m, text + "".join(",".join(row) + end for row, end in zip(rows, ends))


# More than a 64 KiB chunk of line ends before the end of the header.
LONG_LEAD = "\r\n" * (1 << 15) + "\r"


def csv_module_outcome(path):
    """read_outcome of an extra-category load_csv, found by csv.reader on
    the file opened as text, or None where that read fails."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = [[t.strip() for t in row] for row in csv.reader(fh) if row]
    names, rows = records[0], records[1:]
    if not rows or any(len(row) != len(names) for row in rows):
        return None
    labels = [list(dict.fromkeys(column)) for column in zip(*rows)]
    if min(map(len, labels)) < 2:
        return None
    codes = [[f.index(t) for f, t in zip(labels, row)] for row in rows]
    return [(name, tuple(f)) for name, f in zip(names, labels)], codes


def many_label_lines():
    """(tokens, order, lines): 20 000 distinct one-word tokens, and 20 000
    records of two fields that hold them in a shuffled order."""
    rng = np.random.default_rng(5)
    tokens = [f"t{i}" if i % 2 else f"k_{i:05d}" for i in range(20_000)]
    order = rng.permutation(len(tokens))
    return tokens, order, [f"{tokens[i]},{'xy'[i % 2]}\n" for i in order]


def spy_on_tables(monkeypatch):
    """A list of the label table handed to each chunk."""
    tables = []
    code_plain_chunk = dataset._code_plain_chunk

    def spy(*chunk):
        tables.append(chunk[3])
        return code_plain_chunk(*chunk)

    monkeypatch.setattr(dataset, "_code_plain_chunk", spy)
    return tables


class TestByteChunks:
    """Chunks read as bytes and coded through one hashed label table give
    the record loop's rows, labels and errors."""

    @settings(max_examples=300)
    @given(byte_files(), st.sampled_from([7, 32, 1 << 16]))
    @example((2, LONG_LEAD + "c0,c1\r" + "x,y\r\ny,x\n" * 3), 1 << 16)
    @example((2, f'"{LONG_LEAD}c0",c1\n' + "x,y\ry,x\n" * 3), 1 << 16)
    def test_same_outcome_as_the_record_loop(self, file, chunk_chars):
        m, text = file
        labels = ("x", "y", "s0", "?", *LATE_TOKENS)
        variables = tuple(VariableMeta(f"c{i}", len(labels), labels) for i in range(m))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            reads = [
                (load_csv, path, "extra-category"),
                (load_csv, path, "reject"),
                (load_csv_with_labels, path, variables),
            ]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
                got = [read_outcome(*read) for read in reads]
                expected = [record_loop_outcome(*read) for read in reads]
            oracle = csv_module_outcome(path)
        assert got == expected
        assert oracle is None or got[0] == oracle

    @pytest.mark.parametrize("chunk_chars", [7, 64])
    def test_a_bom_and_crlf_file_is_coded_by_numpy(
        self, tmp_path, monkeypatch, chunk_chars
    ):
        # at 7 bytes, the header's chunk holds the header alone, and a read
        # ends between a "\r" and its "\n"
        text = "\ufeffa,b\r\n" + "x,1\r\ny,2\n" * 40 + "z,1"
        path = write(tmp_path, text)
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
        coded = spy_on_chunks(monkeypatch)
        ds = load_csv(path)
        assert len(coded) > 2 and all(coded)
        assert [v.name for v in ds.variables] == ["a", "b"]
        assert ds.variables[0].labels == ("x", "y", "z")
        assert ds.rows.tolist() == [[0, 0], [1, 1]] * 40 + [[2, 0]]

    @pytest.mark.parametrize("distinct", [4, 3000], ids=["few", "many"])
    def test_labels_first_seen_past_the_first_misses(
        self, tmp_path, monkeypatch, distinct
    ):
        # one chunk whose new labels keep appearing past the misses the table
        # takes first, so that it takes them over several rounds; when they
        # are many, over 2000 of them in all
        rng = np.random.default_rng(7)
        a = [f"t{i % distinct}" if i < 2000 else f"late{i % 3}" for i in range(3000)]
        b = [f"u{k}" for k in rng.integers(0, 3 + (np.arange(3000) > 2500))]
        text = "a,b\n" + "".join(f"{x},{y}\n" for x, y in zip(a, b))
        path = write(tmp_path, text)
        rows = reversed(text.splitlines(True)[1:])
        test = write(tmp_path, "a,b\n" + "".join(rows), "test.csv")
        monkeypatch.setattr(dataset, "_FIRST_MISSES", 64)
        coded = spy_on_chunks(monkeypatch)
        ds = load_csv(path)
        assert coded == [True]
        assert read_outcome(load_csv, path) == record_loop_outcome(load_csv, path)
        got = read_outcome(load_csv_with_labels, test, ds.variables)
        assert got == record_loop_outcome(load_csv_with_labels, test, ds.variables)

    @pytest.mark.parametrize(
        "first,second",
        [("abcdefgX", "abcdefgY"), ("abcdefg", "abcdefgh"), ("x", "y")],
        ids=["words-8", "width-8", "narrow"],
    )
    def test_one_home_slot_for_every_key(self, tmp_path, monkeypatch, first, second):
        # every key hashes to slot 0, so probing alone tells labels apart, and
        # the two columns hold the same labels in the other order
        monkeypatch.setattr(dataset, "_hash", np.zeros_like)
        rows = f"{first},{second}\n{second},{first}\n{first},{first}\n"
        train = write(tmp_path, "a,b\n" + rows, "train.csv")
        test = write(tmp_path, f"a,b\n{second},{second}\n{first},{first}\n", "test.csv")
        coded = spy_on_chunks(monkeypatch)
        plain = [read_outcome(load_csv, train)]
        variables = (
            VariableMeta("a", 2, (first, second)), VariableMeta("b", 2, (second, first))
        )
        assert plain[0][1] == [[0, 0], [1, 1], [0, 1]]
        plain.append(read_outcome(load_csv_with_labels, test, variables))
        assert coded == [True, True]
        assert plain == [
            record_loop_outcome(load_csv, train),
            record_loop_outcome(load_csv_with_labels, test, variables),
        ]

    def test_a_table_one_slot_cannot_hold_refuses_to_csv(self, tmp_path, monkeypatch):
        # test_many_labels_over_many_chunks' files with every key hashed to
        # slot 0: more labels than a probe may pass refuse their chunk
        lines = many_label_lines()[2]
        path = write(tmp_path, "a,b\n" + "".join(lines))
        test = write(tmp_path, "a,b\n" + "".join(reversed(lines)), "test.csv")
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 2048)
        expected = record_loop_outcome(load_csv, path)
        monkeypatch.setattr(dataset, "_hash", np.zeros_like)
        coded = spy_on_chunks(monkeypatch)
        assert read_outcome(load_csv, path) == expected
        assert coded == [False]
        ds = load_csv(path)
        coded.clear()
        expected = record_loop_outcome(load_csv_with_labels, test, ds.variables)
        assert read_outcome(load_csv_with_labels, test, ds.variables) == expected
        # the first chunk's labels do not fit either: csv reads it and the rest
        assert coded == [False]

    @pytest.mark.parametrize("chunk_chars", [64, 1 << 16])
    def test_a_label_first_seen_after_the_first_chunk(
        self, tmp_path, monkeypatch, chunk_chars
    ):
        # a labelled read adds a training label to the table on its first
        # miss, in whichever chunk that falls
        variables = (
            VariableMeta("a", 3, ("x", "y", "late_lbl")),
            VariableMeta("b", 2, ("1", "2")),
        )
        lines = ["x,1\n", "y,2\n"] * 10_000 + ["late_lbl,2\n", "x,1\n"]
        path = write(tmp_path, "a,b\n" + "".join(lines))
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
        coded = spy_on_chunks(monkeypatch)
        got = read_outcome(load_csv_with_labels, path, variables)
        assert len(coded) >= 2 and all(coded)
        assert got[1][-3:] == [[1, 1], [2, 1], [0, 0]]
        assert got == record_loop_outcome(load_csv_with_labels, path, variables)

    @pytest.mark.parametrize(
        "field,by_numpy",
        [
            ("abcdefgh", True),
            (" abcdefgh\t", False),
            ("abcdefghi", False),
            (" abcdefghi ", False),
        ],
        ids=["8", "8-padded", "9", "9-padded"],
    )
    def test_fields_of_at_most_8_bytes_are_coded_by_numpy(
        self, tmp_path, monkeypatch, field, by_numpy
    ):
        # only a bare field of at most 8 bytes is coded by numpy: a padded or
        # a wider one refuses its chunk, and csv strips what it reads
        path = write(tmp_path, f"a,b\nx,1\n{field},2\ny,1\n")
        coded = spy_on_chunks(monkeypatch)
        got = read_outcome(load_csv, path)
        assert coded == [by_numpy]
        assert got[0][0][1] == ("x", field.strip(), "y")
        assert got == record_loop_outcome(load_csv, path)

    @pytest.mark.parametrize("unknown", [False, True], ids=["rows", "error"])
    def test_a_wide_label_first_seen_after_the_first_chunk(
        self, tmp_path, monkeypatch, unknown
    ):
        # a 9-byte training label refuses the chunk it first appears in, and
        # csv reads that chunk on from its first record
        variables = (
            VariableMeta("a", 3, ("x", "y", "nine_byte")),
            VariableMeta("b", 2, ("1", "2")),
        )
        lines = ["x,1\n", "y,2\n"] * 10_000 + ["nine_byte,2\n", "x,1\n"]
        path = write(tmp_path, "a,b\n" + "".join(lines) + "q,2\n" * unknown)
        coded = spy_on_chunks(monkeypatch)
        got = read_outcome(load_csv_with_labels, path, variables)
        assert coded[0] is True and coded[-1] is False
        if unknown:
            assert got == (DataFormatError, f"{path}:20004: unknown value 'q' in column 'a'")
        else:
            assert got[1][-3:] == [[1, 1], [2, 1], [0, 0]]
        assert got == record_loop_outcome(load_csv_with_labels, path, variables)

    def test_the_chunk_that_fills_the_table_goes_to_csv(self, tmp_path, monkeypatch):
        # 3000 one-word labels, each new in its record, over chunks of 2 KiB:
        # the table holds at most 2048, so csv reads the chunk whose labels
        # would pass that, and the rest
        lines = [f"v{i},{'xy'[i % 2]}\n" for i in range(3000)]
        path = write(tmp_path, "a,b\n" + "".join(lines))
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 2048)
        chunks = []  # (records, coded) of each chunk
        code_plain_chunk = dataset._code_plain_chunk

        def spy(data, *rest):
            block = code_plain_chunk(data, *rest)
            chunks.append((data.count(b"\n"), block is not None))
            return block

        monkeypatch.setattr(dataset, "_code_plain_chunk", spy)
        expected = record_loop_outcome(load_csv, path)
        assert read_outcome(load_csv, path) == expected
        records, coded = zip(*chunks)
        assert len(coded) > 5 and coded == (True,) * (len(coded) - 1) + (False,)
        labels = 2 + sum(records[:-1])  # column b's two, and one a record
        assert labels <= 1 << (dataset._TABLE_BITS - 1) < labels + records[-1]
        variables = tuple(VariableMeta(n, len(f), f) for n, f in expected[0])
        chunks.clear()
        got = read_outcome(load_csv_with_labels, path, variables)
        assert got == record_loop_outcome(load_csv_with_labels, path, variables)
        assert tuple(coded for _, coded in chunks) == coded

    @pytest.mark.parametrize("chunk_chars", [64, 1 << 16])
    def test_an_unknown_token_after_the_first_chunk(
        self, tmp_path, monkeypatch, chunk_chars
    ):
        lines = ["x,1\n", "y,2\n"] * 10_000 + ["x,1\n", "q,2\n", "y,1\n"]
        path = write(tmp_path, "a,b\n" + "".join(lines))
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
        coded = spy_on_chunks(monkeypatch)
        got = read_outcome(load_csv_with_labels, path, AB_VARIABLES)
        assert got == (DataFormatError, f"{path}:20003: unknown value 'q' in column 'a'")
        assert coded[0] is True and coded[-1] is False
        assert got == record_loop_outcome(load_csv_with_labels, path, AB_VARIABLES)

    @pytest.mark.parametrize("one_slot", [False, True], ids=["hashed", "one-slot"])
    def test_keys_with_the_top_bit_set_stay_uint64(
        self, tmp_path, monkeypatch, one_slot
    ):
        # an ASCII key lies below 2**63, but XORed with column 0's salt its
        # top bit is set
        tokens = [f"label_{i:02d}" for i in range(12)]
        keys = np.array([int.from_bytes(t.encode(), "little") for t in tokens], np.uint64)
        assert (keys < np.uint64(1 << 63)).all()
        assert ((keys ^ dataset._SALT) >= np.uint64(1 << 63)).all()
        rows = [f"{tokens[i % 12]},{tokens[i * 5 % 12]}\n" for i in range(60)]
        train = write(tmp_path, "a,b\n" + "".join(rows), "train.csv")
        test = write(tmp_path, "a,b\n" + "".join(reversed(rows)), "test.csv")
        if one_slot:
            monkeypatch.setattr(dataset, "_hash", np.zeros_like)
        tables = spy_on_tables(monkeypatch)
        coded = spy_on_chunks(monkeypatch)
        ds = load_csv(train)
        got = read_outcome(load_csv_with_labels, test, ds.variables)
        assert coded == [True, True]
        for table in tables:
            assert table.key.dtype == np.uint64
            assert set(keys.tolist()) <= set(table.key[table.col >= 0].tolist())
        assert read_outcome(load_csv, train) == record_loop_outcome(load_csv, train)
        assert got == record_loop_outcome(load_csv_with_labels, test, ds.variables)

    @pytest.mark.parametrize("end", ["\n", "\r"], ids=["lf", "lone-cr"])
    def test_a_large_file_is_read_a_chunk_at_a_time(self, tmp_path, end):
        # 4 MB of plain records: a read that held the whole file would pass
        # the bound; a lone "\r" ends a chunk as "\n" does
        labels = [f"category_{k}_of_a_fairly_long_label_name" for k in range(8)]
        rng = np.random.default_rng(3)
        codes = rng.integers(0, len(labels), size=(28_000, 4))
        lines = (",".join(labels[k] for k in row) + end for row in codes)
        text = "a,b,c,d" + end + "".join(lines)
        path = write(tmp_path, text)
        del text
        assert path.stat().st_size >= 4 << 20
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20
        first = [list(dict.fromkeys(column)) for column in codes.T]
        assert [v.labels for v in ds.variables] == [
            tuple(labels[k] for k in f) for f in first
        ]
        expected = [[f.index(k) for f, k in zip(first, row)] for row in codes]
        assert ds.rows.tolist() == expected

    def test_mostly_empty_fields_are_coded_by_numpy(self, tmp_path, monkeypatch):
        # fields of under a byte on average, over several chunks: a chunk
        # holds fewer bytes than its 8-byte keys
        rng = np.random.default_rng(11)
        rows = np.array(["", "x", "y"])[rng.integers(0, 3, size=(20_000, 8))]
        text = "a,b,c,d,e,f,g,h\n" + "".join(",".join(row) + "\n" for row in rows)
        path = write(tmp_path, text)
        variables = tuple(VariableMeta(name, 3, ("", "x", "y")) for name in "abcdefgh")
        reads = [
            (load_csv, path, "extra-category"),
            (load_csv, path, "reject"),
            (load_csv_with_labels, path, variables),
        ]
        coded = spy_on_chunks(monkeypatch)
        got = [read_outcome(*read) for read in reads]
        assert len(coded) >= 3 * 4 and all(coded)
        assert got == [record_loop_outcome(*read) for read in reads]
        assert got[2][1] == [[("", "x", "y").index(t) for t in row] for row in rows]


@st.composite
def label_batches(draw):
    """(m, batches): batches of (columns, keys) of tokens for a label table
    of m columns, from a few labels met often to more than it holds."""
    m = draw(st.integers(1, 4))
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.sampled_from([1, 5, 100, 1500]))
        span = draw(st.sampled_from([4, 300, 1 << 20, 1 << 63]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keys = rng.integers(0, span, size, dtype=np.uint64)
        batches.append((rng.integers(0, m, size), keys))
    return m, batches


class TestLabelTable:
    @settings(max_examples=100, deadline=None)
    @given(label_batches(), st.booleans())
    def test_add_places_each_label_once_and_find_finds_it(self, problem, one_slot):
        # with `_hash` patched to zeros every key has home slot 0, so that a
        # probe past _MAX_PROBES labels refuses a batch
        m, batches = problem
        with pytest.MonkeyPatch.context() as patch:
            if one_slot:
                patch.setattr(dataset, "_hash", np.zeros_like)
            table = dataset._LabelTable(m)
            size = len(table.col)
            labels = {}  # (column, key) -> slot
            for cols, keys in batches:
                pairs = list(zip(cols.tolist(), keys.tolist()))
                first = {}  # each new label's first token
                for k, pair in enumerate(pairs):
                    if pair not in labels:
                        first.setdefault(pair, k)
                placed = table.add(cols, keys)
                held = len(labels) + len(first)
                if placed is None:  # the table is read no more
                    assert held > (dataset._MAX_PROBES if one_slot else size // 2)
                    break
                assert held <= (dataset._MAX_PROBES if one_slot else size // 2)
                slots, firsts = placed
                assert firsts.tolist() == list(first.values())
                table.code[slots[firsts]] = np.arange(len(labels), held)
                for pair, slot in zip(pairs, slots.tolist()):
                    assert labels.setdefault(pair, slot) == slot
                assert len(set(labels.values())) == table.count == held
                grid = np.zeros((len(keys), m), dtype=np.uint64)
                grid[np.arange(len(keys)), cols] = keys
                found = table.find(grid).reshape(-1, m)[np.arange(len(keys)), cols]
                assert found.tolist() == slots.tolist()
                full = np.flatnonzero(table.col >= 0)
                home = table._home(table.key[full] ^ table.salt[table.col[full]])
                assert ((full - home) % size < dataset._MAX_PROBES).all()


def read_through_a_pipe(path, data, read, *args):
    """read_outcome of a read of `data` through a named pipe at `path`, fed
    by one writer thread. A read that opens the pipe a second time would
    wait for a writer for ever: after 20 s one opens and closes it, so that
    the read finds it empty."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the read stopped at an error
            pass

    def release():
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader waits
            pass

    writer = threading.Thread(target=feed, daemon=True)
    watchdog = threading.Timer(20, release)
    writer.start()
    watchdog.start()
    try:
        return read_outcome(read, path, *args)
    finally:
        watchdog.cancel()
        writer.join(timeout=20)
        assert not writer.is_alive()


# A line that faults a read, the read, and its error. The labelled read
# knows the labels of the plain lines around the faults.
AB_VARIABLES = (VariableMeta("a", 2, ("x", "y")), VariableMeta("b", 2, ("1", "2")))
RECORD_FAULTS = {
    "ragged": (b"y\n", (load_csv,), "expected 2 fields, found 1"),
    "unknown": (b"q,1\n", (load_csv_with_labels, AB_VARIABLES),
                "unknown value 'q' in column 'a'"),
    "missing": (b"?,1\n", (load_csv, "reject"), "missing value in column 'a'"),
}


# Pieces of a chunk: ASCII text, a two-byte character and line ends.
LINE_PIECES = st.sampled_from(["é", "\r", "\n", "\r\n"]) | st.text(
    st.characters(max_codepoint=127), max_size=4
)


class TestLines:
    @settings(max_examples=300)
    @given(st.lists(LINE_PIECES), st.sampled_from(["", "\r", "\n", "\r\n"]))
    def test_split_as_text_read_with_newline_empty(self, pieces, end):
        chunk = ("".join(pieces) + end).encode("utf-8")
        lines = list(dataset._lines(chunk))
        assert b"".join(lines) == chunk
        text = io.StringIO(chunk.decode("utf-8"), newline="")
        assert [line.decode("utf-8") for line in lines] == list(text)


class TestOneChunkStream:
    """numpy and csv read one stream of chunks, so a pipe reads as a file
    does and the fault on the earliest line is the one reported."""

    @pytest.mark.parametrize(
        "body",
        [
            b"x,1\ny,2\nz,1\n" * 20_000,
            b"x,1\ny,2\nz,1\n" * 12_000 + b'"x",2\n' + b"y,1\n" * 5000,
            b"x,1\ny,2\n" * 20_000 + b"\xff,1\n" + b"y,1\n" * 50,
        ],
        ids=["plain", "quoted-third-chunk", "not-utf8-late"],
    )
    def test_a_pipe_reads_as_a_file(self, tmp_path, monkeypatch, body):
        data = b"a,b\n" + body
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        coded = spy_on_chunks(monkeypatch)
        expected = read_outcome(load_csv, path)
        file_coded = coded.copy()
        assert len(file_coded) >= 3 and file_coded[:2] == [True, True]
        path.unlink()
        coded.clear()
        assert read_through_a_pipe(path, data, load_csv) == expected
        assert coded == file_coded
        if b"\xff" in body:
            assert expected[1] == f"{path}: not UTF-8 text (invalid start byte)"

    def test_a_record_fault_before_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b\nx,1\ny\n\xff,2\n")
        assert read_outcome(load_csv, path) == (
            DataFormatError, f"{path}:3: expected 2 fields, found 1"
        )

    def test_records_after_a_lone_cr_on_the_header_line(self, tmp_path):
        # the records that follow a header ending in a lone "\r" are read
        # from the header's chunk, faults in file order
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b\rx,1\ny,2\n")
        assert read_outcome(load_csv, path) == (
            [("a", ("x", "y")), ("b", ("1", "2"))], [[0, 0], [1, 1]]
        )
        path.write_bytes(b"a,b\ry\r\xff\n")
        assert read_outcome(load_csv, path) == (
            DataFormatError, f"{path}:2: expected 2 fields, found 1"
        )

    def test_records_after_a_header_that_is_not_ascii(self, tmp_path):
        # numpy reads the header's chunk from the header's last byte on
        path = tmp_path / "data.csv"
        path.write_bytes("é,naïve\nx,1\ny,2\n".encode("utf-8"))
        assert read_outcome(load_csv, path) == (
            [("é", ("x", "y")), ("naïve", ("1", "2"))], [[0, 0], [1, 1]]
        )

    @pytest.mark.parametrize("chunk_chars", [7, 32, 1 << 16])
    @pytest.mark.parametrize("apart", [False, True], ids=["same-chunk", "other-chunks"])
    @pytest.mark.parametrize("record_first", [True, False], ids=["record", "utf8"])
    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_the_earlier_fault_is_reported(
        self, tmp_path, monkeypatch, fault, record_first, apart, chunk_chars
    ):
        # faults on neighbouring lines, or with more than a chunk of plain
        # lines between them, after a few plain lines; the bad byte follows a
        # valid one on its line
        line, (read, *args), message = RECORD_FAULTS[fault]
        gap = [b"x,1\n"] * (chunk_chars // 4 + 2 if apart else 0)
        faults = [line, b"x\xff,2\n"]
        if not record_first:
            faults.reverse()
        lines = [b"a,b\n"] + [b"x,1\n", b"y,2\n"] * 3 + faults[:1] + gap + faults[1:]
        lines.append(b"y,1\n")
        path = tmp_path / "data.csv"
        path.write_bytes(b"".join(lines))
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", chunk_chars)
        got = read_outcome(read, path, *args)
        if record_first:
            where = lines.index(line) + 1
            assert got[1] == f"{path}:{where}: {message}"
        else:
            assert got[1] == f"{path}: not UTF-8 text (invalid start byte)"
        assert got == record_loop_outcome(read, path, *args)


class TestSplit:
    def test_sizes_91_10(self):
        rng = np.random.default_rng(3)
        ds = make_dataset([rng.integers(0, 2, 101), rng.integers(0, 3, 101)])
        train, test = split_train_test(ds, 0.1, seed=7)
        assert (train.n_cases, test.n_cases) == (91, 10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        ds = make_dataset([rng.integers(0, 2, 50), rng.integers(0, 2, 50)])
        a = split_train_test(ds, 0.2, seed=11)
        b = split_train_test(ds, 0.2, seed=11)
        assert np.array_equal(a[0].rows, b[0].rows)
        assert np.array_equal(a[1].rows, b[1].rows)
        c = split_train_test(ds, 0.2, seed=12)
        assert not np.array_equal(a[1].rows, c[1].rows)

    def test_partition(self):
        rng = np.random.default_rng(5)
        col = rng.integers(0, 4, 40)
        ds = make_dataset([col, rng.integers(0, 2, 40)])
        train, test = split_train_test(ds, 0.25, seed=0)
        assert train.n_cases + test.n_cases == 40
        merged = np.vstack([train.rows, test.rows])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.rows))
        assert train.variables == ds.variables

    def test_fraction_bounds(self):
        ds = make_dataset([[0, 1] * 10, [1, 0] * 10])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_train_test(ds, bad, seed=0)

    @pytest.mark.parametrize(
        "n,fraction,which",
        [(5, 0.1, "test"), (2, 0.99, "train")],  # floor(0.5) < 1; 2 - 2 < 1
    )
    def test_too_small_for_split(self, n, fraction, which):
        ds = make_dataset([[k % 2 for k in range(n)], [(k + 1) % 2 for k in range(n)]])
        with pytest.raises(ValueError, match=f"{which} split would be empty"):
            split_train_test(ds, fraction, seed=0)


class TestMixedRadix:
    def test_round_trip(self):
        arities = (3, 2, 4)
        total = 24
        seen = set()
        for index in range(total):
            digits = config_digits(index, arities)
            assert config_index(digits, arities) == index
            seen.add(digits)
        assert len(seen) == total

    def test_first_parent_most_significant(self):
        assert config_index((1, 0), (2, 3)) == 3
        assert config_index((0, 2), (2, 3)) == 2
        assert config_digits(5, (2, 3)) == (1, 2)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            config_index((2, 0), (2, 3))
        with pytest.raises(ValueError):
            config_digits(6, (2, 3))
        with pytest.raises(ValueError, match="digit count"):
            config_index((1,), (2, 3))

    def test_non_integer_digits_and_indices_refused(self):
        # int() would read these as the digit 1 and the index 2 = (1, 0)
        with pytest.raises(ValueError, match="digit must be an integer"):
            config_index((1.7,), (2,))
        with pytest.raises(ValueError, match="configuration index must be an integer"):
            config_digits(2.9, (2, 2))
        assert config_index((np.int64(1), np.int8(2)), (2, 3)) == 5
        assert config_digits(np.int32(5), (2, 3)) == (1, 2)

    def test_digits_check_their_arities(self):
        # an arity of 0 once divided by zero, and -2 and 2.0 gave digits
        for arities in ((0,), (-2,)):
            with pytest.raises(ValueError, match="at least 1"):
                config_digits(0, arities)
            with pytest.raises(ValueError):
                config_index((0,), arities)
        with pytest.raises(ValueError, match="parent arity must be an integer"):
            config_digits(3, (2.0, 2))
        assert config_digits(0, (1, np.int8(2))) == (0, 0)

    def test_index_checks_its_arities(self):
        # a float arity once gave a float index: (2.0,) gave 1.0 and
        # (2.5, 3) gave 4.0
        for digits, arities in (((1,), (2.0,)), ((1, 1), (2.5, 3))):
            with pytest.raises(ValueError, match="parent arity must be an integer"):
                config_index(digits, arities)
        for arities in ((0,), (-2,), (2, 0)):
            with pytest.raises(ValueError, match="at least 1"):
                config_index((0,) * len(arities), arities)
        index = config_index((np.int64(1), 2), (np.int8(2), 3))
        assert index == 5 and type(index) is int


class TestCounts:
    def test_direct_tally(self):
        # (child, parent) pairs: (0,0), (1,0), (1,1), (1,1)
        ds = make_dataset([[0, 1, 1, 1], [0, 0, 1, 1]])
        counts = counts_for(ds, 0, (1,))
        table = counts.dense()
        assert table.tolist() == [[1, 1], [0, 2]]
        assert counts.config_totals.tolist() == [2, 2]
        assert counts.n_cases == 4

    @pytest.mark.parametrize("trusted", [False, True], ids=["checked", "tallied"])
    def test_config_totals_are_summed_once_and_read_only(self, trusted):
        rng = np.random.default_rng(41)
        if trusted:
            ds = make_dataset(rng.integers(0, 3, size=(3, 400)), arities=[3, 3, 3])
            counts = counts_for(ds, 0, (1, 2))
        else:
            table = rng.integers(0, 9, size=(3240, 5))
            table[::7] = 0  # unobserved configurations
            counts = ContingencyCounts.from_dense(5, (3, 5, 4, 3, 3, 2, 3), table)
        totals = counts.config_totals
        assert np.array_equal(totals, counts.counts.sum(axis=1))
        assert totals.dtype == np.int64
        assert not totals.flags.writeable
        with pytest.raises(ValueError):
            totals[0] = 0
        assert counts.config_totals is totals

    def test_marginal_histogram(self):
        ds = make_dataset([[0, 1, 2, 1, 1], [0, 1, 0, 1, 0]], arities=[3, 2])
        counts = counts_for(ds, 0, ())
        assert counts.n_parents == 0
        assert counts.n_configs == 1
        assert counts.dense().tolist() == [[1, 3, 1]]
        empty = ContingencyCounts(3, (), np.zeros((0, 0)), np.zeros((0, 3)))
        assert empty.dense().tolist() == [[0, 0, 0]]

    def test_two_parent_ordering(self):
        # parents (a, b) with arities (2, 3): configuration index is a*3 + b
        a = [0, 0, 1, 1, 1, 0]
        b = [0, 2, 1, 1, 0, 2]
        y = [0, 1, 0, 1, 1, 1]
        ds = make_dataset([y, a, b], arities=[2, 2, 3])
        counts = counts_for(ds, 0, (1, 2))
        dense = counts.dense()
        assert dense.shape == (6, 2)
        assert dense[0].tolist() == [1, 0]  # (a=0, b=0)
        assert dense[2].tolist() == [0, 2]  # (a=0, b=2)
        assert dense[3].tolist() == [0, 1]  # (a=1, b=0)
        assert dense[4].tolist() == [1, 1]  # (a=1, b=1)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(9)
        cols = [rng.integers(0, 3, 60), rng.integers(0, 2, 60), rng.integers(0, 2, 60)]
        ds = make_dataset(cols, arities=[3, 2, 2])
        perm = rng.permutation(60)
        shuffled = ds.subset(perm)
        before = counts_for(ds, 0, (2, 1))
        after = counts_for(shuffled, 0, (2, 1))
        assert np.array_equal(before.dense(), after.dense())

    def test_conservation_random(self):
        rng = np.random.default_rng(10)
        arities = (2, 3, 2, 4)
        cols = [rng.integers(0, r, 200) for r in arities]
        ds = make_dataset(cols, arities=list(arities))
        for child in range(4):
            others = tuple(i for i in range(4) if i != child)
            for parents in [(), others[:1], others[:2], others]:
                counts = counts_for(ds, child, parents)
                assert counts.n_cases == 200
                assert np.array_equal(
                    counts.counts.sum(axis=0),
                    np.bincount(ds.rows[:, child], minlength=arities[child]),
                )

    def test_argument_errors(self):
        ds = make_dataset([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            counts_for(ds, 0, (0,))
        with pytest.raises(ValueError):
            counts_for(ds, 0, (1, 1))
        with pytest.raises(ValueError):
            counts_for(ds, 5, ())
        with pytest.raises(ValueError):
            counts_for(ds, 0, (9,))

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(11)
        table = rng.integers(0, 5, size=(6, 3))
        counts = ContingencyCounts.from_dense(3, (2, 3), table)
        assert np.array_equal(counts.dense(), table)
        assert counts.n_configs == 6
        # all-zero rows are dropped from the observed set
        table[2] = 0
        counts = ContingencyCounts.from_dense(3, (2, 3), table)
        assert counts.n_observed == sum(1 for row in table if row.sum() > 0)
        assert np.array_equal(counts.dense(), table)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContingencyCounts(2, (2,), np.array([[0], [0]]), np.array([[1, 0], [2, 1]]))
        with pytest.raises(ValueError):
            ContingencyCounts(2, (2,), np.array([[0]]), np.array([[-1, 0]]))
        with pytest.raises(ValueError):
            ContingencyCounts(2, (2,), np.array([[3]]), np.array([[1, 0]]))
        with pytest.raises(ValueError, match="configuration array shape"):
            ContingencyCounts(2, (2,), np.array([0, 1]), np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="count array shape"):
            ContingencyCounts(2, (2,), np.array([[0]]), np.array([[1, 0, 0]]))
        with pytest.raises(ValueError, match=r"shape \(5, 2\) does not match \(6, 2\)"):
            ContingencyCounts.from_dense(2, (2, 3), np.zeros((5, 2), dtype=int))

    def test_non_integer_counts_and_digits_refused(self):
        # the casts would truncate a count of 1.7 to 1 and wrap a digit of
        # 2^32 to 0
        with pytest.raises(ValueError, match="counts must be integers"):
            ContingencyCounts(2, (2,), np.array([[0]]), np.array([[1.7, 0.0]]))
        with pytest.raises(ValueError, match="counts must be integers"):
            ContingencyCounts.from_dense(2, (2,), np.array([[1.7, 0.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="must be integers"):
            ContingencyCounts(2, (2,), np.array([[0.5]]), np.array([[1, 0]]))
        with pytest.raises(ValueError, match="out of range"):
            ContingencyCounts(
                2, (2,), np.array([[2**32]], dtype=np.int64), np.array([[1, 0]])
            )
        # a row whose counts sum to zero or less is still refused if any is
        # negative, not dropped as unobserved
        with pytest.raises(ValueError, match="non-negative"):
            ContingencyCounts.from_dense(2, (2,), np.array([[-1, 1], [1, 1]]))
        counts = ContingencyCounts(
            2, (2,), np.array([[False], [True]]), np.array([[1, 0], [0, 1]], np.uint8)
        )
        assert counts.config_digits.dtype == np.int32
        assert counts.counts.dtype == np.int64
        assert counts.dense().tolist() == [[1, 0], [0, 1]]

    def test_non_integer_indices_refused(self):
        # int() would tally against parent 0 for 0.9
        ds = make_dataset([[0, 1, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError, match="parent index must be an integer"):
            counts_for(ds, 2, (0.9,))
        with pytest.raises(ValueError, match="child index must be an integer"):
            counts_for(ds, 1.5, (0,))
        numpy = counts_for(ds, np.int64(2), (np.int32(0),))
        assert numpy.dense().tolist() == counts_for(ds, 2, (0,)).dense().tolist()

    def test_non_integer_arities_refused(self):
        # a parent arity of 2.5 was kept and dense() then failed on it
        with pytest.raises(ValueError, match="parent arity must be an integer"):
            ContingencyCounts(2, (2.5,), np.array([[0]]), np.array([[1, 0]]))
        with pytest.raises(ValueError, match="child arity must be an integer"):
            ContingencyCounts(2.0, (2,), np.array([[0]]), np.array([[1, 0]]))
        counts = ContingencyCounts(
            np.int64(2), (np.int32(2),), np.array([[1]]), np.array([[1, 0]])
        )
        assert type(counts.child_arity) is int
        assert all(type(r) is int for r in counts.parent_arities)
        assert counts.dense().tolist() == [[0, 0], [1, 0]]

    def test_dense_table_cap(self):
        wide = (1 << 11, 1 << 11)
        counts = ContingencyCounts(2, wide, np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(CapacityError, match="8388608 cells"):
            counts.dense()

    def test_rows_must_be_sorted(self):
        # distinct rows out of lexicographic order are refused
        with pytest.raises(ValueError, match="sorted"):
            ContingencyCounts(
                2, (2, 3), np.array([[0, 2], [0, 1]]), np.array([[1, 0], [0, 1]])
            )
        with pytest.raises(ValueError):
            ContingencyCounts(
                2, (2, 3), np.array([[1, 0], [0, 2]]), np.array([[1, 0], [0, 1]])
            )
        # with no parents there is one configuration, so one row at most
        with pytest.raises(ValueError, match="sorted"):
            ContingencyCounts(2, (), np.zeros((2, 0)), np.array([[1, 0], [0, 1]]))
        sorted_rows = ContingencyCounts(
            2, (2, 3), np.array([[0, 2], [1, 0]]), np.array([[1, 0], [0, 1]])
        )
        assert sorted_rows.n_observed == 2


@st.composite
def count_problems(draw, max_variables=5, max_cases=40, max_arity=4):
    """A small random dataset with a child and an ordered parent tuple."""
    m = draw(st.integers(1, max_variables))
    arities = draw(st.lists(st.integers(2, max_arity), min_size=m, max_size=m))
    n = draw(st.integers(0, max_cases))
    columns = [
        draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)) for r in arities
    ]
    ds = make_dataset(columns, arities=arities)
    child = draw(st.integers(0, m - 1))
    others = draw(st.permutations([v for v in range(m) if v != child]))
    parents = tuple(others[: draw(st.integers(0, len(others)))])
    return ds, child, parents


def tally(ds, child, parents):
    """Observed configurations in lexicographic order and their child counts,
    tallied case by case."""
    seen = Counter(
        (tuple(int(row[p]) for p in parents), int(row[child])) for row in ds.rows
    )
    configs = sorted({config for config, _ in seen})
    table = [[seen[(config, k)] for k in range(ds.arity(child))] for config in configs]
    return [list(config) for config in configs], table


class TestCountsProperties:
    @given(
        st.integers(2, 3),
        st.lists(st.integers(1, 5), max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_dense_digits_are_config_digits(self, r_y, arities, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 2, size=(math.prod(arities), r_y))
        counts = ContingencyCounts.from_dense(r_y, arities, table)
        observed = np.flatnonzero(table.any(axis=1))
        assert counts.config_digits.dtype == np.int32
        assert counts.config_digits.shape == (len(observed), len(arities))
        rows = [config_digits(int(i), arities) for i in observed]
        assert list(map(tuple, counts.config_digits.tolist())) == rows

    @given(count_problems())
    # no cases: the key is re-ranked before any parent's codes are read
    @example((make_dataset([[], [], []], arities=[2, 3, 4]), 0, (1, 2)))
    # 16 configurations of two 4-state parents outnumber the 5 cases
    @example(
        (
            make_dataset([[0, 1, 1, 0, 1], [0, 3, 2, 3, 0], [1, 2, 2, 0, 3]], arities=[2, 4, 4]),
            0,
            (2, 1),
        )
    )
    def test_matches_case_by_case_tally(self, problem):
        ds, child, parents = problem
        for tested in (parents, ()):
            counts = counts_for(ds, child, tested)
            configs, table = tally(ds, child, tested)
            assert counts.config_digits.tolist() == configs
            assert counts.counts.tolist() == table
            # built unchecked, so it must be what the checked constructor builds
            checked = ContingencyCounts(
                counts.child_arity,
                counts.parent_arities,
                counts.config_digits,
                counts.counts,
            )
            assert np.array_equal(checked.config_digits, counts.config_digits)
            assert np.array_equal(checked.counts, counts.counts)
            assert counts.parent_arities == checked.parent_arities
            for built in (counts, checked):
                assert built.config_digits.dtype == np.int32
                assert built.counts.dtype == np.int64
                assert not built.config_digits.flags.writeable
                assert not built.counts.flags.writeable
                # child-major: the counts are the view of a C-contiguous
                # (r_y, n_observed) array, and the totals its sums across rows
                assert built.counts.T.flags.c_contiguous
                totals = built.config_totals
                assert np.array_equal(totals, built.counts.sum(axis=1))
                assert totals.dtype == np.int64
                assert not totals.flags.writeable

    @given(st.data())
    def test_row_permutation_invariant(self, data):
        ds, child, parents = data.draw(count_problems())
        perm = data.draw(st.permutations(range(ds.n_cases)))
        before = counts_for(ds, child, parents)
        after = counts_for(ds.subset(np.array(perm, dtype=np.int64)), child, parents)
        assert np.array_equal(before.config_digits, after.config_digits)
        assert np.array_equal(before.counts, after.counts)

    def test_wide_arities_rerank_and_stay_exact(self, monkeypatch):
        # nine parents of arity 300: the mixed-radix product 300^9 passes
        # 2^62, so the key must be re-ranked part way through
        arities = [3] + [300] * 9
        assert math.prod(arities[1:]) >= 1 << 62
        rng = np.random.default_rng(12)
        distinct = np.stack([rng.integers(0, r, 60) for r in arities], axis=1)
        rows = distinct[rng.integers(0, 60, 400)]
        ds = make_dataset(rows.T, arities=arities)
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(None)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        parents = tuple(range(1, 10))
        counts = counts_for(ds, 0, parents)
        assert len(calls) >= 2  # at least one re-rank before the final tally
        configs, table = tally(ds, 0, parents)
        assert counts.config_digits.tolist() == configs
        assert counts.counts.tolist() == table

    def test_radix_passing_the_case_count_reranks(self, monkeypatch):
        # six parents of arity 10 on 200 cases: 10^6 configurations is far
        # below 2^62 but above the case count, so the key is re-ranked and
        # the dense tally stays within n * 10 * r_y cells
        arities = [3] + [10] * 6
        rng = np.random.default_rng(13)
        rows = np.stack([rng.integers(0, r, 200) for r in arities], axis=1)
        ds = make_dataset(rows.T, arities=arities)
        unique_calls, tally_lengths = [], []
        unique, bincount = np.unique, np.bincount

        def counting_unique(*args, **kwargs):
            unique_calls.append(None)
            return unique(*args, **kwargs)

        def measured_bincount(*args, **kwargs):
            table = bincount(*args, **kwargs)
            tally_lengths.append(len(table))
            return table

        monkeypatch.setattr(np, "unique", counting_unique)
        monkeypatch.setattr(np, "bincount", measured_bincount)
        parents = tuple(range(1, 7))
        counts = counts_for(ds, 0, parents)
        assert len(unique_calls) >= 1
        assert tally_lengths and max(tally_lengths) <= 200 * 10 * 3
        configs, table = tally(ds, 0, parents)
        assert counts.config_digits.tolist() == configs
        assert counts.counts.tolist() == table


    @given(count_problems(max_variables=6, max_cases=12, max_arity=9))
    def test_wide_keys_match_the_case_by_case_tally(self, problem):
        # arities up to 9 on at most 12 cases: most keys with two or more
        # parents pass the case count and are re-ranked, the rest are read
        # off the mixed-radix index
        ds, child, parents = problem
        counts = counts_for(ds, child, parents)
        configs, table = tally(ds, child, parents)
        assert counts.config_digits.tolist() == configs
        assert counts.counts.tolist() == table
        assert counts.config_digits.shape == (len(configs), len(parents))
        assert counts.config_digits.dtype == np.int32
        assert counts.counts.dtype == np.int64

    @given(count_problems())
    def test_columns_are_the_rows_read_by_variable(self, problem):
        ds = problem[0]
        columns = ds.columns
        assert columns is ds.columns  # made once
        assert columns.dtype == np.int64 and columns.flags.c_contiguous
        assert not columns.flags.writeable
        assert np.array_equal(columns, ds.rows.T)


def reference_config_keys(columns, arities, n):
    """config_keys written as one fresh array per parent."""
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


class TestConfigKeys:
    @given(
        st.lists(st.integers(2, 9), max_size=5),
        st.integers(0, 30),
        st.integers(0, 2**32 - 1),
    )
    # no cases: the key is re-ranked before any parent's codes are read
    @example([4, 3], 0, 0)
    def test_matches_the_reference_and_leaves_the_columns_alone(self, arities, n, seed):
        # up to five parents of arity up to 9 on at most 30 cases: most keys
        # of two or more parents are re-ranked
        rng = np.random.default_rng(seed)
        columns = [rng.integers(0, r, n) for r in arities]
        before = [column.copy() for column in columns]
        key, radix, reranked = dataset.config_keys(columns, arities, n)
        expected, expected_radix, expected_reranked = reference_config_keys(
            before, arities, n
        )
        assert key.dtype == np.int64
        assert np.array_equal(key, expected)
        assert (radix, reranked) == (expected_radix, expected_reranked)
        for column, copy in zip(columns, before):
            assert np.array_equal(column, copy)
            assert not np.shares_memory(key, column)


class TestDatasetContainer:
    def test_rows_read_only(self):
        ds = make_dataset([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 1

    def test_subset_metadata_shared(self):
        ds = make_dataset([[0, 1, 0], [1, 0, 1]])
        sub = ds.subset([2, 0])
        assert sub.variables is ds.variables
        assert sub.rows.tolist() == [[0, 1], [0, 1]]

    def test_code_bounds_checked(self):
        meta = make_dataset([[0, 1], [1, 0]]).variables
        with pytest.raises(DataFormatError):
            DiscreteDataset(meta, np.array([[0, 5], [1, 0]]))
        for rows in ([0, 1], [[0, 1, 0]]):  # one dimension, three columns
            with pytest.raises(DataFormatError, match="does not match 2 variables"):
                DiscreteDataset(meta, np.array(rows))

    def test_codes_are_checked_before_the_int32_cast(self):
        # the cast would read 0.7 as 0 and wrap 2^32 to 0
        meta = make_dataset([[0, 1], [1, 0]]).variables
        with pytest.raises(DataFormatError, match="codes must be integers"):
            DiscreteDataset(meta, np.array([[0.7, 1.0], [1.0, 0.0]]))
        with pytest.raises(DataFormatError, match="outside"):
            DiscreteDataset(meta, np.array([[2**32, 1], [1, 0]], dtype=np.int64))
        for dtype in (bool, np.uint8, np.int64):
            ds = DiscreteDataset(meta, np.array([[0, 1], [1, 0]], dtype=dtype))
            assert ds.rows.dtype == np.int32
            assert ds.rows.tolist() == [[0, 1], [1, 0]]
        assert DiscreteDataset(meta, np.zeros((0, 2))).n_cases == 0

    @pytest.mark.parametrize(
        "arity,labels,error,message",
        [
            (1, ("a",), DegenerateVariableError, "has arity 1; need at least 2"),
            (3, ("a", "b"), DataFormatError, "2 labels for arity 3"),
            (2, ("a", "a"), DataFormatError, "has duplicate labels"),
            (2.0, ("a", "b"), DataFormatError, "arity must be an integer"),
        ],
        ids=["arity", "label-count", "duplicate", "non-integer-arity"],
    )
    def test_variable_meta_checked(self, arity, labels, error, message):
        with pytest.raises(error, match=message):
            VariableMeta("v", arity, labels)
