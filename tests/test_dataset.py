"""Loading, splitting and counting."""

import csv
import math
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
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
from mmlbn.errors import (
    CapacityError,
    DataFormatError,
    DegenerateVariableError,
    MissingValueError,
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
        # text is decoded a block at a time, so no record can be named
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


class TestCounts:
    def test_direct_tally(self):
        # (child, parent) pairs: (0,0), (1,0), (1,1), (1,1)
        ds = make_dataset([[0, 1, 1, 1], [0, 0, 1, 1]])
        counts = counts_for(ds, 0, (1,))
        table = counts.dense()
        assert table.tolist() == [[1, 1], [0, 2]]
        assert counts.config_totals.tolist() == [2, 2]
        assert counts.n_cases == 4

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
    @given(count_problems())
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
            assert counts.config_digits.dtype == np.int32
            assert counts.counts.dtype == np.int64
            assert not counts.config_digits.flags.writeable
            assert not counts.counts.flags.writeable

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

    @pytest.mark.parametrize(
        "arity,labels,error,message",
        [
            (1, ("a",), DegenerateVariableError, "has arity 1; need at least 2"),
            (3, ("a", "b"), DataFormatError, "2 labels for arity 3"),
            (2, ("a", "a"), DataFormatError, "has duplicate labels"),
        ],
        ids=["arity", "label-count", "duplicate"],
    )
    def test_variable_meta_checked(self, arity, labels, error, message):
        with pytest.raises(error, match=message):
            VariableMeta("v", arity, labels)
