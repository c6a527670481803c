"""End-to-end command line runs against temporary CSV files."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmlbn
from mmlbn import ModelPolicy, NetworkScorer, fom_message_length, load_csv
from mmlbn import network_message_length
from mmlbn.cli import _build_parser, _sampler_config, main, parse_structure_file
from mmlbn.errors import CycleError, DataFormatError, ParameterCapError
from mmlbn.graph import DagStructure
from mmlbn.sampler import SamplerConfig


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(80)
    x = rng.integers(0, 2, size=150)
    noise = rng.random(150) < 0.08
    y = np.where(noise, 1 - x, x)
    lines = ["a,b"] + [f"v{int(xi)},v{int(yi)}" for xi, yi in zip(x, y)]
    path = tmp_path / "train.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def test_csv(tmp_path):
    rng = np.random.default_rng(81)
    x = rng.integers(0, 2, size=30)
    lines = ["a,b"] + [f"v{int(xi)},v{int(xi)}" for xi in x]
    path = tmp_path / "test.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def triple_csv(tmp_path):
    """Three variables, the third an additive logit of the first two; at seed 2
    a dual chain reports both a table-only class and one with a logit node."""
    rng = np.random.default_rng(82)
    x = rng.integers(0, 4, size=300)
    z = rng.integers(0, 4, size=300)
    logits = np.stack([np.zeros(300), 0.9 * x - 1.5, 0.9 * z - 1.5], axis=1)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    y = (rng.random(300)[:, None] > probs.cumsum(axis=1)).sum(axis=1)
    lines = ["x,z,y"] + [f"{a},{b},{c}" for a, b, c in zip(x, z, y)]
    path = tmp_path / "triple.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def wide_csv(tmp_path):
    """A 25-variable file, one more than the structure prior handles."""
    path = tmp_path / "wide.csv"
    header = ",".join(f"x{i}" for i in range(25))
    rows = [",".join(str((r + i) % 2) for i in range(25)) for r in range(6)]
    path.write_text("\n".join([header] + rows) + "\n")
    return path


WIDE_MESSAGE = "the structure prior handles at most 24 variables; this network has 25"


def run_json(args, out_path):
    code = main(args + ["--out", str(out_path)])
    assert code == 0
    with open(out_path) as fh:
        return json.load(fh)


class TestLearn:
    def test_report_contents(self, train_csv, tmp_path):
        report = run_json(
            [
                "learn",
                "--data",
                str(train_csv),
                "--iterations",
                "600",
                "--burn-in",
                "100",
                "--seed",
                "1",
            ],
            tmp_path / "report.json",
        )
        assert report["config"]["command"] == "learn"
        assert report["config"]["iterations"] == 600
        assert report["dataset"]["cases"] == 150
        assert [v["name"] for v in report["dataset"]["variables"]] == ["a", "b"]
        assert report["total_samples"] == 500
        classes = report["classes"]
        assert classes and sum(c["weight"] for c in classes) <= 1.0 + 1e-9
        top = classes[0]
        assert top["arcs"] in (["0->1"], ["1->0"])
        assert top["visits"] <= report["total_samples"]
        assert len(top["per_node"]) == 2
        assert report["summary"]["best_length"] <= top["best_length"]

    @pytest.mark.parametrize("model", ["tbn", "fon", "dual"])
    def test_per_node_entries_are_the_node_scores(self, triple_csv, tmp_path, model):
        report = run_json(
            [
                "learn",
                "--data",
                str(triple_csv),
                "--model",
                model,
                "--iterations",
                "400",
                "--burn-in",
                "50",
                "--seed",
                "2",
            ],
            tmp_path / "report.json",
        )
        ds = load_csv(triple_csv)
        scorer = NetworkScorer(ds, ModelPolicy(model))
        models = {n["model"] for c in report["classes"] for n in c["per_node"]}
        expected_models = {"tbn": {"full"}, "fon": {"fom"}, "dual": {"full", "fom"}}
        assert models == expected_models[model]
        for c in report["classes"]:
            arcs = [tuple(int(v) for v in arc.split("->")) for arc in c["arcs"]]
            dag = DagStructure.from_arcs(ds.n_variables, arcs)
            expected = []
            for child, parents in enumerate(dag.parent_sets):
                score = scorer.node_score(child, parents)
                expected.append(
                    {"model": score.chosen_model, "params": score.parameter_count}
                )
            assert c["per_node"] == expected

    def test_stdout_when_no_out_flag(self, train_csv, capsys):
        code = main(
            [
                "learn",
                "--data",
                str(train_csv),
                "--iterations",
                "200",
                "--burn-in",
                "50",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["command"] == "learn"

    def test_deterministic_across_runs(self, train_csv, tmp_path):
        args = [
            "learn",
            "--data",
            str(train_csv),
            "--iterations",
            "300",
            "--burn-in",
            "50",
            "--seed",
            "7",
        ]
        a = run_json(args, tmp_path / "a.json")
        b = run_json(args, tmp_path / "b.json")
        assert a == b

    def test_deterministic_across_hash_seeds(self, tmp_path):
        """Two interpreters with different string hashing write the same
        report bytes: nothing the report holds follows set or hash order.
        The short chain from the empty network reports classes with equal
        visits, whose order the class keys decide."""
        rng = np.random.default_rng(82)
        rows = rng.integers(0, 3, size=(200, 8))
        for v in range(1, 8):
            noise = rng.random(200) < 0.4
            rows[:, v] = np.where(noise, rows[:, v], rows[:, v - 1])
        names = ["red", "green", "blue"]
        lines = ["a,b,c,d,e,f,g,h"] + [",".join(names[x] for x in row) for row in rows]
        data = tmp_path / "chain.csv"
        data.write_text("\n".join(lines) + "\n")
        paths = [str(Path(mmlbn.__file__).resolve().parents[1])]
        paths += filter(None, [os.environ.get("PYTHONPATH")])
        reports = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"report{hash_seed}.json"
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths)
            )
            proc = subprocess.run(
                [
                    sys.executable, "-m", "mmlbn.cli", "learn", "--data", str(data),
                    "--iterations", "300", "--burn-in", "0", "--top-k", "100",
                    "--seed", "1", "--out", str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("model", ["dual", "fon"])
    def test_nodes_past_the_logit_cap(self, tmp_path, monkeypatch, model):
        # under fon every node with a parent is void, so the chain keeps the
        # empty network; under dual such nodes take their tables
        refused = []

        def fit(counts, sigma):
            try:
                return fom_message_length(counts, sigma)
            except ParameterCapError as err:
                refused.append(err)
                raise

        monkeypatch.setattr("mmlbn.scoring.fom_message_length", fit)
        args = ["learn", "--data", str(arity_40_csv(tmp_path)), "--model", model]
        args += ["--iterations", "300", "--burn-in", "50", "--seed", "3"]
        report = run_json(args, tmp_path / "learn.json")
        assert refused
        classes = report["classes"]
        if model == "fon":
            assert [c["arcs"] for c in classes] == [[]]
            assert [n["params"] for n in classes[0]["per_node"]] == [39] * 3
        else:
            assert all(n["model"] == "full" for c in classes for n in c["per_node"])

    def test_module_entry_point(self, train_csv, tmp_path):
        out = tmp_path / "cli.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "mmlbn.cli",
                "learn",
                "--data",
                str(train_csv),
                "--iterations",
                "200",
                "--burn-in",
                "20",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["total_samples"] == 180


def arity_40_csv(tmp_path):
    """Three columns of 40 states each, every state seen: c is a plus b's
    parity, so a table with a as c's parent codes c far better than none."""
    rng = np.random.default_rng(85)
    a, b = (rng.permutation(np.arange(4000) % 40) for _ in range(2))
    path = tmp_path / "arity40.csv"
    rows = [f"s{x},s{y},s{(x + y % 2) % 40}" for x, y in zip(a, b)]
    path.write_text("\n".join(["a,b,c"] + rows) + "\n")
    return path


class TestScore:
    def test_lengths_match_library(self, train_csv, tmp_path):
        structure = tmp_path / "structure.txt"
        structure.write_text("# child gets one parent\n0->1\n")
        report = run_json(
            ["score", "--data", str(train_csv), "--structure", str(structure)],
            tmp_path / "score.json",
        )
        assert report["structure"]["arcs"] == ["0->1"]
        ds = load_csv(str(train_csv))
        dag = DagStructure(2, ((), (0,)))
        for policy in ModelPolicy:
            expected = network_message_length(dag, ds, policy)
            assert report["lengths"][policy.value] == pytest.approx(
                expected, abs=1e-9
            )

    def test_node_the_table_cannot_code(self, tmp_path):
        # 17 binary parents pass the full table's parameter cap: tbn reports
        # the node's error, and dual codes the node with the logit model
        rng = np.random.default_rng(82)
        rows = rng.integers(0, 2, size=(25, 18))
        lines = [",".join(f"x{i}" for i in range(18))]
        lines += [",".join(f"v{int(v)}" for v in row) for row in rows]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n")
        structure = tmp_path / "star.txt"
        structure.write_text("".join(f"{i}->0\n" for i in range(1, 18)))
        report = run_json(
            ["score", "--data", str(data), "--structure", str(structure)],
            tmp_path / "score.json",
        )
        assert report["lengths"]["tbn"] is None
        assert "parameters" in report["errors"]["tbn"]
        assert set(report["errors"]) == {"tbn"}
        ds = load_csv(str(data))
        dag = DagStructure.from_arcs(18, [(i, 0) for i in range(1, 18)])
        for policy in (ModelPolicy.FON, ModelPolicy.DUAL):
            expected = network_message_length(dag, ds, policy)
            assert report["lengths"][policy.value] == pytest.approx(
                expected, rel=1e-12
            )

    def test_policies_share_each_fit(self, tmp_path, monkeypatch):
        # one logit fit per node across the three policies, and the report
        # each policy's own scorer would give: node 0 is past the table cap
        rng = np.random.default_rng(86)
        rows = rng.integers(0, 2, size=(40, 18))
        lines = [",".join(f"x{i}" for i in range(18))]
        lines += [",".join(f"v{int(v)}" for v in row) for row in rows]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n")
        arcs = [(i, 0) for i in range(1, 18)] + [(1, 2), (3, 2), (4, 5)]
        structure = tmp_path / "arcs.txt"
        structure.write_text("".join(f"{u}->{v}\n" for u, v in arcs))
        fits = []

        def counted(counts, sigma):
            fits.append(counts)
            return fom_message_length(counts, sigma)

        monkeypatch.setattr(mmlbn.scoring, "fom_message_length", counted)
        report = run_json(
            ["score", "--data", str(data), "--structure", str(structure)],
            tmp_path / "score.json",
        )
        assert len(fits) == 18
        monkeypatch.undo()
        ds = load_csv(str(data))
        dag = DagStructure.from_arcs(18, arcs)
        with pytest.raises(ParameterCapError) as capped:
            NetworkScorer(ds, ModelPolicy.TBN).node_scores(dag)
        assert report["errors"] == {"tbn": str(capped.value)}
        assert report["lengths"] == {
            "tbn": None,
            "fon": network_message_length(dag, ds, ModelPolicy.FON),
            "dual": network_message_length(dag, ds, ModelPolicy.DUAL),
        }

    def test_nodes_the_logit_model_cannot_code(self, tmp_path):
        # arity-40 columns: a logit node with one parent has 1560 free
        # parameters and one with two 3081, both past the logit cap; the
        # tables (1560 and 62400) are not
        data = arity_40_csv(tmp_path)
        structure = tmp_path / "both.txt"
        structure.write_text("0->2\n1->2\n")
        report = run_json(
            ["score", "--data", str(data), "--structure", str(structure)],
            tmp_path / "score.json",
        )
        assert report["errors"] == {
            "fon": "logit model needs 3081 free parameters (cap 1000)"
        }
        assert report["lengths"]["dual"] == pytest.approx(
            report["lengths"]["tbn"] + math.log(2.0), rel=1e-12
        )

    def test_too_many_variables(self, tmp_path):
        report = run_json(
            ["score", "--data", str(wide_csv(tmp_path)), "--structure", "empty"],
            tmp_path / "wide.json",
        )
        policies = ("tbn", "fon", "dual")
        assert report["lengths"] == {policy: None for policy in policies}
        assert report["errors"] == {policy: WIDE_MESSAGE for policy in policies}

    def test_empty_keyword(self, train_csv, tmp_path):
        structure = tmp_path / "structure.txt"
        structure.write_text("empty\n")
        report = run_json(
            ["score", "--data", str(train_csv), "--structure", str(structure)],
            tmp_path / "score.json",
        )
        assert report["structure"]["arcs"] == []

    def test_empty_argument_without_a_file(self, train_csv, tmp_path):
        report = run_json(
            ["score", "--data", str(train_csv), "--structure", "empty"],
            tmp_path / "score.json",
        )
        assert report["structure"]["arcs"] == []

    def test_arcs_by_variable_name(self, train_csv, tmp_path):
        structure = tmp_path / "named.txt"
        structure.write_text("a->b\n")
        report = run_json(
            ["score", "--data", str(train_csv), "--structure", str(structure)],
            tmp_path / "score.json",
        )
        assert report["structure"]["arcs"] == ["0->1"]

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("0->zebra\n", ValueError, ":1: unknown variable 'zebra'"),
            ("0->5\n", ValueError, ":1: node index out of range"),
            ("0->1\n1 2\n", ValueError, ":2: expected 'i->j', found '1 2'"),
            ("# arcs\n0->1\n\n0->1\n", ValueError, ":4: arc 0->1 repeats line 2"),
            ("0->2\n1->1\n", CycleError, ":2: node 1 lists itself as a parent"),
            # a cycle spans lines, so only the file is named
            (
                "0->1\n1->2\n2->0\n",
                CycleError,
                ": parent sets describe a directed cycle",
            ),
            (
                "0->1\n1->\xff\n",
                DataFormatError,
                ": not UTF-8 text (invalid start byte)",
            ),
        ],
        ids=[
            "unknown", "range", "no-arrow", "repeat", "self-loop", "cycle", "not-utf8"
        ],
    )
    def test_parse_structure_file_errors(self, tmp_path, text, error, message):
        path = tmp_path / "arcs.txt"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(error) as err:
            parse_structure_file(str(path), 3)
        assert str(err.value) == f"{path}{message}"

    def test_ambiguous_name_needs_an_index(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        rows = ["a,a,b"] + [f"{i % 2},{i // 2 % 2},{i % 3}" for i in range(12)]
        data.write_text("\n".join(rows) + "\n")
        named = tmp_path / "named.txt"
        named.write_text("a->b\n")
        code = main(["score", "--data", str(data), "--structure", str(named)])
        assert code == 1
        assert (
            f"{named}:1: variable name 'a' names more than one column; "
            "use column indices instead" in capsys.readouterr().err
        )
        indexed = tmp_path / "indexed.txt"
        indexed.write_text("0->2\n")
        report = run_json(
            ["score", "--data", str(data), "--structure", str(indexed)],
            tmp_path / "score.json",
        )
        assert report["structure"]["arcs"] == ["0->2"]

    def test_cyclic_structure_fails(self, train_csv, tmp_path, capsys):
        structure = tmp_path / "cycle.txt"
        structure.write_text("0->1\n1->0\n")
        code = main(
            ["score", "--data", str(train_csv), "--structure", str(structure)]
        )
        assert code == 1
        cycle = "parent sets describe a directed cycle"
        assert capsys.readouterr().err == f"mmlbn score: {structure}: {cycle}\n"


class TestConfigEcho:
    def test_echo_holds_every_flag_but_the_report_path(
        self, train_csv, test_csv, tmp_path
    ):
        (subcommands,) = [
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        runs = {
            "learn": ["--iterations", "60", "--burn-in", "10"],
            "eval": ["--test", str(test_csv), "--iterations", "60", "--burn-in", "10"],
            "score": ["--structure", "empty"],
        }
        assert set(subcommands.choices) == set(runs)
        for command, parser in subcommands.choices.items():
            dests = {
                action.dest
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            }
            assert "out" in dests
            argv = [command, "--data", str(train_csv)] + runs[command]
            echo = run_json(argv, tmp_path / f"{command}.json")["config"]
            assert set(echo) == dests - {"out"} | {"command"}
            assert echo["command"] == command
            assert echo["data"] == str(train_csv)


class TestEval:
    def test_fixed_test_file(self, train_csv, test_csv, tmp_path):
        report = run_json(
            [
                "eval",
                "--data",
                str(train_csv),
                "--test",
                str(test_csv),
                "--iterations",
                "300",
                "--burn-in",
                "50",
            ],
            tmp_path / "eval.json",
        )
        repeats = report["summary"]["repeats"]
        assert len(repeats) == 1
        assert repeats[0]["test_cases"] == 30
        assert report["summary"]["means"]["test_nll"] > 0

    def test_cross_validation(self, train_csv, tmp_path):
        report = run_json(
            [
                "eval",
                "--data",
                str(train_csv),
                "--iterations",
                "200",
                "--burn-in",
                "20",
                "--repeats",
                "2",
                "--fraction",
                "0.2",
                "--seed",
                "4",
            ],
            tmp_path / "cv.json",
        )
        repeats = report["summary"]["repeats"]
        assert [r["seed"] for r in repeats] == [4, 5]
        assert all(r["test_cases"] == 30 for r in repeats)

    def test_learn_and_eval_at_a_tiny_arc_prior(self, train_csv, test_csv, tmp_path):
        # 1 - p rounds to 1 here, and the chain's bounds must not form it; an
        # arc costs about 690 nits, so only the empty network is reported
        run = ["--iterations", "200", "--burn-in", "20", "--arc-prior", "1e-300"]
        learned = run_json(
            ["learn", "--data", str(train_csv)] + run, tmp_path / "l.json"
        )
        assert [c["arcs"] for c in learned["classes"]] == [[]]
        evaluated = run_json(
            ["eval", "--data", str(train_csv), "--test", str(test_csv)] + run,
            tmp_path / "e.json",
        )
        assert evaluated["summary"]["repeats"][0]["test_cases"] == 30

    def test_unknown_test_value_fails(self, train_csv, tmp_path, capsys):
        bad_test = tmp_path / "bad_test.csv"
        bad_test.write_text("a,b\nv0,surprise\n")
        code = main(
            [
                "eval",
                "--data",
                str(train_csv),
                "--test",
                str(bad_test),
                "--iterations",
                "100",
                "--burn-in",
                "10",
            ]
        )
        assert code == 1
        assert "surprise" in capsys.readouterr().err

    def test_swapped_test_header_fails(self, train_csv, tmp_path, capsys):
        swapped = tmp_path / "swapped_test.csv"
        swapped.write_text("b,a\nv0,v1\n")
        code = main(["eval", "--data", str(train_csv), "--test", str(swapped)])
        assert code == 1
        assert "column 1 is named 'b', expected 'a'" in capsys.readouterr().err


def three_column_csv(path, n=120, seed=83, header="a,b,c", encoding="utf-8"):
    """Three binary variables; b copies a with 10% noise."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n, 3))
    rows[:, 1] = np.where(rng.random(n) < 0.1, 1 - rows[:, 0], rows[:, 0])
    lines = [header] + [",".join(f"v{int(v)}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding=encoding)
    return path


def bom_csv(path, header="a,b,c"):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet
    programs write it."""
    return three_column_csv(path, header=header, encoding="utf-8-sig")


class TestByteOrderMark:
    STEPS = ["--iterations", "200", "--burn-in", "20", "--seed", "1"]

    @pytest.mark.parametrize("header", ["a,b,c", '"a",b,c'])
    def test_learn_names_the_first_column_plainly(self, tmp_path, header):
        data = bom_csv(tmp_path / "bom.csv", header)
        report = run_json(["learn", "--data", str(data)] + self.STEPS, tmp_path / "o.json")
        names = [v["name"] for v in report["dataset"]["variables"]]
        assert names == ["a", "b", "c"]

    def test_score_resolves_the_first_column_by_name(self, tmp_path):
        data = bom_csv(tmp_path / "bom.csv")
        structure = tmp_path / "arcs.txt"
        structure.write_text("a->b\n")
        report = run_json(
            ["score", "--data", str(data), "--structure", str(structure)],
            tmp_path / "o.json",
        )
        assert report["structure"]["arcs"] == ["0->1"]

    def test_eval_matches_a_test_file_without_the_mark(self, tmp_path):
        data = bom_csv(tmp_path / "bom.csv")
        test = tmp_path / "test.csv"
        test.write_text(data.read_text(encoding="utf-8-sig"), encoding="utf-8")
        assert not test.read_bytes().startswith(b"\xef\xbb\xbf")
        report = run_json(
            ["eval", "--data", str(data), "--test", str(test)] + self.STEPS,
            tmp_path / "o.json",
        )
        assert report["summary"]["repeats"][0]["test_cases"] == 120

    def test_structure_file_with_the_mark(self, train_csv, tmp_path):
        structure = tmp_path / "arcs.txt"
        structure.write_text("0->1\n", encoding="utf-8-sig")
        report = run_json(
            ["score", "--data", str(train_csv), "--structure", str(structure)],
            tmp_path / "o.json",
        )
        assert report["structure"]["arcs"] == ["0->1"]


class TestFailureModes:
    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["learn", "--data", str(tmp_path / "nope.csv")])
        assert code == 1
        assert capsys.readouterr().err

    def test_reject_policy_on_missing_values(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\nx,1\n?,2\nx,1\n")
        code = main(
            ["learn", "--data", str(path), "--missing-policy", "reject"]
        )
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_extra_category_policy_accepts(self, tmp_path):
        path = tmp_path / "gaps.csv"
        rows = ["a,b"] + ["x,1", "?,2", "y,1", "x,2"] * 10
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(str(path))
        assert ds.variables[0].arity == 3
        assert "?" in ds.variables[0].labels

    def test_blank_lines_in_the_data_are_skipped(self, train_csv, tmp_path, capsys):
        # a file that ends in a blank line used to fail on its last record,
        # and one that starts with a blank line on its header
        text = train_csv.read_text()
        args = ["learn", "--iterations", "300", "--burn-in", "50", "--seed", "3"]
        plain = run_json(args + ["--data", str(train_csv)], tmp_path / "plain.json")
        plain["config"].pop("data")
        for blank_text in (text.replace("\n", "\n\n", 1) + "\n", "\n\n" + text):
            blank = tmp_path / "blank.csv"
            blank.write_text(blank_text)
            skipped = run_json(args + ["--data", str(blank)], tmp_path / "blank.json")
            assert skipped["config"].pop("data") == str(blank)
            assert skipped == plain
        assert capsys.readouterr().err == ""
        for lines, message in (("a,b\n\n\n", "no data rows"), ("\n\n", "empty file")):
            only_blank = tmp_path / "only_blank.csv"
            only_blank.write_text(lines)
            assert main(["learn", "--data", str(only_blank)]) == 1
            assert message in capsys.readouterr().err

    def test_learn_defaults_to_extra_category(self, tmp_path):
        path = tmp_path / "gaps.csv"
        rows = ["a,b"] + ["x,1", "?,2", "y,1", "x,2"] * 10
        path.write_text("\n".join(rows) + "\n")
        report = run_json(
            ["learn", "--data", str(path), "--iterations", "200", "--burn-in", "20"],
            tmp_path / "gaps.json",
        )
        assert report["config"]["missing_policy"] == "extra-category"
        assert report["dataset"]["variables"][0] == {"name": "a", "arity": 3}

    def test_flag_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["learn", "--data", "x.csv"])
        assert _sampler_config(args) == SamplerConfig()

    def test_bad_flag_value(self, train_csv, capsys):
        code = main(
            [
                "learn",
                "--data",
                str(train_csv),
                "--iterations",
                "100",
                "--burn-in",
                "200",
            ]
        )
        assert code == 1
        assert "burn_in" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["learn", "eval", "score"])
    def test_an_overlong_field(self, tmp_path, capsys, command):
        # past csv's field size limit: a data error, not a traceback
        path = tmp_path / "long.csv"
        path.write_text("a,b\n" + "z" * 200000 + ",1\nx,2\n")
        extra = ["--structure", "empty"] if command == "score" else []
        assert main([command, "--data", str(path)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mmlbn {command}: {path}:2: field larger than")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["learn", "eval", "score"])
    def test_a_file_that_is_not_utf8(self, train_csv, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a,b\nv0,v\xff\n")
        args = {
            "learn": ["--data", str(bad), "--iterations", "50", "--burn-in", "5"],
            "eval": ["--data", str(train_csv), "--test", str(bad)],
            "score": ["--data", str(train_csv), "--structure", str(bad)],
        }[command]
        assert main([command] + args) == 1
        err = capsys.readouterr().err
        assert err == f"mmlbn {command}: {bad}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "command,test", [("learn", False), ("eval", True), ("eval", False)]
    )
    def test_a_negative_seed(self, train_csv, test_csv, capsys, command, test):
        # without --test the split draws with the seed first
        args = [command, "--data", str(train_csv), "--seed", "-1"]
        args += ["--test", str(test_csv)] if test else []
        assert main(args + ["--iterations", "50", "--burn-in", "5"]) == 1
        err = capsys.readouterr().err
        assert err == f"mmlbn {command}: seed must be non-negative\n"

    def test_too_many_variables(self, tmp_path, capsys):
        path = wide_csv(tmp_path)
        code = main(
            ["learn", "--data", str(path), "--iterations", "20", "--burn-in", "2"]
        )
        assert code == 1
        assert WIDE_MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["learn", "score"])
    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e300", "1e-200"])
    def test_unusable_sigma(self, train_csv, tmp_path, capsys, command, sigma):
        out = tmp_path / "report.json"
        if command == "learn":
            extra = ["--iterations", "50", "--burn-in", "5"]
        else:
            extra = ["--structure", "empty"]
        code = main(
            [command, "--data", str(train_csv), f"--sigma={sigma}", "--out", str(out)]
            + extra
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "sigma" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["learn", "score"])
    def test_collinear_parents_at_the_widest_sigma(self, tmp_path, command):
        # b copies a: a logit node with both as parents has a singular start
        # system once the 1 / sigma^2 ridge is lost in rounding
        rng = np.random.default_rng(84)
        a, c = rng.integers(0, 3, size=(2, 300))
        d = (a + c + rng.integers(0, 2, size=300)) % 3
        data = tmp_path / "dup.csv"
        data.write_text(
            "a,b,c,d\n" + "".join(f"{x},{x},{y},{z}\n" for x, y, z in zip(a, c, d))
        )
        if command == "learn":
            extra = ["--iterations", "300", "--burn-in", "50"]
        else:
            structure = tmp_path / "structure.txt"
            structure.write_text("0->3\n1->3\n2->3\n")
            extra = ["--structure", str(structure)]
        report = run_json(
            [command, "--data", str(data), "--sigma", "1e154"] + extra,
            tmp_path / "report.json",
        )
        if command == "score":
            assert report["errors"] == {
                "fon": "information matrix is not positive definite"
            }
            assert report["lengths"]["dual"] == pytest.approx(
                report["lengths"]["tbn"] + math.log(2.0), rel=1e-12
            )


class TestDocs:
    def test_readme_learn_defaults_are_the_parser_defaults(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        learn = text[text.index("### learn") : text.index("### score")]
        flags = learn[learn.index("Useful flags:") :].split("\n\n")[0]
        # "`--flag` (... default VALUE...)", the paragraph's lines joined
        pattern = r"`(--[\w-]+)` \([^()]*?default ([^;,()\s]+)"
        documented = dict(re.findall(pattern, " ".join(flags.split())))
        names = [
            "--iterations",
            "--burn-in",
            "--arc-prior",
            "--max-parents",
            "--sigma",
            "--top-k",
        ]
        assert sorted(documented) == sorted(names)
        args = _build_parser().parse_args(["learn", "--data", "x.csv"])
        for name in names:
            default = getattr(args, name[2:].replace("-", "_"))
            assert float(documented[name]) == default, name


    def test_readme_library_examples_run(self, tmp_path, monkeypatch, capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert len(blocks) >= 3
        for seed, (name, n) in enumerate(
            (("train.csv", 300), ("test.csv", 60), ("other.csv", 200))
        ):
            three_column_csv(tmp_path / name, n, seed)
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for block in blocks:
            exec(compile(block, str(readme), "exec"), namespace)
        assert capsys.readouterr().out
        assert namespace["nll"] > 0 and namespace["nll_other"] > 0


# Blocks scipy before mmlbn is imported, then runs one command of each kind.
_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # every scipy import now raises ImportError
import mmlbn.cli

assert "numpy.random" in sys.modules, "numpy.random is not loaded with mmlbn.cli"
train, test, structure, out = sys.argv[1:]
steps = ["--iterations", "200", "--burn-in", "20", "--out", out]
commands = [
    ["learn", "--data", train] + steps,
    ["eval", "--data", train, "--test", test] + steps,
    ["score", "--data", train, "--structure", structure, "--out", out],
]
for args in commands:
    assert mmlbn.cli.main(args) == 0, args[0]
"""


# Runs learn with nothing blocked, then lists the scipy modules loaded.
_LOADS_NO_SCIPY = """
import sys

import mmlbn.cli

train, out = sys.argv[1:]
args = ["learn", "--data", train, "--iterations", "200", "--burn-in", "20"]
assert mmlbn.cli.main(args + ["--out", out]) == 0
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def run_python(code, *args):
    """Runs code in a fresh interpreter that imports mmlbn from this tree."""
    src = str(Path(mmlbn.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, train_csv, test_csv, tmp_path):
        structure = tmp_path / "arcs.txt"
        structure.write_text("0->1\n")
        proc = run_python(
            _WITHOUT_SCIPY, train_csv, test_csv, structure, tmp_path / "out.json"
        )
        assert proc.returncode == 0, proc.stderr

    def test_learn_loads_no_scipy(self, train_csv, tmp_path):
        proc = run_python(_LOADS_NO_SCIPY, train_csv, tmp_path / "out.json")
        assert proc.returncode == 0, proc.stderr
