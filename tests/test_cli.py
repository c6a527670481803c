"""End-to-end command line runs against temporary CSV files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmlbn
from mmlbn import ModelPolicy, NetworkScorer, load_csv, network_message_length
from mmlbn.cli import _build_parser, _sampler_config, main, parse_structure_file
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

    def test_parse_structure_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0->zebra\n")
        with pytest.raises(ValueError):
            parse_structure_file(str(bad), 2)
        out_of_range = tmp_path / "range.txt"
        out_of_range.write_text("0->5\n")
        with pytest.raises(ValueError):
            parse_structure_file(str(out_of_range), 2)

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
        assert "score" in capsys.readouterr().err


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


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, train_csv, test_csv, tmp_path):
        structure = tmp_path / "arcs.txt"
        structure.write_text("0->1\n")
        src = str(Path(mmlbn.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, str(train_csv), str(test_csv),
             str(structure), str(tmp_path / "out.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
