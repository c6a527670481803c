"""The benchmark (bench/) wraps mmlbn's functions by their module attribute.

A refactor that drops or renames one of those attributes breaks the
benchmark run; these tests make it break here first. They install the
benchmark's own wrappers, run a tiny traced command, and take them out again.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mmlbn
import mmlbn.cli
import mmlbn.evaluation
import mmlbn.sampler

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("child")
    finally:
        sys.path.remove(str(BENCH))


def wrapped_attributes(spans):
    """(owner, attribute) of everything the tracer replaces."""
    owners = [
        (importlib.import_module(module), attr) for module, attr, _ in spans.FUNCTIONS
    ]
    owners += [
        (getattr(importlib.import_module(module), cls), attr)
        for module, cls, attr, _ in spans.METHODS
    ]
    owners.append((mmlbn.graph.DagStructure, "__post_init__"))
    return owners


def write_csv(path, rows):
    lines = ["a,b,c,d"] + [",".join(f"v{int(x)}" for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_child_wraps_resolve(bench_modules):
    _, child = bench_modules
    targets = [(mmlbn.cli, "run_sampler"), (mmlbn.evaluation, "run_sampler")]
    targets.append((mmlbn.sampler, "metropolis_step"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    try:
        probes = child.Probes()
        child._capture_sampler((mmlbn.cli, mmlbn.evaluation), [], probes)
        child._probe_steps(mmlbn.sampler, probes)
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original
    finally:
        for (owner, attr), original in zip(targets, originals):
            setattr(owner, attr, original)
    assert callable(mmlbn.cli.main)
    assert callable(mmlbn.load_csv) and callable(mmlbn.load_csv_with_labels)


def test_tracer_installs_runs_and_uninstalls(bench_modules, tmp_path):
    spans, _ = bench_modules
    originals = [
        (owner, attr, getattr(owner, attr)) for owner, attr in wrapped_attributes(spans)
    ]
    rng = np.random.default_rng(90)
    train = rng.integers(0, 3, size=(300, 4))
    train[:, 3] = (train[:, 0] + train[:, 1] + train[:, 2]) % 3
    write_csv(tmp_path / "train.csv", train)
    write_csv(tmp_path / "test.csv", rng.integers(0, 3, size=(40, 4)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original
        code = mmlbn.cli.main(
            [
                "eval", "--data", str(tmp_path / "train.csv"),
                "--test", str(tmp_path / "test.csv"), "--model", "dual",
                "--iterations", "150", "--burn-in", "30", "--top-k", "3",
                "--seed", "1", "--out", str(tmp_path / "eval.json"),
            ]
        )  # fmt: skip
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original
    assert code == 0
    assert json.loads((tmp_path / "eval.json").read_text())["summary"]["repeats"]
    layers = tracer.summary()
    assert layers["sampler.run_sampler.calls"] == 1
    assert layers["evaluation.fit_network.calls"] >= 1
    # Held-out evaluation reuses the sampler's scores and fits.
    assert layers["scoring.node_length.calls_after_sampler"] == 0
    assert layers["fom.fit_fom_map.calls"] == 0
    assert layers["evaluation.case_log_prob.calls"] == 0
