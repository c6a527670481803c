"""The paper's claims, checked offline on generated data.

Criterion 11 of tests/test_acceptance.py runs on the UCI Nursery file when
it is present. The first test here runs the same procedure on the
benchmark's Nursery-shaped grid (bench/gen.py): every attribute combination
of Nursery once, with the class drawn from an additive logit of all eight
attributes. The second checks the choice of model node by node on data that
holds one node of each kind.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from mmlbn import DagStructure, ModelPolicy, SamplerConfig, cpdag_key, load_csv
from mmlbn import model_averaged_test_nll, run_sampler
from helpers import make_dataset

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("gen")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("data_seed", [1, 2, 3])
def test_logit_collects_all_attributes_and_beats_tables(gen, data_seed, tmp_path):
    """fon's top class is all eight attributes into the class, and tbn's
    best length exceeds fon's by more than 100 nits."""
    paths = gen.generate("nursery-eval", data_seed, tmp_path)
    ds = load_csv(str(paths["train"]))
    m = ds.n_variables
    class_node = m - 1
    expected = DagStructure(
        m, tuple(() for _ in range(class_node)) + (tuple(range(class_node)),)
    )

    def run(policy):
        config = SamplerConfig(
            iterations=4000, burn_in=800, seed=0, policy=policy, max_parents=m - 1
        )
        return run_sampler(ds, config)

    fon = run(ModelPolicy.FON)
    tbn = run(ModelPolicy.TBN)
    assert fon.classes[0].key == cpdag_key(expected)
    fon_best = min(record.best_length for record in fon.classes)
    tbn_best = min(record.best_length for record in tbn.classes)
    assert tbn_best - fon_best > 100.0


def _additive_and_xor(data_seed, n_train=2000, n_test=5000):
    """Training and test data over 8 variables: four uniform ternary parents
    (0-3), a ternary child (4) drawn from an additive logit of all four with
    weights N(0, 1.5^2) from a fixed seed, two uniform binary variables (5, 6)
    and their XOR with 10% of its values flipped (7)."""
    weights = np.random.default_rng(2024).normal(0.0, 1.5, (4, 3, 3))
    rng = np.random.default_rng(data_seed)
    n = n_train + n_test
    parents = rng.integers(0, 3, (4, n))
    logits = sum(weights[i][parents[i]] for i in range(4))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random((n, 1))
    child = np.minimum((u > probs.cumsum(axis=1)).sum(axis=1), 2)
    a, b = rng.integers(0, 2, (2, n))
    xor = (a ^ b) ^ (rng.random(n) < 0.1)
    columns = [*parents, child, a, b, xor]
    arities = [3, 3, 3, 3, 3, 2, 2, 2]
    train = make_dataset([c[:n_train] for c in columns], arities=arities)
    test = make_dataset([c[n_train:] for c in columns], arities=arities)
    return train, test


@pytest.mark.parametrize("data_seed", [1, 2, 3, 4, 5])
def test_dual_chooses_the_model_node_by_node(data_seed):
    """Held-out loss per case orders dual < tbn < fon, and dual codes the
    additive node with the logit model and the XOR node with a full table."""
    train, test = _additive_and_xor(data_seed)
    reports, nll = {}, {}
    for policy in ModelPolicy:
        config = SamplerConfig(
            iterations=20000, burn_in=4000, seed=1, policy=policy, max_parents=7
        )
        reports[policy] = run_sampler(train, config)
        nll[policy] = model_averaged_test_nll(reports[policy], test) / test.n_cases
    assert nll[ModelPolicy.DUAL] < nll[ModelPolicy.TBN] < nll[ModelPolicy.FON]

    dual = reports[ModelPolicy.DUAL]
    best = dual.classes[0].best_network
    models = [score.chosen_model for score in dual.scorer.node_scores(best)]
    assert best.parent_sets[4] == (0, 1, 2, 3)
    assert models[4] == "fom"
    triple = (5, 6, 7)
    colliders = [
        v for v in triple
        if set(best.parent_sets[v]) == set(triple) - {v}
    ]
    assert len(colliders) == 1
    assert models[colliders[0]] == "full"
