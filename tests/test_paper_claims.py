"""The paper's claims, checked offline on generated data.

Criterion 11 of tests/test_acceptance.py runs on the UCI Nursery file when
it is present. The test here runs the same procedure on the benchmark's
Nursery-shaped grid (bench/gen.py): every attribute combination of Nursery
once, with the class drawn from an additive logit of all eight attributes.
"""

import importlib
import sys
from pathlib import Path

import pytest

from mmlbn import DagStructure, ModelPolicy, SamplerConfig, cpdag_key, load_csv
from mmlbn import run_sampler

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
