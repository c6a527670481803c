"""Seeded offline generators for the benchmark workloads.

Each workload draws cases from one fixed ground-truth network. The network
(structure and parameters) comes from a constant model seed, so every
benchmark seed asks mmlbn the same question; the benchmark seed drives only
the sampled cases. Seed-to-seed differences in run time then come from
sampling noise and the chain's own randomness, not from easier or harder
planted models.

Each generator writes headed CSV files that mmlbn reads like any user file,
plus the planted arc list the benchmark scores the learned skeleton against.
The same (seed, index) always gives byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
import json
import zlib
from pathlib import Path

import numpy as np

MODEL_SEED = 1301_6727

# Nursery (UCI) attribute arities; the 5-state class is the ninth column.
NURSERY_ARITIES = (3, 5, 4, 4, 3, 2, 3, 3)
NURSERY_CLASSES = 5


def _softmax_draw(rng, logits):
    """One categorical draw per row of a (rows, states) logit array."""
    logits = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random((logits.shape[0], 1))
    return np.minimum((u > probs.cumsum(axis=1)).sum(axis=1), logits.shape[1] - 1)


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(rows.shape[1])])
        for row in rows:
            writer.writerow([f"s{int(v)}" for v in row])


def chain(model, rng, n_cases, m=12, weight_scale=1.5):
    """Each variable is a noisy additive logit of the two variables before it.

    Arities cycle through 2, 3, 4.
    """
    arities = [2 + i % 3 for i in range(m)]
    intercepts = [model.normal(0.0, 0.5, r) for r in arities]
    effects = {
        (u, v): model.normal(0.0, weight_scale, (arities[u], arities[v]))
        for v in range(m)
        for u in range(max(0, v - 2), v)
    }
    data = np.zeros((n_cases, m), dtype=np.int64)
    for v in range(m):
        logits = np.tile(intercepts[v], (n_cases, 1))
        for u in range(max(0, v - 2), v):
            logits += effects[u, v][data[:, u]]
        data[:, v] = _softmax_draw(rng, logits)
    return data, sorted(effects)


def nursery(model, rng, weight_scale=1.0):
    """Full Nursery-shaped factorial grid with a class from an additive logit.

    Returns the 12960-row training grid, with classes drawn per row, and an
    independent 12960-case test draw from the same model (attributes uniform
    over the grid, class from the logit).
    """
    effects = [
        model.normal(0.0, weight_scale, (r, NURSERY_CLASSES)) for r in NURSERY_ARITIES
    ]
    intercept = model.normal(0.0, 0.3, NURSERY_CLASSES)

    def with_class(attrs):
        logits = np.tile(intercept, (attrs.shape[0], 1))
        for a, effect in enumerate(effects):
            logits += effect[attrs[:, a]]
        return np.column_stack([attrs, _softmax_draw(rng, logits)])

    grid = np.array(list(itertools.product(*(range(r) for r in NURSERY_ARITIES))))
    test_attrs = np.column_stack(
        [rng.integers(0, r, grid.shape[0]) for r in NURSERY_ARITIES]
    )
    m = len(NURSERY_ARITIES)
    return with_class(grid), with_class(test_attrs), [(a, m) for a in range(m)]


def generate(
    workload: str, seed: int, out_dir: Path, scale: float = 1.0, index: int = 0
) -> dict:
    """Write one workload's inputs under out_dir and return their description.

    (seed, index) picks the draw: a run uses one seed and several indexes.
    scale shrinks the case counts (smoke runs); 1.0 is the benchmark size.
    Returns the training path, the test path (None for learn workloads) and
    the planted arcs as (parent, child) index pairs.
    """
    tag = zlib.crc32(workload.encode("ascii"))
    model = np.random.default_rng([MODEL_SEED, tag])
    rng = np.random.default_rng([seed, index, tag])
    test = None
    if workload == "chain-learn":
        train, arcs = chain(model, rng, n_cases=max(200, int(5000 * scale)))
    elif workload == "nursery-eval":
        train, test, arcs = nursery(model, rng)
        if scale < 1.0:
            keep = max(400, int(train.shape[0] * scale))
            train, test = train[rng.permutation(train.shape[0])[:keep]], test[:keep]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"train": out_dir / "train.csv", "test": None}
    _write_csv(paths["train"], train)
    if test is not None:
        paths["test"] = out_dir / "test.csv"
        _write_csv(paths["test"], test)
    planted = {"variables": int(train.shape[1]), "arcs": [list(a) for a in arcs]}
    (out_dir / "planted.json").write_text(json.dumps(planted) + "\n", encoding="utf-8")
    return {**paths, "planted": arcs}
