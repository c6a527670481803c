"""Outside-in spans around mmlbn's layers, for the benchmark's traced run.

The tracer replaces each traced function at the module attribute its caller
looks it up by (and a few methods on their classes), so nothing inside the
package changes. Every call becomes a span: name, start, end and the span
that was open when it started. Spans stay in memory and are summarised, and
optionally saved, when the run ends. A span's self time is its duration
minus the durations of its direct children; the program is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

# (module, attribute, span name). The span name is the layer that owns the
# function; one function looked up from two modules gets one span name.
FUNCTIONS = (
    ("mmlbn.cli", "main", "cli.main"),
    ("mmlbn.cli", "load_csv", "dataset.load_csv"),
    ("mmlbn.cli", "load_csv_with_labels", "dataset.load_csv"),
    ("mmlbn.cli", "run_sampler", "sampler.run_sampler"),
    ("mmlbn.cli", "evaluate_split", "evaluation.evaluate_split"),
    ("mmlbn.evaluation", "run_sampler", "sampler.run_sampler"),
    ("mmlbn.evaluation", "fit_network", "evaluation.fit_network"),
    ("mmlbn.evaluation", "case_log_prob", "evaluation.case_log_prob"),
    ("mmlbn.evaluation", "counts_for", "dataset.counts_for"),
    ("mmlbn.evaluation", "node_length", "scoring.node_length"),
    ("mmlbn.evaluation", "fit_fom_map", "fom.fit_fom_map"),
    ("mmlbn.sampler", "metropolis_step", "sampler.metropolis_step"),
    ("mmlbn.sampler", "clean_network", "sampler.clean_network"),
    ("mmlbn.sampler", "apply_move", "graph.apply_move"),
    ("mmlbn.sampler", "cpdag_key", "graph.cpdag_key"),
    ("mmlbn.scoring", "counts_for", "dataset.counts_for"),
    ("mmlbn.scoring", "node_length", "scoring.node_length"),
    ("mmlbn.scoring", "full_cpt_message_length", "cpt_full.full_cpt_message_length"),
    ("mmlbn.scoring", "fom_message_length", "fom.fom_message_length"),
    ("mmlbn.graph", "count_linear_extensions", "graph.count_linear_extensions"),
)
METHODS = (
    ("mmlbn.scoring", "NetworkScorer", "node_score", "scoring.node_score"),
    ("mmlbn.fom", "FomObjective", "information_free", "fom.information_free"),
)

# Spans whose durations feed a percentile metric.
PERCENTILES = {
    "graph.count_linear_extensions": (99,),
    "dataset.counts_for": (99,),
    "sampler.metropolis_step": (50, 99),
}


class Tracer:
    """Installs span wrappers into the imported mmlbn modules and records calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.raised: Counter = Counter()  # (span name, exception class) -> count
        self.dag_validations = 0
        self.accepted_steps = 0
        self.extension_keys: set = set()
        self.visited_dags: set = set()
        self.class_keys: set = set()
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, name, fn, observe=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                raised[name, type(err).__name__] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_step(self, args, state):
        if state is not args[0]:
            self.accepted_steps += 1
        self.visited_dags.add(state.dag.parent_sets)

    def _observe_extensions(self, args, _count):
        self.extension_keys.add(args[0].parent_sets)

    def _observe_class(self, _args, key):
        self.class_keys.add(key)

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        observers = {
            "sampler.metropolis_step": self._observe_step,
            "graph.count_linear_extensions": self._observe_extensions,
            "graph.cpdag_key": self._observe_class,
        }
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._replace(module, attr, self._wrap(name, fn, observers.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._replace(cls, attr, self._wrap(name, getattr(cls, attr)))
        # DagStructure validation runs on every move; a counter is enough.
        dag_cls = importlib.import_module("mmlbn.graph").DagStructure
        validate = dag_cls.__post_init__

        def counted(dag):
            self.dag_validations += 1
            validate(dag)

        self._replace(dag_cls, "__post_init__", counted)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as a compressed npz."""
        table, name_ids = np.unique(np.array(self.names, dtype=str), return_inverse=True)
        np.savez_compressed(
            path,
            names=table,
            name_id=name_ids.astype(np.int32),
            start_ns=np.array(self.starts, dtype=np.int64),
            end_ns=np.array(self.ends, dtype=np.int64),
            parent=np.array(self.parents, dtype=np.int64),
        )

    def summary(self) -> dict:
        """Per-layer metrics: calls, self time, percentiles, ratios, rejects."""
        n = len(self.starts)
        names = np.array(self.names, dtype=str)
        starts = np.array(self.starts, dtype=np.int64)
        ends = np.array(self.ends, dtype=np.int64)
        dur = ends - starts
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child_ns = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child_ns
        out = {}
        span_names = [name for *_, name in FUNCTIONS + METHODS]
        for name in dict.fromkeys(span_names):
            mask = names == name
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_ns[mask].sum()) / 1e9
            for q in PERCENTILES.get(name, ()):
                values = dur[mask]
                out[f"{name}.p{q}_us"] = (
                    float(np.percentile(values, q)) / 1e3 if values.size else 0.0
                )

        score_idx = np.flatnonzero(names == "scoring.node_score")
        computed = np.zeros(n, dtype=bool)
        length_idx = np.flatnonzero(names == "scoring.node_length")
        computed[parents[length_idx][parents[length_idx] >= 0]] = True
        misses = int(computed[score_idx].sum())
        out["scoring.cache_hit_ratio"] = (
            1.0 - misses / score_idx.size if score_idx.size else 0.0
        )
        out["scoring.inf_lengths"] = self._raised("scoring.node_score")
        sampler_idx = np.flatnonzero(names == "sampler.run_sampler")
        sampler_end = ends[sampler_idx].max() if sampler_idx.size else 0
        out["scoring.node_length.calls_after_sampler"] = int(
            (starts[length_idx] > sampler_end).sum()
        )

        out["graph.count_linear_extensions.distinct"] = len(self.extension_keys)
        out["graph.dag_validations"] = self.dag_validations
        out["graph.apply_move.reject_no_arc"] = self.raised["graph.apply_move", "NoArcError"]
        out["graph.apply_move.reject_cycle"] = self.raised["graph.apply_move", "CycleError"]
        out["graph.apply_move.reject_parent_cap"] = self.raised[
            "graph.apply_move", "ParentCapError"
        ]
        out["fom.convergence_errors"] = (
            self.raised["fom.fom_message_length", "ConvergenceError"]
            + self.raised["fom.fit_fom_map", "ConvergenceError"]
        )
        steps = out["sampler.metropolis_step.calls"]
        refused = self._raised("graph.apply_move")
        out["sampler.accept_ratio"] = self.accepted_steps / steps if steps else 0.0
        out["sampler.noop_ratio"] = refused / steps if steps else 0.0
        out["sampler.distinct_dags"] = len(self.visited_dags)
        out["sampler.distinct_classes"] = len(self.class_keys)
        out["trace.spans"] = n
        return out

    def _raised(self, name) -> int:
        return sum(count for (span, _), count in self.raised.items() if span == name)
