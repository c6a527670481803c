"""Seeded offline benchmark for mmlbn: the real CLI on generated data.

Run from the root of a source checkout; mmlbn is imported from src/, numpy
and scipy must be installed:

  python3 bench/run.py --workload chain-learn --seed 1 --seconds 50 --trace 0
  python3 bench/run.py --workload chain-learn --seed 1 --seconds 50 --trace 1
  python3 bench/run.py --smoke

Every mmlbn command runs in a fresh interpreter (bench/child.py), because a
user pays the cold process-wide caches on every CLI call. The benchmark
repeats the workload's command as many times as --seconds budgets for on a
slow host (Run.count); see Run for which inputs and chain seeds each
invocation uses, and end_to_end for how the invocations are combined. The
inputs come from bench/gen.py. Timings are scaled to a nominal machine speed
by a calibration kernel that every process times next to its work
(bench/calibrate.py).

--trace 0 prints the end-to-end metrics. --trace 1 runs pairs of one untraced
and one traced invocation on the same chain seed, checks that their reports
are identical, and prints the per-layer metrics (bench/spans.py) with the
tracing overhead. --smoke runs every workload at a tiny size in both modes
and checks that every metric BENCHMARK.json names is emitted.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Any failed
correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread in this process and every child: the machine is shared and
# the numbers must not depend on how many cores happen to be free.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import calibrate  # noqa: E402  (bench/ is on sys.path as the script directory)
import gen  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60
LENGTH_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    command: str  # mmlbn subcommand
    model: str
    iterations: int
    burn_in: int
    top_k: int
    # Wall seconds budgeted per invocation (process start, command and
    # calibration) on a slow spell of a shared 2-core host; sets how many
    # invocations a run of --seconds makes (Run.count).
    invocation_s: float


# Short chains, so that a run holds many invocations: the work one chain does
# varies with its path, so runs compare averages over many chains.
# nursery-eval keeps three classes so that the held-out mixture has the same
# number of components in every invocation.
WORKLOADS = {
    "chain-learn": Workload("learn", "dual", 500, 100, 10, invocation_s=5.0),
    "nursery-eval": Workload("eval", "dual", 200, 50, 3, invocation_s=5.5),
}

# Smoke runs: a tenth of the cases and a short chain.
SMOKE_SCALE = 0.1
SMOKE_ITERATIONS, SMOKE_BURN_IN = 200, 50


def _spawn(args):
    """Run bench/child.py with args; returns (exit code, wall seconds, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {CHILD_TIMEOUT_S} s"
    return proc.returncode, time.perf_counter() - start, proc.stderr


def _scaled(segments, sampler_only=False) -> float:
    """Nominal-speed seconds of a command's segments (child.Probes): each
    segment's wall time times the kernel's nominal time over its time there."""
    return sum(
        wall * calibrate.NOMINAL_S / kernel
        for wall, kernel, in_sampler in segments
        if in_sampler or not sampler_only
    )


def skeleton_f1(arcs, planted) -> float:
    learned = {frozenset(arc) for arc in arcs}
    truth = {frozenset(arc) for arc in planted}
    if not learned and not truth:
        return 1.0
    return 2.0 * len(learned & truth) / (len(learned) + len(truth))


class Checker:
    """Checks one workload's invocations against a fresh scoring of its data."""

    def __init__(self, mmlbn, train_path):
        self.mmlbn = mmlbn
        self.ds = mmlbn.load_csv(train_path)
        self.cache = mmlbn.ScoreCache()

    def problems(self, code, result, report) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if result is None or report is None:
            return ["no result or no report written"]
        if len(result["sampler_calls"]) != 1:
            return [f"{len(result['sampler_calls'])} run_sampler calls, expected 1"]
        classes = result["sampler_calls"][0]["classes"]
        config = report["config"]
        found = []
        if not classes:
            found.append("no classes reported")
        weights = [c["weight"] for c in classes]
        if any(not 0.0 < w <= 1.0 for w in weights) or sum(weights) > 1.0 + 1e-12:
            found.append(f"weights out of range: {weights}")
        for rank, c in enumerate(classes):
            found += self._class_problems(rank, c, config)
        if config["command"] == "learn":
            cli_view = [
                {
                    "arcs": [f"{u}->{v}" for u, v in c["arcs"]],
                    "visits": c["visits"],
                    "weight": c["weight"],
                    "best_length": c["best_length"],
                }
                for c in classes
            ]
            reported = [
                {key: c[key] for key in ("arcs", "visits", "weight", "best_length")}
                for c in report["classes"]
            ]
            if reported != cli_view:
                found.append("CLI report classes differ from run_sampler's report")
        else:
            nll = report["summary"]["means"]["test_nll"]
            if not (isinstance(nll, float) and math.isfinite(nll)):
                found.append(f"test_nll not finite: {nll}")
        return found

    def _class_problems(self, rank, c, config) -> list[str]:
        mmlbn = self.mmlbn
        try:
            dag = mmlbn.DagStructure.from_arcs(self.ds.n_variables, c["arcs"])
        except (mmlbn.MmlbnError, ValueError) as err:
            return [f"class {rank}: arcs are not a DAG: {err}"]
        found = []
        widest = max((len(p) for p in dag.parent_sets), default=0)
        if widest > config["max_parents"]:
            found.append(f"class {rank}: {widest} parents > --max-parents")
        try:
            fresh = mmlbn.network_message_length(
                dag,
                self.ds,
                mmlbn.ModelPolicy(config["model"]),
                config["arc_prior"],
                config["sigma"],
                self.cache,
            )
        except mmlbn.MmlbnError as err:
            return found + [f"class {rank}: fresh scoring failed: {err}"]
        if not math.isclose(c["best_length"], fresh, rel_tol=LENGTH_RTOL):
            found.append(f"class {rank}: best_length {c['best_length']} != fresh {fresh}")
        return found


def _read_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run of one workload: its inputs, invocations and checks.

    Invocation k reads its own inputs, generated from (seed, k), and runs the
    chain with seed k + 1. Averaging over several input draws per run keeps
    the run-to-run spread of the timings small; the chain seeds are the same
    in every run, so runs replay the same proposal streams.
    """

    def __init__(self, mmlbn, workload: str, seed: int, smoke: bool):
        self.mmlbn = mmlbn
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.scale = SMOKE_SCALE if smoke else 1.0
        self.iterations = SMOKE_ITERATIONS if smoke else self.spec.iterations
        self.burn_in = SMOKE_BURN_IN if smoke else self.spec.burn_in
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self._inputs: dict[int, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def inputs(self, k) -> dict:
        if k not in self._inputs:
            self._inputs[k] = gen.generate(
                self.name, self.seed, self.work / f"data{k}", self.scale, index=k
            )
        return self._inputs[k]

    def count(self, seconds, per_step=1) -> int:
        """Steps of per_step invocations that a run of `seconds` makes.

        A fixed count, not as many as fit: invocation k always runs chain
        seed k + 1, and the chain seeds differ in how much work they lead to,
        so a count that followed the host's speed would change the mix.
        """
        return max(1, round(seconds / (per_step * self.spec.invocation_s)))

    def _cli_args(self, k, out):
        spec, inputs = self.spec, self.inputs(k)
        args = [
            spec.command,
            "--data", str(inputs["train"]),
            "--model", spec.model,
            "--iterations", str(self.iterations),
            "--burn-in", str(self.burn_in),
            "--top-k", str(spec.top_k),
            "--seed", str(k + 1),
            "--out", str(out),
        ]  # fmt: skip
        if inputs["test"] is not None:
            args += ["--test", str(inputs["test"])]
        return args

    def setup_seconds(self, repeats) -> list[tuple[float, float]]:
        """(wall seconds, scale) of each set-up process."""
        inputs = self.inputs(0)
        files = [str(inputs["train"])]
        if inputs["test"] is not None:
            files.append(str(inputs["test"]))
        walls = []
        for k in range(repeats):
            self.attempted += 1
            path = self.work / f"setup{k}.json"
            code, wall, err = _spawn(["setup", str(path), *files])
            result = _read_json(path)
            if code != 0 or result is None:
                self.failures.append(f"setup {k}: exit {code}: {err.strip()[-400:]}")
            else:
                scale = calibrate.NOMINAL_S / statistics.median(result["calibration_s"])
                walls.append((wall - result["after_setup_s"], scale))
        return walls

    def invoke(self, mode, k) -> tuple:
        """Run the workload's command once, unchecked; returns what check() needs."""
        result_path = self.work / f"{mode}{k}.json"
        report_path = self.work / f"{mode}{k}.report.json"
        self.attempted += 1
        code, _, err = _spawn([mode, str(result_path), "--", *self._cli_args(k, report_path)])
        return mode, k, code, err, result_path, report_path

    def check(self, invocation):
        """Returns (result, report) of an invocation that passes every check, else None."""
        mode, k, code, err, result_path, report_path = invocation
        result, report = _read_json(result_path), _read_json(report_path)
        checker = Checker(self.mmlbn, self.inputs(k)["train"])
        found = checker.problems(code, result, report)
        if found:
            detail = "; ".join(found) + (f"; stderr: {err.strip()[-400:]}" if err else "")
            self.failures.append(f"{mode} {k}: {detail}")
            return None
        return result, report

    def quality(self, k, result, report) -> dict:
        top = result["sampler_calls"][0]["classes"][0]
        out = {
            "best_length_nits": top["best_length"],
            "skeleton_f1": skeleton_f1(top["arcs"], self.inputs(k)["planted"]),
        }
        if report["config"]["command"] == "eval":
            out["test_nll_nits"] = report["summary"]["means"]["test_nll"]
        return out


def end_to_end(run: Run, seconds, setup_repeats) -> tuple[dict, dict]:
    setups = run.setup_seconds(setup_repeats)
    invocations = [run.invoke("run", k) for k in range(run.count(seconds))]
    rows = []
    for k, invocation in enumerate(invocations):
        checked = run.check(invocation)
        if checked is None:
            continue
        result, report = checked
        call = result["sampler_calls"][0]
        quality = run.quality(k, result, report)
        rows.append(
            {
                "run_s": result["run_s"],
                "iterations": call["iterations"],
                "sampler_s": call["seconds"],
                "run_scaled": _scaled(result["segments"]),
                "sampler_scaled": _scaled(result["segments"], sampler_only=True),
                "peak_rss_mb": result["peak_rss_mb"],
                **quality,
            }
        )
        print(f"# invocation {k}: " + " ".join(f"{n}={v:.6g}" for n, v in rows[-1].items()))
    # Timings are in nominal-speed seconds (calibrate.py), so that the host's
    # speed divides out; the unscaled ones are returned for the text lines.
    metrics, raw = {}, {}
    if setups:
        metrics["setup_s"] = statistics.median(wall * scale for wall, scale in setups)
        raw["setup_s"] = statistics.median(wall for wall, _ in setups)
    if rows:
        # Invocations differ in how much work the chain does, so timings are
        # totals over the run (a mean), not a median that jumps between slow
        # and fast chains.
        metrics.update(_timings(rows, "run_scaled", "sampler_scaled"))
        raw.update(_timings(rows, "run_s", "sampler_s"))
        metrics["peak_rss_mb"] = statistics.median([row["peak_rss_mb"] for row in rows])
        for name in quality:
            metrics[name] = statistics.fmean(row[name] for row in rows)
    return metrics, raw


def _timings(rows, run_key, sampler_key) -> dict:
    return {
        "run_s": statistics.fmean(row[run_key] for row in rows),
        "steps_per_s": sum(row["iterations"] for row in rows)
        / sum(row[sampler_key] for row in rows),
    }


def per_layer(run: Run, seconds) -> dict:
    pairs = [
        (run.invoke("run", k), run.invoke("trace", k)) for k in range(run.count(seconds, 2))
    ]
    checked = []
    for k, (plain, traced) in enumerate(pairs):
        plain, traced = run.check(plain), run.check(traced)
        if plain is None or traced is None:
            continue
        if plain[1] != traced[1]:
            run.failures.append(f"trace {k}: traced report differs from untraced report")
            continue
        checked.append((plain[0], traced[0]))
    if not checked:
        return {}
    layers = [traced["layers"] for _, traced in checked]
    metrics = {name: statistics.median([layer[name] for layer in layers]) for name in layers[0]}
    plain_s = statistics.median([plain["run_s"] for plain, _ in checked])
    traced_s = statistics.median([traced["run_s"] for _, traced in checked])
    metrics["trace.run_s_untraced"] = plain_s
    metrics["trace.run_s_traced"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmlbn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def _print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units.get(name, '')}")


def measure(mmlbn, workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (correct, attempted, failed, metrics, extras)."""
    run = Run(mmlbn, workload, seed, smoke)
    if trace:
        metrics = per_layer(run, seconds)
        extras = {}
    else:
        metrics, raw = end_to_end(run, seconds, 1 if smoke else SETUP_REPEATS)
        extras = {"test_nll_nits": metrics.pop("test_nll_nits", None)}
        extras.update({f"{name}_wall": value for name, value in raw.items()})
    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAILED {workload}: {failure}")
    extras["fail_rate"] = failed / run.attempted
    return failed == 0, run.attempted, failed, metrics, extras


def _benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def smoke(mmlbn) -> int:
    e2e_units, layer_units = _benchmark_names()
    ok = True
    for workload in WORKLOADS:
        for trace, expected in ((0, e2e_units), (1, layer_units)):
            correct, attempted, failed, metrics, extras = measure(
                mmlbn, workload, 1, 0, trace, smoke=True
            )
            missing = sorted(set(expected) - set(metrics))
            extra = sorted(set(metrics) - set(expected))
            if workload == "nursery-eval" and not trace and extras["test_nll_nits"] is None:
                missing.append("test_nll_nits")
            status = "ok" if correct and not missing and not extra else "FAILED"
            ok = ok and status == "ok"
            print(
                f"smoke {workload} trace={trace}: {status} "
                f"({attempted} processes, {failed} failed, {len(metrics)} metrics"
                f"{', missing ' + ', '.join(missing) if missing else ''}"
                f"{', unexpected ' + ', '.join(extra) if extra else ''})"
            )
    print(json.dumps({"smoke": ok}))
    return 0 if ok else 1


def _import_mmlbn():
    if not (SRC / "mmlbn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mmlbn sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import mmlbn

    return mmlbn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of everything")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    mmlbn = _import_mmlbn()
    env = environment()
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()))
    if args.smoke:
        return smoke(mmlbn)
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} spec={WORKLOADS[args.workload]}"
    )
    correct, attempted, failed, metrics, extras = measure(
        mmlbn, args.workload, args.seed, args.seconds, args.trace
    )
    e2e_units, layer_units = _benchmark_names()
    _print_metrics(metrics, layer_units if args.trace else e2e_units)
    _print_metrics(
        {k: v for k, v in extras.items() if v is not None},
        {
            "test_nll_nits": "nits",
            "fail_rate": "ratio",
            "setup_s_wall": "s (unscaled)",
            "run_s_wall": "s (unscaled)",
            "steps_per_s_wall": "1/s (unscaled)",
        },
    )
    units = layer_units if args.trace else e2e_units
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(payload))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
