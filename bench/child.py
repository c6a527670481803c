"""One fresh benchmark process: set-up alone, or one mmlbn command.

run.py starts this file with the interpreter, from the root of a source
checkout, and times it from outside:

  python3 bench/child.py setup RESULT TRAIN [TEST]
  python3 bench/child.py run RESULT -- MMLBN_ARGS...
  python3 bench/child.py trace RESULT -- MMLBN_ARGS...

"setup" imports mmlbn and loads the input CSVs, which is what every CLI call
pays before it starts working. "run" calls the real `mmlbn.cli.main` on the
given arguments, with only a timer around `run_sampler` that also keeps the
report it returns. "trace" does the same with every layer's spans recorded
(see spans.py). Each mode writes its measurements to RESULT as JSON.

"setup" and "run" also time the calibration kernel (calibrate.py): "setup"
a few times after its work, "run" as a probe before and after the command,
at the entry and exit of `run_sampler` and after every PROBE_EVERY chain
steps. Probe time is left out of every timing the result reports.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Calibration kernel runs after a set-up.
SETUP_PROBES = 5
# Chain steps between two probes in a "run" process.
PROBE_EVERY = 20


class Probes:
    """Times the calibration kernel at marks during a command (see segments).

    Without a kernel it marks nothing, so that the traced run is not slowed.
    """

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.marks: list[tuple[float, float]] = []  # (start, end) of each probe
        self.sampler: list[int] = []  # marks at run_sampler's entry and exit

    def mark(self, sampler=False):
        if self.kernel is None:
            return
        if sampler:
            self.sampler.append(len(self.marks))
        start = time.perf_counter()
        self.kernel()
        self.marks.append((start, time.perf_counter()))

    def busy(self, start, end) -> float:
        """Probe seconds within [start, end]."""
        return sum(b - a for a, b in self.marks if start <= a and b <= end)

    def segments(self) -> list[list]:
        """[wall seconds, kernel seconds, inside run_sampler] of the command's
        work between each two marks; the kernel seconds are the mean of the
        two probes around it."""
        inside = range(*self.sampler) if len(self.sampler) == 2 else range(0)
        return [
            [b0 - a1, (a1 - a0 + b1 - b0) / 2, j in inside]
            for j, ((a0, a1), (b0, b1)) in enumerate(zip(self.marks, self.marks[1:]))
        ]


def _import_mmlbn():
    sys.path.insert(0, str(SRC))
    import mmlbn

    if Path(mmlbn.__file__).resolve().parent != SRC / "mmlbn":
        raise ImportError(f"mmlbn imported from {mmlbn.__file__}, not from {SRC}")
    return mmlbn


def _capture_sampler(modules, calls, probes):
    """Time each run_sampler call the CLI makes and keep its report."""
    for module in modules:
        inner = module.run_sampler

        def timed(ds, config, _inner=inner):
            probes.mark(sampler=True)
            start = time.perf_counter()
            report = _inner(ds, config)
            end = time.perf_counter()
            probes.mark(sampler=True)
            calls.append((end - start - probes.busy(start, end), config.iterations, report))
            return report

        module.run_sampler = timed


def _probe_steps(sampler, probes):
    """Mark a probe after every PROBE_EVERY chain steps."""
    inner = sampler.metropolis_step
    steps = 0

    def probed(state, rng, ctx):
        nonlocal steps
        state = inner(state, rng, ctx)
        steps += 1
        if steps % PROBE_EVERY == 0:
            probes.mark()
        return state

    sampler.metropolis_step = probed


def _classes(report) -> list[dict]:
    return [
        {
            "arcs": [list(arc) for arc in record.best_network.arcs()],
            "visits": record.visits,
            "weight": weight,
            "best_length": record.best_length,
        }
        for record, weight in zip(report.classes, report.weights())
    ]


def main(argv) -> int:
    mode, result_path = argv[1], Path(argv[2])
    mmlbn = _import_mmlbn()
    if mode == "setup":
        ds = mmlbn.load_csv(argv[3])
        if len(argv) > 4:
            mmlbn.load_csv_with_labels(argv[4], ds.variables)
        # run.py times this process from outside and takes off what follows.
        start = time.perf_counter()
        import calibrate

        result = {"cases": ds.n_cases, "calibration_s": calibrate.samples(SETUP_PROBES)}
        result["after_setup_s"] = time.perf_counter() - start
        result_path.write_text(json.dumps(result) + "\n", encoding="utf-8")
        return 0
    if mode not in ("run", "trace") or argv[3] != "--":
        raise SystemExit(f"usage: {argv[0]} setup|run|trace RESULT ...")
    import mmlbn.cli
    import mmlbn.evaluation
    import mmlbn.sampler

    probes = Probes()
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        import calibrate

        calibrate.kernel()  # warm, so that the first probe is not a cold call
        probes = Probes(calibrate.kernel)
        _probe_steps(mmlbn.sampler, probes)
    calls: list = []
    _capture_sampler((mmlbn.cli, mmlbn.evaluation), calls, probes)
    probes.mark()
    start = time.perf_counter()
    code = mmlbn.cli.main(argv[4:])
    end = time.perf_counter()
    probes.mark()
    result = {
        "exit_code": code,
        "run_s": end - start - probes.busy(start, end),
        "segments": probes.segments(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sampler_calls": [
            {"seconds": seconds, "iterations": iterations, "classes": _classes(report)}
            for seconds, iterations, report in calls
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.save(result_path.with_suffix(".spans.npz"))
    result_path.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
