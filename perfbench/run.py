"""Repository benchmark: host time of real ``repro-bench`` user paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: ``wall_s``
(host seconds per iteration), ``setup_s`` (fresh interpreter to inputs
ready, median of several child processes) and ``peak_rss_mb`` (high-water
mark after set-up and one pass); it also prints the model fidelity
(``model_err_p50``, ``winner_agree``: the LogGP model against the
simulator, no hardware reference) and ``failed_frac``.  ``--trace 1`` is
the separate traced run: it alternates untraced and traced iterations,
splits the traced host time across the package layers (see ``layers.py``)
and reports the boundary counts and the model fidelity.  Every iteration's simulated outputs are checked against
``pins.json``; any mismatch makes the run incorrect and the exit code
non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Benchmark scratch space inside the checkout (stores, span dumps).
WORK_DIR = ROOT / ".perfbench"

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_SAMPLES = 7
#: A run never records fewer timed iterations than this.
MIN_ITERATIONS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summary(samples: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2:
        q1, med, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = med = q3 = ordered[0]
    result = {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n}
    if n >= 11:
        percentile = math.floor(100 * (n - 10) / n)
        result[f"p{percentile}"] = ordered[math.ceil(percentile / 100 * n) - 1]
    return result


# ---------------------------------------------------------------------------
# Set-up: fresh interpreter -> inputs ready
# ---------------------------------------------------------------------------

def setup_child(args) -> int:
    """Child side of a ``setup_s`` sample: import, build inputs, report."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the user-facing entry point's import cost)
    import_s = time.perf_counter() - start
    import paths

    paths.build_inputs(args.workload, args.seed)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up seconds (parent clock, spawn to ready) and child import seconds."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed)]
    setup, imports = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=120) != 0 or not line:
                raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
        setup.append(ready)
        imports.append(json.loads(line)["import_s"])
    return setup, imports


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Run:
    """Iterates one workload, checking every iteration's outputs."""

    def __init__(self, args, paths, check, scratch: Path) -> None:
        self.args = args
        self.paths = paths
        self.check = check
        self.scratch = scratch
        self.variant = paths.input_spec(args.workload, args.seed)["variant"]
        self.pins = check.load_pins()
        self.expected = check.expected_outputs(self.pins, args.workload, self.variant)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe = paths.Probe()
        self.inputs = None
        self.fidelity = None
        self.peak_rss_mb = 0.0

    def iterate(self) -> float:
        """One checked iteration; returns its host seconds."""
        start = time.perf_counter()
        outputs, fidelity = self.paths.run_iteration(
            self.args.workload, self.inputs, str(self.scratch), self.probe)
        wall = time.perf_counter() - start
        self.tally(outputs, self.expected)
        if self.fidelity is None:
            self.fidelity = fidelity
        return wall

    def tally(self, outputs: dict, expected: dict) -> None:
        """Count ``outputs`` as attempted operations and their mismatches as failed."""
        bad = self.check.mismatches(outputs, expected)
        self.attempted += len(outputs)
        self.failed += len(bad)
        self.problems.extend(f"mismatch: {key} = {outputs.get(key)!r}" for key in bad[:5])


def timed_loop(seconds: float, step) -> list[float]:
    """Call ``step()`` until another call would end after ``seconds``; return its results.

    ``step`` returns the seconds it took.
    """
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while len(durations) < MIN_ITERATIONS or \
            time.perf_counter() + statistics.median(durations) <= deadline:
        durations.append(step())
    return durations


def untraced_metrics(args, run: Run, setup: list[float]) -> dict:
    walls = timed_loop(args.seconds, run.iterate)
    fidelity = run.paths.model_fidelity(args.workload, run.inputs, run.fidelity)
    wall = summary(walls)
    print("wall_s samples " + " ".join(f"{w:.4f}" for w in walls))
    print(f"wall_s       median {wall['median']:.4f} s  q1 {wall['q1']:.4f}  q3 {wall['q3']:.4f}  "
          f"n {wall['n']}" + "".join(f"  {k} {v:.4f}" for k, v in wall.items()
                                     if k.startswith("p")))
    set_up = summary(setup)
    print(f"setup_s      median {set_up['median']:.4f} s  q1 {set_up['q1']:.4f}  "
          f"q3 {set_up['q3']:.4f}  n {set_up['n']}")
    rss = run.peak_rss_mb
    print(f"peak_rss_mb  {rss:.1f} MB  (n 1, high-water mark after set-up and one pass)")
    print(f"model_err_p50 {fidelity['model_err_p50']:.6f}  over {fidelity['model_points']} "
          "points (LogGP model vs simulator, no hardware reference)")
    print(f"winner_agree {fidelity['winner_agree']:.4f}  over {fidelity['winner_columns']} columns")
    print(f"failed_frac  {run.failed / max(run.attempted, 1):.6f}  "
          f"({run.failed} of {run.attempted} operations)")
    return {
        "wall_s": {"value": wall["median"], "unit": "s"},
        "setup_s": {"value": set_up["median"], "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced_metrics(args, run: Run, imports: list[float], setup_spans: list) -> dict:
    import layers
    import spans as span_lib

    tracer = span_lib.Tracer()
    untraced: list[float] = []
    expected_counts = run.check.expected_outputs(run.pins, args.workload, run.variant,
                                                 "trace_counts")
    counts: dict[str, int] = {}

    def traced() -> None:
        tracer.iteration += 1
        tracer.counts.clear()
        layers.install(tracer, layers.ITERATION_WRAPS)
        try:
            with tracer.span(layers.ROOT):
                run.iterate()
        finally:
            tracer.uninstall()
        # Exact-count self-check: every traced iteration repeats the pinned counts.
        counts.update({k: tracer.counts.get(k, 0) for k in layers.BOUNDARY_COUNTS})
        run.tally({k: repr(v) for k, v in counts.items()}, expected_counts)

    def pair() -> float:
        # Alternate which side goes first so order effects cancel.
        if tracer.iteration % 2:
            traced()
            untraced.append(run.iterate())
        else:
            untraced.append(run.iterate())
            traced()
        return untraced[-1] + root_wall(tracer.iteration)

    def root_wall(iteration: int) -> float:
        return sum(end - start for name, start, end, parent, it in tracer.spans
                   if parent < 0 and it == iteration)

    timed_loop(args.seconds, pair)
    iterations = tracer.iteration
    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    put("setup.import_s", statistics.median(imports), "s")
    setup_self = span_lib.self_times(setup_spans)
    put("setup.machine_s", setup_self.get("machine.build", 0.0), "s")
    put("setup.generate_s", setup_self.get("workloads.generate", 0.0), "s")

    self_s = span_lib.self_times(tracer.spans)
    for span_name, metric in layers.SELF_TIME_METRICS.items():
        put(metric, self_s.get(span_name, 0.0) / iterations, "s")
    traced_wall = span_lib.root_total(tracer.spans) / iterations
    untraced_wall = statistics.fmean(untraced)
    put("trace.wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")

    # Engine counts are checked against the pins in every iteration.
    for key, value in run.probe.counts.items():
        put(key, value, "sim_s" if key.endswith("_sim_s") else "B" if key.endswith("bytes")
            else "count")
    for key, value in counts.items():
        put(key, value, "count")
    fidelity = run.paths.model_fidelity(args.workload, run.inputs, run.fidelity)
    put("model.err_p50", fidelity["model_err_p50"], "ratio")
    put("model.winner_agree", fidelity["winner_agree"], "share")
    put("model.winner_columns", fidelity["winner_columns"], "count")

    total_self = sum(self_s.values()) / iterations
    print(f"traced iterations {iterations}; layer self times sum to {total_self:.6f} s "
          f"= traced wall_s {traced_wall:.6f} s; untraced wall_s {untraced_wall:.6f} s; "
          f"tracing overhead {traced_wall - untraced_wall:+.6f} s")
    for name, entry in sorted(metrics.items()):
        share = ""
        if name in layers.SELF_TIME_METRICS.values():
            share = f"  ({100 * entry['value'] / traced_wall:5.1f} % of traced wall)"
        print(f"  {name:<28s} {entry['value']:.6g} {entry['unit']}{share}")
    WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(WORK_DIR / f"spans-{args.workload}.json")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)
    import check
    import layers
    import paths
    import spans

    if args.workload not in paths.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {paths.WORKLOADS}",
              file=sys.stderr)
        return 2
    setup_s, imports = measure_setup(args)
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        run = Run(args, paths, check, scratch)
        setup = spans.Tracer()
        if args.trace:
            layers.install(setup, layers.SETUP_WRAPS)
        try:
            with setup.span("setup"):
                run.inputs = paths.build_inputs(args.workload, args.seed)
        finally:
            setup.uninstall()
        with paths.capture(run.probe):
            run.iterate()  # warm-up: lazy imports and first-touch allocations
            # High-water mark after set-up and one full pass, as one CLI
            # invocation sees it; later passes only add allocator drift that
            # depends on how many iterations fit in the run.
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                metrics = traced_metrics(args, run, imports, setup.spans)
            else:
                metrics = untraced_metrics(args, run, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in run.problems[:20]:
        print(problem, file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
