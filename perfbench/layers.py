"""Which ``repro`` callables belong to which layer, for the traced run.

Each entry wraps a public function at the attribute its caller resolves:
the module global a caller imported it into, or the class attribute a
method call finds.  Wrapping at the defining module alone would miss every
caller that bound the name at import time.
"""

from __future__ import annotations

from repro.bench import figures
from repro.bench import harness as bench_harness
from repro.core import runner
from repro.machine import process_map, systems
from repro.machine.cluster import Cluster
from repro.model import predict
from repro.runtime import ResultStore, SweepExecutor
from repro.runtime.spec import PointSpec
from repro.verify import differential
from repro.verify import scenario as verify_scenario
from repro import workloads as repro_workloads


def _one(key: str):
    return lambda args, kwargs, result: {key: 1}


def _validation_items(args, kwargs, result):
    return {"core.validation_items": sum(int(buf.size) for buf in args[0])}


def _store_get(args, kwargs, result):
    return {"runtime.store_misses" if result is None else "runtime.store_hits": 1}


#: Cluster building and traffic generation inside verify scenario sampling,
#: which runs both in set-up (choosing seeds) and in every iteration.
_SCENARIO_WRAPS = (
    ("machine.build", verify_scenario, "get_system", None),
    ("machine.build", verify_scenario, "tiny_cluster", None),
    ("machine.build", Cluster, "with_fabric", None),
    ("workloads.generate", verify_scenario, "make_pattern", None),
    ("workloads.generate", verify_scenario.ScenarioGenerator, "_sample_phases", None),
)

#: ``(layer, owner, attribute, count)`` wrapped around every traced iteration.
ITERATION_WRAPS = _SCENARIO_WRAPS + (
    ("machine.build", bench_harness, "ProcessMap", None),
    ("machine.build", verify_scenario.Scenario, "process_map", None),
    ("machine.build", process_map.ProcessMap, "folded", None),
    ("simmpi.engine", runner, "run_spmd", None),
    ("core.runner", bench_harness, "run_alltoall", None),
    ("core.runner", bench_harness, "run_workload", None),
    ("core.runner", differential, "run_alltoall", None),
    ("core.runner", differential, "run_workload", None),
    ("core.runner", differential, "run_phased_workload", None),
    ("core.runner", runner, "run_phased", None),
    ("core.runner", runner, "run_alltoall", None),
    ("core.runner", runner, "run_workload", None),
    ("core.validation", runner, "validate_alltoall_results", _validation_items),
    ("core.validation", runner, "validate_folded_alltoall_results", _validation_items),
    ("core.validation", runner, "validate_workload_results", _validation_items),
    ("core.validation", runner, "validate_folded_workload_results", _validation_items),
    ("model.predict", bench_harness, "predict_breakdown", _one("model.predictions")),
    ("model.predict", bench_harness, "predict_workload_breakdown", _one("model.predictions")),
    ("model.predict", differential, "predict_time", _one("model.predictions")),
    ("model.predict", differential, "predict_workload_time", _one("model.predictions")),
    ("model.predict", predict, "predict_workload_time", _one("model.predictions")),
    ("runtime.spec_key", PointSpec, "key", None),
    ("runtime.store_get", ResultStore, "get", _store_get),
    ("runtime.store_put", ResultStore, "put", None),
    ("runtime.executor", SweepExecutor, "run", None),
    ("verify.differential", differential, "verify_seed", _one("verify.scenarios")),
    ("bench.harness", figures, "figure10", None),
    ("bench.harness", figures, "figure14", None),
    ("bench.harness", bench_harness.BenchmarkHarness, "workload_point", None),
)

#: Wrapped while the benchmark builds its inputs (set-up, not an iteration).
SETUP_WRAPS = _SCENARIO_WRAPS + (
    ("machine.build", systems, "get_system", None),
    ("machine.build", process_map, "ProcessMap", None),
    ("workloads.generate", repro_workloads, "make_pattern", None),
)

#: Root span of each iteration: the benchmark's own glue between calls.
ROOT = "bench.other"

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "machine.build": "machine.build_s",
    "workloads.generate": "workloads.generate_s",
    "simmpi.engine": "simmpi.engine_s",
    "core.runner": "core.runner_self_s",
    "core.validation": "core.validation_s",
    "model.predict": "model.predict_s",
    "runtime.spec_key": "runtime.spec_key_s",
    "runtime.store_get": "runtime.store_get_s",
    "runtime.store_put": "runtime.store_put_s",
    "runtime.executor": "runtime.executor_self_s",
    "verify.differential": "verify.differential_self_s",
    "bench.harness": "bench.harness_self_s",
    ROOT: "bench.other_self_s",
}

#: Counts recorded at the wrapped boundaries.
BOUNDARY_COUNTS = ("core.validation_items", "model.predictions", "runtime.store_hits",
                   "runtime.store_misses", "verify.scenarios")


def install(tracer, wraps) -> None:
    for layer, owner, attribute, count in wraps:
        tracer.wrap(owner, attribute, layer, count=count)
