"""The three benchmark workloads: inputs from a seed, one iteration each.

Every workload is a real user path of ``repro-bench`` driven in one process
with the serial executor (``jobs=1``):

* ``figure-sweep`` — cold simulate-engine regeneration of Figures 10 and 14
  on ``dane`` 8 nodes x 8 ppn plus v-form points on seeded ``skewed-moe``
  and ``zipf`` matrices, all through :class:`SweepExecutor` into a fresh
  :class:`ResultStore`; a warm pass served from that store; the model
  engine pricing every point (``figures --engine model``);
* ``scale-validated`` — few large validated runs as ``repro-bench run`` and
  ``workload`` perform them, including the folded 64 x 112 exchange;
* ``verify-sweep`` — the differential conformance sweep through
  ``verify_seed`` with the default, fabric and phased samplers, each over
  seeds of fixed cost classes drawn from the variant's stream, plus one
  fixed largest scenario.

The workload seed selects one of :data:`VARIANTS` input variants
(``seed % VARIANTS``), each of whose simulated outputs is pinned in
``pins.json``.  :func:`input_spec` is a pure function of the seed; the
program only ever receives what :func:`build_inputs` makes from it.

Calls into ``repro`` go through module attributes (``runner.run_alltoall``,
``figures.figure10``...) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from statistics import median

from repro.bench import figures
from repro.bench import harness as bench_harness
from repro.core import runner
from repro.errors import ReproError
from repro.machine import process_map, systems
from repro.model import predict
from repro.netsim.fabric import parse_fabric
from repro.runtime import ResultStore, SweepExecutor, SweepFailure
from repro.verify import differential
from repro.verify import scenario as verify_scenario
from repro import workloads as repro_workloads

#: Number of distinct input variants; the seed picks ``seed % VARIANTS``.
VARIANTS = 16

WORKLOADS = ("figure-sweep", "scale-validated", "verify-sweep")

_FIG_SYSTEM, _FIG_NODES, _FIG_PPN = "dane", 8, 8
_V_ALGORITHMS = ("pairwise", "nonblocking", "node-aware")
_V_MSG_BYTES = 1024
_VERIFY_FABRIC = "dragonfly:hosts=2,routers=2,taper=4"
_VERIFY_MAX_RANKS = 24
#: Scenarios per verify sampler.  Every variant verifies scenarios of the
#: same cost classes (see :func:`cost_class`): the classes of the template
#: seeds ``_VERIFY_TEMPLATE ..``, each drawn from the variant's own seed
#: stream.  Scenario cost is heavy-tailed in shape, so this stratified
#: draw keeps the work per seed alike while every scenario still differs.
_VERIFY_SCENARIOS = 30
_VERIFY_TEMPLATE = 90_000
#: First scenario seed of variant 0's streams, and the gap between streams.
_VERIFY_STREAMS = 1_000_000
_VERIFY_STREAM_GAP = 100_000


def input_spec(workload: str, seed: int) -> dict:
    """Plain-value description of the inputs of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    variant = seed % VARIANTS
    if workload == "figure-sweep":
        return {"variant": variant, "moe_seed": 1000 + variant, "zipf_seed": 2000 + variant}
    if workload == "scale-validated":
        return {"variant": variant, "moe_seed": 3000 + variant}
    # Disjoint scenario-seed streams per variant and sampler.
    base = _VERIFY_STREAMS + 3 * _VERIFY_STREAM_GAP * variant
    return {"variant": variant, "streams": {
        name: base + index * _VERIFY_STREAM_GAP
        for index, name in enumerate(("default", "fabric", "phased"))}}


def cost_class(scenario) -> tuple:
    """What sets the cost of verifying ``scenario``: family, rank count, size or phase count."""
    shape = (scenario.family, (scenario.nprocs + 3) // 4)
    if scenario.family == "uniform":
        return shape + (scenario.msg_bytes >= 1024,)
    if scenario.family == "workload":
        return shape
    return shape + (sum(phase.repeats for phase in scenario.phases.phases),)


def _anchor_seed(generator) -> int:
    """First seed from a fixed start whose scenario is the largest the sampler makes.

    Peak memory of a verify sweep is set by its largest scenario (uniform,
    the largest message size, the most ranks).  Every variant verifies this
    one, so ``peak_rss_mb`` measures the program on it rather than whether
    a seed happened to draw such a scenario.
    """
    seed = 9_000
    while True:
        scenario = generator.scenario(seed)
        if (scenario.family == "uniform" and scenario.msg_bytes == 4096
                and scenario.nprocs == _VERIFY_MAX_RANKS):
            return seed
        seed += 1


def _stratified_seeds(generator, start: int) -> list[int]:
    """One seed from ``start`` on for each template scenario, matching its cost class."""
    spare: dict[tuple, list[int]] = {}
    seeds, seed = [], start
    for index in range(_VERIFY_SCENARIOS):
        wanted = cost_class(generator.scenario(_VERIFY_TEMPLATE + index))
        while not spare.get(wanted):
            spare.setdefault(cost_class(generator.scenario(seed)), []).append(seed)
            seed += 1
        seeds.append(spare[wanted].pop(0))
    return seeds


def build_inputs(workload: str, seed: int) -> dict:
    """Build the clusters, process maps, matrices and seed lists of a workload."""
    spec = input_spec(workload, seed)
    if workload == "figure-sweep":
        nprocs = _FIG_NODES * _FIG_PPN
        return {
            "cluster": systems.get_system(_FIG_SYSTEM, _FIG_NODES),
            "matrices": {
                "skewed-moe": repro_workloads.make_pattern(
                    "skewed-moe", nprocs, _V_MSG_BYTES, seed=spec["moe_seed"]),
                "zipf": repro_workloads.make_pattern(
                    "zipf", nprocs, _V_MSG_BYTES, seed=spec["zipf_seed"]),
            },
        }
    if workload == "scale-validated":
        big = systems.get_system("dane", 64)
        mid = systems.get_system("dane", 16)
        return {
            "folded": process_map.ProcessMap(big, ppn=112, num_nodes=64),
            "hierarchical": process_map.ProcessMap(big, ppn=8, num_nodes=64),
            "vform": process_map.ProcessMap(mid, ppn=8, num_nodes=16),
            "matrix": repro_workloads.make_pattern("skewed-moe", 128, 64, seed=spec["moe_seed"]),
        }
    fabric = parse_fabric(_VERIFY_FABRIC)
    options = {"default": {}, "fabric": {"fabric": fabric}, "phased": {"phased": True}}
    samplers = [("anchor", [_anchor_seed(
        verify_scenario.ScenarioGenerator(_VERIFY_MAX_RANKS))], {})]
    for name, start in spec["streams"].items():
        generator = verify_scenario.ScenarioGenerator(_VERIFY_MAX_RANKS, **options[name])
        seeds = _stratified_seeds(generator, start)
        samplers.append((name, seeds, options[name]))
    return {"samplers": samplers}


class Probe:
    """Engine results and verify timings seen during one iteration.

    Installed by :func:`capture` around ``repro.core.runner.run_spmd`` and
    ``DifferentialRunner._check_timing`` in every run, traced or not: one
    call per simulated job, so its cost is invisible next to the job.
    """

    COUNTS = ("simmpi.jobs", "simmpi.events", "simmpi.messages", "simmpi.bytes",
              "simmpi.match_scanned", "simmpi.match_queued",
              "netsim.link_bytes", "netsim.link_busy_sim_s")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.counts = dict.fromkeys(self.COUNTS, 0)
        #: ``(seed, family, config name, options, pmap, msg_bytes, matrix, elapsed)``
        self.verify_points: list[tuple] = []

    def job(self, job) -> None:
        metrics = job.metrics
        counts = self.counts
        counts["simmpi.jobs"] += 1
        counts["simmpi.events"] += metrics["engine"]["events_processed"]
        counts["simmpi.messages"] += metrics["traffic"]["messages"]
        counts["simmpi.bytes"] += metrics["traffic"]["bytes"]
        counts["simmpi.match_scanned"] += metrics["matching"]["entries_scanned"]
        counts["simmpi.match_queued"] += metrics["matching"]["queued"]
        fabric = metrics.get("fabric")
        if fabric is not None:
            counts["netsim.link_bytes"] += fabric["bytes"]
            counts["netsim.link_busy_sim_s"] += fabric["link_busy_time"]["sum"]


@contextlib.contextmanager
def capture(probe: Probe):
    """Install the :class:`Probe` hooks for the duration of the block."""
    run_spmd = runner.run_spmd
    check_timing = differential.DifferentialRunner.__dict__["_check_timing"]

    def probed_run_spmd(*args, **kwargs):
        job = run_spmd(*args, **kwargs)
        probe.job(job)
        return job

    def probed_check_timing(self, scenario, config, pmap, elapsed):
        probe.verify_points.append((
            scenario.seed, scenario.family, config.name, config.as_dict(), pmap,
            scenario.msg_bytes, scenario.matrix, elapsed,
        ))
        return check_timing(self, scenario, config, pmap, elapsed)

    runner.run_spmd = probed_run_spmd
    differential.DifferentialRunner._check_timing = probed_check_timing
    try:
        yield probe
    finally:
        runner.run_spmd = run_spmd
        differential.DifferentialRunner._check_timing = check_timing


# ---------------------------------------------------------------------------
# Iterations.  Each returns (outputs, fidelity): ``outputs`` maps an
# operation to its checked result string, ``fidelity`` is the
# (simulated, modelled) pairs and winner columns of the model check.
# ---------------------------------------------------------------------------

def _fig_points(prefix: str, fig) -> dict[str, float]:
    return {f"{prefix}/{series.label}/{point.x:g}": point.seconds
            for series in fig.series for point in series.points}


def _sweep(cluster, matrices, engine: str, executor=None) -> dict[str, float]:
    points = {}
    points.update(_fig_points("fig10", figures.figure10(
        cluster, ppn=_FIG_PPN, engine=engine, executor=executor)))
    points.update(_fig_points("fig14", figures.figure14(
        cluster, ppn=_FIG_PPN, engine=engine, executor=executor)))
    harness = bench_harness.BenchmarkHarness(cluster, _FIG_PPN, engine=engine, executor=executor)
    for pattern, matrix in matrices.items():
        for algorithm in _V_ALGORITHMS:
            point = harness.workload_point(algorithm, matrix, _FIG_NODES)
            points[f"v/{pattern}/{algorithm}"] = point.seconds
    return points


def figure_sweep(inputs: dict, scratch_dir: str) -> tuple[dict, dict]:
    cluster, matrices = inputs["cluster"], inputs["matrices"]
    store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch_dir)
    outputs: dict[str, str] = {}
    try:
        passes = {}
        for name in ("cold", "warm"):
            store = ResultStore(store_dir)
            try:
                with SweepExecutor(1, store=store) as executor:
                    passes[name] = _sweep(cluster, matrices, "simulate", executor)
            except SweepFailure as exc:
                outputs[f"{name}/quarantined"] = str(len(exc.failures))
                passes[name] = {}
            outputs[f"{name}/store"] = f"hits={store.hits} misses={store.misses} len={len(store)}"
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    modelled = _sweep(cluster, matrices, "model")
    cold, warm = passes["cold"], passes["warm"]
    for key, seconds in cold.items():
        outputs[key] = repr(seconds)
        # The warm pass must serve exactly what the cold pass stored.
        outputs[f"warm/{key}"] = "same" if warm.get(key) == seconds else repr(warm.get(key))
    pairs = [(cold[key], modelled[key]) for key in cold if key in modelled]
    columns = []
    for x in sorted({key.split("/")[2] for key in cold if key.startswith("fig10/")}, key=float):
        keys = [key for key in cold if key.startswith("fig10/") and key.endswith(f"/{x}")]
        columns.append(({k: cold[k] for k in keys}, {k: modelled[k] for k in keys}))
    for pattern in matrices:
        keys = [f"v/{pattern}/{algorithm}" for algorithm in _V_ALGORITHMS]
        columns.append(({k: cold[k] for k in keys}, {k: modelled[k] for k in keys}))
    return outputs, {"pairs": pairs, "columns": columns}


def scale_validated(inputs: dict) -> tuple[dict, dict]:
    runs = {
        "node-aware/64x112/4B/fold-on": lambda: runner.run_alltoall(
            "node-aware", inputs["folded"], 4, fold="on"),
        "hierarchical/64x8/256B": lambda: runner.run_alltoall(
            "hierarchical", inputs["hierarchical"], 256),
        "v-node-aware/16x8/skewed-moe": lambda: runner.run_workload(
            "node-aware", inputs["vform"], inputs["matrix"]),
    }
    outputs = {}
    simulated = {}
    for key, run in runs.items():
        outcome = run()
        simulated[key] = outcome.elapsed
        phases = ",".join(f"{k}={v!r}" for k, v in sorted(outcome.phase_times.items()))
        outputs[key] = f"correct={outcome.correct} elapsed={outcome.elapsed!r} phases={phases}"
    # `repro-bench workload` prints the model comparison by default.
    modelled = {"v-node-aware/16x8/skewed-moe": predict.predict_workload_time(
        "node-aware", inputs["vform"], inputs["matrix"])}
    return outputs, {"simulated": simulated, "modelled": modelled}


def verify_sweep(inputs: dict, probe: Probe) -> tuple[dict, dict]:
    outputs = {}
    for sampler, seeds, options in inputs["samplers"]:
        for seed in seeds:
            first = len(probe.verify_points)
            record = differential.verify_seed(seed, _VERIFY_MAX_RANKS, **options)
            timings = ",".join(repr(point[-1]) for point in probe.verify_points[first:])
            outputs[f"verify/{sampler}/{seed}"] = (
                f"ok={record.ok} family={record.family} verified={len(record.verified)} "
                f"skipped={len(record.skipped)} digest={record.digest[:16]} "
                f"result={record.result_hash[:16]} timings={timings}"
            )
    return outputs, {"verify_points": list(probe.verify_points)}


def run_iteration(workload: str, inputs: dict, scratch_dir: str, probe: Probe):
    """One iteration of ``workload``; returns ``(outputs, fidelity)``."""
    probe.reset()
    if workload == "figure-sweep":
        outputs, fidelity = figure_sweep(inputs, scratch_dir)
    elif workload == "scale-validated":
        outputs, fidelity = scale_validated(inputs)
    else:
        outputs, fidelity = verify_sweep(inputs, probe)
    for key, value in probe.counts.items():
        outputs[f"count/{key}"] = repr(value)
    return outputs, fidelity


# ---------------------------------------------------------------------------
# Model fidelity (LogGP model against the simulator; no hardware reference)
# ---------------------------------------------------------------------------

def model_fidelity(workload: str, inputs: dict, fidelity: dict) -> dict:
    """``model_err_p50``, ``winner_agree`` and the column count of one iteration."""
    columns = []
    if workload == "figure-sweep":
        pairs = fidelity["pairs"]
        columns = fidelity["columns"]
    elif workload == "scale-validated":
        models = dict(fidelity["modelled"])
        models["node-aware/64x112/4B/fold-on"] = predict.predict_time(
            "node-aware", inputs["folded"], 4)
        models["hierarchical/64x8/256B"] = predict.predict_time(
            "hierarchical", inputs["hierarchical"], 256)
        pairs = [(fidelity["simulated"][key], models[key]) for key in models]
    else:
        pairs = []
        by_scenario: dict[int, tuple[dict, dict]] = {}
        for index, (seed, family, name, options, pmap, msg_bytes, matrix, elapsed) in \
                enumerate(fidelity["verify_points"]):
            try:
                if family == "uniform" and name in predict.MODELED_ALGORITHMS:
                    value = predict.predict_time(name, pmap, msg_bytes, **options)
                elif family == "workload" and name in predict.WORKLOAD_MODELED_ALGORITHMS:
                    value = predict.predict_workload_time(name, pmap, matrix, **options)
                else:
                    continue
            except ReproError:
                continue
            pairs.append((elapsed, value))
            sim, mod = by_scenario.setdefault(seed, ({}, {}))
            sim[index], mod[index] = elapsed, value
        columns = [column for column in by_scenario.values() if len(column[0]) >= 2]
    errors = [abs(model - sim) / sim for sim, model in pairs if sim > 0]
    agree = sum(min(sim, key=sim.get) == min(mod, key=mod.get) for sim, mod in columns)
    return {
        "model_err_p50": median(errors),
        "model_points": len(errors),
        "winner_agree": agree / len(columns) if columns else 0.0,
        "winner_columns": len(columns),
    }
