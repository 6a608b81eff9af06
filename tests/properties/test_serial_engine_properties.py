"""Property test: a simulated scenario is bit-identical on every run.

Across seeded :class:`~repro.verify.scenario.ScenarioGenerator` scenarios —
uniform and workload families, with and without a contended fabric, folded
and full-width — a second run of the same scenario must reproduce the
first exactly, even with an unrelated scenario simulated in between: same
emitted event stream (order included), same elapsed time and phase
breakdown, same per-rank finish times, same event count, and
byte-identical delivered buffers.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import run_alltoall, run_workload
from repro.netsim.fabric import parse_fabric
from repro.obs import RecordingSink
from repro.verify.scenario import ScenarioGenerator

_DRAGONFLY = "dragonfly:hosts=2,routers=2,taper=4"


def _digest(results) -> str:
    hasher = hashlib.sha256()
    for buf in results:
        arr = np.asarray(buf)
        hasher.update(str(arr.size).encode())
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def _run(scenario, fold: str = "off"):
    sink = RecordingSink()
    pmap = scenario.process_map()
    if scenario.family == "uniform":
        outcome = run_alltoall("pairwise", pmap, scenario.msg_bytes, validate=False,
                               fold=fold, sink=sink)
    else:
        outcome = run_workload("pairwise", pmap, scenario.matrix, validate=False,
                               fold=fold, sink=sink)
    return outcome, sink


def _signature(outcome, sink):
    job = outcome.job
    return (
        outcome.elapsed,
        tuple(sorted(outcome.phase_times.items())),
        tuple(job.finish_times),
        job.events_processed,
        _digest(job.results),
        sink.events,
    )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    other=st.integers(0, 100_000),
    with_fabric=st.booleans(),
)
def test_scenario_is_bit_identical_across_runs(seed, other, with_fabric):
    fabric = parse_fabric(_DRAGONFLY) if with_fabric else None
    generator = ScenarioGenerator(max_ranks=16, fabric=fabric)
    scenario = generator.scenario(seed)
    first = _signature(*_run(scenario))
    _run(generator.scenario(other))
    assert _signature(*_run(scenario)) == first


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_folded_scenario_is_bit_identical_across_runs(seed):
    generator = ScenarioGenerator(max_ranks=16)
    scenario = generator.scenario(seed)
    while scenario.family != "uniform" or scenario.num_nodes < 2:
        seed += 1
        scenario = generator.scenario(seed)
    first = _signature(*_run(scenario, fold="on"))
    assert _signature(*_run(scenario, fold="on")) == first
