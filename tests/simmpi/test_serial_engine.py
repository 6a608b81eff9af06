"""Run-to-run determinism and engine-level guards of the SPMD engine.

The engine is deterministic by construction: events order by
``(time, seq)``, there is no randomness outside seeded fault streams, and
no state survives from one job to the next.  These tests pin that
contract: a repeated run reproduces the same floats, event count,
delivered bytes and emitted event stream, and the frozen golden fixture
still reproduces after an unrelated job has run in the same process.
They also exercise the engine-level failure modes (deadlock on a blocked
send, the livelock cap) and check that the removed ``engine_jobs``
keyword is refused rather than silently ignored.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ALGORITHM_NAMES, V_ALGORITHM_NAMES
from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.machine import ProcessMap
from repro.machine.systems import get_system
from repro.netsim.fabric import parse_fabric
from repro.obs import RecordingSink
from repro.simmpi import SpmdEngine, run_spmd
from repro.workloads import make_pattern

FIXTURE_PATH = Path(__file__).resolve().parents[1] / "golden" / "simulated_timings.json"

#: Golden-fixture entries re-run after an unrelated job: eager and
#: rendezvous uniform exchanges, a contended fabric, and a skewed workload.
_GOLDEN_KEYS = [
    "pairwise/4n4p/256B",
    "pairwise/4n4p/16384B",
    "node-aware/4n4p/256B/dragonfly",
    "workload-node-aware/4n4p/skewed-moe",
]

_DRAGONFLY = "dragonfly:hosts=2,routers=2,taper=4"


def _digest(results) -> str:
    hasher = hashlib.sha256()
    for buf in results:
        arr = np.asarray(buf)
        hasher.update(str(arr.size).encode())
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def _outcome_signature(outcome):
    job = outcome.job
    return (
        outcome.elapsed,
        tuple(sorted(outcome.phase_times.items())),
        tuple(job.finish_times),
        job.events_processed,
        _digest(job.results),
    )


def _dane_pmap(nodes=4, ppn=4, fabric=None) -> ProcessMap:
    cluster = get_system("dane", nodes, fabric=fabric)
    return ProcessMap(cluster, ppn=ppn, num_nodes=nodes)


def _run_fixture_job(key: str):
    from tests.integration.test_timing_fixture import _PATTERN_SEED, JOBS

    kind, algorithm, nodes, ppn, msg_bytes, pattern, options, *rest = next(
        job[1:] for job in JOBS if job[0] == key
    )
    fabric = parse_fabric(rest[0]) if rest else None
    pmap = _dane_pmap(nodes, ppn, fabric)
    if kind == "workload":
        matrix = make_pattern(pattern, pmap.nprocs, msg_bytes, seed=_PATTERN_SEED)
        return run_workload(algorithm, pmap, matrix, validate=False, **options)
    return run_alltoall(algorithm, pmap, msg_bytes, validate=False, **options)


class TestRepeatRuns:
    @pytest.mark.parametrize("msg_bytes", [256, 65536], ids=["eager", "rendezvous"])
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_uniform_exchange_bit_identical(self, algorithm, msg_bytes):
        pmap = _dane_pmap()
        first = run_alltoall(algorithm, pmap, msg_bytes, validate=False)
        again = run_alltoall(algorithm, pmap, msg_bytes, validate=False)
        assert _outcome_signature(again) == _outcome_signature(first)

    @pytest.mark.parametrize("algorithm", V_ALGORITHM_NAMES)
    def test_fabric_workload_bit_identical(self, algorithm):
        pmap = _dane_pmap(fabric=parse_fabric(_DRAGONFLY))
        matrix = make_pattern("skewed-moe", pmap.nprocs, 64, seed=7)
        first = run_workload(algorithm, pmap, matrix, validate=False)
        again = run_workload(algorithm, pmap, matrix, validate=False)
        assert _outcome_signature(again) == _outcome_signature(first)

    def test_folded_run_bit_identical(self):
        pmap = _dane_pmap(nodes=64, ppn=4)
        first = run_alltoall("pairwise", pmap, 256, fold="on", validate=False)
        again = run_alltoall("pairwise", pmap, 256, fold="on", validate=False)
        assert first.job.fold is not None
        assert again.elapsed == first.elapsed
        assert again.job.events_processed == first.job.events_processed

    @pytest.mark.parametrize("algorithm", ["pairwise", "node-aware"])
    def test_sink_event_stream_identical(self, algorithm):
        pmap = _dane_pmap(ppn=2)
        first_sink = RecordingSink()
        run_alltoall(algorithm, pmap, 256, validate=False, sink=first_sink)
        again_sink = RecordingSink()
        run_alltoall(algorithm, pmap, 256, validate=False, sink=again_sink)
        assert first_sink.events
        assert again_sink.events == first_sink.events


class TestNoStateLeaksBetweenJobs:
    @pytest.mark.parametrize("key", _GOLDEN_KEYS)
    def test_golden_fixture_after_unrelated_job(self, key):
        # A contended, rendezvous-sized job on another machine first: any
        # state it left behind in a shared cache would move the fixture.
        run_alltoall("bruck", _dane_pmap(ppn=2, fabric=parse_fabric(_DRAGONFLY)),
                     65536, validate=False)
        frozen = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))["jobs"][key]
        outcome = _run_fixture_job(key)
        assert outcome.job.events_processed == frozen["events"]
        assert outcome.elapsed == frozen["elapsed"]
        assert sum(outcome.job.finish_times) == frozen["finish_time_sum"]


def _exchange_program(ctx):
    comm = ctx.world
    partner = ctx.rank ^ 1
    send = np.full(4, ctx.rank, dtype=np.int32)
    recv = np.zeros(4, dtype=np.int32)
    rreq = yield from comm.irecv(recv, source=partner, tag=1)
    sreq = yield from comm.isend(send, dest=partner, tag=1)
    yield from comm.waitall([rreq, sreq])
    ctx.result = recv


class TestEngineMechanics:
    def test_result_counters_match_simulator(self, two_node_pmap):
        engine = SpmdEngine(two_node_pmap)
        result = engine.run(_exchange_program)
        assert result.events_processed == engine.simulator.events_processed > 0
        assert result.metrics["engine"]["events_processed"] == result.events_processed
        assert engine.simulator.pending_events == 0
        assert result.elapsed == max(result.finish_times) <= engine.simulator.now
        for rank, recv in enumerate(result.results):
            assert recv.tolist() == [rank ^ 1] * 4

    def test_empty_program_finishes_at_time_zero(self, two_node_pmap):
        def program(ctx):
            return
            yield  # pragma: no cover - makes this a generator function

        result = run_spmd(two_node_pmap, program)
        assert result.elapsed == 0.0
        assert result.finish_times == [0.0] * two_node_pmap.nprocs

    def test_deadlock_on_unmatched_rendezvous_send(self, two_node_pmap):
        def program(ctx):
            if ctx.rank == 0:
                buf = np.zeros(1 << 20, dtype=np.uint8)  # far past the eager limit
                yield from ctx.world.send(buf, dest=4, tag=7)  # rank 4 never receives

        with pytest.raises(DeadlockError, match="rank 0"):
            run_spmd(two_node_pmap, program)

    def test_livelock_cap_enforced(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            partner = ctx.rank ^ 1
            for tag in range(64):
                send = np.zeros(8, dtype=np.uint8)
                recv = np.zeros(8, dtype=np.uint8)
                rreq = yield from comm.irecv(recv, source=partner, tag=tag)
                sreq = yield from comm.isend(send, dest=partner, tag=tag)
                yield from comm.waitall([rreq, sreq])

        engine = SpmdEngine(two_node_pmap, max_events=50)
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run(program)


class TestRemovedEngineJobsKeyword:
    def test_run_alltoall_rejects_engine_jobs(self, two_node_pmap):
        with pytest.raises(ConfigurationError, match="invalid options"):
            run_alltoall("pairwise", two_node_pmap, 64, engine_jobs=2)

    def test_run_workload_rejects_engine_jobs(self, two_node_pmap):
        matrix = make_pattern("skewed-moe", two_node_pmap.nprocs, 64, seed=7)
        with pytest.raises(ConfigurationError, match="invalid options"):
            run_workload("node-aware", two_node_pmap, matrix, engine_jobs=2)
