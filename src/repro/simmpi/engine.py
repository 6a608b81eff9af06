"""The SPMD engine: runs one rank program per simulated process.

A *rank program* is a generator function ``program(ctx, *args, **kwargs)``
that yields :mod:`repro.simmpi.ops` operations (usually indirectly, through
``yield from comm.<operation>(...)``).  The engine drives all programs over
a shared :class:`~repro.netsim.simulator.Simulator`, charging communication
costs from the machine model, and returns a :class:`JobResult` with per-rank
results and the simulated elapsed time.

The stepping path is deliberately allocation-lean: operations dispatch on
their concrete class, continuations are scheduled as ``(fn, args)`` heap
entries on the simulator heap (no per-step ``functools.partial``), and a blocked
``Wait`` is represented by a single counter-based :class:`_WaitState`
instead of a callback list per request.  Diagnostics stay off the hot path:
the description of what a rank is waiting on is derived lazily, only when a
deadlock report is actually built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import CommunicatorError, DeadlockError, SimulationError
from repro.machine.folding import fabric_fold_refusal
from repro.machine.hierarchy import LocalityLevel
from repro.machine.process_map import ProcessMap
from repro.netsim.simulator import Simulator
from repro.obs.metrics import build_job_metrics
from repro.obs.sink import EventSink
from repro.simmpi.datatypes import PROC_NULL
from repro.simmpi.ops import Delay, LocalCopy, PostRecv, PostSend, Wait
from repro.simmpi.p2p import MessageRouter, TimingModel
from repro.simmpi.request import Request
from repro.simmpi.status import Status

__all__ = ["ContextIdAllocator", "RankContext", "JobResult", "SpmdEngine", "run_spmd"]


class ContextIdAllocator:
    """Deterministic communicator-context allocation.

    Every communicator is identified by a context id so that messages from
    different communicators never match each other.  Ids are assigned by the
    member set (plus a split sequence number), so all ranks constructing the
    same communicator — in any order — obtain the same id without
    communication.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self._next = 1  # id 0 is reserved for the world communicator
        self._groups: dict[tuple, Any] = {}

    def world_context(self) -> int:
        return 0

    def context_for(self, key: tuple) -> int:
        """Return (allocating on first use) the context id for ``key``."""
        if key not in self._ids:
            self._ids[key] = self._next
            self._next += 1
        return self._ids[key]

    def group_for(self, world_ranks: tuple):
        """Shared immutable :class:`~repro.simmpi.group.Group` for ``world_ranks``.

        Every member rank of a communicator builds it from the same rank
        tuple; validating and materialising the group once per distinct
        tuple (instead of once per member) removes an O(P^2) setup cost
        from every job.
        """
        group = self._groups.get(world_ranks)
        if group is None:
            from repro.simmpi.group import Group

            group = Group(world_ranks)
            self._groups[world_ranks] = group
        return group


class _RankProcess:
    """Book-keeping of one simulated rank's generator."""

    __slots__ = ("rank", "generator", "resume", "local_time", "state", "finish_time",
                 "waiting_on")

    def __init__(self, rank: int, generator: Any) -> None:
        self.rank = rank
        self.generator = generator
        #: ``generator.send`` bound once — the engine resumes the rank on
        #: every step, and rebinding the method per step costs an allocation.
        self.resume = generator.send
        self.local_time = 0.0
        self.state = "ready"  # ready | waiting | done
        self.finish_time: float | None = None
        #: The requests of the ``Wait`` this rank is blocked on (``None``
        #: while runnable).  Only read when a deadlock report is built.
        self.waiting_on: Sequence[Request] | None = None

    def waiting_desc(self) -> str:
        """Lazy description of the blocked wait (deadlock reports only)."""
        requests = self.waiting_on
        if not requests:
            return ""
        pending = [r for r in requests if not r.completed]
        kinds = ", ".join(r.kind for r in pending[:8])
        suffix = "..." if len(pending) > 8 else ""
        return f"waiting on {len(pending)} of {len(requests)} requests ({kinds}{suffix})"


class _WaitState:
    """Counter-based rendezvous between a blocked rank and its requests.

    One instance per blocking ``Wait``; every pending request points back at
    it through ``request.waiter``.  The last completion schedules the rank's
    resume step — no per-request callback lists, no closures.
    """

    __slots__ = ("engine", "process", "requests", "issue_time", "remaining")

    def __init__(self, engine: "SpmdEngine", process: _RankProcess,
                 requests: Sequence[Request], issue_time: float) -> None:
        self.engine = engine
        self.process = process
        self.requests = requests
        self.issue_time = issue_time
        self.remaining = 0

    def notify(self) -> None:
        remaining = self.remaining - 1
        self.remaining = remaining
        if remaining == 0:
            engine = self.engine
            process = self.process
            requests = self.requests
            resume_time = self.issue_time
            statuses = []
            for request in requests:
                completion = request.completion_time
                if completion > resume_time:
                    resume_time = completion
                statuses.append(request.status)
            process.state = "ready"
            process.waiting_on = None
            sink = engine.sink
            if sink is not None:
                sink.wait(process.rank, self.issue_time, resume_time, len(requests))
            # Every request completes at or after the current simulated time,
            # so resume_time >= now and the direct heap push (see _schedule
            # note in SpmdEngine._step) is safe.
            simulator = engine.simulator
            seq = simulator._next_seq
            simulator._next_seq = seq + 1
            heappush(simulator._heap, (resume_time, seq, engine._bound_step, process, statuses))


class RankContext:
    """Per-rank view of the job handed to every rank program.

    Attributes
    ----------
    rank:
        World rank of this process.
    pmap:
        The :class:`~repro.machine.ProcessMap` the job runs on.
    world:
        The world :class:`~repro.simmpi.comm.Communicator`.
    result:
        Slot for the program to deposit its result; collected into
        :attr:`JobResult.results`.
    timings:
        Free-form dictionary used by instrumented algorithms to report phase
        durations (e.g. ``{"gather": 1.2e-4}``); collected into
        :attr:`JobResult.phase_timings`.
    """

    __slots__ = ("rank", "pmap", "world", "result", "timings", "_process", "_engine")

    def __init__(self, rank: int, pmap: ProcessMap, engine: "SpmdEngine") -> None:
        self.rank = rank
        self.pmap = pmap
        self.world = None  # set by the engine once the world communicator exists
        self.result: Any = None
        self.timings: dict[str, float] = {}
        self._process: _RankProcess | None = None
        self._engine = engine

    # -- identity helpers --------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.pmap.nprocs

    @property
    def node(self) -> int:
        return self.pmap.node_of(self.rank)

    @property
    def local_rank(self) -> int:
        return self.pmap.local_rank(self.rank)

    @property
    def now(self) -> float:
        """Current simulated time of this rank."""
        if self._process is None:
            return 0.0
        return self._process.local_time

    def add_timing(self, phase: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds into the named phase."""
        self.timings[phase] = self.timings.get(phase, 0.0) + elapsed

    def record_span(self, name: str, start: float, stop: float) -> None:
        """Attribute the ``[start, stop]`` interval to phase ``name``.

        Accumulates into :attr:`timings` like :meth:`add_timing` and, when
        the engine carries an event sink, also emits the interval as a
        phase span so it shows up on the rank track of an exported
        timeline.  This is the primitive behind
        :class:`repro.core.instrumentation.PhaseRecorder` and the
        phase-boundary markers of phased (multi-exchange) runs.
        """
        self.add_timing(name, stop - start)
        sink = self._engine.sink
        if sink is not None:
            sink.phase(self.rank, name, start, stop)


@dataclass
class JobResult:
    """Outcome of one simulated SPMD job."""

    #: Per-rank values deposited in ``ctx.result``.
    results: list[Any]
    #: Per-rank simulated completion time of the rank program.
    finish_times: list[float]
    #: Simulated wall-clock of the job (max over ranks).
    elapsed: float
    #: Per-rank phase timing dictionaries (``ctx.timings``).
    phase_timings: list[dict[str, float]]
    #: Message/byte counts per locality level.
    traffic_by_level: dict[LocalityLevel, tuple[int, int]]
    #: Per-node NIC accounting.
    nic_statistics: list[dict]
    #: Number of discrete events processed.
    events_processed: int
    #: Per-link inter-node fabric accounting (empty for full bisection).
    fabric_statistics: list[dict] = field(default_factory=list)
    #: Nested metrics snapshot (:func:`repro.obs.metrics.build_job_metrics`):
    #: matching fast-path/queued splits, unexpected-queue depth, traffic,
    #: NIC and fabric-link occupancy, engine event counts.  Always populated.
    metrics: dict = field(default_factory=dict)
    #: Symmetry-folding metadata (``None`` for unfolded jobs): multiplicity,
    #: logical vs simulated rank counts and the fold certificate.  When set,
    #: per-rank lists (results, finish times, phase timings) cover only the
    #: representative ranks, and :attr:`traffic_by_level` is already scaled
    #: to the logical full-machine totals.
    fold: dict | None = None

    def phase_time(self, phase: str, *, reduce: Callable[[Sequence[float]], float] = max) -> float:
        """Aggregate one named phase across ranks (default: max over ranks)."""
        values = [t.get(phase, 0.0) for t in self.phase_timings]
        if not values:
            return 0.0
        return float(reduce(values))

    def phases(self) -> list[str]:
        names: list[str] = []
        for timings in self.phase_timings:
            for name in timings:
                if name not in names:
                    names.append(name)
        return names


class SpmdEngine:
    """Runs rank programs over a simulated machine."""

    def __init__(
        self,
        pmap: ProcessMap,
        *,
        sink: "EventSink | None" = None,
        max_events: int = 200_000_000,
        faults=None,
    ) -> None:
        self.pmap = pmap
        self.params = pmap.params
        self.simulator = Simulator(max_events=max_events)
        #: Optional :class:`repro.obs.sink.EventSink` observing the job's
        #: simulated lifecycle.  ``None`` (the default) keeps every hot-path
        #: emission point down to a single pointer test; attaching a sink
        #: never changes the simulated arithmetic (see docs/OBSERVABILITY.md).
        self.sink = sink
        #: Active :class:`repro.faults.FaultSpec`; empty specs normalise to
        #: ``None`` so the healthy machine pays one pointer test per site.
        self.faults = faults if faults else None
        if self.faults is not None and pmap.is_folded:
            raise SimulationError(
                "fault injection is incompatible with symmetry folding: "
                "faults break the node-rotation symmetry the fold relies on "
                "(run with fold='off')"
            )
        if pmap.is_folded:
            refusal = fabric_fold_refusal(pmap.cluster, pmap.num_nodes)
            if refusal is not None:
                raise SimulationError(refusal)
        self.timing = TimingModel(pmap, sink=sink, faults=self.faults)
        self.router = MessageRouter(self.timing, sink=sink)
        self.contexts = ContextIdAllocator()
        self._processes: list[_RankProcess] = []
        self._rank_contexts: list[RankContext] = []
        self._finished = 0
        params = self.params
        self._send_overhead = params.send_overhead
        #: One shared bound method for continuation heap entries — pushing
        #: ``self._step`` directly would allocate a fresh bound method per
        #: scheduled event.
        self._bound_step = self._step
        self._copy_latency = params.copy_latency
        self._copy_bandwidth = params.copy_bandwidth
        #: Per-rank OS-noise jitter streams, or ``None`` (the default): the
        #: healthy posting path pays one pointer test per operation.
        self._noise = None
        if self.faults is not None:
            amplitude = self.faults.noise_amplitude()
            if amplitude > 0.0:
                from repro.faults.apply import OsNoiseState

                self._noise = OsNoiseState(amplitude, self.faults.seed)

    # -- public API ---------------------------------------------------------
    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> JobResult:
        """Run ``program(ctx, *args, **kwargs)`` on every rank and simulate to completion."""
        if self._processes:
            raise SimulationError("an SpmdEngine can only run a single job; create a new engine")
        self._spawn(program, *args, **kwargs)
        self.simulator.run()
        self._check_completion()
        return self._build_result()

    # -- job setup -----------------------------------------------------------
    def _spawn(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Instantiate one rank program per simulated process and schedule step 0."""
        # Imported here to avoid a circular import at module load time.
        from repro.simmpi.comm import Communicator

        nprocs = self.pmap.nprocs
        world_group = self.contexts.group_for(tuple(range(nprocs)))
        # Folded maps schedule only the representative ranks (node 0); each
        # stands in for its whole equivalence class.  Unfolded maps have
        # sim_nprocs == nprocs and this is the plain every-rank loop.
        for rank in range(self.pmap.sim_nprocs):
            ctx = RankContext(rank, self.pmap, self)
            ctx.world = Communicator(
                allocator=self.contexts,
                world_ranks=world_group,
                my_world_rank=rank,
                context_id=self.contexts.world_context(),
            )
            generator = program(ctx, *args, **kwargs)
            if not hasattr(generator, "send"):
                raise SimulationError(
                    "rank programs must be generator functions (use 'yield from' for "
                    "communication); got a plain function returning "
                    f"{type(generator).__name__}"
                )
            process = _RankProcess(rank, generator)
            ctx._process = process
            self._rank_contexts.append(ctx)
            self._processes.append(process)

        for process in self._processes:
            self.simulator.schedule_call(0.0, self._bound_step, process, None)

    # -- process stepping -----------------------------------------------------
    def _step(self, process: _RankProcess, send_value: Any) -> None:
        """Advance one rank: resume its generator, dispatch the yielded operation.

        This is the hottest function in the simulator; the operation dispatch
        is inlined here (one class test per operation kind) and every
        continuation is scheduled directly as a ``(fn, args)`` heap entry.
        """
        # Continuations below are pushed straight onto the simulator's heap:
        # every scheduled time is `now` plus a non-negative cost (overheads,
        # delays, completion times), so the past-scheduling guard of
        # Simulator.schedule_call can never fire on these paths and its call
        # overhead is spared on every step.  External callers keep the
        # guarded entry point.
        # No per-step state write: "running" can never be observed (deadlock
        # reports only exist once the event queue has drained, and a rank is
        # then ready, waiting or done).
        simulator = self.simulator
        process.local_time = now = simulator._now
        try:
            operation = process.resume(send_value)
        except StopIteration:
            process.state = "done"
            process.finish_time = now
            self._finished += 1
            return

        cls = operation.__class__
        if cls is PostSend:
            if operation.dest == PROC_NULL:
                request = Request("send", process.rank)
                request.complete(now)
                when = now
            else:
                noise = self._noise
                if noise is None:
                    when = now + self._send_overhead
                else:
                    when = now + self._send_overhead + noise.draw(process.rank)
                request = self.router.post_send(
                    process.rank, operation.dest, operation.payload, operation.tag,
                    operation.context_id, when,
                )
        elif cls is PostRecv:
            if operation.source == PROC_NULL:
                request = Request("recv", process.rank)
                request.complete(now, Status(source=PROC_NULL, tag=operation.tag, nbytes=0))
                when = now
            else:
                noise = self._noise
                if noise is None:
                    when = now + self._send_overhead
                else:
                    when = now + self._send_overhead + noise.draw(process.rank)
                request = self.router.post_recv(
                    process.rank, operation.source, operation.buffer, operation.tag,
                    operation.context_id, when,
                )
        elif cls is Wait:
            # Inlined _handle_wait (one Wait per exchange step).
            requests = operation.requests
            state = None
            remaining = 0
            for request in requests:
                if request.completion_time is None:
                    if state is None:
                        state = _WaitState(self, process, requests, now)
                    if request.waiter is not state:
                        request.waiter = state
                        remaining += 1
            if state is None:
                # Everything already completed: resume at the latest
                # completion (>= now, so the direct heap push is safe).
                resume_time = now
                statuses: list = []
                for request in requests:
                    completion = request.completion_time
                    if completion > resume_time:
                        resume_time = completion
                    statuses.append(request.status)
                process.state = "ready"
                sink = self.sink
                if sink is not None:
                    sink.wait(process.rank, now, resume_time, len(requests))
                seq = simulator._next_seq
                simulator._next_seq = seq + 1
                heappush(simulator._heap,
                         (resume_time, seq, self._bound_step, process, statuses))
                return
            state.remaining = remaining
            process.state = "waiting"
            process.waiting_on = requests
            return
        elif cls is Delay:
            seconds = operation.seconds
            if seconds < 0.0:
                raise SimulationError(f"negative delay {seconds}")
            when = now + seconds
            request = None
        elif cls is LocalCopy:
            source = operation.source
            nbytes = source.nbytes
            _copy_local(operation.dest, source)
            if nbytes == 0:
                when = now
            else:
                # Grouped like MachineParameters.copy_time so the float result
                # is bit-identical to the pre-inlined `now + copy_time(nbytes)`.
                when = now + (self._copy_latency + nbytes / self._copy_bandwidth)
            request = None
        else:
            raise SimulationError(
                f"rank {process.rank} yielded an unknown operation {operation!r}; "
                "did a rank program 'yield' a value instead of 'yield from' a comm call?"
            )
        seq = simulator._next_seq
        simulator._next_seq = seq + 1
        heappush(simulator._heap, (when, seq, self._bound_step, process, request))


    # -- completion ---------------------------------------------------------
    def _check_completion(self) -> None:
        unfinished = [p for p in self._processes if p.state != "done"]
        if not unfinished:
            return
        lines = [
            f"rank {p.rank}: state={p.state} t={p.local_time:.3e} {p.waiting_desc()}"
            for p in unfinished[:32]
        ]
        lines.extend(self.router.pending_summary()[:32])
        raise DeadlockError(
            f"{len(unfinished)} of {len(self._processes)} ranks never finished; "
            "the simulated program deadlocked:\n  " + "\n  ".join(lines)
        )

    def _build_result(self) -> JobResult:
        finish_times = [p.finish_time if p.finish_time is not None else 0.0 for p in self._processes]
        pmap = self.pmap
        fold_info = None
        if pmap.is_folded:
            # Every node contributes the same counts under node-rotation
            # symmetry, so the logical full-machine traffic is exactly the
            # representatives' traffic times the class multiplicity.
            multiplicity = pmap.multiplicity
            traffic = {
                level: (counts[0] * multiplicity, counts[1] * multiplicity)
                for level, counts in self.router.traffic_by_level.items()
            }
            certificate = getattr(pmap, "certificate", None)
            fold_info = {
                "multiplicity": multiplicity,
                "logical_ranks": pmap.nprocs,
                "simulated_ranks": pmap.sim_nprocs,
                "kind": certificate.kind if certificate is not None else "unspecified",
                "certificate": certificate.detail if certificate is not None else "",
            }
        else:
            traffic = {
                level: tuple(counts) for level, counts in self.router.traffic_by_level.items()
            }
        return JobResult(
            results=[ctx.result for ctx in self._rank_contexts],
            finish_times=finish_times,
            elapsed=max(finish_times) if finish_times else 0.0,
            phase_timings=[dict(ctx.timings) for ctx in self._rank_contexts],
            traffic_by_level=traffic,
            nic_statistics=self.timing.nic_statistics(),
            events_processed=self.simulator.events_processed,
            fabric_statistics=self.timing.fabric_statistics(),
            metrics=build_job_metrics(self),
            fold=fold_info,
        )


def _copy_local(dest: np.ndarray, source: np.ndarray) -> None:
    nbytes = source.nbytes
    if dest.nbytes < nbytes:
        raise CommunicatorError(
            f"local copy destination of {dest.nbytes} bytes is smaller than the "
            f"{nbytes}-byte source"
        )
    if nbytes == 0:
        return
    dest_bytes = dest.reshape(-1).view(np.uint8)
    src_bytes = source.reshape(-1).view(np.uint8)
    dest_bytes[:nbytes] = src_bytes


def run_spmd(
    pmap: ProcessMap,
    program: Callable[..., Any],
    *args: Any,
    sink: EventSink | None = None,
    faults=None,
    **kwargs: Any,
) -> JobResult:
    """Convenience wrapper: build an engine, run ``program`` on every rank, return the result.

    ``faults`` is an optional :class:`repro.faults.FaultSpec`.
    """
    engine = SpmdEngine(pmap, sink=sink, faults=faults)
    return engine.run(program, *args, **kwargs)
