"""Differential fold gate: prove folded runs reproduce full simulations.

Symmetry folding (:mod:`repro.machine.folding`) simulates one node's ranks
standing in for the whole machine.  That is only worth anything if the folded
timeline is *the same timeline* — so this module runs every check twice, once
folded and once at full width, and demands **bit-identical** results: same
``elapsed``, same per-representative finish times, same per-level traffic
totals once scaled by the multiplicity, and independently-validated receive
contents on both sides.  The gate asserts float equality, not closeness.

Folding is exact only on a fabric without shared links (full bisection,
the preset default); everywhere else it is refused
(:func:`~repro.machine.folding.fabric_fold_refusal`).  On a contended
fat-tree and dragonfly the gate therefore checks the refusal instead:
``fold="on"`` must raise, and ``fold="auto"`` must run the full simulation,
bit-equal to ``fold="off"``.

A second, cheaper check (:func:`model_crosscheck`) runs *folded* simulations
at machine scales no full simulation can reach and compares them against the
closed-form LogGP model (:func:`repro.model.predict.predict_time`) — a
mutual sanity bound between the two independent cost paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.alltoall.registry import list_algorithms
from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError
from repro.machine.process_map import ProcessMap
from repro.machine.systems import tiny_cluster
from repro.model.predict import predict_time
from repro.netsim.fabric import DragonflyFabric, FatTreeFabric
from repro.workloads.generators import block_diagonal, neighbor_shift, uniform

__all__ = [
    "FoldGateRecord",
    "FoldGateReport",
    "ModelCrossPoint",
    "compare_alltoall_fold",
    "compare_workload_fold",
    "model_crosscheck",
    "run_fold_gate",
]

#: Message sizes exercised per algorithm: one eager, one rendezvous (the
#: testing parameters put the eager/rendezvous switch at 16 KiB).
_GATE_SIZES = (64, 32768)


@dataclass
class FoldGateRecord:
    """One folded-vs-full comparison."""

    #: What was compared (algorithm, shape, size, workload kind).
    label: str
    full_elapsed: float
    folded_elapsed: float
    #: Whether elapsed and the compared finish times are bit-identical.
    timings_ok: bool
    #: Whether per-level (messages, bytes) totals matched exactly.
    traffic_ok: bool
    #: Whether both runs validated their receive buffers.
    contents_ok: bool
    #: Fold multiplicity of the folded run (1 when it ran at full width).
    multiplicity: int
    #: On a fabric with shared links: whether ``fold="on"`` was refused (the
    #: compared run is then ``fold="auto"``).  ``None`` where folding is allowed.
    refused: bool | None = None

    @property
    def ok(self) -> bool:
        return self.timings_ok and self.traffic_ok and self.contents_ok and self.refused is not False

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        if self.refused is None:
            folded = "folded"
        else:
            folded = "on refused, auto" if self.refused else "on NOT refused, auto"
        return (
            f"[{status}] {self.label}: "
            f"full={self.full_elapsed:.6e}s {folded}={self.folded_elapsed:.6e}s "
            f"x{self.multiplicity}"
        )


@dataclass
class FoldGateReport:
    """All records from one gate run."""

    records: list[FoldGateRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list[FoldGateRecord]:
        return [r for r in self.records if not r.ok]

    def describe(self) -> str:
        lines = [r.describe() for r in self.records]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"fold gate: {verdict} ({len(self.records) - len(self.failures)}"
            f"/{len(self.records)} comparisons)"
        )
        return "\n".join(lines)


def _compare(run, pmap: ProcessMap, label: str) -> FoldGateRecord:
    """Compare ``run(fold)`` folded against ``run("off")``, bit for bit.

    Where the job's fabric builds link state, ``run("on")`` must be refused
    and ``run("auto")`` takes the folded run's place.
    """
    full = run("off")
    refused = None
    if pmap.model_fabric_state is not None:
        label = f"{label} on {pmap.cluster.fabric.describe()}"
        try:
            run("on")
            refused = False
        except ConfigurationError:
            refused = True
        folded = run("auto")
    else:
        folded = run("on")
    timings_ok = full.elapsed == folded.elapsed
    if timings_ok and full.job is not None and folded.job is not None:
        finish = folded.job.finish_times
        timings_ok = full.job.finish_times[:len(finish)] == finish
    return FoldGateRecord(
        label=label,
        full_elapsed=full.elapsed,
        folded_elapsed=folded.elapsed,
        timings_ok=timings_ok,
        traffic_ok=full.traffic_by_level == folded.traffic_by_level,
        contents_ok=full.correct and folded.correct,
        multiplicity=folded.fold["multiplicity"] if folded.fold else 1,
        refused=refused,
    )


def compare_alltoall_fold(algorithm: str, pmap: ProcessMap, msg_bytes: int) -> FoldGateRecord:
    """Run one uniform exchange folded and unfolded, compare the timelines."""
    return _compare(
        lambda fold: run_alltoall(algorithm, pmap, msg_bytes, fold=fold),
        pmap,
        f"{algorithm} {pmap.num_nodes}n x {pmap.ppn}p msg={msg_bytes}",
    )


def compare_workload_fold(algorithm: str, pmap: ProcessMap, matrix, label: str) -> FoldGateRecord:
    """Run one non-uniform exchange folded and unfolded, compare timelines."""
    return _compare(lambda fold: run_workload(algorithm, pmap, matrix, fold=fold), pmap, label)


def run_fold_gate(
    *,
    num_nodes: int = 8,
    ppn: int = 4,
    algorithms: Sequence[str] | None = None,
    include_fabric: bool = True,
) -> FoldGateReport:
    """Differential gate over the algorithm registry, eager + rendezvous sizes.

    ``num_nodes`` is capped at 64 — beyond that the unfolded side of the
    comparison stops being tractable, which is the point of folding.
    """
    if num_nodes > 64:
        raise ValueError(f"fold gate compares against full runs; num_nodes={num_nodes} > 64")
    names = list(algorithms) if algorithms is not None else list_algorithms()
    pmap = ProcessMap(tiny_cluster(num_nodes=num_nodes), ppn=ppn)
    report = FoldGateReport()

    for name in names:
        for msg_bytes in _GATE_SIZES:
            report.records.append(compare_alltoall_fold(name, pmap, msg_bytes))

    nprocs = num_nodes * ppn
    workloads = [
        ("uniform", uniform(nprocs, 256)),
        ("block-diagonal", block_diagonal(nprocs, 256, group_size=ppn)),
        ("neighbor-shift", neighbor_shift(nprocs, 256, shift=1, degree=2)),
    ]
    for kind, matrix in workloads:
        report.records.append(
            compare_workload_fold(
                "pairwise", pmap, matrix, f"pairwise workload:{kind} {num_nodes}n x {ppn}p"
            )
        )

    if include_fabric:
        # Contended fabrics: folding must be refused, and auto must be the full run.
        fabrics = (
            FatTreeFabric(hosts_per_switch=max(2, num_nodes // 4), oversubscription=2.0),
            DragonflyFabric(hosts_per_router=2, routers_per_group=2, global_taper=4.0),
        )
        for fabric in fabrics:
            fpmap = ProcessMap(tiny_cluster(num_nodes=num_nodes, fabric=fabric), ppn=ppn)
            for name in ("pairwise", "node-aware"):
                report.records.append(compare_alltoall_fold(name, fpmap, 32768))
    return report


@dataclass
class ModelCrossPoint:
    """One folded-simulation vs analytic-model comparison point."""

    algorithm: str
    num_nodes: int
    ppn: int
    msg_bytes: int
    simulated: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.simulated / self.predicted if self.predicted > 0 else float("inf")

    @property
    def ok(self) -> bool:
        finite = self.simulated > 0 and self.predicted > 0
        return finite and 1e-2 <= self.ratio <= 1e2

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] {self.algorithm} {self.num_nodes}n x {self.ppn}p "
            f"msg={self.msg_bytes}: sim={self.simulated:.3e}s "
            f"model={self.predicted:.3e}s ratio={self.ratio:.2f}"
        )


def model_crosscheck(
    *,
    node_counts: Sequence[int] = (256, 1024, 4096),
    ppn: int = 4,
    msg_bytes: int = 256,
    algorithms: Sequence[str] = ("pairwise", "node-aware"),
) -> list[ModelCrossPoint]:
    """Folded simulations at scales full runs can't reach, vs the LogGP model.

    The two cost paths share machine parameters but nothing else, so mutual
    agreement within two orders of magnitude is a real (if loose) invariant:
    it catches a folded timeline that silently dropped the absent nodes'
    serialization, and a model term that diverges at scale.
    """
    points: list[ModelCrossPoint] = []
    for num_nodes in node_counts:
        pmap = ProcessMap(tiny_cluster(num_nodes=num_nodes), ppn=ppn)
        for name in algorithms:
            outcome = run_alltoall(name, pmap, msg_bytes, fold="on", keep_job=False)
            predicted = predict_time(name, pmap, msg_bytes)
            points.append(
                ModelCrossPoint(
                    algorithm=name,
                    num_nodes=num_nodes,
                    ppn=ppn,
                    msg_bytes=msg_bytes,
                    simulated=outcome.elapsed,
                    predicted=predicted,
                )
            )
    return points
