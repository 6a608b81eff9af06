"""Hierarchical and multi-leader all-to-all (Algorithm 3 of the paper).

One *leader* per aggregation group gathers the full send buffers of its
group members, the leaders perform an all-to-all among themselves, and each
leader scatters the received data back to its members:

1. ``MPI_Gather`` of every member's send buffer onto the leader
   (blue arrows in the paper's Figure 2/3);
2. repack into destination-group order;
3. ``MPI_Alltoall`` among all leaders, exchanging ``s·ppl²`` bytes per
   leader pair (red arrows);
4. repack into per-member order;
5. ``MPI_Scatter`` back to the members (yellow arrows).

With ``procs_per_leader`` equal to the whole node this is the classic
single-leader hierarchical algorithm; smaller values give the multi-leader
variant, which trades more inter-node messages for cheaper gathers and
scatters.
"""

from __future__ import annotations

import numpy as np

from repro.core.alltoall import repack
from repro.core.alltoall.base import AlltoallAlgorithm, check_alltoall_buffers
from repro.core.alltoall.exchanges import get_inner_exchange
from repro.core.instrumentation import (
    PHASE_GATHER,
    PHASE_INTER,
    PHASE_PACK,
    PHASE_SCATTER,
    PhaseRecorder,
)
from repro.errors import ConfigurationError
from repro.machine.process_map import ProcessMap
from repro.simmpi.engine import RankContext
from repro.simmpi.split import cross_group_comm, local_group_comm
from repro.utils.partition import validate_group_size

__all__ = ["HierarchicalAlltoall", "hierarchical_alltoall"]


def hierarchical_alltoall(
    ctx: RankContext,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
    *,
    procs_per_leader: int | None = None,
    inner: str = "pairwise",
    phases: PhaseRecorder | None = None,
):
    """Run the hierarchical / multi-leader exchange for one rank (generator)."""
    pmap = ctx.pmap
    params = pmap.params
    nprocs = pmap.nprocs
    block = check_alltoall_buffers(sendbuf, recvbuf, nprocs)
    ppl = pmap.ppn if procs_per_leader is None else procs_per_leader
    validate_group_size(pmap.ppn, ppl)
    exchange = get_inner_exchange(inner)
    recorder = phases if phases is not None else PhaseRecorder(ctx)

    local = local_group_comm(ctx, ppl)
    ngroups = nprocs // ppl
    is_leader = local.rank == 0

    # Phase 1: gather every member's full send buffer onto the leader.
    with recorder.phase(PHASE_GATHER):
        gathered = np.empty(ppl * nprocs * block, dtype=sendbuf.dtype) if is_leader else None
        yield from local.gather(sendbuf, gathered, root=0)

    scatter_source = None
    if is_leader:
        leaders = cross_group_comm(ctx, ppl)

        # Phase 2: repack into destination-group order.
        with recorder.phase(PHASE_PACK):
            leader_send = repack.hierarchical_pack_for_leaders(gathered, ppl, ngroups, block)
            yield repack.pack_delay(params, leader_send.nbytes)

        # Phase 3: all-to-all among the leaders.
        with recorder.phase(PHASE_INTER):
            leader_recv = np.empty_like(leader_send)
            yield from exchange(leaders, leader_send, leader_recv)

        # Phase 4: repack into per-member scatter order.
        with recorder.phase(PHASE_PACK):
            scatter_source = repack.hierarchical_unpack_to_scatter(leader_recv, ppl, ngroups, block)
            yield repack.pack_delay(params, scatter_source.nbytes)

    # Phase 5: scatter each member's result back from the leader.
    with recorder.phase(PHASE_SCATTER):
        yield from local.scatter(scatter_source, recvbuf, root=0)


class HierarchicalAlltoall(AlltoallAlgorithm):
    """Hierarchical (single-leader) or multi-leader all-to-all.

    Parameters
    ----------
    procs_per_leader:
        Size of each leader's group.  ``None`` (default) uses one leader per
        node — the standard hierarchical algorithm.  The paper's multi-leader
        configurations use 4, 8 and 16 processes per leader.
    inner:
        Exchange used for the leader-to-leader all-to-all
        (``"pairwise"``, ``"nonblocking"``, ``"bruck"`` or ``"batched"``).
    """

    name = "hierarchical"

    def __init__(self, procs_per_leader: int | None = None, inner: str = "pairwise") -> None:
        if procs_per_leader is not None and procs_per_leader <= 0:
            raise ConfigurationError(
                f"procs_per_leader must be positive, got {procs_per_leader}"
            )
        self.procs_per_leader = procs_per_leader
        self.inner = inner
        get_inner_exchange(inner)  # fail fast on unknown names

    def validate(self, pmap: ProcessMap, counts: np.ndarray | None = None) -> None:
        super().validate(pmap, counts)
        ppl = pmap.ppn if self.procs_per_leader is None else self.procs_per_leader
        validate_group_size(pmap.ppn, ppl)

    def options(self):
        return {"procs_per_leader": self.procs_per_leader, "inner": self.inner}

    def run(self, ctx: RankContext, sendbuf: np.ndarray, recvbuf: np.ndarray):
        yield from hierarchical_alltoall(
            ctx, sendbuf, recvbuf,
            procs_per_leader=self.procs_per_leader, inner=self.inner,
        )


class MultiLeaderAlltoall(HierarchicalAlltoall):
    """Multi-leader all-to-all: Algorithm 3 with more than one leader per node.

    Identical to :class:`HierarchicalAlltoall` but registered under its own
    name (the paper plots the two as distinct series) and defaulting to the
    paper's best-performing 4 processes per leader.
    """

    name = "multileader"

    def __init__(self, procs_per_leader: int = 4, inner: str = "pairwise") -> None:
        super().__init__(procs_per_leader=procs_per_leader, inner=inner)
