"""Multi-leader + node-aware all-to-all (Algorithm 5 — the paper's main novel algorithm).

The algorithm combines the low inter-node message count of the hierarchical
approach with the balanced participation of the node-aware approach: the
hierarchical gather/scatter shrinks to small leader groups (cheap), while
the exchange between leaders is replaced by the node-aware two-phase
exchange, so every leader sends exactly one message per remote node.

Phases (colours refer to the paper's Figure 6):

1. ``MPI_Gather`` of each member's send buffer onto its leader (blue);
2. repack by destination node;
3. *inter-node* all-to-all on ``group_comm`` (the leaders with the same
   node-local rank, one per node): each leader sends ``s·ppn·ppl`` bytes to
   every other node (red);
4. repack by destination leader;
5. *intra-node* all-to-all among the leaders of the node
   (``leader_group_comm``): each leader keeps the data addressed to its own
   members (brown);
6. repack into per-member order;
7. ``MPI_Scatter`` back to the members (yellow).
"""

from __future__ import annotations

import numpy as np

from repro.core.alltoall import repack
from repro.core.alltoall.base import AlltoallAlgorithm, check_alltoall_buffers
from repro.core.alltoall.exchanges import get_inner_exchange
from repro.core.instrumentation import (
    PHASE_GATHER,
    PHASE_INTER,
    PHASE_INTRA,
    PHASE_PACK,
    PHASE_SCATTER,
    PhaseRecorder,
)
from repro.errors import ConfigurationError
from repro.machine.process_map import ProcessMap
from repro.simmpi.engine import RankContext
from repro.simmpi.split import cross_node_comm, local_group_comm, node_leaders_comm
from repro.utils.partition import validate_group_size

__all__ = ["MultiLeaderNodeAwareAlltoall", "multileader_node_aware_alltoall"]


def multileader_node_aware_alltoall(
    ctx: RankContext,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
    *,
    procs_per_leader: int = 4,
    inner: str = "pairwise",
    phases: PhaseRecorder | None = None,
):
    """Run the multi-leader + node-aware exchange for one rank (generator)."""
    pmap = ctx.pmap
    params = pmap.params
    nprocs = pmap.nprocs
    ppn = pmap.ppn
    num_nodes = pmap.num_nodes
    block = check_alltoall_buffers(sendbuf, recvbuf, nprocs)
    validate_group_size(ppn, procs_per_leader)
    ppl = procs_per_leader
    leaders_per_node = ppn // ppl
    exchange = get_inner_exchange(inner)
    recorder = phases if phases is not None else PhaseRecorder(ctx)

    local = local_group_comm(ctx, ppl)
    is_leader = local.rank == 0

    # Phase 1: gather the members' send buffers onto the leader.
    with recorder.phase(PHASE_GATHER):
        gathered = np.empty(ppl * nprocs * block, dtype=sendbuf.dtype) if is_leader else None
        yield from local.gather(sendbuf, gathered, root=0)

    scatter_source = None
    if is_leader:
        across_nodes = cross_node_comm(ctx)          # leaders with my node-local rank, one per node
        node_leaders = node_leaders_comm(ctx, ppl)   # the leaders of my node

        # Phase 2: repack by destination node.
        with recorder.phase(PHASE_PACK):
            inter_send = repack.mlna_pack_for_internode(gathered, ppl, num_nodes, ppn, block)
            yield repack.pack_delay(params, inter_send.nbytes)

        # Phase 3: inter-node all-to-all (one message per remote node).
        with recorder.phase(PHASE_INTER):
            inter_recv = np.empty_like(inter_send)
            yield from exchange(across_nodes, inter_send, inter_recv)

        # Phase 4: repack by destination leader within the node.
        with recorder.phase(PHASE_PACK):
            intra_send = repack.mlna_pack_for_intranode(inter_recv, num_nodes, ppl, leaders_per_node, block)
            yield repack.pack_delay(params, intra_send.nbytes)

        # Phase 5: intra-node all-to-all among the node's leaders.
        with recorder.phase(PHASE_INTRA):
            intra_recv = np.empty_like(intra_send)
            yield from exchange(node_leaders, intra_send, intra_recv)

        # Phase 6: repack into per-member (scatter) order.
        with recorder.phase(PHASE_PACK):
            scatter_source = repack.mlna_unpack_to_scatter(intra_recv, leaders_per_node, num_nodes, ppl, block)
            yield repack.pack_delay(params, scatter_source.nbytes)

    # Phase 7: scatter each member's result back from its leader.
    with recorder.phase(PHASE_SCATTER):
        yield from local.scatter(scatter_source, recvbuf, root=0)


class MultiLeaderNodeAwareAlltoall(AlltoallAlgorithm):
    """The paper's novel combination of multi-leader and node-aware all-to-all.

    Parameters
    ----------
    procs_per_leader:
        Size of each leader's group.  One leader per group performs the
        inter-node and intra-node leader exchanges.  With
        ``procs_per_leader == 1`` the algorithm reduces to node-aware
        aggregation; with ``procs_per_leader == ppn`` it reduces to the
        single-leader hierarchical algorithm (as noted in Section 3.3).
    inner:
        Exchange used for both leader all-to-alls.
    """

    name = "multileader-node-aware"

    def __init__(self, procs_per_leader: int = 4, inner: str = "pairwise") -> None:
        if procs_per_leader <= 0:
            raise ConfigurationError(f"procs_per_leader must be positive, got {procs_per_leader}")
        self.procs_per_leader = procs_per_leader
        self.inner = inner
        get_inner_exchange(inner)

    def validate(self, pmap: ProcessMap, counts: np.ndarray | None = None) -> None:
        super().validate(pmap, counts)
        validate_group_size(pmap.ppn, self.procs_per_leader)

    def options(self):
        return {"procs_per_leader": self.procs_per_leader, "inner": self.inner}

    def run(self, ctx: RankContext, sendbuf: np.ndarray, recvbuf: np.ndarray):
        yield from multileader_node_aware_alltoall(
            ctx, sendbuf, recvbuf,
            procs_per_leader=self.procs_per_leader, inner=self.inner,
        )
