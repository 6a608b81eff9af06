"""Node-aware and locality-aware all-to-all (Algorithm 4 of the paper).

Every rank participates in both phases — nothing is funnelled through a
single leader:

1. *Inter-region all-to-all* on ``group_comm`` (one member of every
   aggregation group, all sharing the caller's position within their
   group): each rank sends, to the corresponding member of every other
   group, the data destined for that whole group (``s·|local_comm|``
   bytes per message — red arrows in Figures 4/5);
2. repack;
3. *Intra-region all-to-all* on ``local_comm`` (the caller's aggregation
   group): the received data is redistributed so every member ends up with
   exactly the blocks addressed to it (blue arrows);
4. repack into source-rank order.

With one aggregation group per node (``procs_per_group == ppn``) this is
the classic node-aware algorithm; smaller groups give the paper's novel
*locality-aware* aggregation, which shrinks the expensive whole-node
redistribution at the cost of more (smaller) inter-node messages.

The same body runs uniform blocks and ``alltoallv`` traffic: every chunk
size of the intermediate buffers comes from a ``(groups, group size)``
grid, constant for uniform blocks and derived from the global count matrix
otherwise, so every rank computes a consistent schedule without extra
communication.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.alltoall import repack
from repro.core.alltoall.base import AlltoallAlgorithm, check_alltoall_buffers
from repro.core.alltoall.exchanges import COUNT_EXCHANGES, get_inner_exchange
from repro.core.instrumentation import PHASE_INTER, PHASE_INTRA, PHASE_PACK, PhaseRecorder
from repro.errors import BufferSizeError, ConfigurationError
from repro.machine.process_map import ProcessMap
from repro.simmpi.engine import RankContext
from repro.simmpi.split import cross_group_comm, local_group_comm
from repro.utils.buffers import check_counts_matrix
from repro.utils.partition import validate_group_size

__all__ = ["NodeAwareAlltoall", "LocalityAwareAlltoall", "node_aware_alltoall"]


def node_aware_alltoall(
    ctx: RankContext,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
    counts: np.ndarray | None = None,
    *,
    procs_per_group: int | None = None,
    inner: str = "pairwise",
    phases: PhaseRecorder | None = None,
):
    """Run the node-aware / locality-aware exchange for one rank (generator).

    ``counts`` (a ``(P, P)`` item-count matrix, packed buffers) makes this
    the ``alltoallv`` form; without it every block holds the same number of
    items.  The four phases are those of the module docstring.
    """
    pmap = ctx.pmap
    params = pmap.params
    nprocs = pmap.nprocs
    group_size = pmap.ppn if procs_per_group is None else procs_per_group
    validate_group_size(pmap.ppn, group_size)
    exchange = get_inner_exchange(inner)
    recorder = phases if phases is not None else PhaseRecorder(ctx)
    ngroups = nprocs // group_size

    if counts is None:
        block = check_alltoall_buffers(sendbuf, recvbuf, nprocs)
        # inter_sizes[g, k]: items cross-peer g holds for member k of my group;
        # intra_sizes[g, k]: items the position-k source of group g sends me.
        inter_sizes = intra_sizes = np.full((ngroups, group_size), block)
        inter_counts = intra_counts = ()
    else:
        counts = check_counts_matrix(counts, nprocs)
        rank = ctx.rank
        expected = (int(counts[rank].sum()), int(counts[:, rank].sum()))
        if (sendbuf.size, recvbuf.size) != expected:
            raise BufferSizeError(
                f"rank {rank}: buffers hold {sendbuf.size} / {recvbuf.size} items but the "
                f"count row / column sum to {expected[0]} / {expected[1]}"
            )
        my_group, my_pos = divmod(rank, group_size)
        reps = np.arange(ngroups) * group_size + my_pos
        members = my_group * group_size + np.arange(group_size)
        inter_sizes = counts[np.ix_(reps, members)]
        intra_sizes = counts[:, rank].reshape(ngroups, group_size)
        inter_counts = (counts[rank].reshape(ngroups, group_size).sum(axis=1),
                        inter_sizes.sum(axis=1))
        intra_counts = (inter_sizes.sum(axis=0), intra_sizes.sum(axis=0))

    local = local_group_comm(ctx, group_size)
    cross = cross_group_comm(ctx, group_size)

    # Phase 1: inter-region all-to-all.  The send buffer is already ordered
    # by destination world rank, i.e. by (group, member), so the message for
    # group ``g`` is simply its blocks for that group's members.
    with recorder.phase(PHASE_INTER):
        inter_recv = np.empty(int(inter_sizes.sum()), dtype=sendbuf.dtype)
        yield from exchange(cross, sendbuf, inter_recv, *inter_counts)

    # Phase 2: repack so the data destined to each group member is contiguous.
    with recorder.phase(PHASE_PACK):
        intra_send = repack.grid_transpose(inter_recv, inter_sizes)
        yield repack.pack_delay(params, intra_send.nbytes)

    # Phase 3: intra-region all-to-all redistributes within the group.
    with recorder.phase(PHASE_INTRA):
        intra_recv = np.empty(int(intra_sizes.sum()), dtype=sendbuf.dtype)
        yield from exchange(local, intra_send, intra_recv, *intra_counts)

    # Phase 4: reorder (source member, source group) into source world-rank order.
    with recorder.phase(PHASE_PACK):
        final = repack.grid_transpose(intra_recv, intra_sizes.T)
        yield repack.pack_delay(params, final.nbytes)
    recvbuf[:] = final


class NodeAwareAlltoall(AlltoallAlgorithm):
    """Node-aware aggregation (or, with smaller groups, locality-aware).

    Parameters
    ----------
    procs_per_group:
        Aggregation group size; ``None`` uses the whole node (the classic
        node-aware algorithm), smaller divisors of ``ppn`` give the paper's
        locality-aware aggregation.
    inner:
        Exchange used for both the inter-region and intra-region
        all-to-alls; a count matrix needs one of
        :data:`~repro.core.alltoall.exchanges.COUNT_EXCHANGES`.
    """

    name = "node-aware"
    variable_counts = True

    def __init__(self, procs_per_group: int | None = None, inner: str = "pairwise") -> None:
        if procs_per_group is not None and procs_per_group <= 0:
            raise ConfigurationError(f"procs_per_group must be positive, got {procs_per_group}")
        self.procs_per_group = procs_per_group
        self.inner = inner
        get_inner_exchange(inner)

    def validate(self, pmap: ProcessMap, counts: np.ndarray | None = None) -> None:
        super().validate(pmap, counts)
        if counts is not None and self.inner not in COUNT_EXCHANGES:
            raise ConfigurationError(
                f"inner exchange {self.inner!r} exchanges uniform blocks only; a count "
                f"matrix needs one of {', '.join(COUNT_EXCHANGES)}"
            )
        if self.procs_per_group is not None:
            validate_group_size(pmap.ppn, self.procs_per_group)

    def options(self):
        opts: dict[str, Any] = {"inner": self.inner}
        if self.procs_per_group is not None:
            opts["procs_per_group"] = self.procs_per_group
        return opts

    def run(self, ctx: RankContext, sendbuf: np.ndarray, recvbuf: np.ndarray,
            counts: np.ndarray | None = None):
        yield from node_aware_alltoall(
            ctx, sendbuf, recvbuf, counts,
            procs_per_group=self.procs_per_group, inner=self.inner,
        )


class LocalityAwareAlltoall(NodeAwareAlltoall):
    """Locality-aware aggregation (novel in the paper): several groups per node.

    Parameters
    ----------
    procs_per_group:
        Aggregation group size.  The paper evaluates 4, 8 and 16 processes
        per group (28, 14 and 7 groups per 112-core node).
    inner:
        Exchange used for both the inter-region and intra-region all-to-alls.
    """

    name = "locality-aware"

    def __init__(self, procs_per_group: int = 4, inner: str = "pairwise") -> None:
        super().__init__(procs_per_group=procs_per_group, inner=inner)
