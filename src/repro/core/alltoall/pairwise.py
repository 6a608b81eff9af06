"""Pairwise-exchange all-to-all (Algorithm 1 of the paper).

The exchange proceeds in ``p - 1`` disjoint steps; at step ``i`` rank ``r``
sends its block for rank ``(r + i) mod p`` and receives the block from rank
``(r - i) mod p`` with a combined send/receive.  Only one exchange is in
flight per rank at any time, which limits network contention and matching
queue length, at the price of synchronization delay whenever the partner of
a step arrives late.
"""

from __future__ import annotations

import numpy as np

from repro.core.alltoall.base import AlltoallAlgorithm, peer_blocks, rank_counts
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import RankContext
from repro.simmpi.ops import LocalCopy, PostRecv, PostSend, Wait

__all__ = ["exchange_pairwise", "PairwiseAlltoall"]

_TAG = 101


def exchange_pairwise(comm: Communicator, sendbuf: np.ndarray, recvbuf: np.ndarray,
                      sendcounts=None, recvcounts=None):
    """Pairwise exchange over ``comm`` (generator; also used as an inner exchange).

    Without counts every block holds the same number of items; with
    per-peer ``sendcounts`` / ``recvcounts`` the buffers use the packed
    ``alltoallv`` layout (see :func:`~repro.core.alltoall.base.peer_blocks`).
    Empty blocks exchange no message, and a step whose partners are empty
    in both directions costs nothing.

    The body yields the primitive operations of ``comm.sendrecv`` directly
    (receive posted first, exactly as ``MPI_Sendrecv`` requires): with
    O(P^2) sendrecv steps per job this is the simulator's hottest rank
    program, and flattening it drops one generator frame plus the per-step
    buffer/rank re-validation, all of which is invariant across steps.
    """
    size, rank = comm.size, comm.rank
    send_blocks, recv_blocks = peer_blocks(comm, sendbuf, recvbuf, sendcounts, recvcounts)
    if send_blocks[rank].size:
        yield LocalCopy(dest=recv_blocks[rank], source=send_blocks[rank])
    world = comm.group.world_ranks
    context_id = comm.context_id
    # The engine consumes operations synchronously while this generator is
    # suspended (see repro.simmpi.ops), so the per-step records can be
    # reused across all P-1 steps instead of allocated anew.
    recv_op = PostRecv(0, recvbuf, _TAG, context_id)
    send_op = PostSend(0, sendbuf, _TAG, context_id)
    wait_op = Wait(())
    for step in range(1, size):
        dest = rank + step
        if dest >= size:
            dest -= size
        source = rank - step
        if source < 0:
            source += size
        recv_block = recv_blocks[source]
        send_block = send_blocks[dest]
        requests = ()
        if recv_block.size:
            recv_op.source = world[source]
            recv_op.buffer = recv_block
            requests = ((yield recv_op),)
        if send_block.size:
            send_op.dest = world[dest]
            send_op.payload = send_block
            requests += ((yield send_op),)
        if requests:
            wait_op.requests = requests
            yield wait_op


class PairwiseAlltoall(AlltoallAlgorithm):
    """Flat pairwise exchange over the world communicator."""

    name = "pairwise"
    variable_counts = True

    def run(self, ctx: RankContext, sendbuf: np.ndarray, recvbuf: np.ndarray,
            counts: np.ndarray | None = None):
        # Returns the exchange generator directly (rather than forwarding it
        # with ``yield from``) so every operation crosses one frame less.
        return exchange_pairwise(ctx.world, sendbuf, recvbuf, *rank_counts(ctx.rank, counts))
