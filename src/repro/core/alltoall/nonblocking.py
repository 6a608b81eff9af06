"""Non-blocking all-to-all (Algorithm 2 of the paper).

Every rank posts all of its receives and sends up front and then waits for
all of them.  This removes the step-by-step synchronization of pairwise
exchange, but with ``p - 1`` receives posted simultaneously, every incoming
message pays a queue-search (matching) cost proportional to the number of
pending entries — the overhead the paper identifies at large scales.
"""

from __future__ import annotations

import numpy as np

from repro.core.alltoall.base import AlltoallAlgorithm, peer_blocks, rank_counts
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import RankContext
from repro.simmpi.ops import LocalCopy, PostRecv, PostSend, Wait

__all__ = ["exchange_nonblocking", "NonblockingAlltoall"]

_TAG = 102


def exchange_nonblocking(comm: Communicator, sendbuf: np.ndarray, recvbuf: np.ndarray,
                         sendcounts=None, recvcounts=None):
    """Post-all-then-wait exchange over ``comm`` (generator; also used as an inner exchange).

    Takes uniform or packed per-peer blocks exactly like
    :func:`~repro.core.alltoall.pairwise.exchange_pairwise`, and likewise
    posts nothing for an empty block — so a sparse count matrix pays the
    matching cost only of the messages it actually contains.  The body
    yields the primitive operations directly: same operation sequence as
    ``irecv``/``isend``/``waitall`` calls, one generator frame and one
    per-step validation less.
    """
    size, rank = comm.size, comm.rank
    send_blocks, recv_blocks = peer_blocks(comm, sendbuf, recvbuf, sendcounts, recvcounts)

    world = comm.group.world_ranks
    context_id = comm.context_id
    requests = []
    # Operations are consumed synchronously by the engine (see
    # repro.simmpi.ops), so one record per direction is reused across steps.
    # Receives are posted first (and in the order the messages are expected
    # to arrive) to keep the unexpected-message queue short, mirroring the
    # usual MPI implementation guidance.
    recv_op = PostRecv(0, recvbuf, _TAG, context_id)
    for step in range(1, size):
        source = (rank - step) % size
        block = recv_blocks[source]
        if block.size:
            recv_op.source = world[source]
            recv_op.buffer = block
            requests.append((yield recv_op))
    send_op = PostSend(0, sendbuf, _TAG, context_id)
    for step in range(1, size):
        dest = (rank + step) % size
        block = send_blocks[dest]
        if block.size:
            send_op.dest = world[dest]
            send_op.payload = block
            requests.append((yield send_op))
    if send_blocks[rank].size:
        yield LocalCopy(dest=recv_blocks[rank], source=send_blocks[rank])
    yield Wait(tuple(requests))


class NonblockingAlltoall(AlltoallAlgorithm):
    """Flat non-blocking exchange over the world communicator."""

    name = "nonblocking"
    variable_counts = True

    def run(self, ctx: RankContext, sendbuf: np.ndarray, recvbuf: np.ndarray,
            counts: np.ndarray | None = None):
        # Returns the exchange generator directly (rather than forwarding it
        # with ``yield from``) so every operation crosses one frame less.
        return exchange_nonblocking(ctx.world, sendbuf, recvbuf, *rank_counts(ctx.rank, counts))
