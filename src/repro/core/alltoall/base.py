"""Common infrastructure for the all-to-all algorithm family.

Every algorithm is a small class with a ``run(ctx, sendbuf, recvbuf)``
generator method so that it can be configured once (group size, inner
exchange, thresholds) and then executed on any simulated machine.  Members
with :attr:`~AlltoallAlgorithm.variable_counts` also take a per-pair count
matrix (``alltoallv`` traffic) as a fourth argument.  The module also
provides the buffer-validation helpers shared by every implementation.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.errors import AlgorithmError, BufferSizeError, ConfigurationError
from repro.machine.process_map import ProcessMap
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import RankContext
from repro.utils.buffers import check_counts_matrix, check_v_counts

__all__ = ["AlltoallAlgorithm", "check_alltoall_buffers", "block_count", "peer_blocks",
           "rank_counts"]


def block_count(buf: np.ndarray, nprocs: int) -> int:
    """Items per block of an all-to-all buffer over ``nprocs`` ranks."""
    if nprocs <= 0:
        raise AlgorithmError(f"nprocs must be positive, got {nprocs}")
    if buf.size % nprocs != 0:
        raise BufferSizeError(
            f"buffer of {buf.size} items cannot be divided into {nprocs} equal blocks"
        )
    return buf.size // nprocs


def check_alltoall_buffers(sendbuf: np.ndarray, recvbuf: np.ndarray, nprocs: int) -> int:
    """Validate a send/receive buffer pair and return the per-block item count."""
    if not isinstance(sendbuf, np.ndarray) or not isinstance(recvbuf, np.ndarray):
        raise BufferSizeError("send and receive buffers must be numpy arrays")
    if sendbuf.dtype != recvbuf.dtype:
        raise BufferSizeError(
            f"send ({sendbuf.dtype}) and receive ({recvbuf.dtype}) buffers must share a dtype"
        )
    if sendbuf.size != recvbuf.size:
        raise BufferSizeError(
            f"send buffer has {sendbuf.size} items but receive buffer has {recvbuf.size}"
        )
    return block_count(sendbuf, nprocs)


def _validate_v_buffers(comm: Communicator, sendbuf: np.ndarray, recvbuf: np.ndarray,
                        sendcounts, recvcounts) -> tuple[np.ndarray, np.ndarray]:
    """Validate packed v-exchange buffers; return the checked (sendcounts, recvcounts)."""
    size, rank = comm.size, comm.rank
    sendcounts = check_v_counts(sendcounts, size, name="sendcounts")
    recvcounts = check_v_counts(recvcounts, size, name="recvcounts")
    if sendbuf.size != int(sendcounts.sum()):
        raise BufferSizeError(
            f"send buffer has {sendbuf.size} items but the counts sum to {int(sendcounts.sum())}"
        )
    if recvbuf.size != int(recvcounts.sum()):
        raise BufferSizeError(
            f"receive buffer has {recvbuf.size} items but the counts sum to {int(recvcounts.sum())}"
        )
    if sendcounts[rank] != recvcounts[rank]:
        raise BufferSizeError(
            f"rank {rank} sends itself {int(sendcounts[rank])} items "
            f"but expects {int(recvcounts[rank])}"
        )
    return sendcounts, recvcounts


def _packed_blocks(buf: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    ends = np.cumsum(counts).tolist()
    return [buf[start:end] for start, end in zip([0, *ends[:-1]], ends)]


def peer_blocks(comm: Communicator, sendbuf: np.ndarray, recvbuf: np.ndarray,
                sendcounts=None, recvcounts=None) -> tuple:
    """Validate an exchange's buffers and split them into per-peer block views.

    With no counts the blocks are uniform (checked by
    :func:`check_alltoall_buffers`); with ``sendcounts`` / ``recvcounts``
    the buffers use the packed ``MPI_Alltoallv`` layout (block ``i`` at the
    exclusive prefix sum of the counts, no gaps).  Returns the send and
    receive blocks, indexed by peer rank: ``(size, block)`` arrays for
    uniform blocks (a row view per lookup, none held), lists of views
    otherwise.
    """
    if sendcounts is None and recvcounts is None:
        size = comm.size
        block = check_alltoall_buffers(sendbuf, recvbuf, size)
        return sendbuf.reshape(size, block), recvbuf.reshape(size, block)
    if sendcounts is None or recvcounts is None:
        raise BufferSizeError("a v-exchange needs both sendcounts and recvcounts")
    sendcounts, recvcounts = _validate_v_buffers(comm, sendbuf, recvbuf, sendcounts, recvcounts)
    return _packed_blocks(sendbuf, sendcounts), _packed_blocks(recvbuf, recvcounts)


def rank_counts(rank: int, counts: np.ndarray | None) -> tuple:
    """``rank``'s (sendcounts, recvcounts) — row and column of ``counts`` — or no counts."""
    if counts is None:
        return None, None
    return counts[rank], counts[:, rank]


class AlltoallAlgorithm(abc.ABC):
    """Base class of every all-to-all implementation.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`run`, a generator that performs the exchange for one rank using
    the communicators derived from ``ctx``.  ``validate(pmap, counts)`` is
    called by the runner before a job starts so configuration errors (e.g.
    a group size that does not divide the processes per node, or a count
    matrix given to a uniform-only algorithm) surface immediately rather
    than as a deadlock.
    """

    #: Registry key; overridden by subclasses.
    name: str = "abstract"
    #: Whether :meth:`run` also takes a count matrix (``alltoallv`` traffic).
    variable_counts: bool = False

    def validate(self, pmap: ProcessMap, counts: np.ndarray | None = None) -> None:
        """Check that this algorithm can run on ``pmap`` (with ``counts``, if given).

        The base check rejects a count matrix for uniform-only algorithms
        and checks its shape otherwise; subclasses add their own
        configuration checks on top.
        """
        if counts is None:
            return
        if not self.variable_counts:
            raise ConfigurationError(
                f"{self.describe()} exchanges uniform blocks only; it cannot run a "
                "count matrix (alltoallv traffic)"
            )
        check_counts_matrix(counts, pmap.nprocs)

    @abc.abstractmethod
    def run(self, ctx: RankContext, sendbuf: np.ndarray, recvbuf: np.ndarray,
            counts: np.ndarray | None = None):
        """Perform the exchange for the calling rank (generator).

        ``counts[s, d]`` items flow from rank ``s`` to rank ``d`` when a
        count matrix is given; the buffers then use the packed layout.
        """

    # -- description -------------------------------------------------------
    def options(self) -> dict[str, Any]:
        """Configuration of this instance (reported by the benchmark harness)."""
        return {}

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in sorted(self.options().items()))
        return f"{self.name}({opts})" if opts else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"
