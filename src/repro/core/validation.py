"""Reference all-to-all results and result validation.

Every algorithm in :mod:`repro.core.alltoall` must produce exactly the same
receive buffers as the defining transposition: block ``s`` of rank ``r``'s
receive buffer equals block ``r`` of rank ``s``'s send buffer.  Send
buffers, expected receive buffers and validators all draw on one builder,
:func:`repro.utils.buffers.tagged_blocks`, which fills the block source
``s`` sends to destination ``d`` with ``(s * nprocs + d) * 1000`` plus a
ramp.  An expected buffer is that builder called with the tags of the
blocks a rank receives (:func:`_received_tags`), and every validator is the
same per-rank comparison loop (:func:`_validate`), so the runner can check
every simulated exchange it performs.

The ``workload`` variants generalise this to non-uniform exchanges driven
by a per-pair count matrix (``alltoallv`` semantics): block sizes vary per
(source, destination) pair but the tags are the same, so uniform and
non-uniform validation are directly comparable.  The two ``*_reference``
transpositions stay independent of the builder: they are the oracles
property tests compare the simulated algorithms against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import BufferSizeError
from repro.utils.buffers import check_counts_matrix, tagged_blocks

__all__ = [
    "expected_alltoall_result",
    "validate_alltoall_results",
    "alltoall_reference",
    "expected_folded_alltoall_result",
    "validate_folded_alltoall_results",
    "make_workload_sendbuf",
    "expected_workload_result",
    "validate_workload_results",
    "expected_folded_workload_result",
    "validate_folded_workload_results",
    "alltoallv_reference",
]


def _received_tags(rank: int, nprocs: int, ppn: int | None = None) -> np.ndarray:
    """Tags of the blocks ``rank`` receives, in source order.

    Unfolded, block ``s`` is the one source ``s`` sent to ``rank``: tag
    ``s * nprocs + rank``.

    With ``ppn`` the job is symmetry-folded (:mod:`repro.machine.folding`):
    in place of the message a folded-out rank ``s`` would have sent, the
    run delivers the mirror of a representative send — the same bytes the
    representative with local index ``s % ppn`` staged for the rotated
    destination.  Composing the rotation across however many hops an
    algorithm routes the data through, block ``s`` of representative
    ``rank`` ends up holding the pattern of source ``s % ppn`` for
    destination ``(rank - (s // ppn) * ppn) % nprocs`` — the full run's
    content relabelled by the node rotation, exactly (this holds for every
    node-rotation-equivariant algorithm; the fold gate checks it across the
    registry).  Validating against these tags is therefore exact for folded
    jobs.
    """
    src = np.arange(nprocs, dtype=np.int64)
    if ppn is None:
        return src * nprocs + rank
    return (src % ppn) * nprocs + (rank - (src // ppn) * ppn) % nprocs


def _validate(
    results: Sequence[np.ndarray],
    nbuffers: int,
    expected: Callable[[int, np.dtype], np.ndarray],
    *,
    what: str = "rank",
) -> bool:
    """The check loop behind every validator.

    ``expected(rank, dtype)`` builds one rank's expected buffer (never the
    whole job's at once).  Returns ``True`` when all ``nbuffers`` buffers
    match, ``False`` on a missing (``None``) buffer or a value mismatch, and
    raises :class:`BufferSizeError` on a wrong buffer count or size (which
    would otherwise masquerade as a value mismatch).
    """
    if len(results) != nbuffers:
        raise BufferSizeError(f"expected {nbuffers} {what} buffers, got {len(results)}")
    for rank, buf in enumerate(results):
        if buf is None:
            return False
        got = np.asarray(buf)
        want = expected(rank, got.dtype)
        if got.size != want.size:
            raise BufferSizeError(
                f"{what} {rank} produced {got.size} items, expected {want.size}"
            )
        if not np.array_equal(got.reshape(-1), want):
            return False
    return True


def expected_alltoall_result(rank: int, nprocs: int, block_items: int, dtype=np.int64) -> np.ndarray:
    """Expected receive buffer of ``rank`` when every rank sent the test pattern."""
    return tagged_blocks(_received_tags(rank, nprocs), block_items, dtype)


def expected_folded_alltoall_result(
    rank: int, nprocs: int, ppn: int, block_items: int, dtype=np.int64
) -> np.ndarray:
    """Expected receive buffer of representative ``rank`` in a *folded* job.

    Block ``s`` carries the node-rotated tag of :func:`_received_tags`.
    """
    return tagged_blocks(_received_tags(rank, nprocs, ppn), block_items, dtype)


def make_workload_sendbuf(rank: int, counts, dtype=np.int64) -> np.ndarray:
    """Build rank ``rank``'s deterministic packed send buffer for a count matrix.

    ``counts[s, d]`` is the number of items ``s`` sends to ``d``; the buffer
    concatenates the variable-size blocks for destinations ``0..p-1`` with
    the tags of :func:`repro.utils.buffers.make_alltoall_sendbuf`.
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    return tagged_blocks(rank * nprocs + np.arange(nprocs, dtype=np.int64), arr[rank], dtype)


def expected_workload_result(rank: int, counts, dtype=np.int64) -> np.ndarray:
    """Expected packed receive buffer of ``rank`` for the workload test pattern."""
    arr = check_counts_matrix(counts)
    return tagged_blocks(_received_tags(rank, arr.shape[0]), arr[:, rank], dtype)


def expected_folded_workload_result(rank: int, counts, ppn: int, dtype=np.int64) -> np.ndarray:
    """Expected packed receive buffer of representative ``rank`` in a folded job.

    The workload analogue of :func:`expected_folded_alltoall_result`: block
    ``s`` carries ``counts[s, rank]`` items with the node-rotated tag.  Only
    meaningful for count matrices that passed the symmetry analyzer
    (rotation-invariant), which is the precondition for folding a workload
    at all.
    """
    arr = check_counts_matrix(counts)
    return tagged_blocks(_received_tags(rank, arr.shape[0], ppn), arr[:, rank], dtype)


def validate_alltoall_results(
    results: Sequence[np.ndarray],
    nprocs: int,
    block_items: int,
) -> bool:
    """Check a whole job's receive buffers against the expected test pattern."""
    return _validate(results, nprocs, lambda rank, dtype: expected_alltoall_result(
        rank, nprocs, block_items, dtype))


def validate_folded_alltoall_results(
    results: Sequence[np.ndarray],
    nprocs: int,
    ppn: int,
    block_items: int,
) -> bool:
    """Check a folded job's ``ppn`` representative receive buffers."""
    return _validate(results, ppn, lambda rank, dtype: expected_folded_alltoall_result(
        rank, nprocs, ppn, block_items, dtype), what="representative")


def validate_workload_results(results: Sequence[np.ndarray], counts) -> bool:
    """Check a whole job's packed receive buffers against the workload test pattern."""
    arr = check_counts_matrix(counts)
    return _validate(results, arr.shape[0], lambda rank, dtype: expected_workload_result(
        rank, arr, dtype))


def validate_folded_workload_results(results: Sequence[np.ndarray], counts, ppn: int) -> bool:
    """Check a folded workload job's ``ppn`` representative packed receive buffers."""
    arr = check_counts_matrix(counts)
    return _validate(results, ppn, lambda rank, dtype: expected_folded_workload_result(
        rank, arr, ppn, dtype), what="representative")


def alltoall_reference(sendbufs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Reference all-to-all on in-memory buffers (the defining transposition).

    ``sendbufs[r]`` is rank ``r``'s send buffer with ``len(sendbufs)`` equal
    blocks.  Returns the list of receive buffers.  Used by property-based
    tests to compare simulated algorithms against an independent oracle.
    """
    nprocs = len(sendbufs)
    if nprocs == 0:
        raise BufferSizeError("need at least one rank")
    size = sendbufs[0].size
    if size % nprocs != 0:
        raise BufferSizeError(f"buffer of {size} items does not divide into {nprocs} blocks")
    block = size // nprocs
    stacked = np.stack([np.asarray(b).reshape(nprocs, block) for b in sendbufs])
    # stacked[s, d] is the block source s sends to destination d; the result
    # for destination d is stacked[:, d] flattened in source order.
    return [np.ascontiguousarray(stacked[:, d]).reshape(-1) for d in range(nprocs)]


def alltoallv_reference(sendbufs: Sequence[np.ndarray], counts) -> list[np.ndarray]:
    """Reference alltoallv on in-memory packed buffers (the defining transposition).

    ``sendbufs[s]`` holds rank ``s``'s packed send buffer with block sizes
    ``counts[s, :]``; the returned receive buffers concatenate, for each
    destination ``d``, the blocks ``counts[s, d]`` in source order.  Used by
    property-based tests as an independent oracle for the v-algorithms.
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    if len(sendbufs) != nprocs:
        raise BufferSizeError(f"expected {nprocs} send buffers, got {len(sendbufs)}")
    displs = np.zeros((nprocs, nprocs), dtype=np.int64)
    np.cumsum(arr[:, :-1], axis=1, out=displs[:, 1:])
    results = []
    for dest in range(nprocs):
        chunks = []
        for src in range(nprocs):
            buf = np.asarray(sendbufs[src])
            if buf.size != int(arr[src].sum()):
                raise BufferSizeError(
                    f"send buffer of rank {src} has {buf.size} items but its counts "
                    f"sum to {int(arr[src].sum())}"
                )
            start = displs[src, dest]
            chunks.append(buf[start: start + arr[src, dest]])
        results.append(np.concatenate(chunks) if chunks else np.empty(0))
    return results
