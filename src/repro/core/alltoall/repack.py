"""Buffer repacking for the hierarchical all-to-all algorithms.

Algorithms 3–5 of the paper interleave communication phases with "Repack
Data" steps that reorder blocks between the layout produced by one phase and
the layout the next phase needs.  Because ranks are placed blockwise (node
by node, group by group), every repack is a pure reshape/transpose of a
dense array — or, for Algorithm 4's variable-count form, a transpose of a
grid of variable-size chunks; this module implements them as vectorised
NumPy operations and exposes the byte counts so the algorithms can charge
the memory-copy cost to the simulated clock.

Conventions: ``block`` is the number of array items each rank sends to each
destination; groups of ``L`` consecutive ranks form the aggregation/leader
groups; groups are numbered globally in world-rank order.
"""

from __future__ import annotations

import numpy as np

from repro.machine.params import MachineParameters
from repro.simmpi.ops import Delay

__all__ = [
    "pack_delay",
    "hierarchical_pack_for_leaders",
    "hierarchical_unpack_to_scatter",
    "grid_transpose",
    "mlna_pack_for_internode",
    "mlna_pack_for_intranode",
    "mlna_unpack_to_scatter",
]


def pack_delay(params: MachineParameters, nbytes: int) -> Delay:
    """A :class:`Delay` operation charging the cost of touching ``nbytes`` during a repack."""
    return Delay(params.copy_time(int(nbytes)))


# ---------------------------------------------------------------------------
# Hierarchical / multi-leader (Algorithm 3)
# ---------------------------------------------------------------------------

def hierarchical_pack_for_leaders(gathered: np.ndarray, ppl: int, ngroups: int, block: int) -> np.ndarray:
    """Reorder a leader's gathered buffer for the leader-to-leader all-to-all.

    ``gathered`` holds the full send buffers of the ``ppl`` group members in
    member order (shape ``ppl * ngroups * ppl * block``).  The returned array
    is ordered by destination group: block ``g`` holds, for every source
    member and every destination member of group ``g``, the corresponding
    payload — the ``s·ppl²`` message of Algorithm 3.
    """
    cube = gathered.reshape(ppl, ngroups, ppl, block)
    # axes: (src_member, dest_group, dest_member, item) -> (dest_group, src_member, dest_member, item)
    packed = cube.transpose(1, 0, 2, 3)
    return np.ascontiguousarray(packed).reshape(-1)


def hierarchical_unpack_to_scatter(received: np.ndarray, ppl: int, ngroups: int, block: int) -> np.ndarray:
    """Reorder the leader-to-leader result into the per-member scatter layout.

    ``received`` is ordered by source group, then source member, then
    destination member.  The scatter buffer must be ordered by destination
    member first (one contiguous chunk per group member), with each chunk
    ordered by source world rank, i.e. by (source group, source member).
    """
    cube = received.reshape(ngroups, ppl, ppl, block)
    # axes: (src_group, src_member, dest_member, item) -> (dest_member, src_group, src_member, item)
    packed = cube.transpose(2, 0, 1, 3)
    return np.ascontiguousarray(packed).reshape(-1)


# ---------------------------------------------------------------------------
# Node-aware / locality-aware (Algorithm 4)
# ---------------------------------------------------------------------------

def grid_transpose(buf: np.ndarray, sizes) -> np.ndarray:
    """Reorder a buffer of chunks laid out row-major on a grid into column-major order.

    ``buf`` holds the chunks of an ``(R, C)`` grid back to back in row-major
    order, chunk ``(r, c)`` having ``sizes[r, c]`` items; the result holds
    the same chunks in column-major order.  ``grid_transpose(out, sizes.T)``
    inverts it.  Algorithm 4 uses it on its ``(groups, group size)`` grid
    after the inter-region exchange (source group, destination member ->
    destination member, source group) and on the transposed grid after the
    intra-region exchange (back to source world-rank order).

    A constant grid (uniform blocks) is a reshape/transpose; any other grid
    is one vectorised gather, so zero-size chunks and empty rows cost
    nothing extra.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rows, cols = sizes.shape
    flat = sizes.reshape(-1)
    if flat.size == 0 or (flat == flat[0]).all():
        block = int(flat[0]) if flat.size else 0
        cube = buf.reshape(rows, cols, block).transpose(1, 0, 2)
        return np.ascontiguousarray(cube).reshape(-1)
    # Item j of output chunk (r, c) is item starts[r, c] + j of ``buf``.
    starts = (np.cumsum(flat) - flat).reshape(rows, cols).T.reshape(-1)
    out_sizes = sizes.T.reshape(-1)
    out_starts = np.cumsum(out_sizes) - out_sizes
    index = np.arange(int(flat.sum())) + np.repeat(starts - out_starts, out_sizes)
    return buf[index]


# ---------------------------------------------------------------------------
# Multi-leader + node-aware (Algorithm 5)
# ---------------------------------------------------------------------------

def mlna_pack_for_internode(gathered: np.ndarray, ppl: int, num_nodes: int, ppn: int, block: int) -> np.ndarray:
    """Reorder a leader's gathered buffer for the inter-node all-to-all.

    The message to node ``n`` contains, for every source member of the
    leader's group, the data destined to every rank of node ``n``
    (``s·ppn·ppl`` bytes in the paper's notation).
    """
    cube = gathered.reshape(ppl, num_nodes, ppn, block)
    # (src_member, dest_node, dest_local_rank, item) -> (dest_node, src_member, dest_local_rank, item)
    packed = cube.transpose(1, 0, 2, 3)
    return np.ascontiguousarray(packed).reshape(-1)


def mlna_pack_for_intranode(received: np.ndarray, num_nodes: int, ppl: int, leaders_per_node: int, block: int) -> np.ndarray:
    """Reorder the inter-node result for the leader-to-leader exchange within the node.

    The message to node-local leader ``k`` contains, for every source node and
    every source member (of the remote groups with this leader's index), the
    data destined to the members of leader ``k``'s group
    (``s·nnodes·ppl²`` bytes in the paper's notation).
    """
    cube = received.reshape(num_nodes, ppl, leaders_per_node, ppl, block)
    # (src_node, src_member, dest_leader, dest_member, item)
    #   -> (dest_leader, src_node, src_member, dest_member, item)
    packed = cube.transpose(2, 0, 1, 3, 4)
    return np.ascontiguousarray(packed).reshape(-1)


def mlna_unpack_to_scatter(received: np.ndarray, leaders_per_node: int, num_nodes: int, ppl: int, block: int) -> np.ndarray:
    """Reorder the intra-node leader exchange result into the scatter layout.

    The scatter buffer holds one contiguous chunk per group member (the
    destination), each ordered by source world rank, i.e. by
    (source node, source leader, source member).
    """
    cube = received.reshape(leaders_per_node, num_nodes, ppl, ppl, block)
    # (src_leader, src_node, src_member, dest_member, item)
    #   -> (dest_member, src_node, src_leader, src_member, item)
    packed = cube.transpose(3, 1, 0, 2, 4)
    return np.ascontiguousarray(packed).reshape(-1)
