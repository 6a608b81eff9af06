"""Direct NumPy-level tests of the repacking helpers used by Algorithms 3-5."""

import numpy as np
import pytest

from repro.core.alltoall import repack
from repro.machine.params import MachineParameters
from repro.simmpi.ops import Delay


def _tagged(shape_dims, base=0):
    """An int array whose value encodes its multi-index, for unambiguous reordering checks."""
    size = int(np.prod(shape_dims))
    return (np.arange(size, dtype=np.int64) + base).reshape(shape_dims)


class TestPackDelay:
    def test_returns_delay_with_copy_cost(self):
        params = MachineParameters(copy_latency=1e-6, copy_bandwidth=1e9)
        delay = repack.pack_delay(params, 1000)
        assert isinstance(delay, Delay)
        assert delay.seconds == pytest.approx(2e-6)

    def test_zero_bytes_is_free(self):
        assert repack.pack_delay(MachineParameters(), 0).seconds == 0.0


class TestHierarchicalRepack:
    def test_pack_for_leaders_orders_by_destination_group(self):
        ppl, ngroups, block = 2, 3, 1
        # gathered[src_member, dest_group, dest_member, item]
        gathered = _tagged((ppl, ngroups, ppl, block)).reshape(-1)
        packed = repack.hierarchical_pack_for_leaders(gathered, ppl, ngroups, block)
        cube = gathered.reshape(ppl, ngroups, ppl, block)
        expected = cube.transpose(1, 0, 2, 3).reshape(-1)
        assert np.array_equal(packed, expected)

    def test_unpack_to_scatter_orders_by_destination_member_then_source(self):
        ppl, ngroups, block = 2, 3, 2
        received = _tagged((ngroups, ppl, ppl, block)).reshape(-1)
        unpacked = repack.hierarchical_unpack_to_scatter(received, ppl, ngroups, block)
        cube = received.reshape(ngroups, ppl, ppl, block)
        expected = cube.transpose(2, 0, 1, 3).reshape(-1)
        assert np.array_equal(unpacked, expected)

    def test_pack_then_unpack_covers_all_elements(self):
        ppl, ngroups, block = 4, 2, 3
        original = _tagged((ppl, ngroups * ppl * block)).reshape(-1)
        packed = repack.hierarchical_pack_for_leaders(original, ppl, ngroups, block)
        assert sorted(packed.tolist()) == sorted(original.tolist())


def _reference_grid_transpose(buf, sizes):
    """Per-chunk reference: slice every chunk, concatenate in column-major order."""
    rows, cols = sizes.shape
    bounds = np.concatenate(([0], np.cumsum(sizes.reshape(-1))))
    chunks = {
        (r, c): buf[bounds[r * cols + c]: bounds[r * cols + c + 1]]
        for r in range(rows) for c in range(cols)
    }
    ordered = [chunks[r, c] for c in range(cols) for r in range(rows)]
    return np.concatenate(ordered) if ordered else buf[:0]


class TestGroupTranspose:
    def test_forward_is_group_major_to_member_major(self):
        ngroups, group, block = 3, 2, 2
        received = _tagged((ngroups, group, block)).reshape(-1)
        forward = repack.grid_transpose(received, np.full((ngroups, group), block))
        expected = received.reshape(ngroups, group, block).transpose(1, 0, 2).reshape(-1)
        assert np.array_equal(forward, expected)

    def test_backward_inverts_forward(self):
        ngroups, group, block = 4, 3, 2
        original = _tagged((ngroups, group, block)).reshape(-1)
        sizes = np.full((ngroups, group), block)
        forward = repack.grid_transpose(original, sizes)
        # After the intra-group exchange the axes are (member, group); the
        # call on the transposed grid restores (group, member) ordering.
        restored = repack.grid_transpose(forward, sizes.T)
        assert np.array_equal(restored, original)


class TestGridTranspose:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_chunk_reference_and_inverts(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            rows, cols = rng.integers(1, 7, size=2)
            sizes = rng.integers(0, 5, size=(rows, cols))
            sizes[rng.random((rows, cols)) < 0.3] = 0          # zero-size chunks
            sizes[rng.integers(rows)] = 0                       # an empty row
            buf = np.arange(int(sizes.sum()), dtype=np.int64)
            out = repack.grid_transpose(buf, sizes)
            assert np.array_equal(out, _reference_grid_transpose(buf, sizes))
            assert np.array_equal(repack.grid_transpose(out, sizes.T), buf)

    def test_constant_grid_is_the_reshape_transpose(self):
        rows, cols, block = 5, 3, 4
        buf = _tagged((rows, cols, block)).reshape(-1)
        out = repack.grid_transpose(buf, np.full((rows, cols), block))
        assert np.array_equal(out, buf.reshape(rows, cols, block).transpose(1, 0, 2).reshape(-1))
        assert np.array_equal(out, _reference_grid_transpose(buf, np.full((rows, cols), block)))

    def test_all_empty_grid(self):
        empty = np.empty(0, dtype=np.uint8)
        out = repack.grid_transpose(empty, np.zeros((3, 2), dtype=np.int64))
        assert out.size == 0 and out.dtype == np.uint8

    def test_small_grid_by_hand(self):
        # Row-major chunks [0] [1 2] / [3 4 5] []  ->  column-major order.
        sizes = np.array([[1, 2], [3, 0]])
        out = repack.grid_transpose(np.arange(6, dtype=np.uint8), sizes)
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 3, 4, 5, 1, 2]


class TestMlnaRepack:
    def test_pack_for_internode_axes(self):
        ppl, nodes, ppn, block = 2, 3, 4, 1
        gathered = _tagged((ppl, nodes, ppn, block)).reshape(-1)
        packed = repack.mlna_pack_for_internode(gathered, ppl, nodes, ppn, block)
        expected = gathered.reshape(ppl, nodes, ppn, block).transpose(1, 0, 2, 3).reshape(-1)
        assert np.array_equal(packed, expected)

    def test_pack_for_intranode_axes(self):
        nodes, ppl, leaders, block = 2, 2, 3, 1
        received = _tagged((nodes, ppl, leaders, ppl, block)).reshape(-1)
        packed = repack.mlna_pack_for_intranode(received, nodes, ppl, leaders, block)
        expected = (
            received.reshape(nodes, ppl, leaders, ppl, block).transpose(2, 0, 1, 3, 4).reshape(-1)
        )
        assert np.array_equal(packed, expected)

    def test_unpack_to_scatter_axes(self):
        leaders, nodes, ppl, block = 2, 3, 2, 2
        received = _tagged((leaders, nodes, ppl, ppl, block)).reshape(-1)
        unpacked = repack.mlna_unpack_to_scatter(received, leaders, nodes, ppl, block)
        expected = (
            received.reshape(leaders, nodes, ppl, ppl, block).transpose(3, 1, 0, 2, 4).reshape(-1)
        )
        assert np.array_equal(unpacked, expected)

    def test_all_repacks_are_permutations(self):
        """No repack may ever duplicate or drop an element."""
        ppl, nodes, ppn, block = 2, 2, 4, 3
        leaders = ppn // ppl
        buf = np.arange(ppl * nodes * ppn * block, dtype=np.int64)
        for packed in (
            repack.mlna_pack_for_internode(buf, ppl, nodes, ppn, block),
            repack.mlna_pack_for_intranode(buf, nodes, ppl, leaders, block),
            repack.mlna_unpack_to_scatter(buf, leaders, nodes, ppl, block),
        ):
            assert sorted(packed.tolist()) == list(range(buf.size))
