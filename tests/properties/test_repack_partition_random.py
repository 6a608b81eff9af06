"""Seeded randomized invariants for partitioning and repacking (stdlib random).

The hypothesis-based files in this directory explore the same modules with
shrinking strategies; these tests deliberately use only ``random.Random``
with fixed seeds so the exact cases are frozen (re-runnable byte-for-byte,
no external dependency) — the same reproducibility contract as
``repro.verify``.  Two invariant families:

* *round-trip* — every repack is a pure permutation, and the
  forward/backward pairs invert each other exactly;
* *conservation of bytes* — partitions and displacement layouts never drop
  or duplicate an item, for arbitrary random counts including zeros.
"""

import random

import numpy as np
import pytest

from repro.core.alltoall import repack
from repro.utils.buffers import check_v_counts, displacements_from_counts
from repro.utils.partition import (
    chunk_evenly,
    contiguous_partition,
    divisors,
    round_robin_partition,
)

SEEDS = [0, 1, 2025]


@pytest.mark.parametrize("seed", SEEDS)
class TestPartitionConservation:
    def test_chunk_evenly_conserves_items(self, seed):
        rng = random.Random(f"partition:{seed}")
        for _ in range(100):
            n = rng.randrange(0, 5000)
            nchunks = rng.randrange(1, 100)
            chunks = chunk_evenly(n, nchunks)
            assert sum(chunks) == n
            assert max(chunks) - min(chunks) <= 1

    def test_partitions_cover_every_item_exactly_once(self, seed):
        rng = random.Random(f"cover:{seed}")
        for _ in range(50):
            ngroups = rng.randrange(1, 16)
            group_size = rng.randrange(1, 16)
            items = list(range(ngroups * group_size))
            rng.shuffle(items)
            contiguous = contiguous_partition(items, group_size)
            assert [x for g in contiguous for x in g] == items
            dealt = round_robin_partition(items, ngroups)
            assert sorted(x for g in dealt for x in g) == sorted(items)
            # Round-trip: round-robin dealing is invertible by position.
            restored = [None] * len(items)
            for g, group in enumerate(dealt):
                for pos, item in enumerate(group):
                    restored[pos * ngroups + g] = item
            assert restored == items

    def test_divisors_match_brute_force(self, seed):
        rng = random.Random(f"divisors:{seed}")
        for _ in range(50):
            n = rng.randrange(1, 2000)
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("seed", SEEDS)
class TestDisplacementConservation:
    def test_displacements_tile_the_buffer(self, seed):
        """Random counts (zeros included): block i occupies exactly
        [displs[i], displs[i] + counts[i]), blocks abut, and the total
        equals the byte sum — no gap, no overlap, no loss."""
        rng = random.Random(f"displs:{seed}")
        for _ in range(100):
            nblocks = rng.randrange(1, 40)
            counts = [rng.choice([0, 0, 1, rng.randrange(0, 64)]) for _ in range(nblocks)]
            arr = check_v_counts(counts, nblocks)
            displs = displacements_from_counts(arr)
            assert displs[0] == 0
            for i in range(nblocks - 1):
                assert displs[i + 1] == displs[i] + arr[i]
            assert displs[-1] + arr[-1] == arr.sum()
            # Slicing a ramp by the layout and re-concatenating round-trips.
            buf = np.arange(int(arr.sum()), dtype=np.int64)
            pieces = [buf[displs[i]: displs[i] + arr[i]] for i in range(nblocks)]
            assert np.array_equal(np.concatenate(pieces) if pieces else buf, buf)


def _random_dims(rng, k, hi=5):
    return tuple(rng.randrange(1, hi + 1) for _ in range(k))


@pytest.mark.parametrize("seed", SEEDS)
class TestRepackRoundTrips:
    def test_group_transpose_backward_inverts_forward(self, seed):
        rng = random.Random(f"transpose:{seed}")
        for _ in range(50):
            ngroups, group, block = _random_dims(rng, 3)
            buf = np.arange(ngroups * group * block, dtype=np.int64)
            # Forward is the (groups, members) grid, backward its transpose.
            sizes = np.full((ngroups, group), block)
            forward = repack.grid_transpose(buf, sizes)
            restored = repack.grid_transpose(forward, sizes.T)
            assert np.array_equal(restored, buf)
            # And forward of backward as well: the pair is a true inverse.
            assert np.array_equal(
                repack.grid_transpose(repack.grid_transpose(buf, sizes.T), sizes),
                buf,
            )

    def test_every_repack_is_a_permutation(self, seed):
        """Conservation of bytes: random shapes, zero-block included, no
        repack may drop or duplicate an element."""
        rng = random.Random(f"perm:{seed}")
        for _ in range(30):
            ppl, ngroups, block = _random_dims(rng, 3)
            block = rng.choice([0, block])
            n = ppl * ngroups * ppl * block
            buf = np.arange(n, dtype=np.int64)
            for packed in (
                repack.hierarchical_pack_for_leaders(buf, ppl, ngroups, block),
                repack.hierarchical_unpack_to_scatter(buf, ppl, ngroups, block),
            ):
                assert sorted(packed.tolist()) == list(range(n))
            nodes, ppn_factor = _random_dims(rng, 2)
            ppn = ppl * ppn_factor
            buf2 = np.arange(ppl * nodes * ppn * block, dtype=np.int64)
            packed2 = repack.mlna_pack_for_internode(buf2, ppl, nodes, ppn, block)
            assert sorted(packed2.tolist()) == list(range(buf2.size))
            leaders = ppn // ppl
            buf3 = np.arange(nodes * ppl * leaders * ppl * block, dtype=np.int64)
            for packed3 in (
                repack.mlna_pack_for_intranode(buf3, nodes, ppl, leaders, block),
                repack.mlna_unpack_to_scatter(buf3, leaders, nodes, ppl, block),
            ):
                assert sorted(packed3.tolist()) == list(range(buf3.size))

    def test_repacks_round_trip_through_their_inverse_permutation(self, seed):
        """Every repack is a fixed permutation of the buffer (it maps the
        tagging ramp to the permutation itself), so applying the argsort of
        that permutation restores any payload exactly — the round-trip
        invariant behind all 'Repack Data' steps of Algorithms 3-5."""
        rng = random.Random(f"hier:{seed}")
        for _ in range(30):
            ppl, ngroups, block = _random_dims(rng, 3)
            n = ppl * ngroups * ppl * block
            perm = repack.hierarchical_pack_for_leaders(
                np.arange(n, dtype=np.int64), ppl, ngroups, block
            )
            payload = np.array([rng.randrange(1 << 30) for _ in range(n)], dtype=np.int64)
            packed = repack.hierarchical_pack_for_leaders(payload, ppl, ngroups, block)
            assert np.array_equal(packed, payload[perm])
            assert np.array_equal(packed[np.argsort(perm)], payload)

    def test_zero_block_repacks_are_empty_not_errors(self, seed):
        """0-byte payloads (empty send rows in the v-generalisation) must
        repack to empty buffers; the reshape path used to require a
        non-empty buffer and crashed on size 0."""
        rng = random.Random(f"zero:{seed}")
        for _ in range(20):
            ppl, ngroups, group = _random_dims(rng, 3)
            empty = np.empty(0, dtype=np.int64)
            assert repack.hierarchical_pack_for_leaders(empty, ppl, ngroups, 0).size == 0
            assert repack.hierarchical_unpack_to_scatter(empty, ppl, ngroups, 0).size == 0
            zero_grid = np.zeros((ngroups, group), dtype=np.int64)
            assert repack.grid_transpose(empty, zero_grid).size == 0
            assert repack.grid_transpose(empty, zero_grid.T).size == 0
            nodes, leaders = _random_dims(rng, 2)
            ppn = ppl * leaders
            assert repack.mlna_pack_for_internode(empty, ppl, nodes, ppn, 0).size == 0
            assert repack.mlna_pack_for_intranode(empty, nodes, ppl, leaders, 0).size == 0
            assert repack.mlna_unpack_to_scatter(empty, leaders, nodes, ppl, 0).size == 0
