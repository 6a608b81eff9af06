"""Tests for repro.core.validation and repro.core.instrumentation."""

import numpy as np
import pytest

from repro.core.instrumentation import PHASE_GATHER, PHASE_INTER, PhaseRecorder
from repro.core.validation import (
    alltoall_reference,
    alltoallv_reference,
    expected_alltoall_result,
    expected_folded_alltoall_result,
    expected_folded_workload_result,
    expected_workload_result,
    make_workload_sendbuf,
    validate_alltoall_results,
    validate_folded_alltoall_results,
    validate_folded_workload_results,
    validate_workload_results,
)
from repro.errors import AlgorithmError, BufferSizeError
from repro.machine import ProcessMap, tiny_cluster
from repro.simmpi import run_spmd
from repro.utils.buffers import make_alltoall_sendbuf


class TestExpectedResult:
    def test_matches_bruteforce_construction(self):
        nprocs, block = 5, 3
        for rank in range(nprocs):
            expected = expected_alltoall_result(rank, nprocs, block)
            brute = np.concatenate(
                [make_alltoall_sendbuf(src, nprocs, block).reshape(nprocs, block)[rank]
                 for src in range(nprocs)]
            )
            assert np.array_equal(expected, brute)

    def test_uint8_consistency_with_sendbuf(self):
        nprocs, block = 9, 4
        expected = expected_alltoall_result(2, nprocs, block, dtype=np.uint8)
        brute = np.concatenate(
            [make_alltoall_sendbuf(src, nprocs, block, dtype=np.uint8).reshape(nprocs, block)[2]
             for src in range(nprocs)]
        )
        assert np.array_equal(expected, brute)

    def test_negative_block_rejected(self):
        with pytest.raises(BufferSizeError):
            expected_alltoall_result(0, 4, -1)

    def test_uniform_literal(self):
        # Block s of rank 1 is what source s tagged for rank 1: s * 3 + 1.
        assert expected_alltoall_result(1, 3, 2).tolist() == [1000, 1001, 4000, 4001, 7000, 7001]

    def test_folded_uniform_literal(self):
        # 6 ranks, 2 per node: source s carries the tag of source s % 2 for
        # the node-rotated destination (1 - (s // 2) * 2) % 6.
        assert expected_folded_alltoall_result(1, 6, 2, 2).tolist() == [
            1000, 1001, 7000, 7001, 5000, 5001, 11000, 11001, 3000, 3001, 9000, 9001,
        ]

    def test_uint8_literal_wrap_around(self):
        # 2000 % 256 = 208, 1000 % 256 = 232 and 3000 % 256 = 184.
        assert expected_alltoall_result(0, 2, 2, dtype=np.uint8).tolist() == [0, 1, 208, 209]
        assert expected_alltoall_result(1, 2, 2, dtype=np.uint8).tolist() == [232, 233, 184, 185]


#: A 3-rank count matrix with an empty row (rank 1 sends nothing to 0 and 2's
#: column holds a zero): counts[s, d] items flow from s to d.
_COUNTS = np.array([[1, 0, 2],
                    [0, 3, 1],
                    [2, 1, 0]])


class TestWorkloadPattern:
    def test_sendbuf_literal(self):
        # Rank 1 tags its block for destination d with 1 * 3 + d.
        assert make_workload_sendbuf(1, _COUNTS).tolist() == [4000, 4001, 4002, 5000]
        assert make_workload_sendbuf(2, _COUNTS).tolist() == [6000, 6001, 7000]

    def test_expected_literal(self):
        # Block s of rank r is tagged s * 3 + r and holds counts[s, r] items.
        assert expected_workload_result(0, _COUNTS).tolist() == [0, 6000, 6001]
        assert expected_workload_result(1, _COUNTS).tolist() == [4000, 4001, 4002, 7000]
        assert expected_workload_result(2, _COUNTS).tolist() == [2000, 2001, 5000]

    def test_folded_expected_literal(self):
        # 6 ranks, 2 per node, rotation-invariant counts[s, d] = 1 + (d - s) % 2.
        counts = np.fromfunction(lambda s, d: 1 + (d - s) % 2, (6, 6), dtype=np.int64)
        assert expected_folded_workload_result(1, counts, 2).tolist() == [
            1000, 1001, 7000, 5000, 5001, 11000, 3000, 3001, 9000,
        ]

    def test_uint8_literal_wrap_around(self):
        assert expected_workload_result(1, _COUNTS, dtype=np.uint8).tolist() == [
            160, 161, 162, 88,
        ]

    def test_expected_matches_transposed_sendbufs(self):
        sendbufs = [make_workload_sendbuf(r, _COUNTS) for r in range(3)]
        for rank, buf in enumerate(alltoallv_reference(sendbufs, _COUNTS)):
            assert np.array_equal(buf, expected_workload_result(rank, _COUNTS))


class TestAlltoallReference:
    def test_transposition(self):
        sendbufs = [make_alltoall_sendbuf(r, 4, 2) for r in range(4)]
        recvbufs = alltoall_reference(sendbufs)
        for rank, buf in enumerate(recvbufs):
            assert np.array_equal(buf, expected_alltoall_result(rank, 4, 2))

    def test_double_application_is_identity_for_symmetric_layout(self):
        rng = np.random.default_rng(0)
        sendbufs = [rng.integers(0, 100, size=12) for _ in range(4)]
        once = alltoall_reference(sendbufs)
        twice = alltoall_reference(once)
        # Applying the block transposition twice returns the original data.
        for original, roundtrip in zip(sendbufs, twice):
            assert np.array_equal(original, roundtrip)

    def test_empty_rejected(self):
        with pytest.raises(BufferSizeError):
            alltoall_reference([])

    def test_indivisible_rejected(self):
        with pytest.raises(BufferSizeError):
            alltoall_reference([np.zeros(5), np.zeros(5)])


#: Rotation-invariant counts for 3 nodes x 4 ranks, every block non-empty.
_FOLDABLE_COUNTS = np.fromfunction(lambda s, d: 1 + (d - s) % 12 % 3, (12, 12), dtype=np.int64)

#: name -> (validator over a list of buffers, expected buffer of rank r, buffer count).
_VALIDATORS = {
    "uniform": (
        lambda res: validate_alltoall_results(res, 6, 2),
        lambda r: expected_alltoall_result(r, 6, 2), 6,
    ),
    "folded": (
        lambda res: validate_folded_alltoall_results(res, 12, 4, 2),
        lambda r: expected_folded_alltoall_result(r, 12, 4, 2), 4,
    ),
    "workload": (
        lambda res: validate_workload_results(res, _FOLDABLE_COUNTS),
        lambda r: expected_workload_result(r, _FOLDABLE_COUNTS), 12,
    ),
    "folded-workload": (
        lambda res: validate_folded_workload_results(res, _FOLDABLE_COUNTS, 4),
        lambda r: expected_folded_workload_result(r, _FOLDABLE_COUNTS, 4), 4,
    ),
}


@pytest.mark.parametrize("kind", sorted(_VALIDATORS))
class TestValidateResults:
    @staticmethod
    def _job(kind):
        validate, expected, nbuffers = _VALIDATORS[kind]
        return validate, [expected(r) for r in range(nbuffers)]

    def test_accepts_correct_results(self, kind):
        validate, results = self._job(kind)
        assert validate(results) is True
        # The expected pattern is built in each buffer's own dtype.
        assert validate([buf.astype(np.uint8) for buf in results]) is True

    def test_rejects_corrupted_value(self, kind):
        validate, results = self._job(kind)
        results[-1][-1] += 1
        assert not validate(results)

    def test_rejects_missing_rank(self, kind):
        validate, results = self._job(kind)
        results[1] = None
        assert not validate(results)

    def test_wrong_count_rejected(self, kind):
        validate, results = self._job(kind)
        with pytest.raises(BufferSizeError):
            validate(results[:-1])

    def test_wrong_size_rejected(self, kind):
        validate, results = self._job(kind)
        results[0] = np.zeros(results[0].size + 1, dtype=results[0].dtype)
        with pytest.raises(BufferSizeError):
            validate(results)


class TestPhaseRecorder:
    def test_records_elapsed_time(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            phases.start(PHASE_GATHER)
            yield Delay(1.0e-4)
            phases.stop(PHASE_GATHER)
            phases.start(PHASE_INTER)
            yield Delay(2.0e-4)
            phases.stop(PHASE_INTER)

        result = run_spmd(pmap, program)
        assert result.phase_time(PHASE_GATHER) == pytest.approx(1.0e-4, rel=1e-6)
        assert result.phase_time(PHASE_INTER) == pytest.approx(2.0e-4, rel=1e-6)

    def test_phases_accumulate(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=1)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            for _ in range(3):
                phases.start("work")
                yield Delay(1.0e-5)
                phases.stop("work")

        result = run_spmd(pmap, program)
        assert result.phase_time("work") == pytest.approx(3.0e-5, rel=1e-6)

    def test_nested_phases_rejected(self, two_node_pmap):
        def program(ctx):
            phases = PhaseRecorder(ctx)
            phases.start("a")
            phases.start("b")
            return
            yield  # pragma: no cover

        with pytest.raises(AlgorithmError):
            run_spmd(two_node_pmap, program)

    def test_stopping_wrong_phase_rejected(self, two_node_pmap):
        def program(ctx):
            phases = PhaseRecorder(ctx)
            phases.start("a")
            phases.stop("b")
            return
            yield  # pragma: no cover

        with pytest.raises(AlgorithmError):
            run_spmd(two_node_pmap, program)


class TestPhaseContextManager:
    def test_with_block_records_like_start_stop(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            with phases.phase(PHASE_GATHER):
                yield Delay(1.0e-4)
            with phases.phase(PHASE_INTER):
                yield Delay(2.0e-4)

        result = run_spmd(pmap, program)
        assert result.phase_time(PHASE_GATHER) == pytest.approx(1.0e-4, rel=1e-6)
        assert result.phase_time(PHASE_INTER) == pytest.approx(2.0e-4, rel=1e-6)

    def test_with_blocks_accumulate_and_mix_with_start_stop(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=1)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            with phases.phase("work"):
                yield Delay(1.0e-5)
            phases.start("work")          # legacy API still composes
            yield Delay(1.0e-5)
            phases.stop("work")
            with phases.phase("work"):
                yield Delay(1.0e-5)

        result = run_spmd(pmap, program)
        assert result.phase_time("work") == pytest.approx(3.0e-5, rel=1e-6)

    def test_nested_with_blocks_rejected(self, two_node_pmap):
        def program(ctx):
            phases = PhaseRecorder(ctx)
            with phases.phase("a"):
                with phases.phase("b"):
                    pass
            return
            yield  # pragma: no cover

        with pytest.raises(AlgorithmError):
            run_spmd(two_node_pmap, program)

    def test_raising_block_discards_open_phase(self):
        recorded = []

        class Ctx:
            rank = 0
            now = 0.0

            class _engine:
                sink = None

            def add_timing(self, phase, seconds):
                recorded.append((phase, seconds))

        phases = PhaseRecorder(Ctx())
        with pytest.raises(RuntimeError):
            with phases.phase("a"):
                raise RuntimeError("boom")
        # The failed phase recorded nothing and the recorder stays usable.
        assert recorded == []
        assert phases.open_phase is None
        with phases.phase("b"):
            pass
        assert [name for name, _ in recorded] == ["b"]
