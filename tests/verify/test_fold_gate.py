"""The symmetry-folding differential gate: folded timings must be bit-exact.

These tests are the acceptance criterion of the folding refactor: at scales
the full engine can still simulate, a folded run must reproduce the full
run's elapsed time, per-representative finish times and (multiplicity-
scaled) traffic exactly — not approximately — on contention-free fabrics.
On contended ones folding must be refused, and ``auto`` must be the full run.
"""

import numpy as np
import pytest

from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError
from repro.machine import ProcessMap, tiny_cluster
from repro.verify.folding import model_crosscheck, run_fold_gate
from repro.workloads.generators import skewed_moe, uniform


@pytest.fixture
def pmap():
    return ProcessMap(tiny_cluster(num_nodes=4), ppn=4)


# -- the gate itself ---------------------------------------------------------


def test_fold_gate_passes_across_the_registry():
    """Every algorithm, eager + rendezvous, uniform + symmetric workloads,
    plus the refusal checks on a contended fat-tree and dragonfly."""
    report = run_fold_gate(num_nodes=4, ppn=4)
    assert report.ok, report.describe()
    for record in report.records:
        assert record.full_elapsed == record.folded_elapsed
    folded = [r for r in report.records if r.refused is None]
    assert len(folded) >= 20  # 10 algorithms x 2 sizes + 3 workloads
    for record in folded:
        assert record.multiplicity == 4
    # Fat-tree and dragonfly x pairwise and node-aware: on refused, auto == off.
    contended = [r for r in report.records if r.refused is not None]
    assert len(contended) == 4
    labels = " ".join(r.label for r in contended)
    assert "fat-tree" in labels and "dragonfly" in labels
    for record in contended:
        assert record.refused and record.multiplicity == 1
        assert "on refused, auto=" in record.describe()


def test_fold_gate_rejects_unfoldable_scale():
    with pytest.raises(ValueError):
        run_fold_gate(num_nodes=128)


def test_model_crosscheck_agrees_at_scale():
    points = model_crosscheck(node_counts=(256,), algorithms=("pairwise",))
    assert points and all(p.ok for p in points)
    # Measured agreement is ~1.15x; anything past 2x would signal a folded
    # timeline silently dropping the absent nodes' serialization.
    assert all(0.5 <= p.ratio <= 2.0 for p in points)


# -- runner-level fold modes -------------------------------------------------


def test_fold_on_unfoldable_workload_raises(pmap):
    matrix = skewed_moe(16, 64, concentration=8.0)
    with pytest.raises(ConfigurationError):
        run_workload("pairwise", pmap, matrix, fold="on")


def test_fold_auto_falls_back_to_full_width(pmap):
    matrix = skewed_moe(16, 64, concentration=8.0)
    outcome = run_workload("pairwise", pmap, matrix, fold="auto")
    assert outcome.fold is None
    assert outcome.correct


def test_fold_auto_folds_symmetric_workload(pmap):
    outcome = run_workload("pairwise", pmap, uniform(16, 64), fold="auto")
    assert outcome.fold is not None
    assert outcome.fold["multiplicity"] == 4
    assert outcome.fold["kind"] == "uniform"
    assert outcome.correct


def test_invalid_fold_mode_rejected(pmap):
    with pytest.raises(ConfigurationError):
        run_alltoall("pairwise", pmap, 64, fold="sometimes")


def test_folded_traffic_matches_full_run_totals(pmap):
    full = run_alltoall("node-aware", pmap, 256, fold="off")
    folded = run_alltoall("node-aware", pmap, 256, fold="on")
    assert folded.traffic_by_level == full.traffic_by_level
    assert folded.elapsed == full.elapsed
    # Folded runs process roughly 1/multiplicity of the events.
    assert folded.job.events_processed < full.job.events_processed


def test_folded_contents_validate_against_closed_form(pmap):
    """The folded receive buffers equal the rotated closed-form reference."""
    from repro.core.validation import expected_folded_alltoall_result

    outcome = run_alltoall("bruck", pmap, 64, fold="on", dtype=np.int64)
    assert outcome.correct
    for rank, got in enumerate(outcome.job.results):
        expected = expected_folded_alltoall_result(rank, 16, 4, 8, dtype=np.int64)
        assert np.array_equal(got, expected)


def test_paper_scale_headroom_smoke():
    """A 64k-rank machine simulates folded in interactive time.

    The unfolded engine's O(P^2) message count makes this shape unreachable
    (the committed 64-node/512-rank headline job takes seconds); folded it
    is one rank's timeline.  This is the issue's >= 100x rank-count headroom
    gate at smoke scale.
    """
    pmap = ProcessMap(tiny_cluster(num_nodes=65536), ppn=1)
    outcome = run_alltoall("pairwise", pmap, 64, fold="on", validate=False,
                           keep_job=False)
    assert outcome.fold["logical_ranks"] == 65536
    assert outcome.fold["simulated_ranks"] == 1
    assert outcome.elapsed > 0.0
