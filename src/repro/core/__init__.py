"""The paper's contribution: the all-to-all algorithm family and its tooling.

Public entry points:

* :func:`repro.core.runner.run_alltoall` — run any algorithm of the family on
  a simulated machine and get back timing, per-phase breakdown and a
  correctness check;
* :mod:`repro.core.alltoall` — the algorithms themselves (flat exchanges and
  the hierarchical / node-aware / locality-aware / multi-leader variants);
* :mod:`repro.core.selection` — pick the best algorithm for a machine,
  process count and message size (the paper's future-work item);
* :mod:`repro.core.validation` — reference results and result checking.
"""

from repro.core.alltoall import (
    ALGORITHM_NAMES,
    INNER_EXCHANGES,
    V_ALGORITHM_NAMES,
    AlltoallAlgorithm,
    get_algorithm,
    get_v_algorithm,
    list_algorithms,
    list_v_algorithms,
)
from repro.core.runner import (
    AlltoallOutcome,
    JobOutcome,
    PhasedJob,
    PhasedOutcome,
    PhaseResult,
    WorkloadOutcome,
    run_alltoall,
    run_phased,
    run_phased_workload,
    run_workload,
)
from repro.core.selection import (
    AlgorithmSelector,
    PhasedSelection,
    SelectionTable,
    build_selection_table,
    select_phased,
)
from repro.core.validation import (
    alltoallv_reference,
    expected_alltoall_result,
    expected_workload_result,
    validate_alltoall_results,
    validate_workload_results,
)

__all__ = [
    "ALGORITHM_NAMES",
    "INNER_EXCHANGES",
    "V_ALGORITHM_NAMES",
    "AlltoallAlgorithm",
    "get_algorithm",
    "get_v_algorithm",
    "list_algorithms",
    "list_v_algorithms",
    "AlltoallOutcome",
    "WorkloadOutcome",
    "PhasedJob",
    "PhaseResult",
    "JobOutcome",
    "PhasedOutcome",
    "run_alltoall",
    "run_workload",
    "run_phased",
    "run_phased_workload",
    "AlgorithmSelector",
    "PhasedSelection",
    "SelectionTable",
    "build_selection_table",
    "select_phased",
    "expected_alltoall_result",
    "expected_workload_result",
    "validate_alltoall_results",
    "validate_workload_results",
    "alltoallv_reference",
]
