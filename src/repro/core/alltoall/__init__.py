"""The all-to-all algorithm family.

Flat exchanges (Section 2 of the paper):

* :class:`~repro.core.alltoall.pairwise.PairwiseAlltoall` — Algorithm 1;
* :class:`~repro.core.alltoall.nonblocking.NonblockingAlltoall` — Algorithm 2;
* :class:`~repro.core.alltoall.bruck.BruckAlltoall` — log-step small-message algorithm;
* :class:`~repro.core.alltoall.batched.BatchedAlltoall` — bounded-outstanding related work;
* :class:`~repro.core.alltoall.system_mpi.SystemMPIAlltoall` — size-switched baseline.

Locality-exploiting algorithms (Section 3):

* :class:`~repro.core.alltoall.hierarchical.HierarchicalAlltoall` /
  :class:`~repro.core.alltoall.hierarchical.MultiLeaderAlltoall` — Algorithm 3;
* :class:`~repro.core.alltoall.node_aware.NodeAwareAlltoall` /
  :class:`~repro.core.alltoall.node_aware.LocalityAwareAlltoall` — Algorithm 4
  (locality-aware aggregation is one of the paper's two novel algorithms);
* :class:`~repro.core.alltoall.multileader_node_aware.MultiLeaderNodeAwareAlltoall`
  — Algorithm 5, the paper's second novel algorithm.

One family serves both traffic kinds.  Members with
``variable_counts`` — pairwise, non-blocking and node-/locality-aware —
also run a per-pair count matrix (``alltoallv`` traffic, driven by a
:class:`~repro.workloads.TrafficMatrix`, see :mod:`repro.workloads`) through
the same implementation: ``run(ctx, sendbuf, recvbuf, counts)`` with packed
buffers.  :data:`~repro.core.alltoall.registry.V_ALGORITHM_NAMES` names the
ones the workload tools run by name; the others are uniform-only and their
``validate`` rejects a count matrix.
"""

from repro.core.alltoall.base import AlltoallAlgorithm, check_alltoall_buffers
from repro.core.alltoall.batched import BatchedAlltoall, exchange_batched
from repro.core.alltoall.bruck import BruckAlltoall, exchange_bruck
from repro.core.alltoall.exchanges import COUNT_EXCHANGES, INNER_EXCHANGES, get_inner_exchange
from repro.core.alltoall.hierarchical import (
    HierarchicalAlltoall,
    MultiLeaderAlltoall,
    hierarchical_alltoall,
)
from repro.core.alltoall.multileader_node_aware import (
    MultiLeaderNodeAwareAlltoall,
    multileader_node_aware_alltoall,
)
from repro.core.alltoall.node_aware import (
    LocalityAwareAlltoall,
    NodeAwareAlltoall,
    node_aware_alltoall,
)
from repro.core.alltoall.nonblocking import NonblockingAlltoall, exchange_nonblocking
from repro.core.alltoall.pairwise import PairwiseAlltoall, exchange_pairwise
from repro.core.alltoall.registry import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    V_ALGORITHM_NAMES,
    get_algorithm,
    get_v_algorithm,
    list_algorithms,
    list_v_algorithms,
)
from repro.core.alltoall.system_mpi import SystemMPIAlltoall

__all__ = [
    "AlltoallAlgorithm",
    "check_alltoall_buffers",
    "BatchedAlltoall",
    "BruckAlltoall",
    "HierarchicalAlltoall",
    "MultiLeaderAlltoall",
    "MultiLeaderNodeAwareAlltoall",
    "LocalityAwareAlltoall",
    "NodeAwareAlltoall",
    "NonblockingAlltoall",
    "PairwiseAlltoall",
    "SystemMPIAlltoall",
    "exchange_batched",
    "exchange_bruck",
    "exchange_nonblocking",
    "exchange_pairwise",
    "hierarchical_alltoall",
    "multileader_node_aware_alltoall",
    "node_aware_alltoall",
    "INNER_EXCHANGES",
    "COUNT_EXCHANGES",
    "get_inner_exchange",
    "ALGORITHMS",
    "ALGORITHM_NAMES",
    "get_algorithm",
    "list_algorithms",
    "V_ALGORITHM_NAMES",
    "get_v_algorithm",
    "list_v_algorithms",
]
