"""Name-based registry of every all-to-all algorithm in the package."""

from __future__ import annotations

from typing import Type

from repro.core.alltoall.base import AlltoallAlgorithm
from repro.core.alltoall.batched import BatchedAlltoall
from repro.core.alltoall.bruck import BruckAlltoall
from repro.core.alltoall.hierarchical import HierarchicalAlltoall, MultiLeaderAlltoall
from repro.core.alltoall.multileader_node_aware import MultiLeaderNodeAwareAlltoall
from repro.core.alltoall.node_aware import LocalityAwareAlltoall, NodeAwareAlltoall
from repro.core.alltoall.nonblocking import NonblockingAlltoall
from repro.core.alltoall.pairwise import PairwiseAlltoall
from repro.core.alltoall.system_mpi import SystemMPIAlltoall
from repro.errors import ConfigurationError

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_NAMES",
    "get_algorithm",
    "list_algorithms",
    "V_ALGORITHM_NAMES",
    "get_v_algorithm",
    "list_v_algorithms",
]

#: Registry mapping algorithm name to its class.
ALGORITHMS: dict[str, Type[AlltoallAlgorithm]] = {
    cls.name: cls
    for cls in (
        PairwiseAlltoall,
        NonblockingAlltoall,
        BruckAlltoall,
        BatchedAlltoall,
        SystemMPIAlltoall,
        HierarchicalAlltoall,
        MultiLeaderAlltoall,
        NodeAwareAlltoall,
        LocalityAwareAlltoall,
        MultiLeaderNodeAwareAlltoall,
    )
}

#: Stable ordering of algorithm names used by reports and sweeps.
ALGORITHM_NAMES: tuple[str, ...] = tuple(ALGORITHMS)

#: Names run on count-matrix (alltoallv) traffic by the ``workload`` CLI,
#: verify and phased selection.  Locality-aware aggregation is reached as
#: ``node-aware`` with a ``procs_per_group``.
V_ALGORITHM_NAMES: tuple[str, ...] = ("pairwise", "nonblocking", "node-aware")


def list_algorithms() -> list[str]:
    """Names of every registered algorithm."""
    return list(ALGORITHM_NAMES)


def get_algorithm(name: str, **options) -> AlltoallAlgorithm:
    """Instantiate an algorithm by name with keyword configuration.

    Examples
    --------
    >>> get_algorithm("locality-aware", procs_per_group=4, inner="nonblocking")
    >>> get_algorithm("hierarchical")          # single leader per node
    >>> get_algorithm("multileader-node-aware", procs_per_leader=8)
    """
    if isinstance(name, AlltoallAlgorithm):
        return name
    key = name.lower()
    if key not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown all-to-all algorithm {name!r}; available: {', '.join(ALGORITHM_NAMES)}"
        )
    try:
        return ALGORITHMS[key](**options)
    except TypeError as exc:
        raise ConfigurationError(f"invalid options for algorithm {name!r}: {exc}") from exc


def list_v_algorithms() -> list[str]:
    """Names of the algorithms run on count-matrix traffic by name."""
    return list(V_ALGORITHM_NAMES)


def get_v_algorithm(name: str, **options) -> AlltoallAlgorithm:
    """Instantiate one of :data:`V_ALGORITHM_NAMES` by name with keyword configuration."""
    if isinstance(name, AlltoallAlgorithm):
        return name
    if name.lower() not in V_ALGORITHM_NAMES:
        raise ConfigurationError(
            f"unknown alltoallv algorithm {name!r}; available: {', '.join(V_ALGORITHM_NAMES)}"
        )
    return get_algorithm(name, **options)
