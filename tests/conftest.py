"""Shared fixtures for the test suite.

The fixtures centralise the small simulated machines used across tests so
individual test modules stay focused on behaviour rather than set-up.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.machine import ProcessMap, tiny_cluster
from repro.machine.hierarchy import LocalityLevel
from repro.machine.systems import dane


@pytest.fixture
def tiny_pmap() -> ProcessMap:
    """4 nodes x 8 ranks on the tiny test cluster (2 sockets x 2 NUMA x 2 cores)."""
    return ProcessMap(tiny_cluster(num_nodes=4), ppn=8)


@pytest.fixture
def two_node_pmap() -> ProcessMap:
    """2 nodes x 4 ranks — the smallest configuration with real inter-node traffic."""
    return ProcessMap(tiny_cluster(num_nodes=2), ppn=4)


@pytest.fixture
def single_node_pmap() -> ProcessMap:
    """1 node x 8 ranks — no network traffic at all."""
    return ProcessMap(tiny_cluster(num_nodes=1), ppn=8)


@pytest.fixture
def dane_pmap() -> ProcessMap:
    """Full-scale Dane placement used by analytic-model tests (never simulated)."""
    return ProcessMap(dane(32), ppn=112)


@pytest.fixture
def check_sink_messages():
    """Checker tying a :class:`RecordingSink`'s per-message events to a run outcome.

    The inter-node ``match`` events must add up to the outcome's inter-node
    message and byte counters, and every message must complete no earlier
    than it arrived and arrive no earlier than it was sent.  Sends pair with
    matches per (source, destination, tag) in time order: if any pairing
    with ``arrival >= send time`` exists, the sorted one is such a pairing.
    """

    def check(sink, pmap, outcome) -> None:
        inter = [m for m in sink.of_kind("match")
                 if pmap.locality(m[1], m[2]) == LocalityLevel.NETWORK]
        assert len(inter) == outcome.inter_node_messages > 0
        assert sum(m[3] for m in inter) == outcome.inter_node_bytes
        sends: dict[tuple, list[float]] = defaultdict(list)
        arrivals: dict[tuple, list[float]] = defaultdict(list)
        for _, src, dst, _, tag, time in sink.of_kind("send"):
            sends[src, dst, tag].append(time)
        for _, src, dst, _, tag, _, arrival, completion in sink.of_kind("match"):
            assert completion >= arrival
            arrivals[src, dst, tag].append(arrival)
        assert sends.keys() == arrivals.keys()
        for key, times in sends.items():
            assert len(times) == len(arrivals[key])
            assert all(a >= t for a, t in zip(sorted(arrivals[key]), sorted(times)))

    return check
