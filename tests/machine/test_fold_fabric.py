"""Folding is exact or refused: never on a fabric with shared links.

A folded run simulates node 0 only, so a shared fabric link would be
priced without the traffic of the nodes it does not simulate.  Everywhere
the fabric builds link state, ``fold="on"`` is refused (runner, PointSpec,
engine) and ``fold="auto"`` is the full simulation, bit for bit.  Where it
builds none, folding stays bit-exact.
"""

import pytest

from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError, SimulationError
from repro.machine import ProcessMap, tiny_cluster
from repro.machine.folding import fabric_fold_refusal
from repro.netsim.fabric import (
    DragonflyFabric,
    FatTreeFabric,
    FullBisectionFabric,
    parse_fabric,
)
from repro.runtime.spec import PointSpec
from repro.simmpi.engine import SpmdEngine
from repro.workloads.generators import uniform

CONTENDED = ["fat-tree:hosts=2,oversub=2", "dragonfly:hosts=2,routers=2,taper=4"]

#: (name, run(pmap, fold)) — the two runner entry points that take ``fold``.
RUNS = [
    ("run_alltoall", lambda pmap, fold: run_alltoall("node-aware", pmap, 16384, fold=fold)),
    ("run_workload", lambda pmap, fold: run_workload(
        "pairwise", pmap, uniform(pmap.nprocs, 256), fold=fold)),
]


def _pmap(fabric, num_nodes=8, ppn=4) -> ProcessMap:
    if isinstance(fabric, str):
        fabric = parse_fabric(fabric)
    return ProcessMap(tiny_cluster(num_nodes=num_nodes, fabric=fabric), ppn=ppn)


@pytest.mark.parametrize("run", [run for _, run in RUNS], ids=[name for name, _ in RUNS])
@pytest.mark.parametrize("fabric", CONTENDED)
class TestContendedFabric:
    def test_fold_on_refused_naming_the_fabric(self, fabric, run):
        pmap = _pmap(fabric)
        with pytest.raises(ConfigurationError, match=parse_fabric(fabric).kind):
            run(pmap, "on")

    def test_fold_auto_is_the_full_run(self, fabric, run):
        pmap = _pmap(fabric)
        full = run(pmap, "off")
        auto = run(pmap, "auto")
        assert auto.fold is None
        assert auto.elapsed == full.elapsed
        assert auto.phase_times == full.phase_times
        assert auto.traffic_by_level == full.traffic_by_level


@pytest.mark.parametrize("fabric", CONTENDED)
def test_engine_rejects_folded_map_on_contended_fabric(fabric):
    with pytest.raises(SimulationError, match="shared links"):
        SpmdEngine(_pmap(fabric).folded())


@pytest.mark.parametrize("fold", ["auto", "on"])
@pytest.mark.parametrize("fabric", CONTENDED)
def test_point_spec_rejects_fold_on_contended_fabric(fabric, fold):
    cluster = tiny_cluster(num_nodes=8, fabric=parse_fabric(fabric))
    with pytest.raises(ConfigurationError, match="shared links"):
        PointSpec.for_alltoall(cluster, 4, 8, "pairwise", 256, engine="simulate", fold=fold)
    with pytest.raises(ConfigurationError, match="shared links"):
        PointSpec.for_workload(cluster, 4, 8, "pairwise", uniform(32, 256),
                               engine="simulate", fold=fold)
    # fold="off" is unaffected.
    PointSpec.for_alltoall(cluster, 4, 8, "pairwise", 256, engine="simulate")


@pytest.mark.parametrize("fabric", [
    FatTreeFabric(hosts_per_switch=2, oversubscription=1.0),
    FatTreeFabric(hosts_per_switch=8, oversubscription=4.0),  # one edge switch
    DragonflyFabric(hosts_per_router=8, routers_per_group=2),  # one router
], ids=["fat-tree-oversub1", "fat-tree-one-switch", "dragonfly-one-router"])
@pytest.mark.parametrize("algorithm", ["pairwise", "node-aware"])
def test_link_free_fabrics_still_fold_bit_exactly(fabric, algorithm):
    pmap = _pmap(fabric)
    assert pmap.model_fabric_state is None
    full = run_alltoall(algorithm, pmap, 16384, fold="off")
    folded = run_alltoall(algorithm, pmap, 16384, fold="on")
    assert folded.fold is not None and folded.fold["multiplicity"] == 8
    assert folded.elapsed == full.elapsed
    assert folded.phase_times == full.phase_times
    assert folded.traffic_by_level == full.traffic_by_level
    assert folded.job.finish_times == full.job.finish_times[:pmap.ppn]


@pytest.mark.parametrize("fabric", [
    FullBisectionFabric(),
    FatTreeFabric(hosts_per_switch=2, oversubscription=1.0),
    FatTreeFabric(hosts_per_switch=4, oversubscription=2.0),
    DragonflyFabric(hosts_per_router=1, routers_per_group=2),
    DragonflyFabric(hosts_per_router=4, routers_per_group=2),
], ids=lambda fabric: fabric.describe())
def test_refusal_matches_built_link_state(fabric):
    """The rule is decided without building, and agrees with ``build``."""
    for num_nodes in range(1, 11):
        pmap = _pmap(fabric, num_nodes=num_nodes, ppn=1)
        refused = fabric_fold_refusal(pmap.cluster, num_nodes) is not None
        assert refused == (pmap.model_fabric_state is not None), num_nodes
