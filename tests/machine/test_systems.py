"""Tests for repro.machine.systems (Table 1 presets)."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.hierarchy import LocalityLevel
from repro.machine.params import MachineParameters
from repro.machine.systems import (
    amber,
    dane,
    get_system,
    list_systems,
    mi300a_node,
    sapphire_rapids_node,
    tiny_cluster,
    tuolomne,
)
from repro.netsim.fabric import FatTreeFabric, FullBisectionFabric, parse_fabric


class TestNodeArchitectures:
    def test_sapphire_rapids_core_count(self):
        # Table 1 / Section 1: 112 cores per node, 2 sockets, 4 NUMA per socket.
        node = sapphire_rapids_node()
        assert node.cores_per_node == 112
        assert node.sockets == 2
        assert node.numa_domains == 8
        assert node.cores_per_numa == 14

    def test_mi300a_core_count(self):
        # Table 1 / Section 1: 96 cores per node on Tuolomne.
        node = mi300a_node()
        assert node.cores_per_node == 96


class TestPresets:
    def test_default_node_counts(self):
        # The paper's largest evaluation scale is 32 nodes.
        assert dane().num_nodes == 32
        assert amber().num_nodes == 32
        assert tuolomne().num_nodes == 32

    def test_custom_node_count(self):
        assert dane(2).num_nodes == 2

    def test_dane_and_amber_share_architecture(self):
        assert dane().node == amber().node
        assert dane().cores_per_node == 112

    def test_amber_slower_than_dane(self):
        # Amber's older libfabric shows up as slightly higher latency.
        assert amber().params.latency(LocalityLevel.NETWORK) > dane().params.latency(
            LocalityLevel.NETWORK
        )

    def test_tuolomne_uses_mi300a_and_slingshot(self):
        cluster = tuolomne()
        assert cluster.cores_per_node == 96
        assert "Slingshot" in cluster.network_name
        assert cluster.params.injection_bandwidth > dane().params.injection_bandwidth

    def test_network_slower_than_intra_node_everywhere(self):
        for cluster in (dane(), amber(), tuolomne(), tiny_cluster()):
            params = cluster.params
            assert params.latency(LocalityLevel.NETWORK) > params.latency(LocalityLevel.NUMA)

    def test_describe_reports_system_mpi(self):
        assert "OpenMPI" in dane().describe()
        assert "MPICH" in tuolomne().describe()


class TestRegistry:
    def test_list_systems(self):
        names = list_systems()
        assert {"dane", "amber", "tuolomne", "tiny"} <= set(names)

    def test_get_system_case_insensitive(self):
        assert get_system("DANE").name == "dane"

    def test_get_system_with_node_count(self):
        assert get_system("amber", 4).num_nodes == 4

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown system"):
            get_system("frontier")


class TestTinyCluster:
    def test_default_shape(self):
        cluster = tiny_cluster()
        assert cluster.num_nodes == 4
        assert cluster.cores_per_node == 8

    def test_custom_shape(self):
        cluster = tiny_cluster(num_nodes=2, sockets=1, numa_per_socket=2, cores_per_numa=3)
        assert cluster.cores_per_node == 6
        assert cluster.num_nodes == 2

    def test_parameters_object_available(self):
        assert isinstance(tiny_cluster().params, MachineParameters)


class TestPresetFabrics:
    def test_every_preset_defaults_to_full_bisection(self):
        for factory in (dane, amber, tuolomne, tiny_cluster):
            assert factory().fabric == FullBisectionFabric()

    def test_every_preset_accepts_a_fabric_override(self):
        spec = FatTreeFabric(hosts_per_switch=2, oversubscription=2)
        for factory in (dane, amber, tuolomne, tiny_cluster):
            cluster = factory(4, fabric=spec)
            assert cluster.fabric == spec
            assert "fat-tree" in cluster.describe()

    def test_get_system_fabric_parameter(self):
        spec = parse_fabric("dragonfly:hosts=2,routers=2,taper=4")
        assert get_system("tuolomne", 8, fabric=spec).fabric == spec
        # Without an override the preset keeps its default.
        assert get_system("tuolomne", 8).fabric == FullBisectionFabric()

    def test_fabric_override_keeps_params_identical(self):
        spec = FatTreeFabric(hosts_per_switch=2, oversubscription=2)
        assert dane(4, fabric=spec).params == dane(4).params
