"""Integration tests for the clustering algorithm (Algorithm 6, Theorem 1)."""

from __future__ import annotations

from repro.analysis.validation import validate_clustering
from repro.core import build_clustering
from repro.simulation import SINRSimulator
from repro.sinr import deployment


class TestClusteringOnHotspots:
    def test_every_node_gets_a_cluster(self, clustering_on_hotspots, hotspot_network):
        _, result = clustering_on_hotspots
        assert set(result.cluster_of) == set(hotspot_network.uids)

    def test_clusters_fit_in_constant_radius_balls(self, clustering_on_hotspots, hotspot_network):
        _, result = clustering_on_hotspots
        report = validate_clustering(hotspot_network, result.cluster_of, max_radius=2.0)
        assert report.valid_radius, f"max cluster radius {report.max_radius:.2f}"

    def test_unit_balls_meet_constantly_many_clusters(
        self, clustering_on_hotspots, hotspot_network
    ):
        _, result = clustering_on_hotspots
        report = validate_clustering(hotspot_network, result.cluster_of, max_radius=2.0)
        assert report.valid_overlap, (
            f"{report.max_clusters_per_unit_ball} clusters meet one unit ball"
        )

    def test_rounds_are_positive_and_recorded_on_simulator(self, clustering_on_hotspots):
        sim, result = clustering_on_hotspots
        assert result.rounds_used > 0
        assert sim.current_round >= result.rounds_used

    def test_sparse_roots_are_a_subset_of_participants(
        self, clustering_on_hotspots, hotspot_network
    ):
        _, result = clustering_on_hotspots
        assert result.sparse_roots
        assert result.sparse_roots <= set(hotspot_network.uids)

    def test_level_stats_describe_monotone_shrinkage(self, clustering_on_hotspots):
        _, result = clustering_on_hotspots
        assert result.level_stats
        for stats in result.level_stats:
            assert stats.active_after <= stats.active_before
            assert stats.removed == stats.active_before - stats.active_after

    def test_clusters_helper_partitions_nodes(self, clustering_on_hotspots, hotspot_network):
        _, result = clustering_on_hotspots
        clusters = result.clusters()
        total = sum(len(members) for members in clusters.values())
        assert total == hotspot_network.size
        assert result.cluster_count() == len(clusters)


class TestClusteringOnOtherDeployments:
    def test_uniform_network(self, small_uniform_network, fast_config):
        sim = SINRSimulator(small_uniform_network)
        result = build_clustering(sim, config=fast_config)
        report = validate_clustering(small_uniform_network, result.cluster_of, max_radius=2.0)
        assert report.valid, (
            f"radius {report.max_radius:.2f}, overlap {report.max_clusters_per_unit_ball}"
        )

    def test_line_network_forms_small_clusters(self, fast_config):
        network = deployment.line(8)
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=fast_config)
        report = validate_clustering(network, result.cluster_of, max_radius=2.0)
        assert report.valid
        assert result.cluster_count() >= 2

    def test_single_node_network(self, fast_config):
        network = deployment.line(1)
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=fast_config)
        assert result.cluster_of == {network.uids[0]: network.uids[0]}
        assert result.rounds_used == 0

    def test_two_node_network(self, fast_config):
        network = deployment.line(2)
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=fast_config)
        assert set(result.cluster_of) == set(network.uids)

    def test_deterministic_given_seeded_network_and_config(self, fast_config):
        network_a = deployment.gaussian_hotspots(2, 6, spread=0.12, separation=1.5, seed=33)
        network_b = deployment.gaussian_hotspots(2, 6, spread=0.12, separation=1.5, seed=33)
        result_a = build_clustering(SINRSimulator(network_a), config=fast_config)
        result_b = build_clustering(SINRSimulator(network_b), config=fast_config)
        assert result_a.cluster_of == result_b.cluster_of
        assert result_a.rounds_used == result_b.rounds_used

    def test_explicit_participant_subset(self, fast_config):
        network = deployment.uniform_random(20, area_side=2.0, seed=17)
        sim = SINRSimulator(network)
        subset = network.uids[:10]
        result = build_clustering(sim, participants=subset, config=fast_config)
        assert set(result.cluster_of) == set(subset)
