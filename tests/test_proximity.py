"""Tests for the proximity-graph construction (Algorithm 1, Lemma 7)."""

from __future__ import annotations

import pytest

from repro.analysis.validation import proximity_graph_covers_close_pairs
from repro.core import AlgorithmConfig, build_proximity_graph, distributed_mis, neighbor_exchange
from repro.core.primitives import run_sns, sns_for, wcss_for, wss_for
from repro.selectors.mis import is_maximal_independent_set
from repro.simulation import SINRSimulator
from repro.sinr import deployment
from repro.sinr.network import WirelessNetwork


@pytest.fixture(scope="module")
def config() -> AlgorithmConfig:
    return AlgorithmConfig.fast()


@pytest.fixture(scope="module")
def dense_network() -> WirelessNetwork:
    return deployment.dense_ball(18, radius=0.4, seed=7)


@pytest.fixture(scope="module")
def unclustered_graph(dense_network, config):
    sim = SINRSimulator(dense_network)
    graph = build_proximity_graph(sim, dense_network.uids, config)
    return sim, graph


class TestUnclusteredProximityGraph:
    def test_covers_all_close_pairs(self, dense_network, unclustered_graph):
        _, graph = unclustered_graph
        ok, missing = proximity_graph_covers_close_pairs(
            dense_network, graph.adjacency, dense_network.uids
        )
        assert ok, f"close pairs missing from proximity graph: {missing}"

    def test_degree_is_bounded_by_candidate_cap(self, unclustered_graph, config):
        _, graph = unclustered_graph
        assert graph.max_degree() <= config.effective_candidate_cap

    def test_edges_are_symmetric(self, unclustered_graph):
        _, graph = unclustered_graph
        for u, v in graph.edges():
            assert graph.has_edge(u, v) and graph.has_edge(v, u)

    def test_rounds_charged_at_least_schedule_length(self, unclustered_graph):
        sim, graph = unclustered_graph
        assert graph.rounds_used >= graph.schedule_length
        assert sim.current_round >= graph.rounds_used

    def test_empty_participants(self, dense_network, config):
        sim = SINRSimulator(dense_network)
        graph = build_proximity_graph(sim, [], config)
        assert graph.edges() == []
        assert sim.current_round == 0


class TestClusteredProximityGraph:
    def test_edges_stay_within_clusters(self, config):
        network = deployment.gaussian_hotspots(2, 8, spread=0.12, separation=1.4, seed=9)
        sim = SINRSimulator(network)
        # Assign clusters by hotspot membership (nodes 1..8 vs 9..16 in index order).
        cluster_of = {}
        for index, uid in enumerate(sorted(network.uids, key=network.index_of)):
            cluster_of[uid] = 1 if index < 8 else 2
        graph = build_proximity_graph(sim, network.uids, config, cluster_of=cluster_of)
        for u, v in graph.edges():
            assert cluster_of[u] == cluster_of[v]

    def test_covers_close_pairs_within_clusters(self, config):
        network = deployment.dense_ball(14, radius=0.35, seed=3)
        sim = SINRSimulator(network)
        cluster_of = {uid: 1 for uid in network.uids}
        graph = build_proximity_graph(sim, network.uids, config, cluster_of=cluster_of)
        ok, missing = proximity_graph_covers_close_pairs(
            network, graph.adjacency, network.uids, cluster_of=cluster_of
        )
        assert ok, f"close pairs missing: {missing}"


class TestNeighborExchangeAndMIS:
    def test_neighbor_exchange_charges_one_schedule_length(self, unclustered_graph):
        sim, graph = unclustered_graph
        before = sim.current_round
        neighbor_exchange(sim, graph)
        assert sim.current_round == before + graph.schedule_length

    def test_distributed_mis_is_maximal_on_proximity_graph(self, unclustered_graph, config):
        sim, graph = unclustered_graph
        mis = distributed_mis(sim, graph, config)
        adjacency = {uid: graph.neighbors(uid) for uid in graph.participants}
        assert is_maximal_independent_set(adjacency, mis)


class TestPrimitives:
    def test_selector_caches_return_same_object(self, config):
        assert wss_for(128, config) is wss_for(128, config)
        assert wcss_for(128, config) is wcss_for(128, config)
        assert sns_for(128, config) is sns_for(128, config)

    def test_sns_serves_constant_density_participants(self, config):
        network = deployment.line(6)
        sim = SINRSimulator(network)
        outcome = run_sns(sim, network.uids, config)
        heard = set(zip(*(column.tolist() for column in outcome.result.delivery_pairs())))
        # Density along the line is tiny, so every node must reach its neighbours.
        for uid in network.uids:
            for neighbor in network.neighbors(uid):
                assert (uid, neighbor) in heard

    def test_sns_rounds_accounted(self, config):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        outcome = run_sns(sim, network.uids, config)
        assert outcome.rounds == sim.current_round
        assert outcome.rounds == len(sns_for(network.id_space, config))
