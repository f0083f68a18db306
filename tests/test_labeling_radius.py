"""Tests for imperfect labeling (Lemma 11) and radius reduction (Algorithm 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validation import validate_clustering
from repro.core import AlgorithmConfig, imperfect_labeling, reduce_radius
from repro.core.radius_reduction import _mutual_graph
from repro.selectors.wss import random_wss
from repro.simulation import SINRSimulator
from repro.simulation.schedule import run_schedule
from repro.sinr import deployment


@pytest.fixture(scope="module")
def config() -> AlgorithmConfig:
    return AlgorithmConfig.fast()


@pytest.fixture(scope="module")
def clustered_hotspots():
    """A hotspot network with the natural per-hotspot clustering installed."""
    network = deployment.gaussian_hotspots(3, 7, spread=0.12, separation=1.6, seed=21)
    ordered = sorted(network.uids, key=network.index_of)
    cluster_of = {}
    for position, uid in enumerate(ordered):
        cluster_of[uid] = ordered[(position // 7) * 7]  # first node of the hotspot
    return network, cluster_of


class TestImperfectLabeling:
    def test_labels_are_positive_and_bounded_by_gamma(self, clustered_hotspots, config):
        network, cluster_of = clustered_hotspots
        sim = SINRSimulator(network)
        gamma = 7
        labeling = imperfect_labeling(sim, network.uids, cluster_of, gamma, config)
        assert set(labeling.labels) == set(network.uids)
        assert all(label >= 1 for label in labeling.labels.values())
        assert labeling.max_label() <= gamma

    def test_label_multiplicity_is_constant_per_cluster(self, clustered_hotspots, config):
        network, cluster_of = clustered_hotspots
        sim = SINRSimulator(network)
        labeling = imperfect_labeling(sim, network.uids, cluster_of, 7, config)
        # Each cluster splits into O(1) sparsification trees, so each label
        # appears at most that constant number of times per cluster.
        assert labeling.multiplicity(cluster_of) <= 4

    def test_rounds_are_charged(self, clustered_hotspots, config):
        network, cluster_of = clustered_hotspots
        sim = SINRSimulator(network)
        labeling = imperfect_labeling(sim, network.uids, cluster_of, 7, config)
        assert labeling.rounds_used > 0
        assert sim.current_round == labeling.rounds_used

    def test_labels_within_tree_are_distinct(self, clustered_hotspots, config):
        network, cluster_of = clustered_hotspots
        sim = SINRSimulator(network)
        labeling = imperfect_labeling(sim, network.uids, cluster_of, 7, config)
        for root in labeling.forest.roots:
            members = labeling.forest.tree_of(root)
            labels = [labeling.labels[uid] for uid in members]
            assert len(labels) == len(set(labels))


class TestRadiusReduction:
    def test_two_clustering_becomes_one_clustering(self, config):
        network = deployment.gaussian_hotspots(2, 8, spread=0.15, separation=1.4, seed=8)
        sim = SINRSimulator(network)
        # Start from a deliberately coarse clustering: everyone in one cluster.
        coarse = {uid: network.uids[0] for uid in network.uids}
        result = reduce_radius(sim, network.uids, coarse, gamma=8, config=config, r=2.0)
        assert set(result.cluster_of) == set(network.uids)
        assert not result.unassigned
        report = validate_clustering(network, result.cluster_of, max_radius=1.2)
        assert report.valid_radius, f"max radius {report.max_radius}"

    def test_every_node_assigned_to_a_center_cluster(self, config):
        network = deployment.dense_ball(16, radius=0.45, seed=2)
        sim = SINRSimulator(network)
        coarse = {uid: network.uids[0] for uid in network.uids}
        result = reduce_radius(sim, network.uids, coarse, gamma=16, config=config, r=2.0)
        for uid, cluster in result.cluster_of.items():
            assert cluster in result.centers

    def test_centers_belong_to_their_own_cluster(self, config):
        network = deployment.dense_ball(12, radius=0.4, seed=4)
        sim = SINRSimulator(network)
        coarse = {uid: network.uids[0] for uid in network.uids}
        result = reduce_radius(sim, network.uids, coarse, gamma=12, config=config, r=2.0)
        for center in result.centers:
            if center in result.cluster_of:
                assert result.cluster_of[center] == center

    def test_rounds_used_recorded(self, config):
        network = deployment.dense_ball(10, radius=0.4, seed=6)
        sim = SINRSimulator(network)
        coarse = {uid: network.uids[0] for uid in network.uids}
        result = reduce_radius(sim, network.uids, coarse, gamma=10, config=config, r=2.0)
        assert result.rounds_used == sim.current_round
        assert result.iterations >= 1


def oracle_mutual_graph(result, nodes):
    """Graph G as per-listener sender sets: ``{u, v}`` is an edge iff each heard the other."""
    heard = {uid: set() for uid in nodes}
    for sender, receiver in zip(*(column.tolist() for column in result.delivery_pairs())):
        heard[receiver].add(sender)
    adjacency = {uid: set() for uid in nodes}
    for v in nodes:
        for u in heard[v]:
            if u in heard and v in heard[u]:
                adjacency[v].add(u)
                adjacency[u].add(v)
    return adjacency


class TestMutualGraph:
    """The columnar graph G of radius reduction against a set-based oracle."""

    @given(
        n=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=10**6),
        area=st.floats(min_value=0.8, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_mutual_pairs_match_set_oracle(self, n, seed, area):
        network = deployment.uniform_random(n, area_side=area, seed=seed)
        rng = np.random.default_rng(seed)
        survivors = {uid for uid in network.uids if rng.random() < 0.7} or {network.uids[0]}
        schedule = random_wss(network.id_space, 3, seed=seed, length=30)
        result = run_schedule(
            SINRSimulator(network), schedule, survivors, listeners=sorted(survivors)
        )
        graph = _mutual_graph(result, survivors)
        assert list(graph) == list(survivors)
        assert graph == oracle_mutual_graph(result, survivors)

    def test_oracle_is_not_vacuous(self):
        network = deployment.dense_ball(12, radius=0.4, seed=3)
        schedule = random_wss(network.id_space, 3, seed=3, length=30)
        result = run_schedule(SINRSimulator(network), schedule, network.uids)
        graph = _mutual_graph(result, set(network.uids))
        assert any(graph.values())
        assert graph == oracle_mutual_graph(result, set(network.uids))
