"""Edge-case and secondary-path tests across modules.

Covers branches the main suites do not reach: degenerate participant sets,
non-default options of helpers, result-object conveniences, and defensive
validation errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AlgorithmConfig, build_clustering, reduce_radius, sparsify
from repro.lowerbound import round_robin_algorithm, schedule_algorithm
from repro.selectors.ssf import prime_residue_ssf, round_robin_schedule
from repro.simulation import SINRSimulator
from repro.simulation.schedule import run_schedule
from repro.sinr import deployment
from repro.sinr.network import WirelessNetwork


@pytest.fixture(scope="module")
def config():
    return AlgorithmConfig.fast()


class TestPrimitivesHelpers:
    def test_prime_residue_ssf_handles_tiny_id_space(self):
        schedule = prime_residue_ssf(1, 3)
        assert len(schedule) >= 1
        assert schedule.rounds_of(1)


class TestSparsificationEdgeCases:
    def test_empty_participant_set(self, config):
        network = deployment.line(3)
        sim = SINRSimulator(network)
        level = sparsify(sim, [], 4, config, cluster_of={})
        assert level.surviving == set()
        assert level.removed == set()

    def test_two_close_nodes_one_becomes_child(self, config):
        network = deployment.line(2, spacing=0.1)
        sim = SINRSimulator(network)
        cluster_of = {uid: 1 for uid in network.uids}
        level = sparsify(sim, network.uids, 2, config, cluster_of=cluster_of)
        assert len(level.surviving) == 1
        assert len(level.removed) == 1
        child = next(iter(level.removed))
        assert level.parent_of(child) in level.surviving
        assert level.parent_of(next(iter(level.surviving))) is None


class TestRadiusReductionEdgeCases:
    def test_single_node_set(self, config):
        network = deployment.line(3)
        sim = SINRSimulator(network)
        only = network.uids[0]
        result = reduce_radius(sim, [only], {only: only}, gamma=2, config=config)
        assert result.cluster_of == {only: only}

    def test_already_fine_clustering_stays_one_per_ball(self, config):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        singleton = {uid: uid for uid in network.uids}
        result = reduce_radius(sim, network.uids, singleton, gamma=2, config=config)
        # Every node ends up assigned to a centre within distance 1.
        for uid, center in result.cluster_of.items():
            dx = np.array(network.position_of(uid)) - np.array(network.position_of(center))
            assert np.linalg.norm(dx) <= 1.0 + 1e-9


class TestClusteringEdgeCases:
    def test_explicit_gamma_override(self, config):
        network = deployment.dense_ball(10, radius=0.3, seed=9)
        sim = SINRSimulator(network)
        result = build_clustering(sim, gamma=4, config=config)
        assert set(result.cluster_of) == set(network.uids)

    def test_isolated_nodes_become_singleton_clusters(self, config):
        positions = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0]])
        network = WirelessNetwork(positions)
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=config)
        isolated = network.uids[2]
        assert result.cluster_of[isolated] == isolated


class TestLowerBoundAlgorithms:
    def test_schedule_algorithm_without_repetition_stops(self):
        schedule = round_robin_schedule(4)
        algorithm = schedule_algorithm(schedule, repeat=False)
        assert algorithm.transmits(2, 2)
        assert not algorithm.transmits(2, 6)  # beyond the schedule, no repeat

    def test_round_robin_algorithm_name(self):
        assert "round-robin" in round_robin_algorithm(8).name


class TestScheduleRunnerListeners:
    def test_explicit_listener_subset(self):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(
            sim, schedule, participants=[network.uids[0]], listeners=[network.uids[2]]
        )
        # The only allowed listener is two hops away, so nothing is received.
        assert len(result.event_table()[0]) == 0

    def test_message_objects_are_passed_through(self):
        network = deployment.line(2)
        sim = SINRSimulator(network)
        delivered = sim.run_round([network.uids[0]])
        assert delivered == {network.uids[1]: network.uids[0]}
