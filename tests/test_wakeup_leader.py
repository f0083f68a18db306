"""Tests for the wake-up problem (Theorem 4) and leader election (Theorem 5)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.api import ALGORITHMS, catalog
from repro.core import GlobalBroadcastResult, elect_leader, solve_wakeup
from repro.simulation import SINRSimulator
from repro.sinr import deployment


class TestWakeup:
    def test_all_nodes_activated(self, fast_config):
        network = deployment.connected_strip(hops=4, nodes_per_hop=3, seed=5)
        sim = SINRSimulator(network)
        spontaneous = {network.uids[0]: 0, network.uids[5]: 2}
        result = solve_wakeup(sim, spontaneous, config=fast_config, period=4)
        assert result.all_active(network)

    def test_spontaneous_nodes_keep_their_wakeup_round(self, fast_config):
        network = deployment.line(6)
        sim = SINRSimulator(network)
        spontaneous = {network.uids[0]: 3, network.uids[2]: 5}
        result = solve_wakeup(sim, spontaneous, config=fast_config, period=8)
        assert result.activation_round[network.uids[0]] == 3
        assert result.activation_round[network.uids[2]] == 5

    def test_broadcast_activated_nodes_come_after_execution_start(self, fast_config):
        network = deployment.line(5)
        sim = SINRSimulator(network)
        spontaneous = {network.uids[0]: 1}
        result = solve_wakeup(sim, spontaneous, config=fast_config, period=4)
        for uid, activation in result.activation_round.items():
            if uid in spontaneous:
                continue
            assert activation >= result.execution_start

    def test_execution_start_is_aligned_to_period(self, fast_config):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        result = solve_wakeup(sim, {network.uids[0]: 5}, config=fast_config, period=7)
        assert result.execution_start % 7 == 0
        assert result.execution_start >= 5

    def test_requires_at_least_one_spontaneous_node(self, fast_config):
        network = deployment.line(3)
        sim = SINRSimulator(network)
        with pytest.raises(ValueError):
            solve_wakeup(sim, {}, config=fast_config)

    def test_latency_counts_from_first_spontaneous_wakeup(self, fast_config):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        result = solve_wakeup(sim, {network.uids[0]: 2}, config=fast_config, period=4)
        assert result.latency() >= 0


class TestLeaderElection:
    @pytest.fixture(scope="class")
    def election(self, fast_config):
        # Leader election (like the paper's algorithm) assumes a connected
        # communication graph; the ring-of-clusters deployment guarantees it.
        network = deployment.two_hop_clusters(3, 5, seed=41)
        assert network.is_connected()
        sim = SINRSimulator(network)
        result = elect_leader(sim, config=fast_config)
        return network, result

    def test_exactly_one_leader_from_candidate_set(self, election):
        _, result = election
        assert result.leader in result.candidates

    def test_leader_is_smallest_candidate_id(self, election):
        _, result = election
        # The binary search narrows onto the smallest candidate identifier.
        assert result.leader == min(result.candidates)

    def test_probe_count_is_logarithmic_in_id_space(self, election):
        network, result = election
        assert result.probe_count() <= math.ceil(math.log2(network.id_space)) + 1

    def test_rounds_recorded(self, election):
        _, result = election
        assert result.rounds_used > 0

    def test_elected_needs_the_smallest_candidate_and_a_complete_announce(self, election):
        network, result = election
        assert result.elected(network)
        wrong = max(set(network.uids) - {min(result.candidates)})
        assert not dataclasses.replace(result, leader=wrong).elected(network)
        failed = GlobalBroadcastResult(sources={result.leader}, awakened_in_phase={result.leader: 0})
        assert not failed.reached_all(network)
        assert not dataclasses.replace(result, announce=failed).elected(network)

    @pytest.mark.parametrize("fault", ["wrong-leader", "failed-announce"])
    def test_catalog_check_turns_false(self, election, fast_config, monkeypatch, fault):
        network, result = election
        if fault == "wrong-leader":
            doctored = dataclasses.replace(result, leader=max(set(network.uids) - {result.leader}))
        else:
            failed = GlobalBroadcastResult(sources={result.leader}, awakened_in_phase={result.leader: 0})
            doctored = dataclasses.replace(result, announce=failed)
        monkeypatch.setattr(catalog, "elect_leader", lambda sim, config: doctored)
        outcome = ALGORITHMS.get("leader-election").fn(SINRSimulator(network), fast_config)
        assert outcome.checks == {"leader_elected": False}

    def test_single_node_network_elects_itself(self, fast_config):
        network = deployment.line(1)
        sim = SINRSimulator(network)
        result = elect_leader(sim, config=fast_config)
        assert result.leader == network.uids[0]
