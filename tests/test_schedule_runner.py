"""Tests for schedule execution against the simulator (repro.simulation.schedule)."""

from __future__ import annotations

import numpy as np

from repro.core.radius_reduction import _mutual_graph
from repro.selectors.ssf import TransmissionSchedule, round_robin_schedule
from repro.selectors.wcss import ClusterAwareSchedule
from repro.simulation.engine import SINRSimulator
from repro.simulation.schedule import run_cluster_schedule, run_round_robin, run_schedule
from repro.sinr.network import WirelessNetwork


def path_network(n: int = 4, spacing: float = 0.7) -> WirelessNetwork:
    positions = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return WirelessNetwork(positions)


class TestRunSchedule:
    def test_round_robin_schedule_serves_all_neighbors(self):
        network = path_network(4)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(sim, schedule, participants=network.uids)
        assert sim.current_round == len(schedule)
        heard = set(zip(*(column.tolist() for column in result.delivery_pairs())))
        for uid in network.uids:
            for neighbor in network.neighbors(uid):
                assert (uid, neighbor) in heard

    def test_only_participants_transmit(self):
        network = path_network(4)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(sim, schedule, participants=[2])
        tx_rounds, tx_uids = result.transmitter_table()
        assert tx_uids.tolist() == [2]
        assert tx_rounds.tolist() == [t for t, r in enumerate(schedule.rounds) if 2 in r]

    def test_empty_rounds_are_charged_but_not_evaluated(self):
        network = path_network(3)
        sim = SINRSimulator(network)
        schedule = TransmissionSchedule(
            id_space=network.id_space,
            rounds=(frozenset({1}), frozenset({network.id_space}), frozenset({2})),
        )
        run_schedule(sim, schedule, participants=[1, 2])
        assert sim.current_round == 3

    def test_exchanged_requires_both_directions(self):
        network = path_network(3)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(sim, schedule, participants=network.uids)
        graph = _mutual_graph(result, network.uids)
        assert 2 in graph[1] and 1 in graph[2]
        assert 3 not in graph[1]  # two hops apart


class TestRunClusterSchedule:
    def test_cluster_gating(self):
        network = path_network(3)
        sim = SINRSimulator(network)
        schedule = ClusterAwareSchedule(
            id_space=network.id_space,
            node_rounds=(frozenset({1, 2}), frozenset({1, 2})),
            cluster_rounds=(frozenset({7}), frozenset({8})),
        )
        cluster_of = {1: 7, 2: 8}
        result = run_cluster_schedule(sim, schedule, [1, 2], cluster_of=cluster_of)
        tx_rounds, tx_uids = result.transmitter_table()
        assert list(zip(tx_rounds.tolist(), tx_uids.tolist())) == [(0, 1), (1, 2)]
        assert sim.current_round == 2


class TestRunRoundRobin:
    def test_one_round_per_participant(self):
        network = path_network(4)
        sim = SINRSimulator(network)
        result = run_round_robin(sim, [3, 1])
        assert sim.current_round == 2
        tx_rounds, tx_uids = result.transmitter_table()
        assert list(zip(tx_rounds.tolist(), tx_uids.tolist())) == [(0, 1), (1, 3)]


class TestColumnarResultViews:
    def test_receptions_view_matches_heard_by(self):
        network = path_network(4)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(sim, schedule, network.uids)
        rounds, senders, receivers = result.event_table()
        # Interference-free: each listener hears each neighbour in its round.
        for uid in network.uids:
            mask = receivers == uid
            assert list(zip(rounds[mask].tolist(), senders[mask].tolist())) == [
                (schedule.rounds_of(neighbor)[0], neighbor)
                for neighbor in sorted(network.neighbors(uid))
            ]

    def test_delivery_pairs_consistent_with_counters(self):
        network = path_network(5)
        sim = SINRSimulator(network)
        result = run_schedule(sim, round_robin_schedule(network.id_space), network.uids)
        senders, receivers = result.delivery_pairs()
        assert len(senders) == len(receivers) == sim.messages_delivered

    def test_transmitter_table_matches_transmitted_rounds(self):
        network = path_network(4)
        sim = SINRSimulator(network)
        schedule = round_robin_schedule(network.id_space)
        result = run_schedule(sim, schedule, [2, 4])
        tx_rounds, tx_uids = result.transmitter_table()
        assert list(zip(tx_rounds.tolist(), tx_uids.tolist())) == [
            (t, uid) for t, allowed in enumerate(schedule.rounds) for uid in sorted(allowed & {2, 4})
        ]

