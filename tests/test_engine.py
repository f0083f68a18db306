"""Tests for the round engine (repro.simulation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.engine import SINRSimulator
from repro.sinr.network import WirelessNetwork


def path_network(n: int = 4, spacing: float = 0.7) -> WirelessNetwork:
    positions = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return WirelessNetwork(positions)


class TestRunRound:
    def test_single_transmitter_reaches_neighbor(self):
        sim = SINRSimulator(path_network())
        delivered = sim.run_round([1])
        assert delivered[2] == 1
        assert sim.current_round == 1
        assert sim.messages_sent == 1
        assert sim.messages_delivered >= 1

    def test_transmitter_does_not_hear_itself(self):
        sim = SINRSimulator(path_network())
        delivered = sim.run_round([1])
        assert 1 not in delivered

    def test_empty_round_advances_counter(self):
        sim = SINRSimulator(path_network())
        assert sim.run_round([]) == {}
        assert sim.current_round == 1

    def test_listeners_restriction(self):
        sim = SINRSimulator(path_network())
        delivered = sim.run_round([1], listeners=[3])
        assert 2 not in delivered

    @pytest.mark.parametrize("unknown", [0, 1000, 3])
    def test_unknown_listener_raises_key_error(self, unknown):
        # uid 3 is inside the id space but belongs to no node.
        network = WirelessNetwork(
            np.column_stack([np.arange(3) * 0.7, np.zeros(3)]), uids=[1, 2, 4]
        )
        sim = SINRSimulator(network)
        with pytest.raises(KeyError) as caught:
            sim.run_round([1], listeners=[2, unknown])
        assert caught.value.args == (unknown,)

    def test_fractional_transmitter_uid_raises_key_error(self):
        sim = SINRSimulator(path_network())
        with pytest.raises(KeyError):
            sim.run_round([2.5])
        with pytest.raises(KeyError):
            sim.run_schedule_table(1, np.array([0]), np.array([2.5]))
        assert sim.current_round == 0 and sim.messages_sent == 0

    def test_sleeping_nodes_do_not_listen_by_default(self):
        sim = SINRSimulator(path_network())
        sim.put_all_to_sleep(except_for=[1])
        delivered = sim.run_round([1])
        assert delivered == {}

    def test_sleeping_nodes_dropped_from_explicit_listeners(self):
        # Non-spontaneous wake-up model: a sleeping node cannot decode a
        # message without waking, even when named as a listener explicitly.
        network = path_network()
        sim = SINRSimulator(network)
        sim.put_all_to_sleep(except_for=[1])
        delivered = sim.run_round([1], listeners=network.uids)
        assert delivered == {}
        assert not sim.is_awake(2)

    def test_wake_on_reception_wakes_decoding_sleepers(self):
        network = path_network()
        sim = SINRSimulator(network)
        sim.put_all_to_sleep(except_for=[1])
        delivered = sim.run_round([1], listeners=network.uids, wake_on_reception=True)
        assert 2 in delivered
        assert sim.is_awake(2)
        # Node 4 is out of range of node 1 and must stay asleep.
        assert not sim.is_awake(4)

    def test_run_silent_rounds(self):
        sim = SINRSimulator(path_network())
        sim.run_silent_rounds(10)
        assert sim.current_round == 10
        with pytest.raises(ValueError):
            sim.run_silent_rounds(-1)

    def test_reset_counters(self):
        sim = SINRSimulator(path_network())
        sim.run_round([1])
        sim.reset_counters()
        assert sim.current_round == 0
        assert sim.messages_sent == 0


class TestWakefulness:
    def test_put_all_to_sleep_and_wake(self):
        sim = SINRSimulator(path_network())
        sim.put_all_to_sleep(except_for=[2])
        assert sim.awake_nodes() == [2]
        assert set(sim.sleeping_nodes()) == {1, 3, 4}
        sim.wake([3])
        assert sim.is_awake(3)
        assert not sim.is_awake(4)

    def test_wake_state_belongs_to_one_simulator(self):
        network = path_network()
        SINRSimulator(network).put_all_to_sleep(except_for=[2])
        assert SINRSimulator(network).sleeping_nodes() == []
