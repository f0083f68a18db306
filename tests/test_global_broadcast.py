"""Integration tests for global broadcast / SMSB (Algorithm 8, Theorem 3)."""

from __future__ import annotations

import pytest

from repro.core import global_broadcast, sms_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import deployment


@pytest.fixture(scope="module")
def strip_broadcast(fast_config):
    network = deployment.connected_strip(hops=5, nodes_per_hop=4, seed=3)
    sim = SINRSimulator(network)
    source = network.uids[0]
    result = global_broadcast(sim, source=source, config=fast_config)
    return network, sim, source, result


class TestGlobalBroadcast:
    def test_reaches_every_node(self, strip_broadcast):
        network, _, _, result = strip_broadcast
        assert result.reached_all(network)

    def test_every_awake_node_completed_local_broadcast(self, strip_broadcast):
        network, _, _, result = strip_broadcast
        assert result.delivered.served_fraction(network, senders=result.reached()) == 1.0

    def test_source_is_phase_zero(self, strip_broadcast):
        _, _, source, result = strip_broadcast
        assert result.phase_of(source) == 0

    def test_wakeup_phases_respect_hop_distance(self, strip_broadcast):
        network, _, source, result = strip_broadcast
        layers = network.bfs_layers(source)
        for uid, phase in result.awakened_in_phase.items():
            if uid == source:
                continue
            # The paper's invariant: after phase i every node within graph
            # distance i is awake, i.e. the wake-up phase never exceeds the
            # hop distance (it can be smaller because reception reaches up to
            # distance 1 while graph edges stop at 1 - eps).
            assert phase <= layers[uid]

    def test_phase_count_close_to_diameter(self, strip_broadcast):
        network, _, source, result = strip_broadcast
        diameter = network.diameter_hops(source)
        awakening_phases = [p for p in result.phases if p.newly_awakened > 0]
        assert diameter // 2 <= len(awakening_phases) <= diameter + 2

    def test_every_awake_node_has_a_cluster(self, strip_broadcast):
        network, _, _, result = strip_broadcast
        for uid in result.reached():
            assert uid in result.cluster_of

    def test_rounds_recorded_on_simulator(self, strip_broadcast):
        _, sim, _, result = strip_broadcast
        assert result.rounds_used == sim.current_round
        assert result.rounds_used > 0

    def test_phase_stats_are_consistent(self, strip_broadcast):
        _, _, _, result = strip_broadcast
        total_awakened = sum(p.newly_awakened for p in result.phases)
        assert total_awakened == len(result.reached()) - len(result.sources)


class TestSMSBroadcast:
    def test_multiple_distant_sources(self, fast_config):
        network = deployment.line(9)
        sim = SINRSimulator(network)
        sources = [network.uids[0], network.uids[-1]]
        result = sms_broadcast(sim, sources, config=fast_config)
        assert result.reached_all(network)
        # With sources at both ends the wave needs roughly half the phases.
        single_network = deployment.line(9)
        single = global_broadcast(
            SINRSimulator(single_network), source=single_network.uids[0], config=fast_config
        )
        assert len([p for p in result.phases if p.newly_awakened]) <= len(
            [p for p in single.phases if p.newly_awakened]
        )

    def test_empty_source_set_is_a_noop(self, fast_config):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        result = sms_broadcast(sim, [], config=fast_config)
        assert result.reached() == set()
        assert sim.current_round == 0

    def test_single_node_network(self, fast_config):
        network = deployment.line(1)
        sim = SINRSimulator(network)
        result = global_broadcast(sim, source=network.uids[0], config=fast_config)
        assert result.reached_all(network)

    def test_disconnected_network_reaches_only_component(self, fast_config):
        network = deployment.line(6, spacing=2.0)  # no edges at all
        sim = SINRSimulator(network)
        result = global_broadcast(sim, source=network.uids[0], config=fast_config)
        assert not result.reached_all(network)
        assert result.reached() == {network.uids[0]}

    def test_max_phases_limits_progress(self, fast_config):
        network = deployment.line(8)
        sim = SINRSimulator(network)
        result = global_broadcast(sim, source=network.uids[0], config=fast_config, max_phases=1)
        assert not result.reached_all(network)
