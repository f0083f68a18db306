"""Integration tests for local broadcast (Algorithm 7, Theorem 2)."""

from __future__ import annotations

import pytest

from repro.analysis.validation import validate_clustering
from repro.core import local_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import deployment


class TestLocalBroadcastOnUniform:
    def test_every_neighbor_pair_served(self, local_broadcast_on_uniform, small_uniform_network):
        _, result = local_broadcast_on_uniform
        senders, receivers = result.delivered.missing(small_uniform_network)
        assert not len(senders), f"unserved (sender, neighbour) pairs: {list(zip(senders, receivers))}"

    def test_completed_helpers_agree(self, local_broadcast_on_uniform, small_uniform_network):
        _, result = local_broadcast_on_uniform
        assert not len(result.delivered.missing(small_uniform_network)[0])
        assert result.delivered.served_fraction(small_uniform_network) == pytest.approx(1.0)

    def test_stage_round_counters_sum_to_total(self, local_broadcast_on_uniform):
        _, result = local_broadcast_on_uniform
        assert result.rounds_used == (
            result.rounds_clustering + result.rounds_labeling + result.rounds_transmission
        )
        assert result.rounds_transmission > 0

    def test_underlying_clustering_is_valid(
        self, local_broadcast_on_uniform, small_uniform_network
    ):
        _, result = local_broadcast_on_uniform
        report = validate_clustering(small_uniform_network, result.clustering.cluster_of, max_radius=2.0)
        assert report.valid

    def test_labels_cover_all_nodes(self, local_broadcast_on_uniform, small_uniform_network):
        _, result = local_broadcast_on_uniform
        assert set(result.labeling.labels) == set(small_uniform_network.uids)


class TestLocalBroadcastVariants:
    def test_extra_sweeps_add_rounds(self, fast_config):
        network = deployment.line(4)
        base = local_broadcast(SINRSimulator(network), config=fast_config, extra_sweeps=0)
        repeated_network = deployment.line(4)
        repeated = local_broadcast(
            SINRSimulator(repeated_network), config=fast_config, extra_sweeps=1
        )
        assert repeated.rounds_transmission > base.rounds_transmission

    def test_receivers_of_unknown_node_is_empty(self, local_broadcast_on_uniform):
        _, result = local_broadcast_on_uniform
        assert result.delivered.receivers_of(10**9) == set()

    def test_hotspot_network_served(self, fast_config):
        network = deployment.gaussian_hotspots(2, 7, spread=0.15, separation=1.5, seed=19)
        sim = SINRSimulator(network)
        result = local_broadcast(sim, config=fast_config)
        senders, receivers = result.delivered.missing(network)
        assert not len(senders), f"unserved pairs: {list(zip(senders, receivers))}"
