"""Tests for WirelessNetwork (repro.sinr.network)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sinr.model import SINRParameters
from repro.sinr.network import WirelessNetwork


def line_positions(n: int, spacing: float = 0.7) -> np.ndarray:
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class TestConstruction:
    def test_default_uids_are_one_based(self):
        network = WirelessNetwork(line_positions(4))
        assert network.uids == [1, 2, 3, 4]

    def test_custom_uids_respected(self):
        network = WirelessNetwork(line_positions(3), uids=[10, 20, 30])
        assert network.uids == [10, 20, 30]
        assert network.index_of(20) == 1
        assert network.uid_of(2) == 30

    def test_rejects_duplicate_uids(self):
        with pytest.raises(ValueError):
            WirelessNetwork(line_positions(3), uids=[1, 1, 2])

    def test_rejects_nonpositive_uids(self):
        with pytest.raises(ValueError):
            WirelessNetwork(line_positions(2), uids=[0, 1])

    def test_rejects_id_space_smaller_than_max_uid(self):
        with pytest.raises(ValueError):
            WirelessNetwork(line_positions(2), uids=[1, 50], id_space=10)

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            WirelessNetwork(np.zeros((0, 2)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            WirelessNetwork(np.zeros((3, 3)))

    def test_default_id_space_is_polynomial_in_n(self):
        network = WirelessNetwork(line_positions(10))
        assert network.id_space >= 4 * 10

    def test_size_and_len(self):
        network = WirelessNetwork(line_positions(5))
        assert network.size == 5
        assert len(network) == 5


class TestCommunicationGraph:
    def test_line_graph_is_a_path(self):
        params = SINRParameters.default()
        network = WirelessNetwork(line_positions(5, spacing=0.7), params=params)
        # spacing 0.7 <= 1 - eps = 0.8, but 1.4 > 0.8: consecutive only
        assert network.neighbors(1) == [2]
        assert network.neighbors(3) == [2, 4]
        assert network.is_connected()
        assert network.diameter_hops() == 4

    def test_far_nodes_not_neighbors(self):
        network = WirelessNetwork(np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert network.neighbors(1) == []
        assert not network.is_connected()

    def test_degree_and_max_degree(self):
        network = WirelessNetwork(line_positions(5, spacing=0.7))
        assert network.degree(1) == 1
        assert network.max_degree() == 2

    def test_bfs_layers_from_source(self):
        network = WirelessNetwork(line_positions(4, spacing=0.7))
        layers = network.bfs_layers(1)
        assert layers == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_diameter_of_disconnected_graph_raises(self):
        network = WirelessNetwork(np.array([[0.0, 0.0], [5.0, 0.0]]))
        with pytest.raises(ValueError):
            network.diameter_hops()

    def test_diameter_with_source_on_disconnected_graph(self):
        network = WirelessNetwork(np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 0.0]]))
        assert network.diameter_hops(source_uid=1) == 1

    def test_density_at_least_one(self):
        network = WirelessNetwork(line_positions(6))
        assert network.density() >= 1
        assert network.delta_bound >= 1

    def test_explicit_delta_bound_respected(self):
        network = WirelessNetwork(line_positions(6), delta_bound=42)
        assert network.delta_bound == 42


class TestClusterBookkeeping:
    def test_positions_read_only(self):
        network = WirelessNetwork(line_positions(3))
        with pytest.raises(ValueError):
            network.positions[0, 0] = 99.0

    def test_position_of_matches_input(self):
        network = WirelessNetwork(line_positions(3, spacing=0.5))
        assert network.position_of(2) == pytest.approx((0.5, 0.0))

    def test_describe_mentions_size(self):
        network = WirelessNetwork(line_positions(3))
        assert "n=3" in network.describe()
