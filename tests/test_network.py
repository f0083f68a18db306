"""Tests for WirelessNetwork (repro.sinr.network)."""

from __future__ import annotations

import networkx as nx
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

    def test_positions_are_a_private_copy(self):
        """Moving a node leaves the caller's array alone, and editing that
        array later does not move a node."""
        caller = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        network = WirelessNetwork(caller)
        network.move_nodes([1], [[5.0, 5.0]])
        assert caller.tolist() == [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]
        caller[1] = [9.0, 9.0]
        assert network.positions.tolist() == [[5.0, 5.0], [0.5, 0.0], [1.0, 0.0]]
        assert network.position_of(2) == pytest.approx((0.5, 0.0))

    def test_size_and_len(self):
        network = WirelessNetwork(line_positions(5))
        assert network.size == 5
        assert len(network) == 5


class TestIndicesOf:
    """One lookup path for every iterable: lists, sets and arrays alike."""

    @pytest.fixture
    def network(self):
        # uids 10, 20, 30 in a 40-uid space: 15 is in range but absent.
        return WirelessNetwork(line_positions(3), uids=[10, 20, 30], id_space=40)

    def test_any_iterable_gives_index_array(self, network):
        for uids in ([30, 10], (30, 10), np.array([30, 10]), iter([30, 10])):
            indices = network.indices_of(uids)
            assert indices.dtype == np.int64
            assert indices.tolist() == [2, 0]
        assert network.indices_of({20}).tolist() == [1]
        assert network.indices_of([]).tolist() == []

    @pytest.mark.parametrize("unknown", [0, 41, 15])
    def test_unknown_uid_raises_key_error(self, network, unknown):
        for uids in ([10, unknown], np.array([10, unknown])):
            with pytest.raises(KeyError) as caught:
                network.indices_of(uids)
            assert caught.value.args == (unknown,)
        with pytest.raises(KeyError):
            network.index_of(unknown)

    def test_non_integral_uid_is_unknown_not_truncated(self, network):
        assert network.indices_of(np.array([20.0, 10.0])).tolist() == [1, 0]
        assert network.index_of(30.0) == 2
        for uids in ([10, 20.5], np.array([10, 20.5])):
            with pytest.raises(KeyError) as caught:
                network.indices_of(uids)
            assert caught.value.args == (20.5,)
        with pytest.raises(KeyError):
            network.index_of(20.5)

    def test_lookup_follows_joins_and_crashes(self, network):
        with pytest.raises(ValueError, match="unique"):
            network.add_nodes([(5.0, 0.0)], uids=[20])
        network.add_nodes([(5.0, 0.0)], uids=[50])
        network.remove_nodes([10])
        assert [network.index_of(uid) for uid in (20, 30, 50)] == [0, 1, 2]
        assert network.position_of(50) == pytest.approx((5.0, 0.0))
        with pytest.raises(KeyError):
            network.index_of(10)


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

    @pytest.mark.parametrize(
        "network",
        [
            WirelessNetwork(np.random.default_rng(3).uniform(0, 3, size=(80, 2))),
            WirelessNetwork(np.random.default_rng(3).uniform(0, 6, size=(80, 2))),
            WirelessNetwork(np.array([[0.0, 0.0]])),
            WirelessNetwork.from_distances([[0.0, 0.5, 3.0], [0.5, 0.0, 0.6], [3.0, 0.6, 0.0]]),
        ],
        ids=["connected-80", "disconnected-80", "single", "metric"],
    )
    def test_degree_and_connectivity_match_networkx(self, network):
        graph = network.communication_graph
        assert network.max_degree() == max((d for _, d in graph.degree()), default=0)
        assert network.is_connected() == (len(graph) == 1 or nx.is_connected(graph))

    def test_connectivity_matches_networkx_on_random_placements(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            network = WirelessNetwork(rng.uniform(0, rng.uniform(0.5, 6.0), size=(n, 2)))
            graph = network.communication_graph
            assert network.is_connected() == (n == 1 or nx.is_connected(graph))

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
