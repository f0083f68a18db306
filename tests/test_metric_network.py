"""Tests for the bounded-growth metric generalization (paper footnote 1).

A metric network is ``WirelessNetwork.from_distances`` over a pairwise-distance
matrix; ``repro.sinr.metric`` keeps the growth-bound estimate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AlgorithmConfig, build_clustering, local_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import SINRParameters, WirelessNetwork, doubling_dimension_estimate
from repro.sinr.backends import DenseMatrixBackend
from repro.sinr.geometry import pairwise_distances


def line_metric(n: int, spacing: float = 0.7) -> np.ndarray:
    """Distance matrix of n points on a line (a 1-dimensional doubling metric)."""
    coordinates = np.arange(n) * spacing
    return np.abs(coordinates[:, None] - coordinates[None, :])


def planar_metric(n: int, seed: int = 0, side: float = 2.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, side, size=(n, 2))
    return pairwise_distances(points)


class TestPhysicsFromDistances:
    def test_matches_position_based_engine(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 2, size=(8, 2))
        params = SINRParameters.default()
        by_positions = DenseMatrixBackend(points, params)
        by_distances = DenseMatrixBackend.from_distance_matrix(pairwise_distances(points), params)
        transmitters = [0, 3, 5]
        assert by_positions.receptions(transmitters).keys() == by_distances.receptions(transmitters).keys()
        for listener, reception in by_positions.receptions(transmitters).items():
            other = by_distances.receptions(transmitters)[listener]
            assert reception.sender == other.sender
            assert reception.sinr == pytest.approx(other.sinr)

    def test_positions_unavailable_for_metric_engine(self):
        engine = DenseMatrixBackend.from_distance_matrix(line_metric(4), SINRParameters.default())
        with pytest.raises(ValueError):
            _ = engine.positions
        assert engine.distance(0, 1) == pytest.approx(0.7)

    def test_rejects_asymmetric_or_negative_matrices(self):
        params = SINRParameters.default()
        bad = line_metric(3)
        bad[0, 1] = 9.0
        with pytest.raises(ValueError):
            DenseMatrixBackend.from_distance_matrix(bad, params)
        with pytest.raises(ValueError):
            DenseMatrixBackend.from_distance_matrix(-line_metric(3), params)

    def test_requires_positions_or_distances(self):
        with pytest.raises(ValueError):
            DenseMatrixBackend(None, SINRParameters.default())


class TestMetricNetwork:
    def test_line_metric_builds_a_path_graph(self):
        network = WirelessNetwork.from_distances(line_metric(5))
        assert network.size == 5
        assert network.neighbors(1) == [2]
        assert network.neighbors(3) == [2, 4]
        assert network.is_connected()
        assert network.diameter_hops() == 4
        assert network.density() >= 2

    def test_distance_lookup_by_uid(self):
        network = WirelessNetwork.from_distances(line_metric(4), uids=[10, 20, 30, 40])
        assert network.distance(10, 20) == pytest.approx(0.7)
        assert network.distance(10, 40) == pytest.approx(2.1)

    def test_validation_of_inputs(self):
        with pytest.raises(ValueError):
            WirelessNetwork.from_distances(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            WirelessNetwork.from_distances(np.ones((3, 3)))  # non-zero diagonal
        with pytest.raises(ValueError):
            WirelessNetwork.from_distances(line_metric(3), uids=[1, 1, 2])
        with pytest.raises(ValueError):
            WirelessNetwork.from_distances(line_metric(3), uids=[1, 2, 50], id_space=10)

    def test_describe(self):
        assert "WirelessNetwork(n=3" in WirelessNetwork.from_distances(line_metric(3)).describe()


class TestAlgorithmsOnMetricNetworks:
    def test_clustering_runs_on_a_metric_only_network(self):
        network = WirelessNetwork.from_distances(planar_metric(20, seed=5))
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=AlgorithmConfig.fast())
        assert set(result.cluster_of) == set(network.uids)
        # Clusters only contain nodes within a bounded metric distance of the
        # cluster centre (the 1-clustering guarantee, checked via the metric).
        for uid, cluster in result.cluster_of.items():
            assert network.distance(uid, cluster) <= 2.0 + 1e-9

    def test_local_broadcast_completes_on_a_metric_network(self):
        network = WirelessNetwork.from_distances(line_metric(6))
        sim = SINRSimulator(network)
        result = local_broadcast(sim, config=AlgorithmConfig.fast())
        for uid in network.uids:
            assert set(network.neighbors(uid)) <= result.delivered.receivers_of(uid)


def twin_networks(seed: int, n: int = 40, side: float = 3.0):
    """One uniform placement, as points and as its distance matrix.

    ``delta_bound`` is pinned to the positional value: positional density
    also probes pair midpoints, so the two measured values may differ.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, side, size=(n, 2))
    uids = [int(u) for u in rng.permutation(np.arange(1, n + 1))]
    delta = WirelessNetwork(points, uids=uids).delta_bound
    positional = WirelessNetwork(points, uids=uids, delta_bound=delta)
    metric = WirelessNetwork.from_distances(pairwise_distances(points), uids=uids, delta_bound=delta)
    return positional, metric


class TestMetricMatchesPositional:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_graph_and_bit_identical_algorithms(self, seed):
        positional, metric = twin_networks(seed)
        edges = {frozenset(e) for e in positional.edges().tolist()}
        assert edges == {frozenset(e) for e in metric.edges().tolist()}
        assert set(positional.uids) == set(metric.uids)

        config = AlgorithmConfig.fast()
        by_points = local_broadcast(SINRSimulator(positional), config=config)
        by_metric = local_broadcast(SINRSimulator(metric), config=config)
        assert by_points.delivered == by_metric.delivered
        assert by_points.rounds_used == by_metric.rounds_used

        positional, metric = twin_networks(seed)
        clusters_by_points = build_clustering(SINRSimulator(positional), config=config)
        clusters_by_metric = build_clustering(SINRSimulator(metric), config=config)
        assert clusters_by_points.cluster_of == clusters_by_metric.cluster_of

    def test_coordinate_api_raises_value_error(self):
        network = WirelessNetwork.from_distances(line_metric(4))
        with pytest.raises(ValueError):
            _ = network.positions
        with pytest.raises(ValueError):
            network.position_of(1)
        with pytest.raises(ValueError):
            network.move_nodes([1], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            network.add_nodes([[0.0, 0.0]])
        with pytest.raises(ValueError):
            network.remove_nodes([1])
        assert network.size == 4

    def test_distance_on_positional_network_is_euclidean(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        network = WirelessNetwork(points, uids=[7, 3, 5])
        assert network.distance(7, 3) == pytest.approx(5.0)
        assert network.distance(3, 5) == pytest.approx(np.hypot(2.0, 3.0))
        assert network.distance(5, 5) == 0.0


class TestDoublingDimension:
    def test_line_metric_has_small_doubling_dimension(self):
        estimate = doubling_dimension_estimate(line_metric(32))
        assert estimate <= 2.0

    def test_planar_metric_has_bounded_doubling_dimension(self):
        estimate = doubling_dimension_estimate(planar_metric(40, seed=2))
        assert estimate <= 4.0

    def test_star_metric_has_large_growth(self):
        # A uniform metric (everything at distance 1) doubles from 1 to n.
        n = 32
        matrix = np.ones((n, n)) - np.eye(n)
        estimate = doubling_dimension_estimate(matrix, radii=[0.5])
        assert estimate >= 4.0

    def test_single_point_metric(self):
        assert doubling_dimension_estimate(np.zeros((1, 1))) == 0.0
