"""Cross-checks of the NumPy fixed-radius join against cKDTree and networkx.

scipy and networkx are test-only dependencies: the runtime computes the
communication graph, ball counts, the closest pair, BFS layers and the hop
diameter with :mod:`repro.sinr.geometry`'s cell join and array frontier
loops, and these tests hold them to the libraries they replaced.
"""

from __future__ import annotations

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.sinr import geometry
from repro.sinr.geometry import (
    counts_within,
    minimum_pairwise_distance,
    pairs_within,
    unit_ball_density,
)
from repro.sinr.model import NUMERIC_TOLERANCE
from repro.sinr.network import WirelessNetwork

RADII = (0.25, 0.3, 0.9 + NUMERIC_TOLERANCE, 1.0)


def kdtree_unit_ball_density(positions: np.ndarray, radius: float = 1.0) -> int:
    """The cKDTree density routine the join replaced, kept as the oracle."""
    tree = cKDTree(positions)
    counts = tree.query_ball_point(positions, r=radius + NUMERIC_TOLERANCE, return_length=True)
    best = int(np.max(counts))
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if len(pairs):
        midpoints = (positions[pairs[:, 0]] + positions[pairs[:, 1]]) / 2.0
        mid_counts = tree.query_ball_point(midpoints, r=radius + NUMERIC_TOLERANCE, return_length=True)
        best = max(best, int(np.max(mid_counts)))
    return best


def kdtree_pairs(positions: np.ndarray, radius: float) -> np.ndarray:
    pairs = cKDTree(positions).query_pairs(r=radius, output_type="ndarray").reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def communication_graph(network: WirelessNetwork) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(network.uids)
    graph.add_edges_from(network.edges().tolist())
    return graph


def clustered(n: int, seed: int) -> np.ndarray:
    """Half the nodes in a 0.1 x 0.1 square, the rest spread over a 6 x 6 area."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 6.0, size=(n, 2))
    positions[: n // 2] = rng.uniform(3.0, 3.1, size=(n // 2, 2))
    return positions


def lattice(n: int, seed: int, step: float) -> np.ndarray:
    """Nodes snapped to a lattice of spacing ``step``, so many pairs sit at exactly a radius."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 12, size=(n, 2)) * step


PLACEMENTS = {
    "one-node": np.array([[0.5, 0.5]]),
    "two-far": np.array([[0.0, 0.0], [1e6, 1e6]]),
    "two-far-x": np.array([[0.0, 0.0], [1e6, 0.0]]),
    "duplicates": np.array([[0.0, 0.0], [0.0, 0.0], [0.3, 0.0], [0.3, 0.0], [2.0, 2.0]]),
    "lattice-quarter": lattice(150, 1, 0.25),
    "lattice-tenth": lattice(150, 2, 0.1),
    "lattice-0.9": lattice(150, 3, 0.9),
    "clustered": clustered(400, 4),
    "uniform": np.random.default_rng(5).uniform(0.0, 7.0, size=(400, 2)),
    "line": np.column_stack([np.arange(30) * 0.9, np.zeros(30)]),
}


def assert_join_matches_kdtree(positions: np.ndarray, queries: np.ndarray) -> None:
    tree = cKDTree(positions)
    for radius in RADII:
        assert np.array_equal(pairs_within(positions, radius), kdtree_pairs(positions, radius))
        counts = tree.query_ball_point(queries, r=radius, return_length=True)
        assert np.array_equal(counts_within(positions, queries, radius), counts)
        expected = sorted(
            (q, p) for q, near in enumerate(tree.query_ball_point(queries, r=radius)) for p in near
        )
        assert sorted(map(tuple, pairs_within(positions, radius, queries=queries).tolist())) == expected
    assert unit_ball_density(positions) == kdtree_unit_ball_density(positions)
    if len(positions) >= 2:
        assert minimum_pairwise_distance(positions) == tree.query(positions, k=2)[0][:, 1].min()


@pytest.mark.parametrize("name", sorted(PLACEMENTS))
def test_join_matches_kdtree_on_fixed_placements(name):
    positions = PLACEMENTS[name]
    rng = np.random.default_rng(0)
    low, high = positions.min(axis=0) - 2.0, positions.max(axis=0) + 2.0
    queries = np.vstack([positions, rng.uniform(low, high, size=(50, 2)), [[-1e7, 3.0], [4.0, 1e7]]])
    assert_join_matches_kdtree(positions, queries)


@given(
    n=st.integers(1, 120),
    side=st.floats(0.2, 12.0),
    snap=st.sampled_from([None, 0.25, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_join_matches_kdtree_on_random_placements(n, side, snap, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n, 2))
    if snap is not None:
        positions = np.round(positions / snap) * snap
    queries = np.vstack([positions, rng.uniform(-1.0, side + 1.0, size=(20, 2))])
    assert_join_matches_kdtree(positions, queries)


@pytest.mark.parametrize("name", sorted(PLACEMENTS))
def test_network_graph_matches_networkx(name):
    network = WirelessNetwork(PLACEMENTS[name])
    reach = network.params.communication_radius + NUMERIC_TOLERANCE
    assert np.array_equal(network._edges(), kdtree_pairs(network.positions, reach))
    graph = communication_graph(network)
    assert network.is_connected() == nx.is_connected(graph)
    assert network.max_degree() == max(d for _, d in graph.degree())
    for uid in network.uids[:25]:
        assert network.neighbors(uid) == sorted(graph.neighbors(uid))
        assert network.bfs_layers(uid) == dict(nx.single_source_shortest_path_length(graph, uid))
        assert network.diameter_hops(uid) == max(
            nx.single_source_shortest_path_length(graph, uid).values()
        )
    if nx.is_connected(graph):
        assert network.diameter_hops() == nx.diameter(graph)


@given(n=st.integers(2, 60), side=st.floats(0.5, 6.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bfs_and_diameter_match_networkx_on_random_placements(n, side, seed):
    rng = np.random.default_rng(seed)
    uids = (rng.permutation(n) + 1) * 3
    network = WirelessNetwork(rng.uniform(0.0, side, size=(n, 2)), uids=uids.tolist())
    graph = communication_graph(network)
    source = int(uids[0])
    assert network.bfs_layers(source) == dict(nx.single_source_shortest_path_length(graph, source))
    assert network.diameter_hops(source) == max(nx.single_source_shortest_path_length(graph, source).values())
    if nx.is_connected(graph):
        assert network.diameter_hops() == nx.diameter(graph)
    else:
        with pytest.raises(ValueError):
            network.diameter_hops()


def test_clustered_join_stays_within_its_memory_budget():
    n = 4000
    positions = clustered(n, 7)
    queries = positions + 0.01
    counts_within(positions, queries, 1.0)  # warm imports and allocator caches
    tracemalloc.start()
    try:
        counts = counts_within(positions, queries, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, cKDTree(positions).query_ball_point(queries, r=1.0, return_length=True))
    # A handful of float64 arrays per block and of int64 arrays per node
    # (about 2 MB), against 128 MB for the n x n candidate block of the heavy cell.
    assert geometry._JOIN_BLOCK <= 1 << 18
    assert peak <= 16 * 2**20, peak
