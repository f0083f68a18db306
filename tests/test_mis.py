"""Tests for the MIS helpers (repro.selectors.mis)."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selectors.mis import (
    greedy_mis,
    is_independent_set,
    is_maximal_independent_set,
    iterated_local_minima_mis,
    local_minima,
)


def random_adjacency(n: int, p: float, seed: int):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    return {v + 1: {u + 1 for u in graph.neighbors(v)} for v in graph.nodes}


class TestGreedyMIS:
    def test_path_graph(self):
        adjacency = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        assert greedy_mis(adjacency) == {1, 3}

    def test_empty_graph(self):
        assert greedy_mis({}) == set()

    def test_edgeless_graph_selects_everything(self):
        adjacency = {1: set(), 2: set(), 3: set()}
        assert greedy_mis(adjacency) == {1, 2, 3}


class TestIteratedLocalMinima:
    def test_matches_greedy_on_path(self):
        adjacency = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        mis, iterations = iterated_local_minima_mis(adjacency)
        assert mis == greedy_mis(adjacency)
        assert iterations >= 1

    def test_iteration_budget_respected(self):
        adjacency = {i: {i - 1, i + 1} & set(range(1, 11)) for i in range(1, 11)}
        _, iterations = iterated_local_minima_mis(adjacency, max_iterations=1)
        assert iterations == 1

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_always_produces_maximal_independent_set(self, n, seed):
        adjacency = random_adjacency(n, 0.3, seed)
        mis, _ = iterated_local_minima_mis(adjacency)
        assert is_maximal_independent_set(adjacency, mis)

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_greedy_mis(self, n, seed):
        adjacency = random_adjacency(n, 0.4, seed)
        mis, _ = iterated_local_minima_mis(adjacency)
        assert mis == greedy_mis(adjacency)


class TestLocalMinima:
    def test_local_minima_are_independent(self):
        adjacency = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        minima = local_minima(adjacency)
        assert is_independent_set(adjacency, minima)
        assert 1 in minima

    def test_single_node(self):
        assert local_minima({5: set()}) == {5}

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_every_connected_component_has_a_local_minimum(self, n, seed):
        adjacency = random_adjacency(n, 0.3, seed)
        minima = local_minima(adjacency)
        graph = nx.Graph()
        graph.add_nodes_from(adjacency)
        for v, neighbors in adjacency.items():
            graph.add_edges_from((v, u) for u in neighbors)
        for component in nx.connected_components(graph):
            assert component & minima


class TestValidityCheckers:
    def test_is_independent_set(self):
        adjacency = {1: {2}, 2: {1}, 3: set()}
        assert is_independent_set(adjacency, {1, 3})
        assert not is_independent_set(adjacency, {1, 2})

    def test_is_maximal_independent_set(self):
        adjacency = {1: {2}, 2: {1}, 3: set()}
        assert is_maximal_independent_set(adjacency, {1, 3})
        assert not is_maximal_independent_set(adjacency, {1})
        assert not is_maximal_independent_set(adjacency, {1, 2, 3})
