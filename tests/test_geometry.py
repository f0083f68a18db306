"""Tests for the geometric helpers (repro.sinr.geometry)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sinr.geometry import (
    Ball,
    chi,
    critical_distance,
    cluster_density,
    distance,
    find_close_pairs,
    has_close_pair_in_ball,
    minimum_pairwise_distance,
    pairwise_distances,
    unit_ball_density,
)

coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coordinate, coordinate)


class TestDistances:
    def test_distance_matches_hypot(self):
        assert distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_pairwise_distances_symmetric_zero_diagonal(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        matrix = pairwise_distances(points)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[0, 2] == pytest.approx(2.0)

    def test_pairwise_distances_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 3)))

    def test_minimum_pairwise_distance(self):
        points = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]])
        assert minimum_pairwise_distance(points) == pytest.approx(0.5)

    def test_minimum_pairwise_distance_single_point(self):
        assert minimum_pairwise_distance(np.array([[0.0, 0.0]])) == math.inf

    @given(st.lists(point, min_size=2, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_pairwise_distances_triangle_inequality(self, points):
        matrix = pairwise_distances(np.array(points))
        n = len(points)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-9


class TestBall:
    def test_contains_boundary(self):
        ball = Ball(center=(0.0, 0.0), radius=1.0)
        assert ball.contains((1.0, 0.0))
        assert not ball.contains((1.001, 0.0))

    def test_members_returns_indices(self):
        ball = Ball(center=(0.0, 0.0), radius=1.0)
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
        assert list(ball.members(points)) == [0, 2]

    def test_contains_all(self):
        ball = Ball(center=(0.0, 0.0), radius=2.0)
        assert ball.contains_all([(0, 0), (1, 1)])
        assert not ball.contains_all([(0, 0), (3, 0)])


class TestPackingBounds:
    def test_chi_examples(self):
        assert chi(0.0, 1.0) == 1
        assert chi(1.0, 1.0) == 9
        assert chi(1.0, 2.0) == 4

    def test_chi_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi(-1.0, 1.0)
        with pytest.raises(ValueError):
            chi(1.0, 0.0)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_chi_monotone(self, r1, r2, r2_larger):
        bigger = r2 + r2_larger
        assert chi(r1, r2) >= chi(r1, bigger)

    def test_critical_distance_decreases_with_density(self):
        assert critical_distance(4, 1.0) >= critical_distance(16, 1.0) >= critical_distance(64, 1.0)

    def test_critical_distance_consistent_with_chi(self):
        for gamma in (8, 32, 128):
            d = critical_distance(gamma, 1.0)
            assert chi(1.0, d) >= gamma / 2.0

    def test_critical_distance_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            critical_distance(0, 1.0)
        with pytest.raises(ValueError):
            critical_distance(4, 0.0)


class TestDensity:
    def test_unit_ball_density_of_cluster(self):
        points = np.vstack(
            [np.zeros((5, 2)) + np.array([0.1, 0.1]) * np.arange(5)[:, None], [[10.0, 10.0]]]
        )
        assert unit_ball_density(points) == 5

    def test_unit_ball_density_empty(self):
        assert unit_ball_density(np.zeros((0, 2))) == 0

    def test_cluster_density(self):
        cluster_of = {1: 1, 2: 1, 3: 1, 4: 2}
        assert cluster_density(cluster_of) == 3
        assert cluster_density({}) == 0

    @given(st.lists(point, min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_density_at_least_one_and_at_most_n(self, points):
        density = unit_ball_density(np.array(points))
        assert 1 <= density <= len(points)


class TestClosePairs:
    def test_two_isolated_nodes_form_close_pair(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0]])
        pairs = find_close_pairs(points, gamma=2)
        assert len(pairs) == 1
        assert {pairs[0].first, pairs[0].second} == {0, 1}

    def test_close_pairs_respect_clusters(self):
        points = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05], [5.0, 5.0]])
        cluster_of = {0: 1, 1: 2, 2: 1, 3: 1}
        pairs = find_close_pairs(points, cluster_of=cluster_of, gamma=4)
        for pair in pairs:
            assert cluster_of[pair.first] == cluster_of[pair.second]

    def test_dense_ball_contains_close_pair(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-0.4, 0.4, size=(20, 2))
        assert has_close_pair_in_ball(points, center=(0.0, 0.0), radius=5.0, gamma=20)

    def test_close_pair_distance_below_critical(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1.0, size=(16, 2))
        gamma = unit_ball_density(points)
        pairs = find_close_pairs(points, gamma=gamma)
        for pair in pairs:
            assert pair.distance <= critical_distance(gamma, 1.0) + 1e-9

    def test_single_node_has_no_close_pair(self):
        assert find_close_pairs(np.array([[0.0, 0.0]])) == []

    @given(st.lists(point, min_size=4, max_size=16, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_close_pairs_are_mutual_nearest_neighbours(self, points):
        array = np.array(points)
        pairs = find_close_pairs(array, gamma=len(points))
        matrix = pairwise_distances(array)
        np.fill_diagonal(matrix, np.inf)
        for pair in pairs:
            assert matrix[pair.first].min() == pytest.approx(pair.distance)
            assert matrix[pair.second].min() == pytest.approx(pair.distance)
