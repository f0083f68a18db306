"""Property tests: incremental backend mutations are exact, never approximate.

The load-bearing guarantees of the dynamics subsystem's physics layer:

* ``update_positions`` on a warm backend (cached LRU rows) leaves it
  indistinguishable from a backend freshly built over the new placement --
  dense and lazy, for randomized move sets including the zero-move and the
  every-node-move extremes and co-located nodes;
* dense and lazy (at any store capacity) stay bit-identical to a fresh
  build after arbitrary interleaved moves, crashes (removals) and joins
  (additions);
* the ``WirelessNetwork`` mutation API routes everything through
  ``_invalidate_geometry_caches`` -- graph, degree, diameter and uid-lookup
  answers always match a freshly built network.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sinr.backends import DenseMatrixBackend, LazyBlockBackend
from repro.sinr.model import SINRParameters
from repro.sinr.network import WirelessNetwork

PARAMS = SINRParameters.default()

#: Coordinates snap to a coarse grid so co-located pairs (the clamped-gain
#: edge case) actually occur in the generated placements.
coordinate = st.integers(min_value=0, max_value=24).map(lambda v: v / 6.0)
position = st.tuples(coordinate, coordinate)


def positions_strategy(min_size=2, max_size=20):
    return st.lists(position, min_size=min_size, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float)
    )


@st.composite
def placement_and_moves(draw):
    """A placement plus a move set: anywhere from no node to every node."""
    positions = draw(positions_strategy())
    n = len(positions)
    move_mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    indices = np.flatnonzero(np.array(move_mask, dtype=bool))
    new_xy = np.array(
        [draw(position) for _ in range(len(indices))], dtype=float
    ).reshape(len(indices), 2)
    return positions, indices, new_xy


def random_schedule(n: int, seed: int, rounds: int = 4):
    """A CSR transmitter schedule over ``n`` nodes (duplicate-free per round)."""
    rng = np.random.default_rng(seed)
    members = []
    indptr = [0]
    for _ in range(rounds):
        chosen = np.flatnonzero(rng.random(n) < 0.45)
        members.append(chosen)
        indptr.append(indptr[-1] + len(chosen))
    return (
        np.array(indptr, dtype=np.int64),
        np.concatenate(members) if members else np.empty(0, dtype=np.int64),
    )


def assert_tables_equal(a, b):
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    assert np.array_equal(a.sinr, b.sinr)


def warm(backend, n: int, seed: int = 0):
    """Populate the backend's caches (LRU rows) before mutating."""
    indptr, members = random_schedule(n, seed)
    backend.receptions_table(indptr, members)


class TestDenseIncrementalUpdate:
    @given(case=placement_and_moves(), schedule_seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_update_matches_fresh_rebuild(self, case, schedule_seed):
        positions, indices, new_xy = case
        backend = DenseMatrixBackend(positions.copy(), PARAMS)
        warm(backend, len(positions), schedule_seed)
        backend.update_positions(indices, new_xy)

        moved = positions.copy()
        moved[indices] = new_xy
        fresh = DenseMatrixBackend(moved, PARAMS)
        assert np.array_equal(backend._gains, fresh._gains)
        indptr, members = random_schedule(len(positions), schedule_seed + 1)
        assert_tables_equal(
            backend.receptions_table(indptr, members),
            fresh.receptions_table(indptr, members),
        )

    def test_zero_and_full_moves(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 3, size=(15, 2))
        backend = DenseMatrixBackend(positions.copy(), PARAMS)
        warm(backend, 15)
        backend.update_positions(np.empty(0, dtype=int), np.empty((0, 2)))
        assert np.array_equal(backend._gains, DenseMatrixBackend(positions, PARAMS)._gains)
        everywhere = rng.uniform(0, 3, size=(15, 2))
        backend.update_positions(np.arange(15), everywhere)
        assert np.array_equal(backend._gains, DenseMatrixBackend(everywhere, PARAMS)._gains)

    def test_rejects_bad_requests(self):
        backend = DenseMatrixBackend(np.zeros((4, 2)), PARAMS)
        with pytest.raises(ValueError, match="duplicate"):
            backend.update_positions([1, 1], [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            backend.update_positions([7], [(0, 0)])
        with pytest.raises(ValueError, match="matching lengths"):
            backend.update_positions([1], [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="every node"):
            backend.remove_nodes([0, 1, 2, 3])

    def test_metric_only_backend_cannot_move(self):
        distances = np.array([[0.0, 1.0], [1.0, 0.0]])
        backend = DenseMatrixBackend.from_distance_matrix(distances, PARAMS)
        with pytest.raises(ValueError, match="distance matrix"):
            backend.update_positions([0], [(1.0, 1.0)])
        with pytest.raises(ValueError, match="distance matrix"):
            backend.add_nodes([(1.0, 1.0)])
        backend.remove_nodes([0])  # removal needs no coordinates
        assert backend.size == 1


class TestLazyIncrementalUpdate:
    @given(case=placement_and_moves(), schedule_seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_update_matches_fresh_rebuild(self, case, schedule_seed):
        positions, indices, new_xy = case
        backend = LazyBlockBackend(positions.copy(), PARAMS)
        warm(backend, len(positions), schedule_seed)
        backend.update_positions(indices, new_xy)

        moved = positions.copy()
        moved[indices] = new_xy
        fresh = LazyBlockBackend(moved, PARAMS)
        n = len(positions)
        all_nodes = np.arange(n)
        assert np.array_equal(
            backend.gain_block(all_nodes, all_nodes), fresh.gain_block(all_nodes, all_nodes)
        )
        indptr, members = random_schedule(n, schedule_seed + 1)
        assert_tables_equal(
            backend.receptions_table(indptr, members),
            fresh.receptions_table(indptr, members),
        )

    def test_patch_keeps_cache_warm(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 3, size=(30, 2))
        backend = LazyBlockBackend(positions.copy(), PARAMS)
        backend.gain_block(np.arange(30), np.arange(30))
        before = backend.cache_info()
        new_xy = rng.uniform(0, 3, size=(2, 2))
        backend.update_positions(np.array([0, 1]), new_xy)
        # The moved senders' rows are recomputed in place, not evicted: the
        # next full block is served from the store without a miss.
        assert backend.cache_info()["resident_rows"] == before["resident_rows"] == 30
        block = backend.gain_block(np.arange(30), np.arange(30))
        assert backend.cache_info()["misses"] == before["misses"]
        positions[[0, 1]] = new_xy
        fresh = LazyBlockBackend(positions, PARAMS)
        assert np.array_equal(block, fresh.gain_block(np.arange(30), np.arange(30)))

    def test_thrashed_cache_survives_churn(self, monkeypatch):
        monkeypatch.setattr(LazyBlockBackend, "_CACHE_BYTES", 1)
        rng = np.random.default_rng(13)
        positions = rng.uniform(0, 3, size=(20, 2))
        joins = rng.uniform(0, 3, size=(3, 2))
        backend = LazyBlockBackend(positions.copy(), PARAMS)
        assert backend.cache_info()["capacity_rows"] == 1
        warm(backend, 20)
        backend.add_nodes(joins)
        backend.remove_nodes(np.array([0, 5, 21]))
        expected = np.delete(np.vstack([positions, joins]), [0, 5, 21], axis=0)
        assert backend.size == len(expected)
        fresh = LazyBlockBackend(expected, PARAMS)
        all_nodes = np.arange(backend.size)
        assert np.array_equal(
            backend.gain_block(all_nodes, all_nodes), fresh.gain_block(all_nodes, all_nodes)
        )


class OneRowLazy(LazyBlockBackend):
    _CACHE_BYTES = 1


class FullLazy(LazyBlockBackend):
    _CACHE_BYTES = 1 << 40


class TestDenseLazyStayEquivalent:
    @given(
        seed=st.integers(0, 300),
        n=st.integers(4, 18),
        op_seed=st.integers(0, 300),
        ops=st.lists(st.sampled_from(["move", "crash", "join"]), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_moves_crashes_joins(self, seed, n, op_seed, ops):
        """Warm dense, lazy, one-row and full-capacity lazy stores stay exact.

        After every mutation each backend matches a dense backend freshly
        built over the same placement, bit for bit: gains and tables.
        Coordinates are snapped to a grid so co-located pairs occur.
        """
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, 19, size=(n, 2)) / 6.0
        backends = [
            cls(positions.copy(), PARAMS)
            for cls in (DenseMatrixBackend, LazyBlockBackend, OneRowLazy, FullLazy)
        ]
        op_rng = np.random.default_rng(op_seed)
        for step, op in enumerate(ops):
            size = len(positions)
            for backend in backends:
                warm(backend, size, op_seed + step)
            if op == "move":
                m = int(op_rng.integers(0, size + 1))
                indices = op_rng.choice(size, size=m, replace=False)
                new_xy = op_rng.integers(0, 19, size=(m, 2)) / 6.0
                positions[indices] = new_xy
                for backend in backends:
                    backend.update_positions(indices, new_xy)
            elif op == "crash" and size > 2:
                m = int(op_rng.integers(1, min(3, size - 1) + 1))
                indices = op_rng.choice(size, size=m, replace=False)
                positions = np.delete(positions, indices, axis=0)
                for backend in backends:
                    backend.remove_nodes(indices)
            elif op == "join":
                new_xy = op_rng.integers(0, 19, size=(int(op_rng.integers(1, 4)), 2)) / 6.0
                positions = np.vstack([positions, new_xy])
                for backend in backends:
                    backend.add_nodes(new_xy)
            fresh = DenseMatrixBackend(positions.copy(), PARAMS)
            everyone = np.arange(len(positions))
            indptr, members = random_schedule(len(positions), op_seed + step + 1)
            expected = fresh.receptions_table(indptr, members)
            for backend in backends:
                assert backend.size == len(positions)
                assert_tables_equal(backend.receptions_table(indptr, members), expected)
                assert np.array_equal(backend.gain_block(everyone, everyone), fresh._gains)


class TestColocatedChurn:
    def test_add_and_move_onto_existing_coordinates(self):
        """Joins/moves landing exactly on an occupied point hit the clamp path."""
        base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        for cls in (DenseMatrixBackend, LazyBlockBackend):
            backend = cls(base.copy(), PARAMS)
            warm(backend, 3)
            backend.add_nodes(np.array([[1.0, 0.0], [2.0, 0.0]]))  # co-located joins
            backend.update_positions(np.array([0]), np.array([[1.0, 0.0]]))
            expected = np.array(
                [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
            )
            fresh = cls(expected, PARAMS)
            all_nodes = np.arange(5)
            assert np.array_equal(
                backend.gain_block(all_nodes, all_nodes),
                fresh.gain_block(all_nodes, all_nodes),
            ), cls.__name__
            indptr, members = random_schedule(5, 99)
            assert_tables_equal(
                backend.receptions_table(indptr, members),
                fresh.receptions_table(indptr, members),
            )


class TestNetworkCacheInvalidation:
    """The silent-staleness hazard: mutation must invalidate geometry caches."""

    def fresh_clone(self, network: WirelessNetwork) -> WirelessNetwork:
        return WirelessNetwork(
            network.positions.copy(),
            params=network.params,
            uids=list(network.uids),
            id_space=network.id_space,
        )

    def assert_geometry_matches_fresh(self, network: WirelessNetwork):
        fresh = self.fresh_clone(network)
        assert sorted(network.edges().tolist()) == sorted(fresh.edges().tolist())
        assert network.max_degree() == fresh.max_degree()
        assert network.density() == fresh.density()
        for uid in network.uids:
            assert network.degree(uid) == fresh.degree(uid)
            assert network.bfs_layers(uid) == fresh.bfs_layers(uid)

    def test_move_invalidates_graph_degree_diameter(self):
        rng = np.random.default_rng(2)
        network = WirelessNetwork(rng.uniform(0, 2.5, size=(18, 2)))
        _ = network.edges()  # populate the cache
        _ = network.max_degree()
        network.move_nodes(network.uids[:6], rng.uniform(0, 2.5, size=(6, 2)))
        self.assert_geometry_matches_fresh(network)

    def test_churn_invalidates_uid_lookup(self):
        rng = np.random.default_rng(3)
        network = WirelessNetwork(rng.uniform(0, 2.5, size=(10, 2)))
        _ = network.uid_index_lookup  # populate
        new_uids = network.add_nodes(rng.uniform(0, 2.5, size=(2, 2)))
        assert [network.index_of(u) for u in new_uids] == [10, 11]
        assert np.array_equal(
            network.indices_of(np.array(new_uids)), np.array([10, 11])
        )
        network.remove_nodes([network.uids[0]])
        assert network.size == 11
        lookup_indices = network.indices_of(network.uid_array)
        assert np.array_equal(lookup_indices, np.arange(11))
        self.assert_geometry_matches_fresh(network)

    def test_measured_delta_bound_tracks_mutations(self):
        network = WirelessNetwork(np.array([[0.0, 0.0], [5.0, 0.0], [5.1, 0.0]]))
        sparse_delta = network.delta_bound
        # Pull everyone into one unit ball: the measured bound must grow.
        network.move_nodes(network.uids, [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)])
        assert network.delta_bound > sparse_delta

    def test_user_supplied_delta_bound_is_knowledge_not_measurement(self):
        network = WirelessNetwork(
            np.array([[0.0, 0.0], [5.0, 0.0]]), delta_bound=7
        )
        network.move_nodes(network.uids, [(0.0, 0.0), (0.1, 0.0)])
        assert network.delta_bound == 7

    def test_remove_requires_survivor_and_unique_uids(self):
        network = WirelessNetwork(np.zeros((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(ValueError, match="every node"):
            network.remove_nodes(network.uids)
        with pytest.raises(ValueError, match="duplicate"):
            network.remove_nodes([network.uids[0], network.uids[0]])

    def test_add_nodes_grows_id_space_when_needed(self):
        network = WirelessNetwork(np.array([[0.0, 0.0], [1.0, 0.0]]), id_space=8)
        network.add_nodes([(2.0, 0.0)], uids=[20])
        assert network.id_space >= 20
        assert network.index_of(20) == 2
