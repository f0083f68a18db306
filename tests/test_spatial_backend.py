"""Property tests: the spatial backend is exact, never silently approximate.

The load-bearing guarantee of ``SpatialGridBackend``: its certified
near/far-field split is a *pruning* device, not an approximation -- every
delivered event (receiver, decoded sender, reported SINR) matches the dense
backend event for event, on single rounds, restricted listener pools,
batched schedules and across incremental mutations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import AlgorithmConfig, local_broadcast
from repro.simulation.engine import SINRSimulator
from repro.sinr import deployment
from repro.sinr.backends import (
    BACKENDS,
    DenseMatrixBackend,
    Reception,
    SpatialGridBackend,
    make_backend,
)
from repro.sinr.backends import _kernels
from repro.sinr.model import SINRParameters
from repro.sinr.network import WirelessNetwork

PARAMS = SINRParameters.default()

#: Coordinates snap to a coarse grid so co-located pairs and points exactly
#: on cell boundaries (the grid's own edge cases) occur in the placements.
coordinate = st.integers(min_value=0, max_value=24).map(lambda v: v / 6.0)
position = st.tuples(coordinate, coordinate)


def positions_strategy(min_size=2, max_size=20):
    return st.lists(position, min_size=min_size, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float)
    )


def random_positions(seed: int, n: int, side: float = 3.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2))


def random_schedule(n: int, seed: int, rounds: int = 4):
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


def assert_receptions_close(a, b, rel=1e-9):
    assert set(a) == set(b)
    for receiver, reception in a.items():
        other = b[receiver]
        assert other.sender == reception.sender
        assert other.sinr == pytest.approx(reception.sinr, rel=rel)


def assert_tables_equal(a, b, rel=1e-9):
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    np.testing.assert_allclose(a.sinr, b.sinr, rtol=rel)


def both_backends(positions, ladder=False):
    """Dense and spatial backends over the same placement.

    Small placements make the spatial cost rule pick exact-first for almost
    every batch; ``ladder`` forces the certificate ladder on the instance
    (``_EXACT_FIRST_RATIO = 0``) so the comparison covers it too.
    """
    positions = np.asarray(positions, dtype=float)
    dense = DenseMatrixBackend(positions.copy(), PARAMS)
    spatial = SpatialGridBackend(positions.copy(), PARAMS)
    if ladder:
        spatial._EXACT_FIRST_RATIO = 0.0
    return dense, spatial


def assert_leg_taken(spatial, ladder):
    """A forced-ladder leg must not have sent any batch exact-first."""
    if ladder:
        assert spatial.grid_info()["batches_exact_first"] == 0


class TestSpatialDenseEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=2, max_value=24),
        tx_seed=st.integers(min_value=0, max_value=1_000),
        side=st.sampled_from([1.5, 3.0, 8.0]),
        ladder=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_receptions_identical_on_random_deployments(self, seed, n, tx_seed, side, ladder):
        positions = random_positions(seed, n, side)
        dense, spatial = both_backends(positions, ladder)
        rng = np.random.default_rng(tx_seed)
        transmitters = list(np.flatnonzero(rng.random(n) < 0.4))
        assert_receptions_close(
            dense.receptions(transmitters), spatial.receptions(transmitters)
        )
        assert_leg_taken(spatial, ladder)

    @given(positions=positions_strategy(), tx_seed=st.integers(0, 500), ladder=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_receptions_identical_on_grid_snapped_placements(self, positions, tx_seed, ladder):
        """Cell-boundary coordinates and co-located pairs, the grid edge cases."""
        dense, spatial = both_backends(positions, ladder)
        rng = np.random.default_rng(tx_seed)
        transmitters = list(np.flatnonzero(rng.random(len(positions)) < 0.4))
        assert_receptions_close(
            dense.receptions(transmitters), spatial.receptions(transmitters)
        )
        assert_leg_taken(spatial, ladder)

    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=16),
        ladder=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_receptions_identical_with_restricted_listeners(self, seed, n, ladder):
        positions = random_positions(seed, n)
        dense, spatial = both_backends(positions, ladder)
        transmitters = list(range(0, n, 2))
        listeners = list(range(1, n, 2))
        assert_receptions_close(
            dense.receptions(transmitters, listeners),
            spatial.receptions(transmitters, listeners),
        )
        assert_leg_taken(spatial, ladder)

    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=20),
        rounds=st.integers(min_value=1, max_value=10),
        ladder=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_schedule_table_matches_dense(self, seed, n, rounds, ladder):
        positions = random_positions(seed, n)
        dense, spatial = both_backends(positions, ladder)
        indptr, members = random_schedule(n, seed + 1, rounds)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            spatial.receptions_table(indptr, members),
        )
        assert_leg_taken(spatial, ladder)

    def test_batch_respects_listener_restriction(self):
        positions = random_positions(5, 14)
        listeners = [1, 3, 5, 7]
        schedule = [[0, 2], [4], [], [0, 6, 8]]
        dense, spatial = both_backends(positions)
        indptr = np.cumsum([0] + [len(tx) for tx in schedule])
        members = np.array([t for tx in schedule for t in tx], dtype=np.int64)
        table = spatial.receptions_table(indptr, members, listeners=listeners)
        assert set(table.receivers.tolist()) <= set(listeners)
        for t, tx in enumerate(schedule):
            in_round = table.round_ids == t
            outcome = {
                int(r): Reception(receiver=int(r), sender=int(s), sinr=float(q))
                for r, s, q in zip(
                    table.receivers[in_round], table.senders[in_round], table.sinr[in_round]
                )
            }
            assert_receptions_close(outcome, dense.receptions(tx, listeners=listeners))

    def test_co_located_nodes_handled_identically(self):
        positions = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.6, 0.1]])
        dense, spatial = both_backends(positions)
        for tx in ([0], [0, 1], [0, 2], [1, 3]):
            assert_receptions_close(dense.receptions(tx), spatial.receptions(tx))

    def test_wider_rings_and_custom_cell_stay_equivalent(self):
        positions = random_positions(17, 30, side=6.0)
        dense = DenseMatrixBackend(positions, PARAMS)
        # Set on the instance before the first query builds the grid.
        for name, value in (("_MAX_RING", 1), ("_MAX_RING", 4),
                            ("_CELL_MARGIN", 2.5 / PARAMS.transmission_range)):
            spatial = SpatialGridBackend(positions, PARAMS)
            setattr(spatial, name, value)
            indptr, members = random_schedule(30, 18)
            assert_tables_equal(
                dense.receptions_table(indptr, members),
                spatial.receptions_table(indptr, members),
            )
            info = spatial.grid_info()
            assert info["max_ring"] == spatial._MAX_RING
            assert info["cell_size"] >= spatial._CELL_MARGIN * PARAMS.transmission_range

    def test_exact_fallback_is_exercised_not_bypassed(self):
        """Receivers always reach the exact stage; bounds only prune losers.

        A wide area with sparse rounds, where the cost rule runs the
        certificate ladder on every round.
        """
        positions = random_positions(3, 200, side=16.0)
        dense, spatial = both_backends(positions)
        rng = np.random.default_rng(4)
        deliveries = 0
        for _ in range(5):
            tx = list(np.flatnonzero(rng.random(200) < 0.08))
            result = spatial.receptions(tx)
            assert_receptions_close(dense.receptions(tx), result)
            assert spatial.grid_info()["batches_exact_first"] == 0
            deliveries += len(result)
        info = spatial.grid_info()
        assert deliveries > 0
        # Every delivered event went through exact evaluation, and the
        # certificates did real pruning work around them.
        assert info["exact"] >= deliveries
        assert info["pruned_signal"] + info["pruned_near"] + info["pruned_far"] > 0

    def test_small_grid_goes_exact_first(self):
        """On a small grid the ring-1 join covers most of each round, so the
        cost rule skips the certificates: every candidate is evaluated
        exactly and the output still equals dense."""
        positions = random_positions(3, 60, side=4.0)
        dense, spatial = both_backends(positions)
        indptr, members = random_schedule(60, 4, rounds=6)
        table = spatial.receptions_table(indptr, members)
        assert_tables_equal(dense.receptions_table(indptr, members), table)
        info = spatial.grid_info()
        assert len(table) > 0
        assert info["batches"] > 0
        assert info["batches_exact_first"] == info["batches"]
        assert info["join_entries"] == 0
        assert info["pruned_signal"] + info["pruned_near"] + info["pruned_far"] == 0
        assert info["exact"] == info["candidates"]

    def test_non_integral_alpha_uses_general_power_path(self):
        params = SINRParameters(alpha=2.5, beta=1.5, noise=1.0, power=1.5)
        positions = random_positions(23, 18)
        dense = DenseMatrixBackend(positions, params)
        spatial = SpatialGridBackend(positions, params)
        assert_receptions_close(dense.receptions([0, 4, 9]), spatial.receptions([0, 4, 9]))

    def test_sparse_bounding_box_caps_cell_count(self):
        """Two far-apart clusters must not materialize a mega-grid."""
        near = random_positions(1, 10, side=2.0)
        far = random_positions(2, 10, side=2.0) + 10_000.0
        positions = np.vstack([near, far])
        dense, spatial = both_backends(positions)
        assert_receptions_close(dense.receptions([0, 12]), spatial.receptions([0, 12]))
        info = spatial.grid_info()
        assert info["cells_x"] * info["cells_y"] <= max(1024, 8 * len(positions))


class TestSpatialIncremental:
    @given(
        seed=st.integers(0, 300),
        n=st.integers(4, 18),
        op_seed=st.integers(0, 300),
        ops=st.lists(st.sampled_from(["move", "crash", "join"]), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_mutations_match_dense_and_fresh_rebuild(
        self, seed, n, op_seed, ops
    ):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 3, size=(n, 2))
        dense = DenseMatrixBackend(positions.copy(), PARAMS)
        spatial = SpatialGridBackend(positions.copy(), PARAMS)
        spatial.receptions([0])  # force the grid build so mutations re-bucket
        op_rng = np.random.default_rng(op_seed)
        for step, op in enumerate(ops):
            size = dense.size
            if op == "move":
                m = int(op_rng.integers(0, size + 1))
                indices = op_rng.choice(size, size=m, replace=False)
                # Mix of in-bounds moves (cell re-bucketing) and moves out of
                # the original bounding box (grid re-anchor).
                new_xy = op_rng.uniform(-1, 5, size=(m, 2))
                dense.update_positions(indices, new_xy)
                spatial.update_positions(indices, new_xy)
            elif op == "crash" and size > 2:
                m = int(op_rng.integers(1, min(3, size - 1) + 1))
                indices = op_rng.choice(size, size=m, replace=False)
                dense.remove_nodes(indices)
                spatial.remove_nodes(indices)
            elif op == "join":
                m = int(op_rng.integers(1, 4))
                new_xy = op_rng.uniform(0, 3, size=(m, 2))
                dense.add_nodes(new_xy)
                spatial.add_nodes(new_xy)
            assert dense.size == spatial.size
            fresh = SpatialGridBackend(spatial.positions.copy(), PARAMS)
            indptr, members = random_schedule(dense.size, op_seed + step)
            expected = dense.receptions_table(indptr, members)
            assert_tables_equal(expected, spatial.receptions_table(indptr, members))
            assert_tables_equal(expected, fresh.receptions_table(indptr, members))

    def test_colocating_mutations(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        dense, spatial = both_backends(base)
        spatial.receptions([0])
        for backend in (dense, spatial):
            backend.add_nodes(np.array([[1.0, 0.0], [2.0, 0.0]]))
            backend.update_positions(np.array([0]), np.array([[1.0, 0.0]]))
        indptr, members = random_schedule(5, 99)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            spatial.receptions_table(indptr, members),
        )

    def test_rejects_bad_requests(self):
        backend = SpatialGridBackend(np.zeros((4, 2)), PARAMS)
        with pytest.raises(ValueError, match="duplicate"):
            backend.update_positions([1, 1], [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            backend.update_positions([7], [(0, 0)])
        with pytest.raises(ValueError, match="out of range"):
            backend.remove_nodes([9])
        with pytest.raises(ValueError, match="every node"):
            backend.remove_nodes([0, 1, 2, 3])

    def test_constructor_validation(self):
        positions = random_positions(0, 6)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            SpatialGridBackend(np.zeros((4, 3)), PARAMS)
        with pytest.raises(TypeError):
            SpatialGridBackend(positions, PARAMS, round_batch=16)

    def test_no_distance_matrix_and_readonly_positions(self):
        _, spatial = both_backends(random_positions(2, 5))
        with pytest.raises(ValueError):
            spatial.distances
        with pytest.raises(ValueError):
            spatial.positions[0, 0] = 1.0
        dense, _ = both_backends(random_positions(2, 5))
        assert spatial.distance(1, 3) == pytest.approx(dense.distance(1, 3))


class TestKernels:
    @given(
        alpha=st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 2.5, 3.7]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_dist_pow_matches_reference(self, alpha, seed):
        rng = np.random.default_rng(seed)
        dist_sq = rng.uniform(1e-6, 1e4, size=64)
        np.testing.assert_allclose(
            _kernels.dist_pow(dist_sq, alpha),
            np.power(np.sqrt(dist_sq), alpha),
            rtol=1e-12,
        )

    def test_near_reduce(self):
        idx = np.array([0, 2, 0, 1, 2, 2], dtype=np.int64)
        gains = np.array([1.0, 5.0, 3.0, 2.0, 0.5, 4.0])
        sums, maxs = _kernels.near_reduce(idx, gains, 4)
        np.testing.assert_allclose(sums, [4.0, 2.0, 9.5, 0.0])
        np.testing.assert_allclose(maxs, [3.0, 2.0, 5.0, 0.0])


class TestSpatialRegistration:
    def test_registry_and_make_backend(self):
        positions = random_positions(0, 6)
        assert "spatial" in BACKENDS
        backend = make_backend("spatial", positions, PARAMS)
        assert isinstance(backend, SpatialGridBackend)

    def test_network_threads_spatial_backend(self):
        positions = random_positions(21, 25)
        dense_net = WirelessNetwork(positions.copy())
        spatial_net = WirelessNetwork(positions.copy(), backend="spatial")
        assert isinstance(spatial_net.physics, SpatialGridBackend)
        config = AlgorithmConfig.fast()
        dense_result = local_broadcast(SINRSimulator(dense_net), config=config)
        spatial_result = local_broadcast(SINRSimulator(spatial_net), config=config)
        assert dense_result.delivered == spatial_result.delivered
        assert dense_result.rounds_used == spatial_result.rounds_used

    def test_deployment_threads_backend(self):
        network = deployment.uniform_random(12, seed=3, backend="spatial")
        assert isinstance(network.physics, SpatialGridBackend)

    def test_cli_backend_option(self, capsys):
        code = cli_main(
            ["cluster", "--deployment", "uniform", "--nodes", "20", "--seed", "1",
             "--backend", "spatial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "clusters:" in out

    def test_cli_list_shows_physics_backends(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "physics backends:" in out
        assert "spatial" in out
