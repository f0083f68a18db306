"""Tests for the pluggable physics backends (repro.sinr.backends).

The load-bearing guarantees:

* ``DenseMatrixBackend`` and ``LazyBlockBackend`` produce bit-identical
  reception tables on random deployments, at any lazy store capacity
  (property tests; ``tests/test_incremental_physics.py`` adds mutations);
* the dense build holds one gain matrix and a lazy store stays within its
  byte bound (tracemalloc);
* a multi-round ``receptions_table`` matches round-by-round
  ``receptions`` for both backends (property test);
* the batched simulator path (``SINRSimulator.run_schedule_table``) is equivalent
  to a round-by-round execution, counters and wake state included;
* backend selection threads through ``WirelessNetwork``, the deployment
  generators and the CLI.
"""

from __future__ import annotations

import tracemalloc

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
    LazyBlockBackend,
    PhysicsBackend,
    Reception,
    SpatialGridBackend,
    make_backend,
)
from repro.sinr.model import NUMERIC_TOLERANCE, SINRParameters
from repro.sinr.network import WirelessNetwork


def random_positions(seed: int, n: int, side: float = 3.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2))


def both_backends(positions):
    params = SINRParameters.default()
    dense = DenseMatrixBackend(np.asarray(positions, dtype=float), params)
    lazy = LazyBlockBackend(np.asarray(positions, dtype=float), params)
    return dense, lazy


def csr_schedule(schedule):
    """CSR ``(indptr, members)`` form of a list of transmitter index sets."""
    indptr = np.zeros(len(schedule) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in schedule], out=indptr[1:])
    members = np.array([int(t) for r in schedule for t in r], dtype=np.int64)
    return indptr, members


def run_rounds(sim, rounds, **kwargs):
    """Run per-round transmitter uid lists as one ``run_schedule_table`` call.

    Returns, per round, the ``(receiver uid, sender uid)`` deliveries.
    """
    counts = [len(r) for r in rounds]
    deliveries = sim.run_schedule_table(
        len(rounds),
        np.repeat(np.arange(len(rounds), dtype=np.int64), counts),
        np.array([uid for r in rounds for uid in r], dtype=np.int64),
        **kwargs,
    )
    pairs = [[] for _ in rounds]
    for t, receiver, sender in zip(
        deliveries.round_ids.tolist(),
        deliveries.receiver_uids.tolist(),
        deliveries.sender_uids.tolist(),
    ):
        pairs[t].append((receiver, sender))
    return pairs


def table_rounds(table):
    """Per-round ``{receiver: Reception}`` dicts of a ``DeliveryTable``."""
    rounds = [{} for _ in range(table.num_rounds)]
    for t, r, s, q in zip(
        table.round_ids.tolist(), table.receivers.tolist(), table.senders.tolist(), table.sinr.tolist()
    ):
        rounds[t][r] = Reception(receiver=r, sender=s, sinr=q)
    return rounds


def assert_tables_identical(a, b):
    """Bit-identical tables, all four columns.

    Dense and lazy read their gains from one row routine, so no tolerance
    applies between them, nor between cache states of one backend.
    """
    assert a.num_rounds == b.num_rounds
    for column in ("round_ids", "receivers", "senders", "sinr"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def one_round(backend, transmitters, listeners=None):
    return backend.receptions_table(*csr_schedule([transmitters]), listeners=listeners)


class OneRowLazy(LazyBlockBackend):
    """A lazy backend whose store holds a single row: constant eviction."""

    _CACHE_BYTES = 1


class FullLazy(LazyBlockBackend):
    """A lazy backend whose store has room for every row: nothing is evicted."""

    _CACHE_BYTES = 1 << 40


class TestBackendEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=2, max_value=24),
        tx_seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_receptions_identical_on_random_deployments(self, seed, n, tx_seed):
        positions = random_positions(seed, n)
        dense, lazy = both_backends(positions)
        rng = np.random.default_rng(tx_seed)
        transmitters = list(np.flatnonzero(rng.random(n) < 0.4))
        assert_tables_identical(one_round(dense, transmitters), one_round(lazy, transmitters))

    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_receptions_identical_with_restricted_listeners(self, seed, n):
        positions = random_positions(seed, n)
        dense, lazy = both_backends(positions)
        transmitters = list(range(0, n, 2))
        listeners = list(range(1, n, 2))
        assert_tables_identical(
            one_round(dense, transmitters, listeners), one_round(lazy, transmitters, listeners)
        )

    def assert_lazy_store_matches_dense(self, lazy):
        positions = lazy.positions
        dense = DenseMatrixBackend(positions, SINRParameters.default())
        n = len(positions)
        schedule = [
            list(np.flatnonzero(np.random.default_rng(seed).random(n) < 0.5))
            for seed in range(5)
        ] + [[3], [3], [0, n - 1]]
        for listeners in (None, [1, 4, 9, 16]):
            assert_tables_identical(
                dense.receptions_table(*csr_schedule(schedule), listeners=listeners),
                lazy.receptions_table(*csr_schedule(schedule), listeners=listeners),
            )
        everyone = np.arange(n)
        assert np.array_equal(lazy.gain_block(everyone, everyone), dense._gains)

    def test_lazy_equivalent_under_cache_thrash(self):
        # A one-row store evicts constantly and computes every multi-row
        # request uncached; results must not change by a bit.
        lazy = OneRowLazy(random_positions(7, 20), SINRParameters.default())
        assert lazy.cache_info()["capacity_rows"] == 1
        self.assert_lazy_store_matches_dense(lazy)

    def test_full_capacity_lazy_store_matches_dense(self):
        lazy = FullLazy(random_positions(8, 20), SINRParameters.default())
        assert lazy.cache_info()["capacity_rows"] >= 20
        self.assert_lazy_store_matches_dense(lazy)
        info = lazy.cache_info()
        assert info["resident_rows"] == 20
        assert info["misses"] == 20  # each row computed once, never evicted

    def test_lazy_cache_serves_repeated_rows(self):
        positions = random_positions(3, 12)
        _, lazy = both_backends(positions)
        lazy.receptions([0, 1, 2])
        misses_after_first = lazy.cache_info()["misses"]
        lazy.receptions([0, 1, 2])
        info = lazy.cache_info()
        assert info["misses"] == misses_after_first
        assert info["hits"] >= 3

    def test_scalar_helpers_agree(self):
        positions = random_positions(11, 10)
        dense, lazy = both_backends(positions)
        assert lazy.gain(0, 1) == dense.gain(0, 1)
        assert lazy.distance(2, 3) == dense.distance(2, 3)
        assert lazy.sinr(0, 1, [0, 2, 3]) == dense.sinr(0, 1, [0, 2, 3])
        assert lazy.interference_at(1, [0, 2]) == dense.interference_at(1, [0, 2])
        assert lazy.hears_alone(0, 1) == dense.hears_alone(0, 1)

    def test_co_located_nodes_handled_identically(self):
        positions = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
        dense, lazy = both_backends(positions)
        assert_tables_identical(one_round(dense, [0]), one_round(lazy, [0]))
        assert_tables_identical(one_round(dense, [0, 1]), one_round(lazy, [0, 1]))


class TestGainStoreMemory:
    """The store is the only O(n^2) (dense) or O(capacity * n) (lazy) state."""

    def test_dense_build_holds_one_gain_matrix(self):
        n = 3000
        positions = random_positions(1, n, side=3.9 * np.sqrt(n / 120))
        matrix = 8 * n * n
        tracemalloc.start()
        try:
            backend = DenseMatrixBackend(positions, SINRParameters.default())
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert backend._gains.nbytes == matrix
        assert current <= 1.1 * matrix
        assert peak <= 1.5 * matrix

    @pytest.mark.parametrize("cache_bytes, n", [(1, 400), (64 * 1024, 400), (4 * 1024 * 1024, 1500)])
    def test_lazy_store_stays_within_its_bound(self, cache_bytes, n):
        cls = type("BoundedLazy", (LazyBlockBackend,), {"_CACHE_BYTES": cache_bytes})
        positions = random_positions(2, n, side=3.9 * np.sqrt(n / 120))
        bound = max(cache_bytes, 8 * n)
        rng = np.random.default_rng(3)
        # Three passes over every node, 40 transmitters a round.
        order = np.concatenate([rng.permutation(n) for _ in range(3)])
        schedule = csr_schedule([order[i : i + 40] for i in range(0, len(order), 40)])
        tracemalloc.start()
        try:
            backend = cls(positions, SINRParameters.default())
            backend.receptions_table(*schedule)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert backend.cache_info()["misses"] >= n
        assert backend._store.nbytes <= bound
        # Besides the store: the slot maps, O(n + capacity) integers.
        assert current <= bound + 64 * n


class TestReceptionsBatch:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=20),
        rounds=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_round_by_round(self, seed, n, rounds):
        positions = random_positions(seed, n)
        rng = np.random.default_rng(seed + 1)
        schedule = [list(np.flatnonzero(rng.random(n) < 0.35)) for _ in range(rounds)]
        for backend in both_backends(positions):
            batch = table_rounds(backend.receptions_table(*csr_schedule(schedule)))
            assert len(batch) == rounds
            for tx, outcome in zip(schedule, batch):
                assert outcome == backend.receptions(tx)

    def test_batch_respects_listener_restriction(self):
        positions = random_positions(5, 14)
        listeners = [1, 3, 5, 7]
        schedule = [[0, 2], [4], [], [0, 6, 8]]
        for backend in both_backends(positions):
            batch = table_rounds(
                backend.receptions_table(*csr_schedule(schedule), listeners=listeners)
            )
            for tx, outcome in zip(schedule, batch):
                assert outcome == backend.receptions(tx, listeners=listeners)
                assert set(outcome) <= set(listeners)

    def test_batch_chunking_boundary(self):
        # Force a tiny block budget so the chunking path is exercised.
        positions = random_positions(9, 10)
        dense, _ = both_backends(positions)
        dense._BATCH_BLOCK_ELEMENTS = 10
        schedule = [[0, 1], [2, 3], [4, 5], [0, 5], []]
        batch = table_rounds(dense.receptions_table(*csr_schedule(schedule)))
        assert len(batch) == len(schedule)
        for tx, outcome in zip(schedule, batch):
            assert outcome == dense.receptions(tx)


ALL_BACKENDS = (DenseMatrixBackend, LazyBlockBackend, SpatialGridBackend)


class TestScheduleValidation:
    """Out-of-range indices and malformed CSR raise instead of wrapping."""

    def backend(self, cls):
        return cls(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0]]),
                   SINRParameters.default())

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    @pytest.mark.parametrize("listeners", [[-3], [0, 4], np.array([1, -1])])
    def test_listener_out_of_range(self, cls, listeners):
        with pytest.raises(ValueError, match="listener index out of range"):
            self.backend(cls).receptions([0], listeners=listeners)

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    @pytest.mark.parametrize("transmitters", [[-1], [0, 4]])
    def test_transmitter_out_of_range(self, cls, transmitters):
        backend = self.backend(cls)
        with pytest.raises(ValueError, match="transmitter index out of range"):
            backend.receptions(transmitters)
        with pytest.raises(ValueError, match="transmitter index out of range"):
            backend.receptions_table(*csr_schedule([[1], transmitters]))

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "indptr, members, message",
        [
            ([1, 2], [0, 1], "start at 0"),
            ([], [], "start at 0"),
            ([0, 2, 1, 3], [0, 1, 2], "non-decreasing"),
            ([0, 1], [0, 1], "end at len"),
            ([0, 3], [0, 1], "end at len"),
        ],
    )
    def test_malformed_indptr(self, cls, indptr, members, message):
        with pytest.raises(ValueError, match=message):
            self.backend(cls).receptions_table(np.array(indptr), np.array(members))

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_valid_edge_schedules_still_accepted(self, cls):
        backend = self.backend(cls)
        assert backend.receptions_table(np.array([0]), np.array([])).num_rounds == 0
        assert len(backend.receptions_table(*csr_schedule([[], []]))) == 0
        assert backend.receptions([0], listeners=[]) == {}
        assert set(backend.receptions([0], listeners=[3, 1, 1])) == {1}


class TestSimulatorBatchPath:
    def test_run_schedule_matches_run_round_sequence(self):
        network_a = deployment.uniform_random(30, area_side=2.5, seed=4)
        network_b = deployment.uniform_random(30, area_side=2.5, seed=4)
        rng = np.random.default_rng(8)
        uids = network_a.uids
        rounds = [
            [uid for uid in uids if rng.random() < 0.3] for _ in range(20)
        ]
        batch_sim = SINRSimulator(network_a)
        loop_sim = SINRSimulator(network_b)
        batched = run_rounds(batch_sim, rounds)
        for tx_uids, batched_round in zip(rounds, batched):
            assert dict(batched_round) == loop_sim.run_round(tx_uids)
        assert batch_sim.current_round == loop_sim.current_round
        assert batch_sim.messages_sent == loop_sim.messages_sent
        assert batch_sim.messages_delivered == loop_sim.messages_delivered

    def test_run_schedule_wakes_on_reception(self):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        source = network.uids[0]
        sim.put_all_to_sleep(except_for=[source])
        deliveries = run_rounds(
            sim, [[source]], listeners=network.uids, wake_on_reception=True
        )
        woken = {receiver for receiver, _ in deliveries[0]}
        assert woken
        for uid in woken:
            assert sim.is_awake(uid)

    def test_run_schedule_drops_sleeping_listeners_without_wake(self):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        source = network.uids[0]
        sim.put_all_to_sleep(except_for=[source])
        deliveries = run_rounds(sim, [[source]], listeners=network.uids)
        assert deliveries == [[]]

    def test_run_schedule_charges_silent_rounds(self):
        network = deployment.line(3)
        sim = SINRSimulator(network)
        run_rounds(sim, [[], [network.uids[0]], [], []])
        assert sim.current_round == 4
        assert sim.messages_sent == 1


class TestBackendSelection:
    def test_make_backend_by_name(self):
        positions = random_positions(0, 6)
        params = SINRParameters.default()
        assert isinstance(make_backend("dense", positions, params), DenseMatrixBackend)
        assert isinstance(make_backend("lazy", positions, params), LazyBlockBackend)
        with pytest.raises(ValueError):
            make_backend("hologram", positions, params)

    def test_make_backend_passthrough_validates_size(self):
        positions = random_positions(0, 6)
        params = SINRParameters.default()
        backend = LazyBlockBackend(positions, params)
        assert make_backend(backend, positions, params) is backend
        with pytest.raises(ValueError):
            make_backend(backend, positions[:3], params)

    def test_registry_names(self):
        assert set(BACKENDS) == {"dense", "lazy", "spatial"}
        for cls in BACKENDS.values():
            assert issubclass(cls, PhysicsBackend)

    def test_physics_engine_is_dense_backend(self):
        engine = WirelessNetwork(random_positions(1, 4)).physics
        assert isinstance(engine, DenseMatrixBackend)
        assert isinstance(engine, PhysicsBackend)

    def test_lazy_backend_has_no_distance_matrix(self):
        _, lazy = both_backends(random_positions(2, 5))
        with pytest.raises(ValueError):
            lazy.distances
        with pytest.raises(ValueError):
            lazy.positions[0, 0] = 1.0

    def test_network_accepts_lazy_backend(self):
        positions = random_positions(21, 25)
        dense_net = WirelessNetwork(positions)
        lazy_net = WirelessNetwork(positions, backend="lazy")
        assert isinstance(lazy_net.physics, LazyBlockBackend)
        config = AlgorithmConfig.fast()
        dense_result = local_broadcast(SINRSimulator(dense_net), config=config)
        lazy_result = local_broadcast(SINRSimulator(lazy_net), config=config)
        assert dense_result.delivered == lazy_result.delivered
        assert dense_result.rounds_used == lazy_result.rounds_used

    def test_deployment_threads_backend(self):
        network = deployment.uniform_random(12, seed=3, backend="lazy")
        assert isinstance(network.physics, LazyBlockBackend)

    def test_cli_backend_option(self, capsys):
        code = cli_main(
            ["cluster", "--deployment", "uniform", "--nodes", "20", "--seed", "1", "--backend", "lazy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "clusters:" in out


class TestToleranceConstant:
    def test_single_source_of_truth(self):
        assert NUMERIC_TOLERANCE == 1e-12
        import repro.sinr.geometry as geometry

        assert geometry.NUMERIC_TOLERANCE is NUMERIC_TOLERANCE
