"""Cross-backend differential harness: every backend, every schedule family.

The contract pinned here is the repo's strongest invariant: for any seeded
deployment and any CSR schedule, the dense, lazy and spatial backends emit
the *same reception events* (receiver, decoded sender, round) as a
brute-force evaluation of Equation 1, with SINR values matching to tight
relative tolerance -- and the spatial backend's batched round driver is
**bit-identical** however its batches are cut, from one round each to the
default limits.

Structure:

* a schedule-family zoo (ssf, wss, wcss node stage, TDMA, round-robin
  cycles, random-with-empty-rounds) generating CSR ``(indptr, members)``
  over node indices;
* a backend zoo (dense, lazy, spatial with its round cap set to K in
  {1, 7, 64} on the instance, at its default limits, and with its cost
  rule forced onto the certificate ladder);
* a float64 loop oracle stating Equation 1 directly
  (:func:`repro.testing.oracle.oracle_events`), checked against
  ``receptions_table`` and ``receptions`` of every backend (dense and lazy
  share one evaluation routine, so comparing them with each other alone
  would not check it);
* the matrix test sweeping families x backends x seeds;
* bit-identity and hypothesis properties for the batched driver
  (associativity across round splits);
* a per-round loop reference for the generic dense/lazy path, which must
  match it to the last bit (``sinr`` included) on random CSR schedules;
* a golden-digest regression corpus (``golden_reception_digests.json``)
  whose failure message names the first diverging round;
* a forced-branch property: the spatial cost rule's exact-first branch
  and its certificate ladder give bit-identical tables;
* counter-accounting and listener-cache invalidation unit tests.

Regenerate the golden corpus after an *intentional* physics change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_backend_differential.py -k golden -q
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selectors import ssf, wcss, wss
from repro.simulation.engine import SINRSimulator
from repro.simulation.schedule import run_schedule
from repro.sinr import deployment
from repro.sinr.backends import (
    DenseMatrixBackend,
    LazyBlockBackend,
    SpatialGridBackend,
)
from repro.sinr.backends import _kernels
from repro.sinr.model import NUMERIC_TOLERANCE, SINRParameters
from repro.testing.oracle import oracle_events

PARAMS = SINRParameters.default()

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_reception_digests.json")

#: Spatial round caps under test; ``"auto"`` keeps the class defaults.
BATCH_SIZES = (1, 7, 64, "auto")


# --------------------------------------------------------------------- #
# Deployments and schedule families.
# --------------------------------------------------------------------- #


def random_positions(seed: int, n: int, side: float = 4.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2))


def _csr_from_family(family) -> tuple:
    # Selector IDs live in 1..N; backend transmitters are indices 0..n-1.
    return (np.asarray(family.indptr, dtype=np.int64),
            np.asarray(family.members, dtype=np.int64) - 1)


def schedule_csr(family: str, n: int, seed: int) -> tuple:
    """CSR ``(indptr, members)`` over node indices ``0..n-1``."""
    if family == "ssf":
        return _csr_from_family(ssf.prime_residue_ssf(n, min(4, n))._family)
    if family == "wss":
        return _csr_from_family(wss.random_wss(n, min(4, n), seed=seed)._family)
    if family == "wcss":
        cas = wcss.random_wcss(n, min(4, n), 2, seed=seed)
        return _csr_from_family(cas.node_family)
    if family == "tdma":
        # One transmitter per round: the contention-free anchor.
        return (np.arange(n + 1, dtype=np.int64), np.arange(n, dtype=np.int64))
    if family == "round-robin":
        return _csr_from_family(ssf.round_robin_schedule(n).repeated(3)._family)
    if family == "random-empties":
        # Random rounds, ~1 in 4 empty: exercises the empty-round fast path
        # inside batches, not just whole-empty schedules.
        rng = np.random.default_rng(seed)
        members, indptr = [], [0]
        for _ in range(24):
            if rng.random() < 0.25:
                chosen = np.empty(0, dtype=np.int64)
            else:
                chosen = np.flatnonzero(rng.random(n) < 0.35)
            members.append(chosen)
            indptr.append(indptr[-1] + len(chosen))
        return (np.array(indptr, dtype=np.int64),
                np.concatenate(members) if members else np.empty(0, np.int64))
    raise ValueError(f"unknown schedule family {family!r}")


FAMILIES = ("ssf", "wss", "wcss", "tdma", "round-robin", "random-empties")


def spatial_backend(positions: np.ndarray, batch="auto") -> SpatialGridBackend:
    """A spatial backend whose batches hold at most ``batch`` rounds.

    ``"auto"`` keeps the default limits; an int overrides the private
    round cap on this instance only.  No result may depend on it.
    """
    backend = SpatialGridBackend(positions, PARAMS)
    if batch != "auto":
        backend._BATCH_ROUNDS = batch
    return backend


def reference_cuts(sizes, max_entries: int, max_rounds: int) -> list:
    """Greedy ``[start, end)`` round batches, one Python step per round."""
    cuts, start = [], 0
    while start < len(sizes):
        end, taken = start + 1, int(sizes[start])
        while (end < len(sizes) and end - start < max_rounds
               and taken + int(sizes[end]) <= max_entries):
            taken += int(sizes[end])
            end += 1
        cuts.append((start, end))
        start = end
    return cuts


def backend_zoo(positions: np.ndarray) -> dict:
    positions = np.asarray(positions, dtype=float)
    zoo = {
        "dense": DenseMatrixBackend(positions.copy(), PARAMS),
        "lazy": LazyBlockBackend(positions.copy(), PARAMS),
    }
    for k in BATCH_SIZES:
        zoo[f"spatial-k{k}"] = spatial_backend(positions.copy(), k)
    # Small placements make the cost rule pick exact-first; this leg keeps
    # the certificate ladder under the oracle and the matrix.
    zoo["spatial-ladder"] = spatial_backend(positions.copy())
    zoo["spatial-ladder"]._EXACT_FIRST_RATIO = 0.0
    return zoo


def assert_tables_equal(a, b, rel=1e-9):
    """Events exact, SINR to relative tolerance (cross-backend contract)."""
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    np.testing.assert_allclose(a.sinr, b.sinr, rtol=rel)


def assert_tables_bit_identical(a, b):
    """All four arrays equal to the last bit (batched-driver contract)."""
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    assert np.array_equal(a.sinr, b.sinr), (
        "batched spatial driver diverged from round-by-round at the bit level"
    )


# --------------------------------------------------------------------- #
# Brute-force Equation 1 oracle (repro.testing.oracle).
# --------------------------------------------------------------------- #


def assert_matches_oracle(table, events, indptr, members):
    assert [(int(t), int(r), int(s)) for t, r, s in zip(
        table.round_ids, table.receivers, table.senders)] == [e[:3] for e in events]
    np.testing.assert_allclose(table.sinr, [e[3] for e in events], rtol=1e-9)
    for t, r in zip(table.round_ids, table.receivers):
        assert r not in members[indptr[t]:indptr[t + 1]]  # half-duplex


ORACLE_BACKENDS = ("dense", "lazy", "spatial-kauto", "spatial-ladder")


class TestEquationOneOracle:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("restricted", [False, True])
    def test_backends_match_brute_force(self, family, restricted):
        n = 24
        positions = random_positions(5, n)
        indptr, members = schedule_csr(family, n, 5)
        listeners = np.array([7, 3, 3, 20, 0, 11, 16]) if restricted else None
        events = oracle_events(positions, indptr, members, PARAMS, listeners)
        assert events, "vacuous: the oracle delivered nothing"
        zoo = backend_zoo(positions)
        for name in ORACLE_BACKENDS:
            backend = zoo[name]
            table = backend.receptions_table(indptr, members, listeners)
            assert_matches_oracle(table, events, indptr, members)
            for t in range(len(indptr) - 1):
                got = backend.receptions(members[indptr[t]:indptr[t + 1]], listeners)
                want = {e[1]: e for e in events if e[0] == t}
                assert sorted(got) == sorted(want), (name, t)
                for r, rec in got.items():
                    assert rec.sender == want[r][2]
                    assert rec.sinr == pytest.approx(want[r][3], rel=1e-9)


# --------------------------------------------------------------------- #
# The matrix: families x backends x seeds.
# --------------------------------------------------------------------- #


class TestCrossBackendMatrix:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_all_backends_agree(self, family, seed):
        n = 26
        positions = random_positions(seed, n)
        indptr, members = schedule_csr(family, n, seed)
        zoo = backend_zoo(positions)
        reference = zoo["dense"].receptions_table(indptr, members)
        for name, backend in zoo.items():
            if name == "dense":
                continue
            assert_tables_equal(reference,
                                backend.receptions_table(indptr, members))

    @pytest.mark.parametrize("family", ["ssf", "random-empties"])
    def test_all_backends_agree_with_restricted_listeners(self, family):
        n = 24
        positions = random_positions(11, n)
        indptr, members = schedule_csr(family, n, 11)
        listeners = np.arange(1, n, 2)
        zoo = backend_zoo(positions)
        reference = zoo["dense"].receptions_table(indptr, members,
                                                  listeners=listeners)
        for name, backend in zoo.items():
            if name == "dense":
                continue
            assert_tables_equal(
                reference,
                backend.receptions_table(indptr, members, listeners=listeners),
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_spatial_batched_bit_identical_to_unbatched(self, family):
        n = 30
        positions = random_positions(23, n)
        indptr, members = schedule_csr(family, n, 23)
        base = spatial_backend(positions.copy(), 1)
        reference = base.receptions_table(indptr, members)
        for k in (2, 7, 64, "auto"):
            other = spatial_backend(positions.copy(), k)
            assert_tables_bit_identical(
                reference, other.receptions_table(indptr, members)
            )

    def test_batch_limits_keep_results(self):
        n = 20
        positions = random_positions(3, n)
        indptr, members = schedule_csr("ssf", n, 3)
        fused = spatial_backend(positions.copy())
        batched = fused.receptions_table(indptr, members)
        unfused = spatial_backend(positions.copy(), 1)
        single = unfused.receptions_table(indptr, members)
        assert unfused.grid_info()["batches"] == np.count_nonzero(np.diff(indptr))
        assert fused.grid_info()["batches"] < unfused.grid_info()["batches"]
        assert_tables_bit_identical(batched, single)


# --------------------------------------------------------------------- #
# Batched-driver properties.
# --------------------------------------------------------------------- #


coordinate = st.integers(min_value=0, max_value=24).map(lambda v: v / 6.0)
position = st.tuples(coordinate, coordinate)
positions_strategy = st.lists(position, min_size=2, max_size=16).map(
    lambda pts: np.array(pts, dtype=float)
)


def _random_csr(n: int, seed: int, rounds: int):
    rng = np.random.default_rng(seed)
    members, indptr = [], [0]
    for _ in range(rounds):
        chosen = np.flatnonzero(rng.random(n) < 0.4)
        members.append(chosen)
        indptr.append(indptr[-1] + len(chosen))
    return (np.array(indptr, dtype=np.int64),
            np.concatenate(members) if members else np.empty(0, np.int64))


class TestBatchedDriverProperties:
    @given(
        positions=positions_strategy,
        sched_seed=st.integers(0, 500),
        rounds=st.integers(1, 12),
        batch=st.sampled_from([2, 3, 7, 64, "auto"]),
        entries=st.sampled_from([1, 5, 4096]),
        block=st.sampled_from([1, 7, 4_000_000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_on_grid_snapped_placements(
        self, positions, sched_seed, rounds, batch, entries, block
    ):
        """Co-located pairs and cell-boundary coordinates, batched.

        The entry budget and the far-field / exact-stage element budget
        are cut down too, so batches and stage chunks split everywhere.
        """
        n = len(positions)
        indptr, members = _random_csr(n, sched_seed, rounds)
        base = spatial_backend(positions.copy(), 1)
        other = spatial_backend(positions.copy(), batch)
        other._BATCH_ENTRIES = entries
        other._BATCH_BLOCK_ELEMENTS = block
        assert_tables_bit_identical(
            base.receptions_table(indptr, members),
            other.receptions_table(indptr, members),
        )

    @given(
        seed=st.integers(0, 500),
        n=st.integers(2, 20),
        rounds=st.integers(2, 14),
        split=st.integers(1, 13),
        batch=st.sampled_from([1, 3, 64, "auto"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batching_is_associative_across_round_splits(
        self, seed, n, rounds, split, batch
    ):
        """Splitting a schedule at any round boundary changes nothing.

        This is the property that makes the fused driver correct by
        construction: batch boundaries are round boundaries, so if a split
        run concatenates to the full run, any batch partition does.
        """
        split = min(split, rounds - 1)
        positions = random_positions(seed, n)
        indptr, members = _random_csr(n, seed + 1, rounds)
        backend = spatial_backend(positions, batch)
        full = backend.receptions_table(indptr, members)

        lo = int(indptr[split])
        head = backend.receptions_table(indptr[: split + 1], members[:lo])
        tail_ptr = indptr[split:] - lo
        tail = backend.receptions_table(tail_ptr, members[lo:])

        assert np.array_equal(
            full.round_ids,
            np.concatenate([head.round_ids, tail.round_ids + split]),
        )
        assert np.array_equal(full.receivers,
                              np.concatenate([head.receivers, tail.receivers]))
        assert np.array_equal(full.senders,
                              np.concatenate([head.senders, tail.senders]))
        assert np.array_equal(full.sinr,
                              np.concatenate([head.sinr, tail.sinr]))


class TestCostRuleBranches:
    @given(
        positions=positions_strategy,
        scale=st.sampled_from([1.0, 4.0]),
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 500),
        entries=st.sampled_from([1, 5, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_forced_branches_bit_identical(self, positions, scale, family, seed, entries):
        """Exact-first and the certificate ladder deliver the same table.

        One instance runs the schedule with the cost rule forced each way
        (``_EXACT_FIRST_RATIO`` 0: always the ladder; ``inf``: always
        exact-first).  The scaled placements spread the nodes over a wide
        grid, where the certificates really prune.
        """
        positions = positions * scale
        indptr, members = schedule_csr(family, len(positions), seed)
        backend = spatial_backend(positions)
        backend._BATCH_ENTRIES = entries
        backend._EXACT_FIRST_RATIO = 0.0
        ladder = backend.receptions_table(indptr, members)
        assert backend.grid_info()["batches_exact_first"] == 0
        pruned = ("pruned_signal", "pruned_near", "pruned_far")
        before = [backend.grid_info()[k] for k in pruned]
        backend._EXACT_FIRST_RATIO = math.inf
        exact_first = backend.receptions_table(indptr, members)
        info = backend.grid_info()
        # Batches whose candidates all transmit stop before the rule.
        assert info["batches_exact_first"] <= info["batches"]
        assert info["join_entries"] == 0
        assert [info[k] for k in pruned] == before
        assert_tables_bit_identical(ladder, exact_first)


class TestPairBudget:
    @pytest.mark.parametrize("ratio", [0.0, math.inf])
    def test_default_pair_budget_splits_a_real_batch(self, ratio):
        """The spatial pair budget (2^14) cuts a real batch's exact tail.

        300 nodes on a 6 x 6 square with six rounds of 100 transmitters:
        one batch whose exact pair list exceeds the budget on both branches
        of the cost rule (``ratio`` 0 forces the ladder, ``inf``
        exact-first).  The default budget, the base's 4M (no cut) and 1
        (one candidate per chunk) must give bit-identical tables.
        """
        n, k, num_rounds = 300, 100, 6
        positions = random_positions(41, n, side=6.0)
        rng = np.random.default_rng(41)
        members = np.concatenate(
            [np.sort(rng.choice(n, k, replace=False)) for _ in range(num_rounds)]
        )
        indptr = np.arange(num_rounds + 1, dtype=np.int64) * k
        default = SpatialGridBackend._BATCH_BLOCK_ELEMENTS
        assert default == 1 << 14
        tables, pairs = [], []
        for block in (default, 4_000_000, 1):
            backend = spatial_backend(positions.copy())
            backend._EXACT_FIRST_RATIO = ratio
            backend._BATCH_BLOCK_ELEMENTS = block
            exact = backend._exact_eval_segments

            def counted(tx_pool, seg_starts, seg_counts, rx_nodes, exact=exact):
                pairs.append(int(seg_counts.sum()))
                return exact(tx_pool, seg_starts, seg_counts, rx_nodes)

            backend._exact_eval_segments = counted
            tables.append(backend.receptions_table(indptr, members))
            info = backend.grid_info()
            assert info["batches"] == 1
            assert info["batches_exact_first"] == (1 if ratio == math.inf else 0)
        assert min(pairs) > default
        assert len(tables[0]) > 0
        assert_tables_bit_identical(tables[0], tables[1])
        assert_tables_bit_identical(tables[0], tables[2])


# --------------------------------------------------------------------- #
# Generic (dense/lazy) path against the per-round reference.
# --------------------------------------------------------------------- #


def per_round_reference(backend, indptr, members, listeners=None):
    """The generic ``receptions_table`` as one Python iteration per round.

    Chunks rounds greedily under ``_BATCH_BLOCK_ELEMENTS`` (one
    ``gain_block`` call per chunk) and reduces each round's contiguous row
    slice on its own.  The shipped routine groups each chunk's rounds by
    size instead; it must agree with this to the last bit, ``sinr``
    included.
    """
    indptr, members, rx = backend._schedule_arrays(indptr, members, listeners)
    num_rounds = len(indptr) - 1
    threshold = PARAMS.beta - NUMERIC_TOLERANCE
    pos_in_rx = np.full(backend.size, -1, dtype=np.int64)
    pos_in_rx[rx] = np.arange(rx.size)
    rows = []
    max_rows = max(1, backend._BATCH_BLOCK_ELEMENTS // max(rx.size, 1))
    counts = np.diff(indptr)
    start = 0
    while start < num_rounds and rx.size:
        end, taken = start + 1, int(counts[start])
        while end < num_rounds and taken + counts[end] <= max_rows:
            taken += int(counts[end])
            end += 1
        entries = members[indptr[start]:indptr[end]]
        if entries.size:
            block = backend.gain_block(entries, rx)
            base = int(indptr[start])
            for t in range(start, end):
                lo, hi = int(indptr[t]) - base, int(indptr[t + 1]) - base
                if lo == hi:
                    continue
                gains = block[lo:hi]
                total = gains.sum(axis=0)
                best = gains.max(axis=0)
                sinr = best / (PARAMS.noise + (total - best))
                ok = sinr >= threshold
                own = pos_in_rx[entries[lo:hi]]
                ok[own[own >= 0]] = False
                picked = np.flatnonzero(ok)
                winners = gains[:, picked].argmax(axis=0)
                rows.append((np.full(picked.size, t), rx[picked],
                             entries[lo:hi][winners], sinr[picked]))
        start = end
    return [np.concatenate([r[i] for r in rows]) if rows else np.empty(0)
            for i in range(4)]


@st.composite
def csr_schedules(draw, n):
    """CSR rounds over ``0..n-1``: empty rounds interleaved with rounds of
    1..n transmitters in arbitrary (unsorted) order."""
    indptr, members = [0], []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.booleans()) and draw(st.booleans()):
            chosen = []
        else:
            chosen = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        members.extend(chosen)
        indptr.append(len(members))
    return (np.array(indptr, dtype=np.int64),
            np.array(members, dtype=np.int64))


@st.composite
def generic_path_cases(draw):
    positions = draw(positions_strategy)
    n = len(positions)
    indptr, members = draw(csr_schedules(n))
    listeners = draw(st.one_of(
        st.none(),
        # Unsorted, duplicated and overlapping the transmitters.
        st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n).map(np.array),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n),
    ))
    pool = n if listeners is None else len(set(np.asarray(listeners).tolist()))
    # Small budgets split chunks inside and between size groups.
    budget = draw(st.sampled_from([1, pool, 2 * pool, 5 * pool, 4_000_000]))
    return positions, indptr, members, listeners, budget


class TestGenericPathMatchesPerRoundReference:
    @given(case=generic_path_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_round_loop(self, case):
        positions, indptr, members, listeners, budget = case
        for backend in (DenseMatrixBackend(positions.copy(), PARAMS),
                        LazyBlockBackend(positions.copy(), PARAMS)):
            backend._BATCH_BLOCK_ELEMENTS = budget
            table = backend.receptions_table(indptr, members, listeners)
            rounds, receivers, senders, sinr = per_round_reference(
                backend, indptr, members, listeners)
            assert np.array_equal(table.round_ids, rounds)
            assert np.array_equal(table.receivers, receivers)
            assert np.array_equal(table.senders, senders)
            assert np.array_equal(table.sinr, sinr)

    def test_single_listener_wide_rounds(self):
        """One listener and rounds wider than NumPy's 8-way unrolled sum."""
        positions = random_positions(4, 40, side=6.0)
        rng = np.random.default_rng(4)
        rounds = [rng.permutation(40)[:k] for k in (1, 9, 17, 9, 33, 17, 1)]
        indptr = np.cumsum([0] + [len(r) for r in rounds])
        members = np.concatenate(rounds)
        for listener in range(40):
            for backend in (DenseMatrixBackend(positions.copy(), PARAMS),
                            LazyBlockBackend(positions.copy(), PARAMS)):
                table = backend.receptions_table(indptr, members, [listener])
                want = per_round_reference(backend, indptr, members, [listener])
                assert np.array_equal(table.sinr, want[3])
                assert np.array_equal(table.senders, want[2])
                assert np.array_equal(table.round_ids, want[0])


class TestEdgeCases:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_all_empty_rounds(self, batch):
        positions = random_positions(2, 10)
        backend = spatial_backend(positions, batch)
        indptr = np.zeros(6, dtype=np.int64)
        table = backend.receptions_table(indptr, np.empty(0, dtype=np.int64))
        assert table.num_rounds == 5
        assert len(table) == 0
        info = backend.grid_info()
        assert info["rounds_empty"] == 5
        assert info["rounds_fused"] == 0 and info["rounds_single"] == 0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_everyone_transmits_nobody_listens(self, batch):
        n = 12
        positions = random_positions(4, n)
        backend = spatial_backend(positions, batch)
        indptr = np.array([0, n, 2 * n], dtype=np.int64)
        members = np.tile(np.arange(n, dtype=np.int64), 2)
        table = backend.receptions_table(indptr, members)
        # Half-duplex: every node transmits, so nobody can receive.
        assert len(table) == 0
        # Explicitly empty listener pool behaves the same way.
        table = backend.receptions_table(
            indptr, members, listeners=np.empty(0, dtype=np.int64)
        )
        assert len(table) == 0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_single_node_network(self, batch):
        positions = np.array([[1.0, 1.0]])
        backend = spatial_backend(positions, batch)
        indptr = np.array([0, 1, 1], dtype=np.int64)
        members = np.array([0], dtype=np.int64)
        table = backend.receptions_table(indptr, members)
        assert table.num_rounds == 2
        assert len(table) == 0

    @pytest.mark.parametrize("batch", [1, 7, "auto"])
    def test_single_node_tiles(self, batch):
        # Nodes far apart: every occupied grid tile holds exactly one node,
        # so near/far pruning and the fused join see singleton buckets.
        positions = np.array(
            [[float(5 * i), float(3 * j)] for i in range(4) for j in range(3)]
        )
        n = len(positions)
        indptr, members = schedule_csr("ssf", n, 0)
        dense = DenseMatrixBackend(positions.copy(), PARAMS)
        spatial = spatial_backend(positions.copy(), batch)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            spatial.receptions_table(indptr, members),
        )


# --------------------------------------------------------------------- #
# Counters and caches.
# --------------------------------------------------------------------- #


class TestBatchCounters:
    def _counters(self, backend):
        info = backend.grid_info()
        return {k: info[k] for k in (
            "batches", "rounds_fused", "rounds_single", "rounds_empty",
            "join_entries", "batches_exact_first",
        )}

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("family", ["ssf", "random-empties"])
    def test_round_accounting_is_total(self, batch, family):
        # A wide, sparse placement: the cost rule runs the certificate
        # ladder on some batches, so the join counter is exercised.
        n = 40
        positions = random_positions(13, n, side=12.0)
        indptr, members = schedule_csr(family, n, 13)
        num_rounds = len(indptr) - 1
        sizes = np.diff(indptr)
        backend = spatial_backend(positions, batch)
        # The default entry budget, then one small enough to cut batches
        # before the round cap does.
        for entries in (backend._BATCH_ENTRIES, 10):
            backend._BATCH_ENTRIES = entries
            backend.receptions_table(indptr, members)
            c = self._counters(backend)
            assert c["rounds_fused"] + c["rounds_single"] + c["rounds_empty"] == num_rounds
            # rounds_single counts non-empty rounds alone in their batch.
            cuts = reference_cuts(sizes, entries, backend._BATCH_ROUNDS)
            per_batch = [np.count_nonzero(sizes[a:b]) for a, b in cuts]
            assert c["batches"] == sum(1 for m in per_batch if m)
            assert c["rounds_single"] == sum(1 for m in per_batch if m == 1)
            assert c["rounds_fused"] == sum(m for m in per_batch if m > 1)
            if batch == 1:
                assert c["rounds_fused"] == 0
                assert c["rounds_single"] == np.count_nonzero(sizes)
            assert 0 <= c["batches_exact_first"] < c["batches"]
            assert c["join_entries"] > 0

    def test_counters_reset_per_run(self):
        n = 18
        positions = random_positions(17, n)
        indptr, members = schedule_csr("ssf", n, 17)
        backend = spatial_backend(positions, 7)
        backend.receptions_table(indptr, members)
        first = self._counters(backend)
        backend.receptions_table(indptr, members)
        assert self._counters(backend) == first  # reset, not accumulated
        short_ptr = indptr[:3]
        backend.receptions_table(short_ptr, members[: short_ptr[-1]])
        c = self._counters(backend)
        assert c["rounds_fused"] + c["rounds_single"] + c["rounds_empty"] == 2

    def test_default_limits_fuse_narrow_schedule(self):
        """A long, narrow selector schedule (the paper's regime) is fused."""
        n = 120
        positions = random_positions(19, n, side=8.0)
        indptr, members = schedule_csr("ssf", n, 19)
        backend = SpatialGridBackend(positions, PARAMS)
        backend.receptions_table(indptr, members)
        c = self._counters(backend)
        num_rounds = len(indptr) - 1
        assert c["rounds_fused"] + c["rounds_single"] + c["rounds_empty"] == num_rounds
        assert c["rounds_fused"] > 0
        assert c["batches"] < np.count_nonzero(np.diff(indptr))


class TestListenerBucketCache:
    def test_cache_reused_across_rounds_of_one_schedule(self):
        n = 20
        positions = random_positions(29, n)
        indptr, members = _random_csr(n, 29, rounds=8)
        backend = spatial_backend(positions, 1)
        backend.receptions_table(indptr, members)
        cached = backend._listener_cache
        assert cached is not None
        backend.receptions_table(indptr, members)
        assert backend._listener_cache is cached  # same tuple: no rebuild

    def test_cache_invalidated_by_move_nodes(self):
        n = 18
        net = deployment.uniform_random(n, area_side=4.0, seed=31,
                                        backend="spatial")
        backend = net.physics
        indptr, members = _random_csr(n, 31, rounds=6)
        backend.receptions_table(indptr, members)
        version = backend._grid_version
        cached = backend._listener_cache
        assert cached is not None and cached[0] == version

        # Network-level mutation funnels through update_positions and must
        # bump the grid version, orphaning the cached buckets.
        moved = [net.uids[0], net.uids[1]]
        net.move_nodes(moved, [[0.05, 0.05], [3.9, 3.9]])
        assert backend._grid_version > version

        # Fresh results after the move match a cold dense backend exactly.
        dense = DenseMatrixBackend(backend.positions.copy(), PARAMS)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            backend.receptions_table(indptr, members),
        )
        assert backend._listener_cache[0] == backend._grid_version

    def test_cache_keyed_on_listener_array_contents(self):
        n = 16
        positions = random_positions(37, n)
        backend = spatial_backend(positions, 1)
        indptr, members = _random_csr(n, 37, rounds=4)
        evens = np.arange(0, n, 2)
        odds = np.arange(1, n, 2)
        a = backend.receptions_table(indptr, members, listeners=evens)
        b = backend.receptions_table(indptr, members, listeners=odds)
        dense = DenseMatrixBackend(positions.copy(), PARAMS)
        assert_tables_equal(dense.receptions_table(indptr, members,
                                                   listeners=odds), b)
        assert_tables_equal(dense.receptions_table(indptr, members,
                                                   listeners=evens), a)


# --------------------------------------------------------------------- #
# Golden digests: seeded corpus, failure names the diverging round.
# --------------------------------------------------------------------- #

GOLDEN_SPECS = [
    {"name": "uniform-ssf", "seed": 101, "n": 28, "side": 4.0,
     "family": "ssf"},
    {"name": "uniform-wss", "seed": 102, "n": 28, "side": 4.0,
     "family": "wss"},
    {"name": "dense-ball-wcss", "seed": 103, "n": 24, "side": 1.2,
     "family": "wcss"},
    {"name": "sparse-tdma", "seed": 104, "n": 20, "side": 12.0,
     "family": "tdma"},
    {"name": "uniform-empties", "seed": 105, "n": 26, "side": 3.0,
     "family": "random-empties"},
]


def _event_digests(table):
    """Whole-table and per-round SHA-256 of the *event* columns.

    SINR floats are excluded on purpose: the golden corpus pins the event
    set (which is exact across backends), not last-ulp float layout.
    """
    whole = hashlib.sha256()
    per_round = []
    bounds = np.searchsorted(table.round_ids,
                             np.arange(table.num_rounds + 1))
    for t in range(table.num_rounds):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(table.receivers[lo:hi]).tobytes())
        h.update(np.ascontiguousarray(table.senders[lo:hi]).tobytes())
        digest = h.hexdigest()
        per_round.append(digest)
        whole.update(digest.encode())
    return whole.hexdigest(), per_round


def _golden_table(spec, batch):
    positions = random_positions(spec["seed"], spec["n"], spec["side"])
    indptr, members = schedule_csr(spec["family"], spec["n"], spec["seed"])
    backend = spatial_backend(positions, batch)
    return backend.receptions_table(indptr, members)


class TestGoldenDigests:
    def test_corpus_matches(self):
        regen = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
        corpus = {}
        if not regen:
            with open(GOLDEN_PATH) as fh:
                corpus = json.load(fh)
        fresh = {}
        for spec in GOLDEN_SPECS:
            table = _golden_table(spec, batch="auto")
            whole, per_round = _event_digests(table)
            fresh[spec["name"]] = {"table": whole, "rounds": per_round}
            if regen:
                continue
            expected = corpus[spec["name"]]
            if whole != expected["table"]:
                diverged = [
                    t for t, (a, b) in enumerate(
                        zip(per_round, expected["rounds"])
                    ) if a != b
                ]
                first = diverged[0] if diverged else len(expected["rounds"])
                pytest.fail(
                    f"golden digest mismatch for {spec['name']!r}: first "
                    f"diverging round index {first} "
                    f"(diverging rounds: {diverged[:10]})"
                )
        if regen:
            with open(GOLDEN_PATH, "w") as fh:
                json.dump(fresh, fh, indent=2, sort_keys=True)
                fh.write("\n")

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_corpus_batch_invariant(self, batch):
        """Every golden entry digests identically at every batch size."""
        with open(GOLDEN_PATH) as fh:
            corpus = json.load(fh)
        for spec in GOLDEN_SPECS:
            whole, _ = _event_digests(_golden_table(spec, batch))
            assert whole == corpus[spec["name"]]["table"], (
                f"{spec['name']!r} diverges at a {batch}-round cap"
            )


# --------------------------------------------------------------------- #
# NumPy kernels against trivial loops.
# --------------------------------------------------------------------- #


class TestKernelBackendLeg:
    def test_segment_strongest_numpy_reference(self):
        """The NumPy segment kernel against a trivial per-segment loop."""
        rng = np.random.default_rng(41)
        num_segments = 9
        seg_idx = np.sort(rng.integers(0, num_segments, size=60))
        gains = rng.uniform(0.1, 5.0, size=60)
        totals, best_gain, best_idx = _kernels.segment_strongest(
            seg_idx, gains, num_segments
        )
        for s in range(num_segments):
            mask = seg_idx == s
            if not mask.any():
                assert totals[s] == 0.0 and best_gain[s] == 0.0
                continue
            flat = np.flatnonzero(mask)
            expected_total = 0.0
            for i in flat:  # sequential order, as np.bincount accumulates
                expected_total += gains[i]
            assert totals[s] == expected_total
            assert best_gain[s] == gains[flat].max()
            assert best_idx[s] == flat[np.argmax(gains[flat])]


# --------------------------------------------------------------------- #
# Runner-level threading: batch limits hold through the stack.
# --------------------------------------------------------------------- #


class TestRunnerThreading:
    def test_run_schedule_batch_cut_equivalent(self):
        net_a = deployment.uniform_random(40, area_side=4.0, seed=43,
                                          backend="spatial")
        net_b = deployment.uniform_random(40, area_side=4.0, seed=43,
                                          backend="spatial")
        net_a.physics._BATCH_ROUNDS = 1
        net_b.physics._BATCH_ROUNDS = 16
        sched = ssf.prime_residue_ssf(64, 4)
        ids = list(net_a.uids)
        res_a = run_schedule(SINRSimulator(net_a), sched, ids)
        res_b = run_schedule(SINRSimulator(net_b), sched, ids)
        ra, sa, va = res_a.event_table()
        rb, sb, vb = res_b.event_table()
        assert np.array_equal(ra, rb)
        assert np.array_equal(sa, sb)
        assert np.array_equal(va, vb)
        assert net_a.physics.grid_info()["rounds_fused"] == 0
        assert net_b.physics.grid_info()["rounds_fused"] > 0
