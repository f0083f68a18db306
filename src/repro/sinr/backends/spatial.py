"""Spatially-indexed physics backend: certified near/far interference split.

Both historical backends charge every listener for all ``n`` potential
interferers each round -- dense through an O(n^2) gain matrix, lazy through
on-demand full rows.  Physical SINR gain decays polynomially with distance
(``P / d^alpha``, ``alpha > 2``), so almost all of that work goes into
contributions that cannot change any reception decision.  This backend
exploits that structure without ever approximating a result:

* Positions are bucketed into a **uniform grid** whose cell side is derived
  from the model's transmission range (and therefore from the path-loss
  exponent): any transmitter outside the 3x3 cell block around a listener
  is provably too far to be decoded on its own.
* Each round, only listeners with a transmitter in their 3x3 block are
  *candidates*; everyone else is **certified-rejected** by the signal upper
  bound alone.  Per-round cost is thus O(active area), independent of
  ``n``.
* A candidate's SINR denominator is split into an **exact near-field sum**
  over the cells within the current ring and a **far-field lower bound**
  aggregated per occupied tile (tile transmit power over the tile's
  farthest-corner distance).  A ring-expansion loop widens the exact region
  ring by ring, re-testing a certified rejection bound each time.
* Listeners whose decision the bounds cannot certify -- in practice the
  actual receivers plus a thin threshold-marginal shell -- **fall back to
  exact summation** over the full transmitter set, evaluated with the same
  formulas as the dense backend.
* The certificates are an optional pruning stage, chosen per batch by a
  **cost rule**: exact evaluation of every candidate costs about
  ``exact_est`` = sum over candidate tiles of listeners x round size
  pairs, the ring-1 join alone ``join_est`` = sum over candidate tiles of
  listeners x same-round transmitters in the tile's 3x3 block.  When
  ``exact_est <= _EXACT_FIRST_RATIO * join_est`` -- small grids, where the
  3x3 block holds most of each round, as in the paper's constant-density
  schedules at n ~ 100 -- the batch skips the ladder and every candidate
  goes to the exact tail; wide grids keep the ladder.  Both branches share
  the exact tail, and a candidate's exact result depends only on its own
  round, so the choice never changes a table.

The certificates are one-sided and sound: a listener is only dropped when
an *upper bound* on its best achievable SINR is below ``beta -
NUMERIC_TOLERANCE`` (exactly the dense backend's acceptance threshold), and
every listener that survives the bounds is evaluated exactly.  Delivered
events -- receiver, decoded sender and reported SINR -- therefore match the
dense backend event for event (up to the usual last-ulp float-summation
differences between backends); ``tests/test_spatial_backend.py`` pins the
equivalence on randomized deployments, including incremental mutations.

The hot loops (pair gains, near-field segment reduction, exact
strongest-transmitter resolution) are the NumPy primitives of
:mod:`repro.sinr.backends._kernels`.

**The batched round driver.**  A full algorithm execution issues ~10^5
schedule rounds, and at 100k+ nodes each round's *physics* is cheap -- the
cost floor is the fixed NumPy call overhead per round (argsort /
searchsorted / unique on small arrays).  :meth:`receptions_table` therefore
cuts the schedule into batches of consecutive CSR rounds -- at most
``_BATCH_ENTRIES`` transmitter entries and ``_BATCH_ROUNDS`` rounds each,
with the budget rule every backend chunks by -- and evaluates each batch
through one composite-keyed pass (:meth:`_batch_core`): transmitters are
keyed by ``round x tile``, candidates become unique ``(round, listener)``
pairs, and every stage -- the cost rule, the 3x3 join, the ring shells,
the grouped far-field bound and the segmented exact fallback -- runs once
per batch instead of once per round.  It is the only spatial reception
path: a single round (``receptions``) is a batch of one.  Every reduction is
grouped per segment (sequential per-segment accumulation, chunked only at
segment boundaries), which makes the result **bit-identical** for every
way of cutting the schedule: batching changes neither events nor reported
SINR values, and splitting a schedule at any round boundary is
associative.  ``tests/test_backend_differential.py`` pins both properties
across backends, schedule families and batch limits.

Two rules keep the memory-bound per-batch stages cheap.  Coordinate rows
are gathered with ``take`` (``positions.take(idx, axis=0)``), never with a
fancy row index: it copies the same values about ten times faster per
``(x, y)`` row, and the exact tail gathers two rows per (listener,
transmitter) pair.  And the two pair-list loops -- the exact tail and the
far-field bound -- cut their pair lists at candidate boundaries into
chunks of at most ``_BATCH_BLOCK_ELEMENTS`` = 2^14 pairs, so the twenty
or so temporaries of a chunk stay in cache.  Neither rule changes a
value.

Soundness of the certificates (all bounds are cell-rectangle bounds, valid
for any point positions inside the cells):

* two nodes in tiles at Chebyshev tile-distance ``c >= 1`` are at least
  ``(c - 1) * cell`` apart, hence any transmitter outside a listener's
  ring-``r`` block contributes gain at most ``P / ((r - 1) * cell)^alpha``
  (for ``r >= 2``) and, outside the 3x3 block, at most the constant
  ``P / cell^alpha`` -- which the constructor guarantees is below the
  solo-decoding threshold ``(beta - NUMERIC_TOLERANCE) * noise``;
* a far tile at tile offset ``(di, dj)`` holds its ``m`` transmitters
  within ``hypot(di + 1, dj + 1) * cell`` of every point of the listener's
  cell, so ``m * P / d_max^alpha`` lower-bounds its true interference
  contribution;
* consequently, for any candidate with near-field maximum ``g``, the true
  SINR is at most ``g / (noise + near_sum + far_lower - g)`` -- the
  quantity the ring loop drives below threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import NUMERIC_TOLERANCE, SINRParameters
from . import _kernels
from .base import (
    COLOCATED_GAIN,
    DeliveryTable,
    PhysicsBackend,
    _budget_cuts,
    _empty_table,
    check_node_indices,
    gain_matrix,
)

#: Bound on the total number of grid cells, as a multiple of ``n``.  Very
#: sparse bounding boxes (a handful of nodes spread over a huge area) grow
#: the cell side instead of materializing an empty mega-grid; larger cells
#: only loosen performance, never correctness.
_CELLS_PER_NODE = 8


def _csr_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class SpatialGridBackend(PhysicsBackend):
    """SINR physics over a uniform spatial grid with certified far-field bounds.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.  Metric-only (distance matrix)
        construction is not supported: the grid needs coordinates.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.

    The backend has no tuning options: the cell side, the ring depth and
    the batch limits below are fixed, and none of them changes a result.
    """

    #: Cell side, as a multiple of the transmission range.  The margin over
    #: 1.0 guarantees that any transmitter beyond the 3x3 near block (at
    #: distance >= cell) is strictly below the solo-decoding threshold, so
    #: the signal-only rejection certificate is sound.  The grid may *grow*
    #: the cell beyond this to keep the total cell count within ``8 n``.
    _CELL_MARGIN = 1.0 + 1.0 / 16.0

    #: Number of exact near-field rings the certification loop expands
    #: through before the far-field bound (a 5x5 exact block at the widest).
    _MAX_RING = 2

    #: Batch limits of :meth:`receptions_table`: at most this many schedule
    #: entries (transmitter slots) -- enough to amortize the per-call NumPy
    #: floors, small enough that the composite join temporaries stay
    #: cache-warm -- and at most this many rounds, which keeps composite
    #: keys inside int64 and the per-batch candidate set bounded on sparse
    #: schedules.
    _BATCH_ENTRIES = 4096
    _BATCH_ROUNDS = 64

    #: Pair budget of the two pair-list loops (:meth:`_exact_eval_segments`
    #: and :meth:`_far_lower_bound`), overriding the base's 4M elements: each
    #: chunk allocates about twenty arrays of its pair count, and at 2^14
    #: pairs they stay in cache.  Chunks split only at candidate (or query)
    #: boundaries, so the budget never changes a result.
    _BATCH_BLOCK_ELEMENTS = 1 << 14

    #: Cost rule of :meth:`_batch_core`: a batch skips the certificate
    #: ladder and evaluates every candidate exactly when that exact work
    #: (listeners x round size, summed over candidate tiles) is at most this
    #: many times the ring-1 join (listeners x same-round transmitters in
    #: each tile's 3x3 block).  0 forces the ladder, ``inf`` exact-first;
    #: neither changes a result.
    _EXACT_FIRST_RATIO = 4.0

    def __init__(self, positions: np.ndarray, params: SINRParameters) -> None:
        super().__init__(params)
        self._positions = self._placement(positions)
        self._n = len(self._positions)
        # Grid state, built lazily (and invalidated by mutations that move
        # nodes outside the current bounding box).
        self._cell: float = 0.0
        self._origin: Optional[np.ndarray] = None
        self._shape: Optional[Tuple[int, int]] = None
        self._cell_of: Optional[np.ndarray] = None
        # Bumped on every mutation of positions / cell assignments; guards
        # the cached listener bucketing (see _bucket_listeners).
        self._grid_version = 0
        self._listener_cache: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
        # Cumulative certification counters (across all queries since
        # construction -- the existing observability contract).
        self._stats = {
            "rounds": 0,
            "listeners": 0,
            "candidates": 0,
            "pruned_signal": 0,
            "pruned_near": 0,
            "pruned_far": 0,
            "exact": 0,
            "near_pairs": 0,
        }
        # Batch-driver counters, reset at the start of every
        # receptions_table call so they describe exactly the last run:
        # rounds_fused + rounds_single + rounds_empty == num_rounds.
        self._batch_stats = {
            "batches": 0,
            "rounds_fused": 0,
            "rounds_single": 0,
            "rounds_empty": 0,
            "join_entries": 0,
            "batches_exact_first": 0,
        }

    # ------------------------------------------------------------------ #
    # Shape accessors and the gain primitive.
    # ------------------------------------------------------------------ #

    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Gain sub-matrix computed straight from positions (dense conventions)."""
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        gains = gain_matrix(self._positions[senders], self._positions[receivers], self._params)
        gains[senders[:, None] == receivers[None, :]] = 0.0
        return gains

    def grid_info(self) -> Dict[str, object]:
        """Grid geometry, certification counters and batch-driver counters.

        Certification counters (``rounds`` .. ``near_pairs``) are cumulative
        across the backend's lifetime; the batch counters (``batches``,
        ``rounds_fused``, ``rounds_single``, ``rounds_empty``,
        ``join_entries``, ``batches_exact_first``) describe only the most
        recent :meth:`receptions_table` call and satisfy ``rounds_fused +
        rounds_single + rounds_empty == num_rounds`` for that call:
        ``rounds_single`` counts non-empty rounds that were the only
        non-empty round of their batch, ``rounds_fused`` the rest.
        ``batches_exact_first`` counts the batches the cost rule sent
        straight to exact evaluation (the rest of the batches with
        candidates ran the certificate ladder).
        """
        self._ensure_grid()
        ncx, ncy = self._shape  # type: ignore[misc]
        info: Dict[str, object] = {
            "cell_size": self._cell,
            "cells_x": ncx,
            "cells_y": ncy,
            "max_ring": self._MAX_RING,
        }
        info.update(self._stats)
        info.update(self._batch_stats)
        return info

    # ------------------------------------------------------------------ #
    # Grid construction and cell (re-)bucketing.
    # ------------------------------------------------------------------ #

    def _build_grid(self) -> None:
        """Anchor the grid on the current bounding box and bucket every node.

        The cell side starts at ``_CELL_MARGIN`` transmission ranges and
        doubles until the total cell count fits the ``8 n`` budget, so
        sparse mega-areas never materialize empty index structures.  Growing cells is always sound:
        every certificate only relies on the cell side being *at least* the
        certified minimum.
        """
        pos = self._positions
        mins = pos.min(axis=0)
        span = pos.max(axis=0) - mins
        cell = self._params.transmission_range * self._CELL_MARGIN
        budget = max(1024, _CELLS_PER_NODE * self._n)
        while (int(span[0] / cell) + 1) * (int(span[1] / cell) + 1) > budget:
            cell *= 2.0
        self._cell = cell
        self._origin = mins
        ncx = int(span[0] / cell) + 1
        ncy = int(span[1] / cell) + 1
        self._shape = (ncx, ncy)
        self._cell_of = self._cells_for(pos)
        self._grid_version += 1
        # Per-tile-offset far-field contribution: gain at the farthest-corner
        # distance of a tile |di|, |dj| cells away.  One table per grid, so
        # the far bound is pure gathers (no transcendental per pair).
        with np.errstate(divide="ignore"):
            self._far_gain = self._params.power / np.power(
                np.hypot(
                    np.arange(1, ncx + 1, dtype=float)[:, None],
                    np.arange(1, ncy + 1, dtype=float)[None, :],
                )
                * cell,
                self._params.alpha,
            )

    def _cells_for(self, xy: np.ndarray) -> np.ndarray:
        """Linearized cell indices of the given coordinates (must be in bounds)."""
        ncx, ncy = self._shape  # type: ignore[misc]
        cx = np.minimum(((xy[:, 0] - self._origin[0]) / self._cell).astype(np.int64), ncx - 1)
        cy = np.minimum(((xy[:, 1] - self._origin[1]) / self._cell).astype(np.int64), ncy - 1)
        return cx * ncy + cy

    def _in_bounds(self, xy: np.ndarray) -> bool:
        """Whether all coordinates fall inside the current grid's bounding box."""
        ncx, ncy = self._shape  # type: ignore[misc]
        rel = xy - self._origin
        return bool(
            np.all(rel >= 0.0)
            and np.all(rel[:, 0] < ncx * self._cell)
            and np.all(rel[:, 1] < ncy * self._cell)
        )

    def _ensure_grid(self) -> None:
        if self._shape is None:
            self._build_grid()

    # ------------------------------------------------------------------ #
    # Incremental placement mutation (cell re-bucketing).
    # ------------------------------------------------------------------ #

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move nodes by re-bucketing them into their new grid cells.

        Movers that stay inside the grid's bounding box cost O(m): their
        cell ids are recomputed and nothing else changes (there are no
        per-pair caches to patch -- gains are always evaluated from
        positions).  A mover leaving the box triggers a full O(n) grid
        rebuild on the next query.  Either way the backend is
        indistinguishable from one freshly built over the new placement.
        """
        indices, new_xy = self._check_moves(self._n, indices, new_xy)
        if not indices.size:
            return
        self._positions[indices] = new_xy
        self._grid_version += 1
        if self._shape is None:
            return
        if self._in_bounds(new_xy):
            self._cell_of[indices] = self._cells_for(new_xy)
        else:
            self._shape = None

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes; in-bounds joiners are bucketed into existing cells."""
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        if not len(new_xy):
            return
        self._positions = np.vstack([self._positions, new_xy])
        self._n += len(new_xy)
        self._grid_version += 1
        if self._shape is None:
            return
        if self._in_bounds(new_xy):
            self._cell_of = np.concatenate([self._cell_of, self._cells_for(new_xy)])
        else:
            self._shape = None

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete nodes; survivors keep their cells under compacted indices."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not indices.size:
            return
        check_node_indices(indices, self._n)
        keep = np.setdiff1d(np.arange(self._n), indices)
        if not keep.size:
            raise ValueError("cannot remove every node from a backend")
        self._positions = self._positions[keep]
        self._n = len(keep)
        self._grid_version += 1
        if self._shape is not None:
            self._cell_of = self._cell_of[keep]

    # ------------------------------------------------------------------ #
    # The certified round evaluation.
    # ------------------------------------------------------------------ #

    def _tx_pairs(
        self,
        lcx: np.ndarray,
        lcy: np.ndarray,
        offsets: np.ndarray,
        utiles: np.ndarray,
        tile_starts: np.ndarray,
        tile_counts: np.ndarray,
        base_key: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(listener position, tx-sorted position) pairs for the given tile offsets.

        ``lcx``/``lcy`` are the listeners' cell coordinates; ``offsets`` is
        an ``(m, 2)`` int array of tile offsets.  Every (listener, offset)
        neighbour tile is joined against the occupied transmitter tiles
        (``utiles`` sorted, with CSR ``tile_starts`` / ``tile_counts`` into
        the tile-sorted transmitter array) in one broadcast pass -- this
        runs tens of thousands of times per local-broadcast execution, so
        no Python loop over offsets.

        ``base_key`` is a per-listener composite offset -- ``relative round
        x cell count`` -- added to each neighbour tile id, and ``utiles``
        holds matching composite ``(round, tile)`` keys: the join matches
        only transmitter tiles of the listener's own round.
        """
        ncx, ncy = self._shape  # type: ignore[misc]
        tx_ = lcx[:, None] + offsets[:, 0][None, :]
        ty_ = lcy[:, None] + offsets[:, 1][None, :]
        ok = (tx_ >= 0) & (tx_ < ncx) & (ty_ >= 0) & (ty_ < ncy)
        lidx = np.broadcast_to(
            np.arange(lcx.size, dtype=np.int64)[:, None], tx_.shape
        )[ok]
        tiles = tx_[ok] * ncy + ty_[ok] + base_key[lidx]
        pos = np.minimum(np.searchsorted(utiles, tiles), utiles.size - 1)
        hit = utiles[pos] == tiles
        pos = pos[hit]
        if not pos.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        counts = tile_counts[pos]
        return np.repeat(lidx[hit], counts), _csr_take(tile_starts[pos], counts)

    @staticmethod
    def _ring_offsets(r: int) -> List[Tuple[int, int]]:
        """Tile offsets at Chebyshev distance exactly ``r`` (the ring shell)."""
        if r == 0:
            return [(0, 0)]
        ring = []
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                if max(abs(dx), abs(dy)) == r:
                    ring.append((dx, dy))
        return ring

    _offset_cache: Dict[Tuple[str, int], np.ndarray] = {}

    @classmethod
    def _shell_arr(cls, r: int) -> np.ndarray:
        """``_ring_offsets(r)`` as a cached ``(m, 2)`` int64 array."""
        key = ("shell", r)
        if key not in cls._offset_cache:
            cls._offset_cache[key] = np.asarray(cls._ring_offsets(r), dtype=np.int64)
        return cls._offset_cache[key]

    @classmethod
    def _block_arr(cls, r: int) -> np.ndarray:
        """All offsets with Chebyshev distance ``<= r``, cached."""
        key = ("block", r)
        if key not in cls._offset_cache:
            offs: List[Tuple[int, int]] = []
            for s in range(r + 1):
                offs.extend(cls._ring_offsets(s))
            cls._offset_cache[key] = np.asarray(offs, dtype=np.int64)
        return cls._offset_cache[key]

    def _far_lower_bound(
        self,
        ltile_keys: np.ndarray,
        ucx: np.ndarray,
        ucy: np.ndarray,
        tile_counts: np.ndarray,
        round_tile_ptr: np.ndarray,
        ring: int,
    ) -> np.ndarray:
        """Certified lower bound on far-field interference, per listener.

        Every occupied tile beyond Chebyshev tile-distance ``ring``
        contributes at least ``count * P / d_max^alpha`` where ``d_max`` is
        the farthest-corner distance between the listener's cell and the
        tile -- valid wherever the individual nodes sit inside their cells.

        ``ltile_keys`` are composite ``relative round x cell count + tile``
        keys per listener; ``ucx``/``ucy``/``tile_counts`` describe
        the occupied transmitter tiles in composite order and
        ``round_tile_ptr`` is the CSR pointer from relative round to its
        tile range.  The bound depends on the listener only through its
        ``(round, tile)`` key, so it is evaluated once per unique key -- a
        ragged (query x same-round tiles) join reduced with ``bincount``,
        whose per-query accumulation order is the round's tile order
        regardless of batching or chunk boundaries (chunks split only
        between queries).  That order-stability is what keeps results
        bit-identical across batch sizes.
        """
        ncx, ncy = self._shape  # type: ignore[misc]
        ncells = np.int64(ncx) * np.int64(ncy)
        uniq, inverse = np.unique(ltile_keys, return_inverse=True)
        qround, qtile = np.divmod(uniq, ncells)
        qcx, qcy = np.divmod(qtile, np.int64(ncy))
        counts = round_tile_ptr[qround + 1] - round_tile_ptr[qround]
        q = uniq.size
        per_tile = np.zeros(q)
        for start, end in _budget_cuts(counts, self._BATCH_BLOCK_ELEMENTS):
            m = end - start
            pq = np.repeat(np.arange(m, dtype=np.int64), counts[start:end])
            pt = _csr_take(round_tile_ptr[qround[start:end]], counts[start:end])
            di = np.abs(qcx[start:end][pq] - ucx[pt])
            dj = np.abs(qcy[start:end][pq] - ucy[pt])
            far = (di > ring) | (dj > ring)
            contrib = np.where(far, tile_counts[pt] * self._far_gain.take(di * ncy + dj), 0.0)
            per_tile[start:end] = np.bincount(pq, weights=contrib, minlength=m)
        return per_tile[inverse]

    def _exact_eval_segments(
        self,
        tx_pool: np.ndarray,
        seg_starts: np.ndarray,
        seg_counts: np.ndarray,
        rx_nodes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact (total power, best gain, best sender node) per candidate.

        Candidate ``i`` (listening at node ``rx_nodes[i]``) is evaluated
        against the transmitter nodes ``tx_pool[seg_starts[i] :
        seg_starts[i] + seg_counts[i]]`` -- its round's transmitters in
        schedule order, so the strongest-tie break (first transmitter in
        round order, via :func:`segment_strongest`) matches the dense
        backend's ``argmax``.  Same gain arithmetic as :meth:`gain_block`;
        transmitters and candidates are disjoint (half-duplex filtering
        upstream), so no self-pair zeroing is needed.  Pair lists are
        chunked only at candidate boundaries and each segment accumulates
        sequentially, so results are independent of chunking and of how
        candidates from different rounds are interleaved -- every batch
        size agrees bit for bit.
        """
        u = rx_nodes.size
        totals = np.empty(u)
        best_gain = np.empty(u)
        best_sender = np.empty(u, dtype=np.int64)
        power, alpha = self._params.power, self._params.alpha
        for start, end in _budget_cuts(seg_counts, self._BATCH_BLOCK_ELEMENTS):
            m = end - start
            pair_cand = np.repeat(np.arange(m, dtype=np.int64), seg_counts[start:end])
            pair_pos = _csr_take(seg_starts[start:end], seg_counts[start:end])
            txy = self._positions.take(tx_pool.take(pair_pos), axis=0)
            rxy = self._positions.take(rx_nodes[start:end], axis=0).take(pair_cand, axis=0)
            dx = txy[:, 0] - rxy[:, 0]
            dy = txy[:, 1] - rxy[:, 1]
            with np.errstate(divide="ignore"):
                gains = power / _kernels.dist_pow(dx * dx + dy * dy, alpha)
            gains[np.isinf(gains)] = COLOCATED_GAIN
            t, g, i = _kernels.segment_strongest(pair_cand, gains, m)
            totals[start:end] = t
            best_gain[start:end] = g
            best_sender[start:end] = tx_pool[pair_pos[i]]
        return totals, best_gain, best_sender

    # ------------------------------------------------------------------ #
    # The batched schedule driver.
    # ------------------------------------------------------------------ #

    def _bucket_listeners(self, rx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sort the listener pool by cell id: (sorted cells, matching rx-locals).

        Algorithm runs issue many schedule evaluations over the *same*
        listener pool, so the bucketing (an O(|rx| log |rx|) argsort) is
        memoized for the last pool seen.  The cache key includes
        ``_grid_version``, which every placement mutation bumps -- a moved
        node lands in a fresh bucketing, never a stale one (unit-tested via
        ``move_nodes``).
        """
        cached = self._listener_cache
        if (
            cached is not None
            and cached[0] == self._grid_version
            and cached[1].shape == rx.shape
            and np.array_equal(cached[1], rx)
        ):
            return cached[2], cached[3]
        cells = self._cell_of[rx]
        order = np.argsort(cells, kind="stable")
        result = (cells[order], order.astype(np.int64))
        self._listener_cache = (self._grid_version, rx.copy(), result[0], result[1])
        return result

    def _batch_core(
        self,
        t0: int,
        t1: int,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        btx: np.ndarray,
        btcell: np.ndarray,
        bround: np.ndarray,
        rx: np.ndarray,
        rx_cells_sorted: np.ndarray,
        rx_local_sorted: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused evaluation of rounds ``[t0, t1)`` through one composite join.

        ``btx``/``btcell``/``bround`` are the batch's transmitters, their
        cell ids and their *relative* round ids, stably sorted by
        ``(round, cell)`` -- slices of the per-schedule composite argsort.
        After the half-duplex probe the cost rule (``_EXACT_FIRST_RATIO``)
        sends the candidates either straight to :meth:`_exact_tail` or
        through the certificate ladder first.
        Every stage runs exactly once for the whole batch, keyed by
        ``relative round x cell count + tile`` so rounds never mix;
        per-listener pair sequences, reduction orders and chunk-boundary
        rules do not depend on which other rounds share the batch, making
        the fused results bit-identical to running rounds one at a time.
        Returns ``(absolute round id, rx-local receiver, sender, sinr)``
        arrays in round-major, receiver-sorted order.
        """
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=float),
        )
        params = self._params
        noise = params.noise
        threshold = params.beta - NUMERIC_TOLERANCE
        stats = self._stats
        bstats = self._batch_stats
        ncx, ncy = self._shape  # type: ignore[misc]
        ncells = np.int64(ncx) * np.int64(ncy)
        num_rel = t1 - t0

        # Composite (round, tile) bucketing: tkey is already sorted because
        # the batch slice is round-major and cell-sorted within each round.
        tkey = bround * ncells + btcell
        cuts = np.flatnonzero(np.diff(tkey)) + 1
        tile_starts = np.concatenate([[0], cuts]).astype(np.int64)
        utile_key = tkey[tile_starts]
        tile_counts = np.diff(np.concatenate([tile_starts, [tkey.size]]))
        uround, utile = np.divmod(utile_key, ncells)
        ucx, ucy = np.divmod(utile, np.int64(ncy))
        round_tile_ptr = np.searchsorted(
            uround, np.arange(num_rel + 1, dtype=np.int64), side="left"
        ).astype(np.int64)
        nonempty = int(np.count_nonzero(round_tile_ptr[1:] > round_tile_ptr[:-1]))
        stats["rounds"] += nonempty
        stats["listeners"] += rx.size * nonempty

        # Candidate (round, listener) pairs: listeners in a tile
        # Chebyshev-adjacent to an occupied transmitter tile of the same
        # round.  Everyone else has no transmitter within the 3x3 near
        # block, so their best achievable signal is below the solo-decoding
        # threshold: certified-rejected for free.  The candidates are the
        # unique composite neighbour tiles of the occupied transmitter
        # tiles, joined against the cell-sorted listener pool.  Composite
        # unique keys are round-major and tile-sorted within a round --
        # exactly the concatenation of the per-round candidate lists.
        offs = self._block_arr(1)
        nx_ = ucx[:, None] + offs[:, 0][None, :]
        ny_ = ucy[:, None] + offs[:, 1][None, :]
        ok = (nx_ >= 0) & (nx_ < ncx) & (ny_ >= 0) & (ny_ < ncy)
        base = np.broadcast_to((uround * ncells)[:, None], nx_.shape)[ok]
        cand_keys, nbr_of = np.unique(base + nx_[ok] * ncy + ny_[ok], return_inverse=True)
        cround, ctile = np.divmod(cand_keys, ncells)
        lo = np.searchsorted(rx_cells_sorted, ctile, side="left")
        hi = np.searchsorted(rx_cells_sorted, ctile, side="right")
        ccounts = hi - lo
        cand_round = np.repeat(cround, ccounts)
        cand = rx_local_sorted[_csr_take(lo, ccounts)]
        if cand.size:
            # Half-duplex: drop candidates transmitting in their own round,
            # via a sorted composite (round, node) membership probe.
            txnode_key = np.sort(bround * np.int64(self._n) + btx)
            ckey = cand_round * np.int64(self._n) + rx[cand]
            pos = np.minimum(np.searchsorted(txnode_key, ckey), txnode_key.size - 1)
            keep_c = txnode_key[pos] != ckey
            cand = cand[keep_c]
            cand_round = cand_round[keep_c]
        if not cand.size:
            return empty
        stats["candidates"] += cand.size

        # Cost rule: exact evaluation of every candidate costs about
        # listeners x round size pairs per candidate tile; the ring-1 join
        # alone costs listeners x same-round transmitters in the tile's 3x3
        # block.  Where the block holds a large share of the round (small
        # grids, dense rounds) the certificates cannot save their own cost,
        # so the batch goes straight to the exact tail.
        block_tx = np.bincount(
            nbr_of,
            weights=np.broadcast_to(tile_counts[:, None], nx_.shape)[ok],
            minlength=cand_keys.size,
        )
        round_sizes = tx_indptr[cround + t0 + 1] - tx_indptr[cround + t0]
        exact_est = float(ccounts @ round_sizes)
        join_est = float(ccounts @ block_tx)
        if exact_est <= self._EXACT_FIRST_RATIO * join_est:
            bstats["batches_exact_first"] += 1
            return self._exact_tail(t0, tx_indptr, tx_members, rx, cand, cand_round)

        cand_cells = self._cell_of[rx[cand]]
        lcx, lcy = np.divmod(cand_cells, np.int64(ncy))
        cand_xy = self._positions.take(rx[cand], axis=0)
        base_key = cand_round * ncells

        # Ring 1: exact gains over each candidate's own-round 3x3 block.
        pair_l, pair_t = self._tx_pairs(
            lcx, lcy, offs, utile_key, tile_starts, tile_counts, base_key
        )
        stats["near_pairs"] += pair_l.size
        bstats["join_entries"] += pair_l.size
        gains = _kernels.pair_gains(
            self._positions.take(btx[pair_t], axis=0), cand_xy.take(pair_l, axis=0),
            params.power, params.alpha, COLOCATED_GAIN,
        )
        near_sum, near_max = _kernels.near_reduce(pair_l, gains, cand.size)

        # Certificate 1 (signal): out-of-block gains are below the solo
        # threshold by construction, so listeners whose best near-field
        # gain is too cannot be decoded by anyone.
        und = np.flatnonzero(near_max >= threshold * noise)
        stats["pruned_signal"] += cand.size - und.size
        if not und.size:
            return empty

        # Certificate 2 (near interference): for survivors the global
        # strongest transmitter *is* the near-field maximum, and the exact
        # near sum lower-bounds the total power.
        ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
        keep = ub >= threshold
        stats["pruned_near"] += und.size - int(keep.sum())
        und = und[keep]

        # Ring expansion: widen the exact region shell by shell, tightening
        # the interference lower bound until the rejection is certified.
        for ring in range(2, self._MAX_RING + 1):
            if not und.size:
                break
            shell_l, shell_t = self._tx_pairs(
                lcx[und], lcy[und], self._shell_arr(ring),
                utile_key, tile_starts, tile_counts, base_key[und],
            )
            if shell_l.size:
                stats["near_pairs"] += shell_l.size
                bstats["join_entries"] += shell_l.size
                shell_gains = _kernels.pair_gains(
                    self._positions.take(btx[shell_t], axis=0),
                    cand_xy.take(und, axis=0).take(shell_l, axis=0),
                    params.power, params.alpha, COLOCATED_GAIN,
                )
                shell_sum, _ = _kernels.near_reduce(shell_l, shell_gains, und.size)
                near_sum[und] += shell_sum
            ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
            keep = ub >= threshold
            stats["pruned_near"] += und.size - int(keep.sum())
            und = und[keep]

        # Far-field tile aggregation beyond the widest ring, grouped per
        # (round, listener tile).
        if und.size:
            far_lo = self._far_lower_bound(
                base_key[und] + cand_cells[und],
                ucx, ucy, tile_counts, round_tile_ptr, self._MAX_RING,
            )
            ub = near_max[und] / (noise + (near_sum[und] - near_max[und]) + far_lo)
            keep = ub >= threshold
            stats["pruned_far"] += und.size - int(keep.sum())
            und = und[keep]
        if not und.size:
            return empty
        return self._exact_tail(t0, tx_indptr, tx_members, rx, cand[und], cand_round[und])

    def _exact_tail(
        self,
        t0: int,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        rx: np.ndarray,
        cand: np.ndarray,
        cand_round: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Exact evaluation, threshold and output order of a batch's survivors.

        ``cand`` are rx-local listener indices and ``cand_round`` their
        relative rounds -- every candidate on the exact-first branch, the
        certificate survivors (the rare undecidable listener and every
        actual receiver) on the ladder.  Each survivor is evaluated with the
        dense formulas against its own round's transmitters in schedule
        order, and its result depends only on that segment, so both
        branches deliver bit-identical events.  Returns ``(absolute round
        id, rx-local receiver, sender, sinr)`` in round-major,
        receiver-sorted order.
        """
        params = self._params
        self._stats["exact"] += cand.size
        abs_round = cand_round + t0
        seg_starts = tx_indptr[abs_round]
        seg_counts = tx_indptr[abs_round + 1] - seg_starts
        totals, best_gain, best_sender = self._exact_eval_segments(
            tx_members, seg_starts, seg_counts, rx[cand]
        )
        best_sinr = best_gain / (params.noise + (totals - best_gain))
        ok = np.flatnonzero(best_sinr >= params.beta - NUMERIC_TOLERANCE)
        recv = cand[ok]
        order = np.argsort(cand_round[ok] * np.int64(rx.size) + recv, kind="stable")
        ok = ok[order]
        return abs_round[ok], recv[order], best_sender[ok], best_sinr[ok]

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Columnar schedule evaluation through the certified batch core.

        The listener pool is bucketed once per call and the transmitter
        table is tile-sorted once with a single composite ``(round, cell)``
        argsort; consecutive rounds are then cut into batches of at most
        ``_BATCH_ENTRIES`` entries and ``_BATCH_ROUNDS`` rounds and each
        batch runs through :meth:`_batch_core`.  Results are bit-identical
        however the schedule is cut, one round per batch included --
        batching only amortizes the per-round NumPy call floors.
        :meth:`grid_info` reports the per-run batch counters.
        Semantically identical to the generic chunked path
        (property-tested against the dense backend and a brute-force
        Equation 1 oracle).
        """
        tx_indptr, tx_members, rx = self._schedule_arrays(tx_indptr, tx_members, listeners)
        num_rounds = len(tx_indptr) - 1
        bstats = self._batch_stats
        for key in bstats:
            bstats[key] = 0
        if rx.size == 0 or num_rounds == 0 or len(tx_members) == 0:
            bstats["rounds_empty"] = num_rounds
            return _empty_table(num_rounds)
        self._ensure_grid()
        cells_sorted, locals_sorted = self._bucket_listeners(rx)

        # One composite (round, cell) argsort for the whole schedule: every
        # batch's tile-sorted transmitter slice is a slice of this order
        # (stable sort of round-major keys == the concatenation of per-round
        # stable sorts).
        round_sizes = np.diff(tx_indptr)
        member_round = np.repeat(np.arange(num_rounds, dtype=np.int64), round_sizes)
        ncells = np.int64(self._shape[0]) * np.int64(self._shape[1])  # type: ignore[index]
        member_cells = self._cell_of[tx_members]
        gorder = np.argsort(member_round * ncells + member_cells, kind="stable")
        sorted_members = tx_members[gorder]
        sorted_cells = member_cells[gorder]
        sorted_rounds = member_round[gorder]

        out_rounds: List[np.ndarray] = []
        out_receivers: List[np.ndarray] = []
        out_senders: List[np.ndarray] = []
        out_sinr: List[np.ndarray] = []
        for t0, t1 in _budget_cuts(round_sizes, self._BATCH_ENTRIES, self._BATCH_ROUNDS):
            lo, hi = int(tx_indptr[t0]), int(tx_indptr[t1])
            span = int(np.count_nonzero(round_sizes[t0:t1]))
            bstats["rounds_empty"] += (t1 - t0) - span
            if lo == hi:
                continue
            bstats["batches"] += 1
            bstats["rounds_fused" if span > 1 else "rounds_single"] += span
            rounds_abs, recv, send, sinr = self._batch_core(
                t0, t1, tx_indptr, tx_members,
                sorted_members[lo:hi],
                sorted_cells[lo:hi],
                sorted_rounds[lo:hi] - t0,
                rx, cells_sorted, locals_sorted,
            )
            if recv.size:
                out_rounds.append(rounds_abs)
                out_receivers.append(rx[recv])
                out_senders.append(send)
                out_sinr.append(sinr)

        if not out_rounds:
            return _empty_table(num_rounds)
        return DeliveryTable(
            num_rounds=num_rounds,
            round_ids=np.concatenate(out_rounds),
            receivers=np.concatenate(out_receivers),
            senders=np.concatenate(out_senders),
            sinr=np.concatenate(out_sinr),
        )
