"""The gain-row store shared by the dense and lazy backends.

Both backends answer :meth:`~repro.sinr.backends.base.PhysicsBackend.gain_block`
from *rows* of the received-power matrix -- one transmitter against every
node -- kept in one ``(capacity, n)`` float64 array.  ``slot_of[node]`` is
the store row holding ``node``'s gains (-1 when it is not resident),
``node_of`` the reverse map, and a per-slot stamp orders slots for LRU
eviction.

* :class:`~repro.sinr.backends.dense.DenseMatrixBackend` is the store at
  capacity ``n``, filled at build time with slot = node: the full gain
  matrix.
* :class:`~repro.sinr.backends.lazy.LazyBlockBackend` bounds the store by
  bytes and fills missing rows on demand, evicting the least recently used.

Every row comes from one routine, :meth:`GainRowStore._gain_rows`, run in
row chunks of at most ``_FILL_ELEMENTS`` gains, so the two backends hold
bit-identical gains for a placement and the dense build peaks at about one
matrix.  The placement mutations (``update_positions``, ``add_nodes``,
``remove_nodes``) are implemented once, over the store.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..model import SINRParameters
from .base import PhysicsBackend, _budget_cuts, _is_every_node, check_node_indices, gain_matrix


class GainRowStore(PhysicsBackend):
    """SINR physics served from a store of precomputed gain rows.

    The store is an LRU cache of at most ``_CACHE_BYTES`` of recently used
    rows; the dense backend overrides :meth:`_capacity` and
    :meth:`_allocate` to hold every node's row at slot = node.
    """

    #: Gains computed per :meth:`_gain_rows` chunk.  The chunk's ``(2, rows,
    #: n)`` coordinate difference and its gain rows (:func:`gain_matrix`)
    #: are the only temporaries, 3x this many float64 values: 2^18 keeps
    #: them near 6 MB, a twelfth of the n = 3000 gain matrix.
    _FILL_ELEMENTS = 1 << 18

    #: Bound on the bytes of the store; at least one row is always kept.
    #: 64 MiB holds ~80 full rows at n = 100k.
    _CACHE_BYTES = 64 * 1024 * 1024

    def __init__(self, positions: np.ndarray, params: SINRParameters) -> None:
        super().__init__(params)
        self._positions = self._placement(positions)
        self._open(len(self._positions))

    def _open(self, n: int) -> None:
        """Zeroed statistics and an empty store for ``n`` nodes."""
        self._n = n
        self._hits = self._misses = self._clock = 0
        self._allocate()

    def _capacity(self, n: int) -> int:
        """Rows the store may hold for ``n`` nodes (at least one)."""
        return max(1, self._CACHE_BYTES // (8 * max(1, n)))

    def cache_info(self) -> Dict[str, int]:
        """Row-store statistics (for benchmarks and tests).

        The dense store holds every row and counts no hits or misses.
        """
        return {
            "hits": self._hits,
            "misses": self._misses,
            "resident_rows": int(np.count_nonzero(self._node_of >= 0)),
            "capacity_rows": self._capacity(self._n),
        }

    # ------------------------------------------------------------------ #
    # Row computation.
    # ------------------------------------------------------------------ #

    def _gain_rows(self, senders: np.ndarray, targets: Optional[np.ndarray] = None) -> np.ndarray:
        """Gains from ``senders`` to ``targets`` (default: full rows, self-gain 0)."""
        dst = self._positions if targets is None else self._positions[targets]
        gains = gain_matrix(self._positions[senders], dst, self._params)
        if targets is None:
            gains[np.arange(len(senders)), senders] = 0.0
        return gains

    def _write_rows(self, senders: np.ndarray, out: np.ndarray, at: np.ndarray) -> None:
        """Write the gain rows of ``senders`` to ``out[at]``, chunk by chunk."""
        counts = np.full(len(senders), self._n)
        for lo, hi in _budget_cuts(counts, self._FILL_ELEMENTS):
            out[at[lo:hi]] = self._gain_rows(senders[lo:hi])

    # ------------------------------------------------------------------ #
    # Store layout.
    # ------------------------------------------------------------------ #

    def _allocate(self) -> None:
        """An empty store for the current ``n``.

        The array holds at most ``min(capacity, n)`` rows, so its bytes
        never exceed the capacity's.  Empty slots have stamp 0, older than
        any resident row's.
        """
        slots = min(self._capacity(self._n), self._n)
        self._store = np.empty((slots, self._n))
        self._slot_of = np.full(self._n, -1, dtype=np.int64)
        self._node_of = np.full(slots, -1, dtype=np.int64)
        self._stamp = np.zeros(slots, dtype=np.int64)

    def _relayout(self, keep: np.ndarray) -> None:
        """Rebuild the store for the current ``n`` over the old nodes ``keep``.

        Old node ``keep[j]`` becomes node ``j`` and the store's column ``j``.
        Resident rows of kept nodes keep their slot order; when the new
        capacity is smaller, the least recently used are dropped.
        """
        new_index = np.full(len(self._slot_of), -1, dtype=np.int64)
        new_index[keep] = np.arange(len(keep))
        old_store, old_nodes, old_stamp = self._store, self._node_of, self._stamp
        self._allocate()
        live = np.flatnonzero(old_nodes >= 0)
        live = live[new_index[old_nodes[live]] >= 0]
        if len(live) > len(self._node_of):
            recent = np.argsort(old_stamp[live], kind="stable")[len(live) - len(self._node_of) :]
            live = np.sort(live[recent])
        kept = new_index[old_nodes[live]]
        self._store[: len(live), : len(keep)] = old_store[np.ix_(live, keep)]
        self._node_of[: len(live)] = kept
        self._slot_of[kept] = np.arange(len(live))
        self._stamp[: len(live)] = old_stamp[live]

    def _refresh(self, nodes: np.ndarray) -> None:
        """Recompute every stored gain that involves ``nodes``.

        The resident rows of ``nodes`` are recomputed in place, and their
        columns in every resident row follow by symmetry of the gains; the
        columns of non-resident ``nodes`` are computed pair by pair.
        """
        slots = self._slot_of[nodes]
        held = slots >= 0
        live = np.flatnonzero(self._node_of >= 0)
        others = self._node_of[live]
        if held.any():
            self._write_rows(nodes[held], self._store, slots[held])
            self._store[np.ix_(live, nodes[held])] = self._store[np.ix_(slots[held], others)].T
        if live.size and not held.all():
            cold = nodes[~held]
            self._store[np.ix_(live, cold)] = self._gain_rows(others, cold)

    # ------------------------------------------------------------------ #
    # Gain blocks.
    # ------------------------------------------------------------------ #

    def _rows_for(self, senders: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(array, rows)`` such that ``array[rows[i]]`` is the gain row of ``senders[i]``.

        An unfilled store maps the distinct senders to slots once, fills the
        missing ones in place over the least recently used slots, and
        computes a request for more distinct rows than it holds uncached.
        """
        uniq, inv = np.unique(senders, return_inverse=True)
        if len(uniq) > len(self._node_of):
            block = np.empty((len(uniq), self._n))
            self._write_rows(uniq, block, np.arange(len(uniq)))
            self._misses += len(uniq)
            return block, inv
        self._clock += 1
        slots = self._slot_of[uniq]
        missing = slots < 0
        self._stamp[slots[~missing]] = self._clock
        fresh = uniq[missing]
        self._hits += len(uniq) - len(fresh)
        if fresh.size:
            # The stamps of this request's hits are the newest, and at least
            # ``len(fresh)`` other slots exist, so no hit is a victim.
            victims = np.argpartition(self._stamp, len(fresh) - 1)[: len(fresh)]
            gone = self._node_of[victims]
            self._slot_of[gone[gone >= 0]] = -1
            self._node_of[victims] = fresh
            self._slot_of[fresh] = victims
            self._stamp[victims] = self._clock
            self._write_rows(fresh, self._store, victims)
            self._misses += len(fresh)
            slots[missing] = victims
        return self._store, slots[inv]

    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Gather the requested sub-matrix from the store, in one copy.

        When the receivers are every node in order (the default listener
        pool) the block is whole rows, taken without the column gather of
        ``np.ix_``; either way the values are copied unchanged.
        """
        source, rows = self._rows_for(np.asarray(senders, dtype=np.int64))
        receivers = np.asarray(receivers)
        if _is_every_node(receivers, self._n):
            return source.take(rows, axis=0)
        return source[np.ix_(rows, receivers)]

    # ------------------------------------------------------------------ #
    # Incremental placement mutation.
    # ------------------------------------------------------------------ #

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move nodes, recomputing only the stored gains that involve them.

        Cost is O(m * n) for ``m`` moved nodes in a filled store instead of
        the O(n^2) rebuild (``benchmarks/bench_dynamic_incremental.py``
        records the speedup); resident rows stay resident, so an LRU store
        stays warm across epochs.
        """
        positions = self._require_positions("update_positions")
        indices, new_xy = self._check_moves(self._n, indices, new_xy)
        if not indices.size:
            return
        positions[indices] = new_xy
        self._refresh(indices)

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes: resident rows grow a computed tail, no full rebuild."""
        positions = self._require_positions("add_nodes")
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        if not len(new_xy):
            return
        old_n = self._n
        self._positions = np.vstack([positions, new_xy])
        self._n = old_n + len(new_xy)
        self._relayout(np.arange(old_n))
        self._refresh(np.arange(old_n, self._n))

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete nodes; the store is compacted and re-keyed to the new indices."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not indices.size:
            return
        check_node_indices(indices, self._n)
        keep = np.setdiff1d(np.arange(self._n), indices)
        if not keep.size:
            raise ValueError("cannot remove every node from a backend")
        self._compact(keep)
        self._n = len(keep)
        self._relayout(keep)

    def _compact(self, keep: np.ndarray) -> None:
        """Keep the placement of the old nodes ``keep``, renumbered in order."""
        self._positions = self._positions[keep]
