"""Lazy physics backend: gain blocks computed on demand, O(n) resident memory.

Instead of materializing the O(n^2) gain matrix, this backend recomputes
received-power *rows* (one transmitter against all nodes) directly from the
node positions whenever a round asks for them, and keeps the most recently
used rows in a bounded LRU cache.  Resident memory is O(n) -- positions plus
a constant number of cached rows -- which unlocks deployments of 100k+ nodes
that the dense backend cannot hold.

The paper's schedules make this cheap in practice: each round's transmitter
set is sparse (a selector names O(Delta) IDs out of n), and the *same*
globally known schedules are re-executed many times (once per label, once per
phase), so the rows of recurring transmitters are served from cache.

Numerically the computed rows match the dense backend's matrix rows up to
floating-point rounding -- both evaluate ``P / d^alpha`` with the same
elementwise operations, though vectorization over different shapes may differ
in the last ulp -- so the two backends produce the same receptions;
``tests/test_backends.py`` asserts the equivalence property on random
deployments.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

import numpy as np

from ..model import SINRParameters
from .base import COLOCATED_GAIN, PhysicsBackend, _is_every_node, check_node_indices


class LazyBlockBackend(PhysicsBackend):
    """SINR physics over positions with on-demand gain rows and an LRU cache.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.  Unlike the dense backend, a
        metric-only (distance matrix) construction is not supported: storing
        the matrix would defeat the O(n) memory goal.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.
    """

    #: Bound on the bytes kept in the row cache; at least one row is always
    #: cached.  64 MiB caches ~80 full rows at n = 100k.
    _CACHE_BYTES = 64 * 1024 * 1024

    def __init__(self, positions: np.ndarray, params: SINRParameters) -> None:
        super().__init__(params)
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        self._positions = positions
        self._n = len(positions)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._resize_cache()
        self._hits = 0
        self._misses = 0

    @property
    def size(self) -> int:
        """Number of nodes in the placement."""
        return self._n

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    @property
    def distances(self) -> np.ndarray:
        """Unavailable: materializing the O(n^2) matrix is what this backend avoids."""
        raise ValueError(
            "LazyBlockBackend does not materialize the pairwise-distance matrix; "
            "use distance(a, b) for point queries or the dense backend"
        )

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b`` (computed from positions)."""
        diff = self._positions[a] - self._positions[b]
        return float(np.sqrt(diff[0] * diff[0] + diff[1] * diff[1]))

    def cache_info(self) -> Dict[str, int]:
        """Row-cache statistics (for benchmarks and tests)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "resident_rows": len(self._cache),
            "capacity_rows": self._capacity_rows,
        }

    # ------------------------------------------------------------------ #
    # Incremental placement mutation.
    # ------------------------------------------------------------------ #

    def _resize_cache(self) -> None:
        """Derive the row capacity from the current ``n``; evict any overflow."""
        self._capacity_rows = max(1, self._CACHE_BYTES // (8 * max(1, self._n)))
        while len(self._cache) > self._capacity_rows:
            self._cache.popitem(last=False)

    def _gains_to(self, senders: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gains from each cached ``sender`` to the ``targets`` positions only.

        Callers guarantee no self-pairs (the senders' own rows were evicted
        or the targets are new nodes), so only the co-located clamp applies.
        """
        diff = self._positions[senders][:, None, :] - self._positions[targets][None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        with np.errstate(divide="ignore"):
            gains = self._params.power / np.power(dist, self._params.alpha)
        gains[np.isinf(gains)] = COLOCATED_GAIN
        return gains

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move nodes: evict the moved senders' rows, patch the moved columns.

        Only the cache entries the move actually touches are recomputed --
        the rows *of* moved senders are dropped (they changed entirely) and
        the entries *towards* moved nodes inside the surviving rows are
        overwritten in place, so a mostly-static cache stays warm across
        epochs.
        """
        indices, new_xy = self._check_moves(self._n, indices, new_xy)
        if not indices.size:
            return
        self._positions[indices] = new_xy
        for sender in indices:
            self._cache.pop(int(sender), None)
        if self._cache:
            senders = np.fromiter(self._cache.keys(), dtype=np.int64, count=len(self._cache))
            patch = self._gains_to(senders, indices)
            for i, sender in enumerate(senders):
                self._cache[int(sender)][indices] = patch[i]

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes; surviving cached rows grow a freshly computed tail."""
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        m = len(new_xy)
        if m == 0:
            return
        old_n = self._n
        self._positions = np.vstack([self._positions, new_xy])
        self._n = old_n + m
        if self._cache:
            senders = np.fromiter(self._cache.keys(), dtype=np.int64, count=len(self._cache))
            tails = self._gains_to(senders, np.arange(old_n, self._n))
            for i, sender in enumerate(senders):
                self._cache[int(sender)] = np.concatenate([self._cache[int(sender)], tails[i]])
        self._resize_cache()

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete nodes; cached rows are compacted and re-keyed to the new indices."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not indices.size:
            return
        check_node_indices(indices, self._n)
        keep = np.setdiff1d(np.arange(self._n), indices)
        if not keep.size:
            raise ValueError("cannot remove every node from a backend")
        new_index = np.full(self._n, -1, dtype=np.int64)
        new_index[keep] = np.arange(len(keep))
        self._positions = self._positions[keep]
        self._n = len(keep)
        survivors: "OrderedDict[int, np.ndarray]" = OrderedDict()
        for sender, row in self._cache.items():
            if new_index[sender] >= 0:
                survivors[int(new_index[sender])] = row[keep]
        self._cache = survivors
        self._resize_cache()

    # ------------------------------------------------------------------ #
    # Row computation and caching.
    # ------------------------------------------------------------------ #

    def _compute_rows(self, senders: np.ndarray) -> np.ndarray:
        """Gain rows for ``senders`` against all nodes, straight from positions."""
        sub = self._positions[senders]
        diff = sub[:, None, :] - self._positions[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        with np.errstate(divide="ignore"):
            gains = self._params.power / np.power(dist, self._params.alpha)
        # Same conventions as the dense matrix: zero self-gain first, then
        # clamp co-located distinct pairs to a huge finite value.
        gains[np.arange(len(senders)), senders] = 0.0
        gains[np.isinf(gains)] = COLOCATED_GAIN
        return gains

    def _rows(self, senders: np.ndarray) -> np.ndarray:
        """Gain rows for distinct ``senders`` (cache-served, LRU-evicted)."""
        cache = self._cache
        fresh = [int(s) for s in senders if int(s) not in cache]
        if fresh:
            computed = self._compute_rows(np.array(fresh, dtype=int))
            self._misses += len(fresh)
            for row, sender in zip(computed, fresh):
                cache[sender] = row
            while len(cache) > self._capacity_rows:
                cache.popitem(last=False)
        fresh_set = set(fresh)
        out = np.empty((len(senders), self._n), dtype=float)
        for i, s in enumerate(senders):
            s = int(s)
            row = cache.get(s)
            if row is None:
                # Evicted within this very call (request larger than the
                # cache); recompute without touching the cache.
                row = self._compute_rows(np.array([s], dtype=int))[0]
            else:
                cache.move_to_end(s)
                if s not in fresh_set:
                    self._hits += 1
            out[i] = row
        return out

    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Gain sub-matrix, assembled from cached/recomputed rows.

        Each distinct sender's row is fetched once: a chunk of schedule
        rounds lists a node once per round it transmits in.  When the
        receivers are every node in order (the default listener pool) the
        block is whole rows, taken without the column gather of ``np.ix_``
        (the dense backend's rule); either way the values are copied
        unchanged.
        """
        uniq, inv = np.unique(np.asarray(senders, dtype=int), return_inverse=True)
        rows = self._rows(uniq)
        receivers = np.asarray(receivers, dtype=int)
        if _is_every_node(receivers, self._n):
            return rows.take(inv, axis=0)
        return rows[np.ix_(inv, receivers)]
