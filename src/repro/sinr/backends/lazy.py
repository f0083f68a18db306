"""Lazy physics backend: gain blocks computed on demand, O(n) resident memory.

Instead of materializing the O(n^2) gain matrix, this backend computes
received-power *rows* (one transmitter against all nodes) directly from the
node positions whenever a round asks for them, and keeps the most recently
used rows in the bounded gain-row store of :mod:`~repro.sinr.backends.rows`.
Resident memory is O(n) -- positions plus a constant number of stored rows
-- which unlocks deployments of 100k+ nodes that the dense backend cannot
hold.

The paper's schedules make this cheap in practice: each round's transmitter
set is sparse (a selector names O(Delta) IDs out of n), and the *same*
globally known schedules are re-executed many times (once per label, once per
phase), so the rows of recurring transmitters are served from the store.

The rows come from the same routine that fills the dense backend's matrix, so
the two backends hold bit-identical gains and produce bit-identical
reception tables; ``tests/test_backends.py`` asserts this on random
deployments.
"""

from __future__ import annotations

from .rows import GainRowStore


class LazyBlockBackend(GainRowStore):
    """SINR physics over positions with on-demand gain rows and an LRU store.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.  Unlike the dense backend, a
        metric-only (distance matrix) construction is not supported: storing
        the matrix would defeat the O(n) memory goal.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.

    The store keeps at most ``_CACHE_BYTES`` (64 MiB) of rows.
    """
