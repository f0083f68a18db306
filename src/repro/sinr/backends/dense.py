"""Dense-matrix physics backend: precomputed O(n^2) gain matrix.

The historical (and default) backend of the reproduction: the gain-row store
of :mod:`~repro.sinr.backends.rows` at capacity ``n``, filled at
construction with slot = node -- the full pairwise received-power matrix --
after which every :meth:`gain_block` the shared reception routine asks for
is a gather from it.  Suits deployments whose matrix fits in memory (~tens
of thousands of nodes); switch to
:class:`~repro.sinr.backends.lazy.LazyBlockBackend` or
:class:`~repro.sinr.backends.spatial.SpatialGridBackend` beyond that.

This is also the only backend that supports *metric-only* construction from
a pairwise-distance matrix (the paper's footnote-1 generalization to
bounded-growth metric spaces), since an abstract metric has no positions to
recompute distances from.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..model import NUMERIC_TOLERANCE, SINRParameters
from .base import COLOCATED_GAIN, PhysicsBackend
from .rows import GainRowStore


class DenseMatrixBackend(GainRowStore):
    """Evaluates SINR receptions from a precomputed dense gain matrix.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.
    distances:
        Alternatively (with ``positions=None``), a symmetric pairwise-distance
        matrix (abstract metric).
    """

    def __init__(
        self,
        positions: Optional[np.ndarray],
        params: SINRParameters,
        distances: Optional[np.ndarray] = None,
    ) -> None:
        #: Kept only for a metric-only placement, which has no coordinates
        #: to recompute distances from.
        self._distances = None
        if distances is None:
            super().__init__(positions, params)
            nodes = np.arange(self._n)
            self._write_rows(nodes, self._store, nodes)
            return
        if positions is not None:
            raise ValueError("give either positions or distances, not both")
        distances = np.asarray(distances, dtype=float)
        if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
            raise ValueError("distances must be a square matrix")
        if not np.allclose(distances, distances.T, atol=1e-9):
            raise ValueError("distances must be symmetric")
        if np.any(distances < -NUMERIC_TOLERANCE):
            raise ValueError("distances must be non-negative")
        # No coordinates to hand the positional store: set up its state directly.
        PhysicsBackend.__init__(self, params)
        self._positions = None
        self._distances = distances
        self._open(len(distances))
        gains = self._store
        with np.errstate(divide="ignore"):
            np.divide(params.power, np.power(distances, params.alpha), out=gains)
        np.fill_diagonal(gains, 0.0)
        # Co-located distinct nodes would have infinite gain; the clamp keeps
        # arithmetic well defined (reception from a co-located node trivially
        # succeeds when it is the only transmitter).
        gains[np.isinf(gains)] = COLOCATED_GAIN

    def _capacity(self, n: int) -> int:
        return n

    def _allocate(self) -> None:
        """The store at capacity ``n`` with slot = node, rows not yet written.

        Every layout change re-enters here, so the store stays the full gain
        matrix across mutations; the callers write the rows.
        """
        super()._allocate()
        self._slot_of[:] = self._node_of[:] = np.arange(self._n)

    @classmethod
    def from_distance_matrix(
        cls, distances: np.ndarray, params: SINRParameters
    ) -> "DenseMatrixBackend":
        """Backend over an abstract metric given by a pairwise-distance matrix.

        Supports the paper's footnote-1 generalization to bounded-growth
        metric spaces: the SINR rule (Equation 1) only needs distances, not
        coordinates.
        """
        return cls(None, params, distances=distances)

    @property
    def _gains(self) -> np.ndarray:
        """The gain matrix: the filled store, whose slot ``i`` is node ``i``."""
        return self._store

    def _rows_for(self, senders: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._store, senders

    @property
    def distances(self) -> np.ndarray:
        """The pairwise distances of a metric-only backend (read-only view).

        Built from positions, dense keeps gains only and this raises
        ``ValueError``, as on every backend; use :meth:`distance`.
        """
        if self._distances is None:
            return super().distances
        view = self._distances.view()
        view.flags.writeable = False
        return view

    def _compact(self, keep: np.ndarray) -> None:
        if self._distances is None:
            super()._compact(keep)
        else:
            self._distances = self._distances[np.ix_(keep, keep)]

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b``."""
        if self._distances is None:
            return super().distance(a, b)
        return float(self._distances[a, b])
