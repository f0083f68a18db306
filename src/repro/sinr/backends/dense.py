"""Dense-matrix physics backend: precomputed O(n^2) gain matrix.

The historical (and default) backend of the reproduction: at construction it
materializes the full pairwise received-power matrix, after which every
:meth:`gain_block` the shared reception routine asks for is a gather from it.
Suits deployments whose matrix fits in memory (~tens of thousands of nodes);
switch to :class:`~repro.sinr.backends.lazy.LazyBlockBackend` or
:class:`~repro.sinr.backends.spatial.SpatialGridBackend` beyond that.

This is also the only backend that supports *metric-only* construction from
a pairwise-distance matrix (the paper's footnote-1 generalization to
bounded-growth metric spaces), since an abstract metric has no positions to
recompute distances from.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry import pairwise_distances
from ..model import NUMERIC_TOLERANCE, SINRParameters
from .base import COLOCATED_GAIN, PhysicsBackend, _is_every_node, check_node_indices


class DenseMatrixBackend(PhysicsBackend):
    """Evaluates SINR receptions from a precomputed dense gain matrix.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.
    distances:
        Alternatively, a symmetric pairwise-distance matrix (abstract metric).
    """

    def __init__(
        self,
        positions: Optional[np.ndarray],
        params: SINRParameters,
        distances: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(params)
        if distances is None:
            if positions is None:
                raise ValueError("either positions or distances must be given")
            positions = np.asarray(positions, dtype=float)
            if positions.ndim != 2 or positions.shape[1] != 2:
                raise ValueError("positions must be an (n, 2) array")
            self._positions: Optional[np.ndarray] = positions
            distances = pairwise_distances(positions)
        else:
            distances = np.asarray(distances, dtype=float)
            if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
                raise ValueError("distances must be a square matrix")
            if not np.allclose(distances, distances.T, atol=1e-9):
                raise ValueError("distances must be symmetric")
            if np.any(distances < -NUMERIC_TOLERANCE):
                raise ValueError("distances must be non-negative")
            self._positions = (
                np.asarray(positions, dtype=float) if positions is not None else None
            )
        self._n = len(distances)
        with np.errstate(divide="ignore"):
            gains = params.power / np.power(distances, params.alpha)
        np.fill_diagonal(gains, 0.0)
        # Co-located distinct nodes would have infinite gain; the clamp keeps
        # arithmetic well defined (reception from a co-located node trivially
        # succeeds when it is the only transmitter).
        gains[np.isinf(gains)] = COLOCATED_GAIN
        self._gains = gains
        self._distances = distances

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
    def size(self) -> int:
        """Number of nodes in the placement."""
        return self._n

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (read-only view); unavailable for metric-only backends."""
        if self._positions is None:
            raise ValueError("this engine was built from a distance matrix; no coordinates exist")
        view = self._positions.view()
        view.flags.writeable = False
        return view

    @property
    def distances(self) -> np.ndarray:
        """Pairwise node distances (read-only view)."""
        view = self._distances.view()
        view.flags.writeable = False
        return view

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b``."""
        return float(self._distances[a, b])

    def gain(self, sender: int, receiver: int) -> float:
        """Received power ``P / d(sender, receiver)^alpha`` (direct lookup)."""
        return float(self._gains[sender, receiver])

    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Gather the requested sub-matrix of the precomputed gain matrix.

        When the receivers are every node in order (the default listener
        pool) the block is whole rows, taken without the column gather of
        ``np.ix_``; either way the values are copied unchanged.
        """
        receivers = np.asarray(receivers)
        if _is_every_node(receivers, self._gains.shape[0]):
            return self._gains.take(senders, axis=0)
        return self._gains[np.ix_(senders, receivers)]

    # ------------------------------------------------------------------ #
    # Incremental placement mutation.
    # ------------------------------------------------------------------ #

    def _require_positions(self, operation: str) -> np.ndarray:
        if self._positions is None:
            raise ValueError(
                f"this backend was built from a distance matrix; {operation} needs coordinates"
            )
        return self._positions

    def _gain_rows(self, distances: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Gain rows from a distance block, with the diagonal/clamp conventions.

        ``distances[i, :]`` are the distances of node ``row_indices[i]`` to
        all nodes; the self-pair is zeroed before co-located pairs are
        clamped, exactly as in the constructor.
        """
        with np.errstate(divide="ignore"):
            gains = self._params.power / np.power(distances, self._params.alpha)
        gains[np.arange(len(row_indices)), row_indices] = 0.0
        gains[np.isinf(gains)] = COLOCATED_GAIN
        return gains

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move nodes, recomputing only the touched gain/distance rows and columns.

        Cost is O(m * n) for ``m`` moved nodes instead of the O(n^2) full
        rebuild -- the speedup
        ``benchmarks/bench_dynamic_incremental.py`` records.
        """
        positions = self._require_positions("update_positions")
        indices, new_xy = self._check_moves(self._n, indices, new_xy)
        if not indices.size:
            return
        positions[indices] = new_xy
        diff = positions[indices][:, None, :] - positions[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        self._distances[indices, :] = dist
        self._distances[:, indices] = dist.T
        gains = self._gain_rows(dist, indices)
        self._gains[indices, :] = gains
        self._gains[:, indices] = gains.T

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes: one O(m * n) distance/gain band, no full rebuild."""
        positions = self._require_positions("add_nodes")
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        m = len(new_xy)
        if m == 0:
            return
        old_n, n = self._n, self._n + m
        grown = np.vstack([positions, new_xy])
        diff = new_xy[:, None, :] - grown[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        distances = np.empty((n, n))
        distances[:old_n, :old_n] = self._distances
        distances[old_n:, :] = dist
        distances[:, old_n:] = dist.T
        self._positions = grown
        self._distances = distances
        self._n = n
        gain_band = self._gain_rows(dist, np.arange(old_n, n))
        gains = np.empty((n, n))
        gains[:old_n, :old_n] = self._gains
        gains[old_n:, :] = gain_band
        gains[:, old_n:] = gain_band.T
        self._gains = gains

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete nodes and compact the matrices (works for metric-only backends too)."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not indices.size:
            return
        check_node_indices(indices, self._n)
        keep = np.setdiff1d(np.arange(self._n), indices)
        if not keep.size:
            raise ValueError("cannot remove every node from a backend")
        if self._positions is not None:
            self._positions = self._positions[keep]
        self._distances = self._distances[np.ix_(keep, keep)]
        self._gains = self._gains[np.ix_(keep, keep)]
        self._n = len(keep)
