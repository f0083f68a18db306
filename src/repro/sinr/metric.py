"""Bounded-growth metrics: the paper's footnote-1 generalization.

Footnote 1 of the paper notes that all results carry over from the Euclidean
plane to *bounded-growth metric spaces* with the same asymptotic bounds.  The
algorithms in :mod:`repro.core` never read coordinates -- they only consume a
network's shared knowledge (``id_space``, ``delta_bound``, SINR parameters)
and its physics backend -- so a network over an arbitrary metric is just
:meth:`~repro.sinr.network.WirelessNetwork.from_distances` over its
pairwise-distance matrix.  The growth-bound check :func:`doubling_dimension_estimate` lets
tests confirm a metric qualifies as bounded-growth before the theorems are
expected to hold.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .model import NUMERIC_TOLERANCE


def doubling_dimension_estimate(distances: np.ndarray, radii: Optional[Sequence[float]] = None) -> float:
    """Crude growth-bound estimate of a finite metric.

    For each node and each radius ``r`` in ``radii`` it compares the number of
    nodes within ``2r`` against the number within ``r``; the base-2 logarithm
    of the worst ratio is an upper estimate of the doubling dimension.  The
    paper's results assume this is O(1) ("bounded-growth metric spaces").
    """
    distances = np.asarray(distances, dtype=float)
    if radii is None:
        positive = distances[distances > 0]
        if positive.size == 0:
            return 0.0
        base = float(np.median(positive))
        radii = [base / 2.0, base, 2.0 * base]
    worst = 1.0
    for r in radii:
        inner = (distances <= r + NUMERIC_TOLERANCE).sum(axis=1).astype(float)
        outer = (distances <= 2.0 * r + NUMERIC_TOLERANCE).sum(axis=1).astype(float)
        ratios = outer / np.maximum(inner, 1.0)
        worst = max(worst, float(ratios.max()))
    return float(np.log2(worst))
