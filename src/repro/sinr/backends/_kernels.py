"""NumPy kernels for the spatial backend's hot path.

Four small numeric primitives dominate a spatial schedule evaluation:

* :func:`dist_pow` -- ``d^alpha`` from squared distances, with a multiply
  fast path for integral exponents;
* :func:`pair_gains` -- received power ``P / d^alpha`` for a flat list of
  (transmitter position, listener position) pairs, with the co-located
  clamp;
* :func:`near_reduce` -- segment reduction of those pair gains onto their
  listeners (total near-field power *and* strongest near-field gain);
* :func:`segment_strongest` -- per-segment total power, strongest gain and
  the *flat index* of the first strongest pair over a flat, segment-major
  pair list.  The exact stage uses it, where each listener's row count
  depends on its own round's transmitter set; ties resolve to the lowest
  flat index, matching ``np.argmax`` semantics on the block form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dist_pow",
    "near_reduce",
    "pair_gains",
    "segment_strongest",
]


def dist_pow(dist_sq, alpha):
    """``d^alpha`` from squared distances, fast-pathing integral exponents.

    ``np.power`` with a float scalar exponent is a libm call per element and
    dominates exact-evaluation profiles; the physically common integral
    path-loss exponents (alpha = 2, 3, 4, ...) decompose into multiplies and
    at most one square root (last-ulp differences only, well inside the
    documented cross-backend tolerance).
    """
    ia = int(alpha)
    if alpha == ia and 1 <= ia <= 8:
        half, odd = divmod(ia, 2)
        out = None
        for _ in range(half):
            out = dist_sq if out is None else out * dist_sq
        if odd:
            root = np.sqrt(dist_sq)
            out = root if out is None else out * root
        # ia == 2 aliases the input; callers never mutate the result.
        return out
    return np.power(np.sqrt(dist_sq), alpha)


def pair_gains(tx_xy, rx_xy, power, alpha, colocated_gain):
    """``P / d^alpha`` per (transmitter, listener) position pair."""
    diff = tx_xy - rx_xy
    dist_sq = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
    with np.errstate(divide="ignore"):
        gains = power / dist_pow(dist_sq, alpha)
    gains[np.isinf(gains)] = colocated_gain
    return gains


def near_reduce(listener_idx, gains, num_listeners):
    """Per-listener (sum, max) of the pair gains (segment reduction)."""
    sums = np.bincount(listener_idx, weights=gains, minlength=num_listeners)
    maxs = np.zeros(num_listeners, dtype=np.float64)
    np.maximum.at(maxs, listener_idx, gains)
    return sums, maxs


_INT64_MAX = np.iinfo(np.int64).max


def segment_strongest(seg_idx, gains, num_segments):
    """Per-segment (total, best gain, flat index of the first best pair).

    ``seg_idx`` must be segment-major (non-decreasing) and ``gains``
    strictly positive; both hold on every call site (pair lists are built
    candidate-major and gains are clamped powers).  Totals accumulate in
    flat input order (``np.bincount`` adds sequentially per bin), which is
    what makes every batch size bit-identical; ties on the maximum resolve
    to the lowest flat index, matching ``np.argmax`` over the equivalent
    dense block.  Empty segments report (0, 0, 0).
    """
    totals = np.bincount(seg_idx, weights=gains, minlength=num_segments)
    best_gain = np.zeros(num_segments, dtype=np.float64)
    np.maximum.at(best_gain, seg_idx, gains)
    hit = np.flatnonzero(gains == best_gain[seg_idx])
    best_idx = np.full(num_segments, _INT64_MAX, dtype=np.int64)
    np.minimum.at(best_idx, seg_idx[hit], hit)
    best_idx[best_idx == _INT64_MAX] = 0
    return totals, best_gain, best_idx
