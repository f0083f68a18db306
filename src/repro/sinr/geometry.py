"""Geometric helpers used throughout the paper's analysis.

This module provides the plane-geometry notions of Section 2:

* balls ``B(x, r)`` and membership queries;
* the packing bound ``chi(r1, r2)`` -- the maximal number of points that fit
  in a ball of radius ``r1`` with pairwise distances at least ``r2``;
* the critical distance ``d_{Gamma, r}`` -- the smallest ``d`` with
  ``chi(r, d) >= Gamma / 2``;
* density of clustered and unclustered node sets;
* close pairs (Definition 1) and their existence (Lemma 1);
* the fixed-radius join every distance query above runs on (the
  communication graph's edges, ball counts, the closest pair).

Everything here operates on plain numpy arrays of positions so that it can be
used both by the physics engine and by the validation utilities; the
distributed algorithms themselves never call into this module (nodes do not
know their coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..selectors._csr import expand_slices, sorted_lookup
from .model import NUMERIC_TOLERANCE

Point = Tuple[float, float]

#: Candidate distances one block of the fixed-radius join evaluates at most,
#: which bounds the join's transient memory on any placement.
_JOIN_BLOCK = 1 << 16


def distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points of the plane."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` matrix of pairwise Euclidean distances."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must be an (n, 2) array")
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@dataclass(frozen=True)
class Ball:
    """A closed ball ``B(center, radius)`` on the plane."""

    center: Point
    radius: float

    def contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies inside the ball (boundary included)."""
        return distance(self.center, point) <= self.radius + NUMERIC_TOLERANCE

    def contains_all(self, points: Iterable[Sequence[float]]) -> bool:
        """Whether every point of ``points`` lies inside the ball."""
        return all(self.contains(p) for p in points)

    def members(self, positions: np.ndarray) -> np.ndarray:
        """Indices of the rows of ``positions`` that lie inside the ball."""
        positions = np.asarray(positions, dtype=float)
        center = np.asarray(self.center, dtype=float)
        dist = np.linalg.norm(positions - center, axis=1)
        return np.nonzero(dist <= self.radius + NUMERIC_TOLERANCE)[0]


def chi(r1: float, r2: float) -> int:
    """Packing bound ``chi(r1, r2)`` from Section 2.

    The maximal number of points inside a ball of radius ``r1`` whose pairwise
    distances are all at least ``r2``.  We use the standard area/packing upper
    bound ``(1 + 2 r1 / r2)^2`` (each point owns a disjoint disc of radius
    ``r2 / 2`` inside a ball of radius ``r1 + r2/2``), which is exact up to
    constants and is how the paper uses the quantity (as an O(1) bound for
    constant arguments).
    """
    if r1 < 0 or r2 <= 0:
        raise ValueError("chi requires r1 >= 0 and r2 > 0")
    if r1 == 0:
        return 1
    return int(math.floor((1.0 + 2.0 * r1 / r2) ** 2))


def critical_distance(gamma: int, r: float) -> float:
    """The quantity ``d_{Gamma, r}``: smallest ``d`` with ``chi(r, d) >= Gamma/2``.

    By Section 2, in every dense cluster (ball) of an ``r``-clustered
    (unclustered) set of density ``Gamma`` some two nodes are at distance at
    most ``d_{Gamma, r}``.  We invert the packing bound used by :func:`chi`.
    """
    if gamma <= 0:
        raise ValueError("density Gamma must be positive")
    if r <= 0:
        raise ValueError("radius r must be positive")
    target = max(gamma / 2.0, 1.0)
    if target <= 1.0:
        return 2.0 * r
    # chi(r, d) = (1 + 2 r / d)^2 >= target  <=>  d <= 2 r / (sqrt(target) - 1)
    return 2.0 * r / (math.sqrt(target) - 1.0)


def _join_blocks(
    points: np.ndarray, queries: Optional[np.ndarray], radius: float
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The fixed-radius join of ``queries`` (``None``: the points) against ``points``.

    Points are bucketed into square cells a hair wider than ``radius``, and
    only occupied cells are indexed.  Each query is tested against the 3x3
    block of cells around its own with ``dx*dx + dy*dy <= radius*radius``,
    cKDTree's arithmetic, so boundary pairs agree.  Queries run smallest
    block first, so padding stays small, and a yielded block holds at most
    ``_JOIN_BLOCK`` candidates (or one query): ``(rows, cand, row_cell,
    within)``, the query indices, a ``(cells, width)`` table of candidate
    point indices (``len(points)`` pads), each row's line of it, and the
    ``(rows, width)`` predicate.  When every pair fits one block, that block
    is the whole join and no cells are built.
    """
    if len(points) * len(points if queries is None else queries) <= _JOIN_BLOCK:
        queries = points if queries is None else queries
        rows, cand = np.arange(len(queries)), np.arange(len(points))[None, :]
        yield rows, cand, 0 * rows, _within(points.T[:, None, :], 0 * rows, queries, radius)
        return
    lo = points.min(axis=0)
    # A hair over radius, so rounding never puts a pair within it two cells apart; at least
    # 2^-30 of the span, so cell keys stay in int64.
    side = (max(radius, float(np.ptp(points, axis=0).max()) * 2.0**-30) or 1.0) * (1.0 + 2.0**-20)
    cells = np.floor((points - lo) / side).astype(np.int64)
    top = cells.max(axis=0) + 1
    stride = int(top[1]) + 2  # one empty slot either side of a column: no key aliases a neighbour
    keys = cells[:, 0] * stride + cells[:, 1] + 1
    order = np.argsort(keys, kind="stable")
    occupied, start, count = np.unique(keys[order], return_index=True, return_counts=True)
    if queries is None:
        queries, query_keys = points, keys
    else:
        clipped = np.floor(np.clip((queries - lo) / side, -1, top)).astype(np.int64)
        query_keys = clipped[:, 0] * stride + clipped[:, 1] + 1
    # Each query cell's 3x3 block as runs of the cell-sorted points, gathered into one CSR.
    query_cells, cell_of = np.unique(query_keys, return_inverse=True)
    wanted = query_cells[:, None] + (np.arange(-1, 2)[:, None] * stride + np.arange(-1, 2)).ravel()
    hit, at = sorted_lookup(occupied, wanted)
    runs = np.where(hit, count[at], 0)
    size = runs.sum(axis=1)
    first = np.cumsum(size) - size
    members = np.append(order[expand_slices(start[at].ravel(), runs.ravel())], len(points))
    padded = np.hstack([points.T, [[np.inf], [np.inf]]])
    by_size = np.lexsort((cell_of, size[cell_of]))
    sizes = size[cell_of[by_size]]
    a, total = 0, len(by_size)
    while a < total:
        guess = int(sizes[max(a + 1, min(total, a + _JOIN_BLOCK // max(int(sizes[a]), 1))) - 1])
        b = min(total, a + max(1, _JOIN_BLOCK // max(guess, 1)))
        rows, width, a = by_size[a:b], int(sizes[b - 1]), b
        if width:
            block_cells, row_cell = np.unique(cell_of[rows], return_inverse=True)
            col = np.arange(width)
            slot = first[block_cells, None] + col
            cand = members[np.where(col < size[block_cells, None], slot, len(members) - 1)]
            yield rows, cand, row_cell, _within(padded[:, cand], row_cell, queries[rows], radius)


def _within(xy: np.ndarray, row_cell: np.ndarray, queries: np.ndarray, radius: float) -> np.ndarray:
    """``dx*dx + dy*dy <= radius*radius`` of each query against its cell's ``(2, cells, width)`` candidates."""
    dx = xy[0][row_cell]
    dx -= queries[:, 0:1]
    dx *= dx
    dy = xy[1][row_cell]
    dy -= queries[:, 1:2]
    dy *= dy
    dx += dy
    return dx <= radius * radius


def _squared_gaps(positions: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``dx*dx + dy*dy`` of each index pair: the join's arithmetic, to the last bit."""
    gaps = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    return gaps[:, 0] * gaps[:, 0] + gaps[:, 1] * gaps[:, 1]


def pairs_within(
    positions: np.ndarray, radius: float, queries: Optional[np.ndarray] = None
) -> np.ndarray:
    """Index pairs at distance at most ``radius``, as an ``(m, 2)`` array.

    Without ``queries`` this is the self join: pairs ``i < j`` of
    ``positions`` in lexicographic order (``cKDTree.query_pairs``).  With
    ``queries`` it is the rows ``(query index, position index)`` of every
    position within ``radius`` of each query, in no particular order.
    """
    positions = np.asarray(positions, dtype=float)
    queries = None if queries is None else np.asarray(queries, dtype=float).reshape(-1, 2)
    n = len(positions)
    found: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    if n:
        for rows, cand, row_cell, within in _join_blocks(positions, queries, radius):
            line, col = np.nonzero(within)
            query = rows[line]
            point = cand.ravel().take(row_cell[line] * cand.shape[1] + col)
            keep = slice(None) if queries is not None else query < point
            found.append(query[keep] * n + point[keep])
    keys = np.concatenate(found)
    if queries is None:
        keys.sort()
    return np.column_stack(np.divmod(keys, n)) if n else keys.reshape(0, 2)


def counts_within(positions: np.ndarray, queries: np.ndarray, radius: float) -> np.ndarray:
    """Number of ``positions`` within distance ``radius`` of each query."""
    positions = np.asarray(positions, dtype=float)
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    counts = np.zeros(len(queries), dtype=np.int64)
    if len(positions):
        for rows, _, _, within in _join_blocks(positions, queries, radius):
            counts[rows] = np.count_nonzero(within, axis=1)
    return counts


def unit_ball_density(positions: np.ndarray, radius: float = 1.0) -> int:
    """Density of an unclustered set: the largest number of nodes in any ball.

    The paper measures density as the maximum over *all* unit balls.  The
    maximum is attained by a ball centred at one of the nodes up to a factor
    of (at most) the packing constant, and for validation purposes a
    node-centred maximum is the standard surrogate; we additionally check
    balls centred at midpoints of close node pairs, which is enough to be
    within a factor 1 of the true optimum for every configuration used in the
    tests.
    """
    positions = np.asarray(positions, dtype=float)
    if len(positions) == 0:
        return 0
    reach = radius + NUMERIC_TOLERANCE
    pairs = pairs_within(positions, reach)
    # A node-centred ball holds the node and its partners at reach.
    best = 1 + int(np.bincount(pairs.ravel(), minlength=len(positions)).max())
    # Also probe midpoints of pairs within the radius itself, to catch densities not centred on a node.
    pairs = pairs[_squared_gaps(positions, pairs) <= radius * radius]
    if len(pairs):
        midpoints = (positions[pairs[:, 0]] + positions[pairs[:, 1]]) / 2.0
        best = max(best, int(counts_within(positions, midpoints, reach).max()))
    return best


def cluster_density(cluster_of: Mapping[int, int]) -> int:
    """Density of a clustered set: the size of its largest cluster."""
    if not cluster_of:
        return 0
    sizes: Dict[int, int] = {}
    for _, cluster in cluster_of.items():
        sizes[cluster] = sizes.get(cluster, 0) + 1
    return max(sizes.values())


@dataclass(frozen=True)
class ClosePair:
    """A close pair (Definition 1): indices, their distance and cluster."""

    first: int
    second: int
    distance: float
    cluster: int


def _candidate_scale(
    positions: np.ndarray,
    u: int,
    w: int,
    members: Sequence[int],
    d_uw: float,
) -> bool:
    """Check condition (d) of Definition 1 for the pair ``(u, w)``.

    All same-cluster nodes inside ``B(u, zeta) ∪ B(w, zeta)`` (where
    ``zeta = d(u, w) / d_{Gamma,r}`` rescaled -- here we take the balls of
    radius ``d_uw`` which is the conservative reading used by Lemma 1's
    constructive argument) must be pairwise at distance at least
    ``d(u, w) / 2``.
    """
    pu = positions[u]
    pw = positions[w]
    nearby = [
        m
        for m in members
        if (
            np.linalg.norm(positions[m] - pu) <= d_uw + NUMERIC_TOLERANCE
            or np.linalg.norm(positions[m] - pw) <= d_uw + NUMERIC_TOLERANCE
        )
    ]
    for i, a in enumerate(nearby):
        for b in nearby[i + 1 :]:
            if np.linalg.norm(positions[a] - positions[b]) < d_uw / 2.0 - NUMERIC_TOLERANCE:
                return False
    return True


def find_close_pairs(
    positions: np.ndarray,
    cluster_of: Optional[Mapping[int, int]] = None,
    gamma: Optional[int] = None,
    r: float = 1.0,
    max_link: Optional[float] = None,
) -> List[ClosePair]:
    """Enumerate close pairs of a (clustered or unclustered) node set.

    Definition 1 requires, for a pair ``u, w`` of the same cluster:

    a) equal cluster IDs;
    b) ``d(u, w) <= d_{Gamma, r}`` and ``d(u, w) <= 1 - eps`` (``max_link``);
    c) mutual nearest neighbours inside the cluster;
    d) no much-closer pair in their immediate vicinity.

    For the unclustered case every node is treated as belonging to cluster 1.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n < 2:
        return []
    if cluster_of is None:
        cluster_of = {i: 1 for i in range(n)}
    if gamma is None:
        gamma = max(cluster_density(cluster_of), unit_ball_density(positions))
    threshold = critical_distance(gamma, r)
    if max_link is not None:
        threshold = min(threshold, max_link)

    clusters: Dict[int, List[int]] = {}
    for idx in range(n):
        clusters.setdefault(cluster_of.get(idx, 1), []).append(idx)

    result: List[ClosePair] = []
    for cluster_id, members in clusters.items():
        if len(members) < 2:
            continue
        member_positions = positions[members]
        dist = pairwise_distances(member_positions)
        np.fill_diagonal(dist, np.inf)
        nearest = dist.argmin(axis=1)
        for local_u, local_w in enumerate(nearest.tolist()):
            u, w = members[local_u], members[local_w]
            # Each mutual-nearest pair once, from its smaller index.
            if nearest[local_w] != local_u or u >= w:
                continue
            d_uw = float(dist[local_u, local_w])
            if d_uw > threshold + NUMERIC_TOLERANCE:
                continue
            if not _candidate_scale(positions, u, w, members, d_uw):
                continue
            result.append(ClosePair(first=u, second=w, distance=d_uw, cluster=cluster_id))
    return result


def has_close_pair_in_ball(
    positions: np.ndarray,
    center: Sequence[float],
    radius: float,
    cluster_of: Optional[Mapping[int, int]] = None,
    gamma: Optional[int] = None,
) -> bool:
    """Whether some close pair lies entirely inside ``B(center, radius)``.

    Used to validate Lemma 1.1: every dense unit ball of an unclustered set
    has a close pair within the surrounding ball of radius 5.
    """
    ball = Ball(center=(float(center[0]), float(center[1])), radius=radius)
    pairs = find_close_pairs(positions, cluster_of=cluster_of, gamma=gamma)
    for pair in pairs:
        if ball.contains(positions[pair.first]) and ball.contains(positions[pair.second]):
            return True
    return False


def minimum_pairwise_distance(positions: np.ndarray) -> float:
    """Smallest distance between two distinct nodes (``inf`` if fewer than 2)."""
    positions = np.asarray(positions, dtype=float)
    if len(positions) < 2:
        return float("inf")
    # Double a join radius until some pair lies within it; the closest pair is among those.
    radius = float(np.ptp(positions, axis=0).max()) / len(positions)
    if radius == 0.0:
        return 0.0
    pairs = pairs_within(positions, radius)
    while not len(pairs):
        radius *= 2.0
        pairs = pairs_within(positions, radius)
    return float(np.sqrt(_squared_gaps(positions, pairs).min()))
