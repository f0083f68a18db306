"""Validation of the paper's structural guarantees against the geometry.

These checks are the test-suite's ground truth: they read node positions
(which the distributed algorithms never do) and verify that an algorithm's
output satisfies the properties the paper proves:

* a clustering is an *r-clustering* (every cluster inside a ball of radius
  ``r`` around one of its members) -- Section 2;
* every unit ball intersects O(1) clusters -- contribution (ii) of the
  clustering theorem;
* a proximity graph contains every close pair and has bounded degree --
  Lemma 7;
* sparsification reduced the density as promised -- Lemmas 8-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..sinr.geometry import cluster_density, find_close_pairs, pairs_within, unit_ball_density
from ..sinr.network import WirelessNetwork


@dataclass
class ClusteringReport:
    """Measured quality of a clustering (see :func:`validate_clustering`)."""

    cluster_count: int
    max_radius: float
    max_clusters_per_unit_ball: int
    max_cluster_size: int
    singleton_clusters: int
    valid_radius: bool
    valid_overlap: bool

    @property
    def valid(self) -> bool:
        """Whether both clustering conditions hold."""
        return self.valid_radius and self.valid_overlap


def cluster_members(cluster_of: Mapping[int, int]) -> Dict[int, List[int]]:
    """Group node IDs by cluster ID."""
    groups: Dict[int, List[int]] = {}
    for uid, cluster in cluster_of.items():
        groups.setdefault(cluster, []).append(uid)
    return groups


def cluster_radius(network: WirelessNetwork, members: Sequence[int]) -> float:
    """Radius of the smallest member-centred ball containing all members.

    The paper's definition of an ``r``-clustering requires the cluster to fit
    in ``B(x, r)`` for some member ``x`` (the centre); we therefore minimize
    over member centres.
    """
    if len(members) <= 1:
        return 0.0
    points = np.array([network.position_of(uid) for uid in members])
    best = math.inf
    for i in range(len(points)):
        radius = float(np.max(np.linalg.norm(points - points[i], axis=1)))
        best = min(best, radius)
    return best


def clusters_meeting_ball(
    network: WirelessNetwork, cluster_of: Mapping[int, int], center_uid: int, radius: float
) -> int:
    """Number of distinct clusters with a member inside ``B(center_uid, radius)``."""
    return int(_clusters_meeting_balls(network, cluster_of, [center_uid], radius)[0])


def _clusters_meeting_balls(
    network: WirelessNetwork, cluster_of: Mapping[int, int], center_uids: Sequence[int], radius: float
) -> np.ndarray:
    """Per centre, the number of distinct clusters with a member inside ``B(centre, radius)``."""
    if not cluster_of:
        return np.zeros(len(center_uids), dtype=np.int64)
    members = network.positions[network.indices_of(list(cluster_of))]
    centers = network.positions[network.indices_of(center_uids)]
    reach = radius + 1e-12
    # The join runs a hair wide, so the norm filter below alone decides the boundary.
    center, member = pairs_within(members, reach * (1.0 + 1e-9), queries=centers).T
    inside = np.linalg.norm(members[member] - centers[center], axis=1) <= reach
    _, cluster = np.unique(np.fromiter(cluster_of.values(), dtype=np.int64), return_inverse=True)
    span = int(cluster.max()) + 1
    met = np.unique(center[inside] * span + cluster[member[inside]])
    return np.bincount(met // span, minlength=len(centers))


def validate_clustering(
    network: WirelessNetwork,
    cluster_of: Mapping[int, int],
    max_radius: float = 2.0,
    max_overlap: Optional[int] = None,
) -> ClusteringReport:
    """Check the two clustering conditions on a finished assignment.

    ``max_radius`` is the allowed cluster radius (1-clusterings produced by
    Algorithm 6 should satisfy radius <= 1 up to the boundary tolerance of
    radius reduction; we default to 2 which is the paper's "ball of constant
    diameter" guarantee for clusters formed from 2-clusterings).
    ``max_overlap`` is the allowed number of clusters per unit ball; by
    default it is derived from the packing constant ``chi(max_radius + 1,
    1 - eps)`` -- the paper's O(1).
    """
    groups = cluster_members(cluster_of)
    radii = {cluster: cluster_radius(network, members) for cluster, members in groups.items()}
    worst_radius = max(radii.values(), default=0.0)

    unit = network.params.transmission_range
    overlap = int(_clusters_meeting_balls(network, cluster_of, list(cluster_of), unit).max(initial=0))

    if max_overlap is None:
        eps = network.params.epsilon
        # Clusters have centres pairwise >= 1 - eps apart once radius reduction
        # ran, so the number of clusters meeting a unit ball is bounded by the
        # packing constant below.
        max_overlap = int(math.floor((1.0 + 2.0 * (max_radius + 1.0) / (1.0 - eps)) ** 2))

    sizes = [len(members) for members in groups.values()]
    return ClusteringReport(
        cluster_count=len(groups),
        max_radius=worst_radius,
        max_clusters_per_unit_ball=overlap,
        max_cluster_size=max(sizes, default=0),
        singleton_clusters=sum(1 for s in sizes if s == 1),
        valid_radius=worst_radius <= max_radius + 1e-9,
        valid_overlap=overlap <= max_overlap,
    )


def proximity_graph_covers_close_pairs(
    network: WirelessNetwork,
    adjacency: Mapping[int, Set[int]],
    participants: Iterable[int],
    cluster_of: Optional[Mapping[int, int]] = None,
) -> Tuple[bool, List[Tuple[int, int]]]:
    """Lemma 7 check: every close pair of the participant set is an edge of ``H``.

    Returns ``(ok, missing_pairs)``.
    """
    participants = sorted(set(participants))
    index_of = {uid: i for i, uid in enumerate(participants)}
    positions = np.array([network.position_of(uid) for uid in participants])
    local_clusters = None
    if cluster_of is not None:
        local_clusters = {index_of[uid]: cluster_of[uid] for uid in participants}
    pairs = find_close_pairs(
        positions,
        cluster_of=local_clusters,
        max_link=network.params.communication_radius,
    )
    missing: List[Tuple[int, int]] = []
    for pair in pairs:
        u = participants[pair.first]
        v = participants[pair.second]
        if v not in adjacency.get(u, set()) or u not in adjacency.get(v, set()):
            missing.append((u, v))
    return (not missing, missing)


def density_of_subset(network: WirelessNetwork, subset: Iterable[int]) -> int:
    """Unit-ball density of a subset of the network's nodes."""
    subset = list(subset)
    if not subset:
        return 0
    positions = np.array([network.position_of(uid) for uid in subset])
    return unit_ball_density(positions, radius=network.params.transmission_range)


def max_cluster_size(cluster_of: Mapping[int, int], subset: Optional[Iterable[int]] = None) -> int:
    """Largest cluster cardinality, optionally restricted to ``subset``."""
    if subset is None:
        return cluster_density(cluster_of)
    subset_set = set(subset)
    restricted = {uid: c for uid, c in cluster_of.items() if uid in subset_set}
    return cluster_density(restricted)
