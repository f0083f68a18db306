"""Witnessed cluster-aware strong selectors (wcss) -- Lemma 3 of the paper.

An ``(N, k, l)``-wcss is a sequence of subsets of ``[N] x [N]`` (pairs of node
ID and cluster ID) such that for every cluster ``phi``, every conflict set
``C`` of at most ``l`` other clusters, every ``X`` of at most ``k`` nodes of
cluster ``phi``, every ``x`` in ``X`` and every ``y`` of cluster ``phi``
outside ``X``, some round selects ``x`` from ``X``, contains ``y`` as a
witness, and is *free* of all clusters in ``C``.

Following the paper's probabilistic construction (proof of Lemma 3) each
round is sampled in two independent stages: first a set of *allowed clusters*
(each cluster admitted with probability ``1/l``), then a set of *allowed node
IDs* (each admitted with probability ``1/k``).  A clustered node ``(v, phi)``
transmits in a round iff ``phi`` is allowed **and** ``v`` is allowed.  This
product form is exactly the event structure analysed in the paper and admits
a compact representation: two ID sets per round instead of a subset of
``[N]^2``.

As with the wss, the construction is seeded (hence deterministic and shared
by all nodes), the faithful ``O((k+l) l k^2 log N)`` length is available via
``faithful=True``, and a compact default keeps simulations laptop-scale; see
substitutions 2 and 3 of the reproduction notes (docs/paper.md).

Both stages are stored columnarly (CSR round families, see
:mod:`repro.selectors._csr`); ``node_rounds`` / ``cluster_rounds`` remain
available as lazy frozenset views, and :meth:`ClusterAwareSchedule.rounds_of`
answers "in which rounds does node ``v`` of cluster ``phi`` transmit?" from
the cached inverse indexes instead of scanning the schedule.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ._csr import RoundFamily
from .ssf import sampled_family


class ClusterAwareSchedule:
    """A transmission schedule for clustered sets of nodes.

    ``node_rounds[t]`` is the set of node IDs allowed to transmit in round
    ``t`` and ``cluster_rounds[t]`` the set of cluster IDs allowed in round
    ``t``.  A node ``v`` of cluster ``phi`` transmits in round ``t`` iff
    ``v in node_rounds[t]`` and ``phi in cluster_rounds[t]``.
    """

    __slots__ = ("id_space", "name", "_nodes", "_clusters")

    def __init__(
        self,
        id_space: int,
        node_rounds: Iterable[Iterable[int]] = (),
        cluster_rounds: Iterable[Iterable[int]] = (),
        name: str = "wcss",
        *,
        node_family: Optional[RoundFamily] = None,
        cluster_family: Optional[RoundFamily] = None,
    ) -> None:
        if id_space <= 0:
            raise ValueError("id_space must be positive")
        if node_family is None:
            node_family = RoundFamily.from_sets(node_rounds)
        if cluster_family is None:
            cluster_family = RoundFamily.from_sets(cluster_rounds)
        if len(node_family) != len(cluster_family):
            raise ValueError("node_rounds and cluster_rounds must have the same length")
        self.id_space = int(id_space)
        self.name = name
        self._nodes = node_family
        self._clusters = cluster_family

    # ------------------------------------------------------------------ #
    # Columnar accessors.
    # ------------------------------------------------------------------ #

    @property
    def node_family(self) -> RoundFamily:
        """CSR representation of the per-round allowed node IDs."""
        return self._nodes

    @property
    def cluster_family(self) -> RoundFamily:
        """CSR representation of the per-round allowed cluster IDs."""
        return self._clusters

    def node_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, members)`` of the node stage."""
        return self._nodes.indptr, self._nodes.members

    def cluster_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, members)`` of the cluster stage."""
        return self._clusters.indptr, self._clusters.members

    def rounds_of_array(self, uid: int, cluster: int) -> np.ndarray:
        """Sorted rounds in which ``(uid, cluster)`` transmits.

        The intersection of the node inverse index of ``uid`` with the
        cluster inverse index of ``cluster`` -- no per-round scan.
        """
        return np.intersect1d(
            self._nodes.rounds_of(uid),
            self._clusters.rounds_of(cluster),
            assume_unique=True,
        )

    def rounds_of(self, uid: int, cluster: int) -> List[int]:
        """Rounds in which node ``uid`` of cluster ``cluster`` transmits."""
        return self.rounds_of_array(uid, cluster).tolist()

    # ------------------------------------------------------------------ #
    # Legacy (set-view) API.
    # ------------------------------------------------------------------ #

    @property
    def node_rounds(self) -> Tuple[FrozenSet[int], ...]:
        """Per-round allowed node IDs as frozensets (lazy, cached)."""
        return self._nodes.frozensets()

    @property
    def cluster_rounds(self) -> Tuple[FrozenSet[int], ...]:
        """Per-round allowed cluster IDs as frozensets (lazy, cached)."""
        return self._clusters.frozensets()

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterAwareSchedule):
            return NotImplemented
        return (
            self.id_space == other.id_space
            and self.name == other.name
            and self._nodes == other._nodes
            and self._clusters == other._clusters
        )

    def __hash__(self) -> int:
        return hash((self.id_space, self.name, self._nodes, self._clusters))

    def __repr__(self) -> str:
        return (
            f"ClusterAwareSchedule(id_space={self.id_space}, "
            f"rounds={len(self._nodes)}, name={self.name!r})"
        )

    def transmits_in(self, uid: int, cluster: int, round_index: int) -> bool:
        """Whether node ``uid`` of cluster ``cluster`` transmits in the given round."""
        return self._nodes.contains(uid, round_index) and self._clusters.contains(
            cluster, round_index
        )

    def round_is_free_of(self, round_index: int, clusters: Iterable[int]) -> bool:
        """Whether the round admits none of the given clusters."""
        return not any(self._clusters.contains(c, round_index) for c in clusters)

    def repeated(self, times: int) -> "ClusterAwareSchedule":
        """The schedule concatenated with itself ``times`` times."""
        return ClusterAwareSchedule(
            id_space=self.id_space,
            node_family=self._nodes.tile(times),
            cluster_family=self._clusters.tile(times),
            name=f"{self.name}x{times}",
        )


def wcss_length(
    id_space: int, k: int, l: int, size_factor: float = 1.0, faithful: bool = False
) -> int:
    """Number of rounds used by :func:`random_wcss`.

    The faithful length is the paper's ``O((k + l) l k^2 log N)``; the compact
    default is ``O(l k^2 log N)`` which, with the fixed seed, suffices for the
    cluster configurations arising in our simulations.
    """
    if k <= 0 or l <= 0:
        raise ValueError("k and l must be positive")
    log_n = math.log(max(id_space, 2))
    if faithful:
        base = 3.0 * math.e * (k + l) * l * (k**2) * (log_n + 2.0)
    else:
        base = 1.5 * math.e * l * (k**2) * (log_n + 2.0)
    return max(1, int(math.ceil(size_factor * base)))


def random_wcss(
    id_space: int,
    k: int,
    l: int,
    seed: int = 0,
    size_factor: float = 1.0,
    faithful: bool = False,
    length: Optional[int] = None,
) -> ClusterAwareSchedule:
    """Seeded probabilistic-method construction of an ``(N, k, l)``-wcss.

    The node and cluster stages are drawn in the exact interleaved order a
    round-by-round loop would use (node row, then cluster row, per round), so
    the construction is stream-compatible with the historical one, but the
    masks are converted to CSR columnarly.
    """
    if id_space <= 0:
        raise ValueError("id_space must be positive")
    if k <= 0 or l <= 0:
        raise ValueError("k and l must be positive")
    k = min(k, id_space)
    l = min(l, id_space)
    rng = np.random.default_rng(seed)
    if length is None:
        length = wcss_length(id_space, k, l, size_factor=size_factor, faithful=faithful)
    node_probability = 1.0 / max(k, 2)
    cluster_probability = 1.0 / max(l, 2)
    node_family, cluster_family = sampled_family(
        rng,
        id_space,
        length,
        (node_probability, cluster_probability),
        drop_empty=False,
        streams=2,
    )
    return ClusterAwareSchedule(
        id_space=id_space,
        node_family=node_family,
        cluster_family=cluster_family,
        name=f"wcss(N={id_space},k={k},l={l},seed={seed})",
    )


def cluster_witness_rounds(
    schedule: ClusterAwareSchedule,
    cluster: int,
    selected: int,
    witness: int,
    blockers: Iterable[int],
    conflicts: Iterable[int],
) -> List[int]:
    """Rounds realizing the wcss property for a concrete configuration.

    ``blockers`` are the other members of ``X`` (same cluster as ``selected``)
    and ``conflicts`` the clusters that must stay silent in the round.
    Answered by sorted-array set algebra over the cached inverse indexes.
    """
    nodes = schedule.node_family
    clusters = schedule.cluster_family
    candidate = np.intersect1d(
        schedule.rounds_of_array(selected, cluster),
        nodes.rounds_of(witness),
        assume_unique=True,
    )
    if not len(candidate):
        return []
    blocked: List[np.ndarray] = [
        nodes.rounds_of(b) for b in set(blockers) - {selected}
    ]
    blocked += [clusters.rounds_of(c) for c in set(conflicts) - {cluster}]
    if blocked:
        bad = np.unique(np.concatenate(blocked))
        candidate = np.setdiff1d(candidate, bad, assume_unique=True)
    return candidate.tolist()


def verify_wcss(
    schedule: ClusterAwareSchedule,
    k: int,
    l: int,
    node_universe: Sequence[int],
    cluster_universe: Sequence[int],
) -> bool:
    """Exhaustively verify the wcss property over small universes.

    Exponential in ``k`` and ``l``; intended for unit tests with a handful of
    IDs and clusters only.
    """
    node_universe = list(node_universe)
    cluster_universe = list(cluster_universe)
    for phi in cluster_universe:
        other_clusters = [c for c in cluster_universe if c != phi]
        conflict_sets = list(combinations(other_clusters, min(l, len(other_clusters))))
        if not conflict_sets:
            conflict_sets = [tuple()]
        for conflict in conflict_sets:
            for subset in combinations(node_universe, min(k, len(node_universe))):
                subset_set = set(subset)
                for x in subset:
                    for y in node_universe:
                        if y in subset_set:
                            continue
                        if not cluster_witness_rounds(schedule, phi, x, y, subset_set, conflict):
                            return False
    return True


def missing_cluster_witnesses(
    schedule: ClusterAwareSchedule,
    configurations: Iterable[Tuple[int, Set[int], int, int, Set[int]]],
) -> List[Tuple[int, Set[int], int, int, Set[int]]]:
    """Configurations ``(cluster, X, x, y, conflicts)`` for which the property fails."""
    failures = []
    for cluster, subset, x, y, conflicts in configurations:
        if x not in subset or y in subset:
            raise ValueError("expected x in X and y outside X")
        if not cluster_witness_rounds(schedule, cluster, x, y, subset, conflicts):
            failures.append((cluster, subset, x, y, conflicts))
    return failures
