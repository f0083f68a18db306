"""Leader election (Theorem 5).

Exactly one node of the network must end up elected.  Following the paper:

1. cluster the whole network (Algorithm 6); the surviving sparse roots form a
   non-empty, constant-density candidate set ``S``;
2. binary-search over the ID space: for a candidate range ``[lo, mid]``, run
   SMSBroadcast with sources ``S ∩ [lo, mid]``; because a broadcast from a
   non-empty source set reaches *every* node while an empty one reaches none,
   all nodes observe the same bit ("did I receive anything during this
   execution?") and narrow the range consistently;
3. after ``O(log N)`` executions the range is a single ID -- the leader.

As in the paper, the algorithm assumes the communication graph is connected:
the "did I receive anything" bit is consistent across nodes only when a
broadcast from a non-empty source set reaches everyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..simulation.engine import SINRSimulator
from .clustering import ClusteringResult, build_clustering
from .config import AlgorithmConfig
from .global_broadcast import GlobalBroadcastResult, sms_broadcast


@dataclass
class LeaderElectionResult:
    """Outcome of the leader election algorithm."""

    leader: int
    candidates: Set[int]
    announce: GlobalBroadcastResult
    probes: List[Tuple[int, int, bool]] = field(default_factory=list)
    clustering: Optional[ClusteringResult] = None
    rounds_used: int = 0

    def probe_count(self) -> int:
        """Number of binary-search probes (SMSBroadcast executions)."""
        return len(self.probes)

    def elected(self, network) -> bool:
        """Whether the smallest candidate won and its announcement reached every node."""
        return self.leader == min(self.candidates) and self.announce.reached_all(network)


def elect_leader(
    sim: SINRSimulator,
    config: Optional[AlgorithmConfig] = None,
    gamma: Optional[int] = None,
) -> LeaderElectionResult:
    """Theorem 5: elect exactly one leader in the whole network."""
    config = config or AlgorithmConfig()
    network = sim.network
    if gamma is None:
        gamma = network.delta_bound
    gamma = max(1, int(gamma))
    start_round = sim.current_round

    clustering = build_clustering(sim, network.uids, gamma, config)
    candidates = set(clustering.sparse_roots) or set(network.uids)

    lo, hi = 1, network.id_space
    probes: List[Tuple[int, int, bool]] = []
    # Narrow [lo, hi] while keeping the invariant that it contains min(candidates').
    while lo < hi:
        mid = (lo + hi) // 2
        probe_sources = sorted(uid for uid in candidates if lo <= uid <= mid)
        broadcast = sms_broadcast(sim, probe_sources, config=config, gamma=gamma)
        non_empty = bool(probe_sources) and broadcast.reached_all(network)
        probes.append((lo, mid, non_empty))
        if non_empty:
            hi = mid
        else:
            lo = mid + 1

    leader = lo
    if leader not in candidates:
        # The binary search pinpoints the smallest candidate ID; fall back to
        # it explicitly if the range degenerated (e.g. single-node networks).
        leader = min(candidates)

    # The elected leader announces itself with one final broadcast so every
    # node learns the outcome, as in the paper's problem statement.
    announce = sms_broadcast(sim, [leader], config=config, gamma=gamma)

    return LeaderElectionResult(
        leader=leader,
        candidates=candidates,
        probes=probes,
        clustering=clustering,
        announce=announce,
        rounds_used=sim.current_round - start_round,
    )
