"""The clustering algorithm (Algorithm 6, Theorem 1) -- the paper's headline result.

Starting from a completely unclustered network the algorithm produces a
1-clustering: every cluster fits inside a ball of constant radius, every unit
ball meets O(1) clusters, and every node knows its cluster ID.  It runs in
two parts:

* **Part 1 (downward)** -- repeated unclustered sparsification
  (Algorithm 3) with a geometrically shrinking density budget, producing a
  chain of nested node sets ``A_0 ⊇ A_1 ⊇ ... ⊇ A_m`` whose last set has
  constant density, together with parent links and replayable schedules.
* **Part 2 (upward)** -- the last set seeds singleton clusters; walking the
  chain backwards, every retired node inherits its parent's cluster (giving a
  2-clustering) and radius reduction (Algorithm 5) restores a 1-clustering
  before the next, denser set joins.

The result records the rounds consumed, the sparse "root" set (reused by
leader election and wake-up) and per-level statistics for the Figure 3/4
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..simulation.engine import SINRSimulator
from .config import AlgorithmConfig
from .radius_reduction import reduce_radius
from .sparsification import SparsificationLevel, sparsify_unclustered


@dataclass
class ClusteringLevelStats:
    """Per-level bookkeeping of the clustering run (used by experiments)."""

    level: int
    budget: int
    active_before: int
    active_after: int
    removed: int
    rounds_used: int


@dataclass
class ClusteringResult:
    """A 1-clustering of the participants plus execution statistics."""

    cluster_of: Dict[int, int]
    sparse_roots: Set[int]
    rounds_used: int = 0
    level_stats: List[ClusteringLevelStats] = field(default_factory=list)
    radius_reductions: int = 0

    def clusters(self) -> Dict[int, Set[int]]:
        """Mapping ``cluster ID -> members``."""
        result: Dict[int, Set[int]] = {}
        for uid, cluster in self.cluster_of.items():
            result.setdefault(cluster, set()).add(uid)
        return result

    def cluster_count(self) -> int:
        """Number of distinct clusters."""
        return len(set(self.cluster_of.values()))


def build_clustering(
    sim: SINRSimulator,
    participants: Optional[Iterable[int]] = None,
    gamma: Optional[int] = None,
    config: Optional[AlgorithmConfig] = None,
) -> ClusteringResult:
    """Algorithm 6: build a 1-clustering of ``participants``.

    Parameters
    ----------
    sim:
        The simulator.
    participants:
        IDs of the nodes to cluster; defaults to every node of the network.
    gamma:
        The density bound ``Gamma`` known to the nodes; defaults to the
        network's ``delta_bound``.
    config:
        Algorithm constants; defaults to :class:`AlgorithmConfig`'s defaults.
    """
    config = config or AlgorithmConfig()
    network = sim.network
    if participants is None:
        participants = list(network.uids)
    participants = sorted(set(participants))
    if gamma is None:
        gamma = network.delta_bound
    gamma = max(1, int(gamma))
    start_round = sim.current_round

    if len(participants) == 1:
        only = participants[0]
        return ClusteringResult(cluster_of={only: only}, sparse_roots={only}, rounds_used=0)

    # ---------------------------- Part 1: downward ---------------------------- #
    blocks: List[Tuple[int, List[SparsificationLevel]]] = []
    current: Set[int] = set(participants)
    budget = float(gamma)
    levels = config.full_sparsification_levels(gamma)
    stats: List[ClusteringLevelStats] = []
    level_counter = 0

    for _ in range(levels):
        if len(current) <= 1:
            break
        block_budget = max(1, int(round(budget)))
        before_round = sim.current_round
        sets, block_levels = sparsify_unclustered(sim, current, block_budget, config)
        blocks.append((block_budget, block_levels))
        for lvl in block_levels:
            level_counter += 1
            stats.append(
                ClusteringLevelStats(
                    level=level_counter,
                    budget=block_budget,
                    active_before=len(lvl.surviving) + len(lvl.removed),
                    active_after=len(lvl.surviving),
                    removed=len(lvl.removed),
                    rounds_used=lvl.rounds_used,
                )
            )
        new_current = sets[-1]
        budget *= 3.0 / 4.0
        progressed = len(new_current) < len(current)
        current = set(new_current)
        if config.adaptive_termination and not progressed:
            break
        del before_round

    sparse_roots = set(current)

    # ----------------------------- Part 2: upward ----------------------------- #
    cluster_of: Dict[int, int] = {uid: uid for uid in sparse_roots}
    clustered: Set[int] = set(sparse_roots)
    radius_reductions = 0
    pending_since_reduction = 0

    for block_budget, block_levels in reversed(blocks):
        for level in reversed(block_levels):
            newcomers = {uid for uid in level.removed if uid not in clustered}
            if newcomers:
                # Replay the level's schedule: parents re-send their cluster ID
                # to their children (receptions identical to the recorded run).
                if level.replay_length:
                    sim.run_silent_rounds(level.replay_length)
                for uid in newcomers:
                    parent = level.parent.get(uid)
                    if parent is not None and parent in cluster_of:
                        cluster_of[uid] = cluster_of[parent]
                    else:
                        cluster_of[uid] = uid
                clustered |= newcomers
                pending_since_reduction += 1
            if pending_since_reduction >= config.radius_reduction_interval and len(clustered) > 1:
                reduction = reduce_radius(
                    sim,
                    clustered,
                    cluster_of,
                    max(2, block_budget),
                    config,
                    r=2.0,
                )
                cluster_of.update(reduction.cluster_of)
                radius_reductions += 1
                pending_since_reduction = 0

    # Any participant never touched by the chain keeps a singleton cluster.
    for uid in participants:
        cluster_of.setdefault(uid, uid)

    # Final radius reduction so the output is a genuine 1-clustering even when
    # the last levels were skipped by the interval setting.
    if pending_since_reduction and len(participants) > 1:
        reduction = reduce_radius(
            sim,
            participants,
            cluster_of,
            gamma,
            config,
            r=2.0,
        )
        cluster_of.update(reduction.cluster_of)
        radius_reductions += 1

    return ClusteringResult(
        cluster_of={uid: cluster_of[uid] for uid in participants},
        sparse_roots=sparse_roots,
        rounds_used=sim.current_round - start_round,
        level_stats=stats,
        radius_reductions=radius_reductions,
    )
