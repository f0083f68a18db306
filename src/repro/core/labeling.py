"""Imperfect labeling of clusters (Lemma 11).

Given an ``r``-clustered set of density ``Gamma``, the labeling assigns every
node a label in ``[1, Gamma]`` such that within each cluster every label is
used at most ``c = O(1)`` times.  The construction follows the paper: run
full sparsification, which splits each cluster into O(1) trees rooted at the
surviving nodes; aggregate subtree sizes bottom-up along the recorded
schedules; then hand out consecutive label ranges top-down (the root keeps
the first label of its range and splits the rest among its children's
subtrees).

Both tree passes are message exchanges between confirmed parent/child pairs,
i.e. replays of the sparsification schedules; their rounds are charged via
the forest's ``replay_length`` values (see the deterministic-replay note in
docs/paper.md, Reproduction notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Set

from ..simulation.engine import SINRSimulator
from .config import AlgorithmConfig
from .sparsification import SparsificationForest, full_sparsification


@dataclass
class LabelingResult:
    """Labels produced by the imperfect labeling algorithm."""

    labels: Dict[int, int]
    forest: SparsificationForest
    rounds_used: int = 0

    def label_of(self, uid: int) -> int:
        """Label of node ``uid``."""
        return self.labels[uid]

    def max_label(self) -> int:
        """Largest label handed out."""
        return max(self.labels.values(), default=0)

    def multiplicity(self, cluster_of: Mapping[int, int]) -> int:
        """Largest number of equal labels inside one cluster (the ``c`` of Lemma 11)."""
        counts: Dict[tuple, int] = {}
        for uid, label in self.labels.items():
            key = (cluster_of.get(uid), label)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)


def _subtree_sizes(forest: SparsificationForest, members: Set[int]) -> Dict[int, int]:
    """Bottom-up subtree sizes for every member of the forest."""
    sizes: Dict[int, int] = {uid: 1 for uid in members}
    # Children were always retired at a strictly smaller level than their
    # parent, so processing nodes by increasing removal level aggregates each
    # subtree before its total is forwarded upward.
    ordered = sorted(
        (uid for uid in members if uid in forest.parent),
        key=lambda uid: forest.removal_level.get(uid, 0),
    )
    for uid in ordered:
        parent = forest.parent[uid]
        sizes[parent] = sizes.get(parent, 1) + sizes[uid]
    return sizes


def _assign_labels(forest: SparsificationForest, sizes: Dict[int, int]) -> Dict[int, int]:
    """Top-down label ranges: node keeps the first label of its range."""
    labels: Dict[int, int] = {}
    for root in sorted(forest.roots):
        # Depth-first hand-out of the range [1, size(root)].
        stack: List[tuple] = [(root, 1)]
        while stack:
            node, start = stack.pop()
            labels[node] = start
            offset = start + 1
            for child in sorted(forest.children.get(node, set())):
                stack.append((child, offset))
                offset += sizes.get(child, 1)
    return labels


def imperfect_labeling(
    sim: SINRSimulator,
    participants: Iterable[int],
    cluster_of: Mapping[int, int],
    gamma: int,
    config: AlgorithmConfig,
) -> LabelingResult:
    """Lemma 11: build a ``c``-imperfect labeling of a clustered set."""
    participants = set(participants)
    start_round = sim.current_round
    forest = full_sparsification(
        sim,
        participants,
        gamma,
        config,
        cluster_of={uid: cluster_of[uid] for uid in participants},
    )
    sizes = _subtree_sizes(forest, participants)
    labels = _assign_labels(forest, sizes)
    for uid in participants:
        labels.setdefault(uid, 1)

    # Bottom-up and top-down tree communication: one replay of the recorded
    # schedules per direction.
    replay = sum(level.replay_length for level in forest.levels)
    if replay:
        sim.run_silent_rounds(2 * replay)

    return LabelingResult(
        labels=labels, forest=forest, rounds_used=sim.current_round - start_round
    )
