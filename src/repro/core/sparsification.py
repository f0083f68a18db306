"""Network sparsification (Section 4.1-4.2): Algorithms 2, 3 and 4.

* :func:`sparsify` -- Algorithm 2, one sparsification pass.  Repeatedly
  builds the proximity graph of the still-active nodes, selects an
  independent set (local minima in the clustered case, a full MIS in the
  unclustered case), and retires independent-set neighbours as *children* of
  their chosen parent.  The returned set (old actives plus parents) has
  density reduced by a constant factor in every dense cluster (Lemma 8).
* :func:`sparsify_unclustered` -- Algorithm 3, the unclustered wrapper that
  repeats Algorithm 2 enough times to reduce the *geometric* density
  (Lemma 9).
* :func:`full_sparsification` -- Algorithm 4, iterates Algorithm 2 with a
  geometrically shrinking density budget until only O(1) nodes per cluster
  remain, recording the parent/child forest and per-level schedules that the
  labeling and clustering algorithms later replay (Lemma 10).

Loop bounds follow :class:`~repro.core.config.AlgorithmConfig`; with
``adaptive_termination`` (the default) a loop stops as soon as an iteration
retires nobody, which cannot change any later outcome because the proximity
graph of an unchanged active set is itself unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..selectors.mis import local_minima
from ..simulation.engine import SINRSimulator
from .config import AlgorithmConfig
from .proximity import ProximityGraph, build_proximity_graph, distributed_mis, neighbor_exchange


@dataclass
class SparsificationLevel:
    """Result of one call to Algorithm 2 (one *level* of full sparsification)."""

    surviving: Set[int]
    removed: Set[int]
    parent: Dict[int, int] = field(default_factory=dict)
    children: Dict[int, Set[int]] = field(default_factory=dict)
    iterations: int = 0
    rounds_used: int = 0
    replay_length: int = 0

    def parent_of(self, uid: int) -> Optional[int]:
        """Parent of a removed node (``None`` for surviving nodes)."""
        return self.parent.get(uid)


@dataclass
class SparsificationForest:
    """Result of Algorithm 4: nested node sets and the parent/child forest."""

    sets: List[Set[int]]
    levels: List[SparsificationLevel]
    parent: Dict[int, int] = field(default_factory=dict)
    children: Dict[int, Set[int]] = field(default_factory=dict)
    removal_level: Dict[int, int] = field(default_factory=dict)
    rounds_used: int = 0

    @property
    def roots(self) -> Set[int]:
        """Nodes that were never retired (the final, sparsest set)."""
        return self.sets[-1] if self.sets else set()

    def tree_of(self, root: int) -> Set[int]:
        """All descendants of ``root`` (including ``root``)."""
        members = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in self.children.get(node, set()):
                if child not in members:
                    members.add(child)
                    frontier.append(child)
        return members

    def depth_of(self, uid: int) -> int:
        """Number of parent hops from ``uid`` to its root."""
        depth = 0
        current = uid
        while current in self.parent:
            current = self.parent[current]
            depth += 1
            if depth > len(self.parent) + 1:
                raise RuntimeError("parent pointers contain a cycle")
        return depth


def _assign_parents(
    active: Set[int],
    independent: Set[int],
    graph: ProximityGraph,
    parent: Dict[int, int],
    children: Dict[int, Set[int]],
) -> Set[int]:
    """Lines 6-9 of Algorithm 2: children choose the smallest adjacent parent."""
    new_children: Set[int] = set()
    for v in active:
        if v in independent:
            continue
        adjacent_parents = graph.neighbors(v) & independent
        if not adjacent_parents:
            continue
        chosen = min(adjacent_parents)
        parent[v] = chosen
        children.setdefault(chosen, set()).add(v)
        new_children.add(v)
    return new_children


def sparsify(
    sim: SINRSimulator,
    participants: Iterable[int],
    gamma: int,
    config: AlgorithmConfig,
    cluster_of: Optional[Mapping[int, int]] = None,
) -> SparsificationLevel:
    """Algorithm 2: one sparsification pass over ``participants``.

    ``cluster_of`` selects the clustered variant (independent set = local
    minima of the proximity graph); ``None`` selects the unclustered variant
    (independent set = a maximal independent set, per Section 4.1).
    """
    active: Set[int] = set(participants)
    all_nodes = set(active)
    parent: Dict[int, int] = {}
    children: Dict[int, Set[int]] = {}
    parents_so_far: Set[int] = set()
    removed_so_far: Set[int] = set()

    start_round = sim.current_round
    iterations = config.sparsification_iterations(gamma)
    replay_length = 0
    performed = 0

    for _ in range(iterations):
        if len(active) <= 1:
            break
        performed += 1
        graph = build_proximity_graph(
            sim,
            active,
            config,
            cluster_of={uid: cluster_of[uid] for uid in active} if cluster_of else None,
        )
        replay_length += graph.schedule_length
        if cluster_of is None:
            independent = distributed_mis(sim, graph, config)
        else:
            adjacency = {uid: graph.neighbors(uid) for uid in active}
            independent = local_minima(adjacency)
        new_children = _assign_parents(active, independent, graph, parent, children)
        if new_children:
            # Children announce their chosen parent (one replayed exchange).
            neighbor_exchange(sim, graph)
            replay_length += graph.schedule_length
        new_parents = {v for v in active if children.get(v)}
        parents_so_far |= new_parents
        removed_so_far |= new_children
        active -= parents_so_far | removed_so_far
        if config.adaptive_termination and not new_children:
            break

    surviving = active | parents_so_far
    return SparsificationLevel(
        surviving=surviving,
        removed=all_nodes - surviving,
        parent=parent,
        children=children,
        iterations=performed,
        rounds_used=sim.current_round - start_round,
        replay_length=replay_length,
    )


def sparsify_unclustered(
    sim: SINRSimulator,
    participants: Iterable[int],
    gamma: int,
    config: AlgorithmConfig,
) -> Tuple[List[Set[int]], List[SparsificationLevel]]:
    """Algorithm 3: repeated unclustered sparsification.

    Returns the chain of node sets ``X_0 ⊇ X_1 ⊇ ... ⊇ X_l`` together with
    the per-repetition results (which carry the parent links and replayable
    schedules, per Lemma 9).
    """
    current: Set[int] = set(participants)
    sets: List[Set[int]] = [set(current)]
    levels: List[SparsificationLevel] = []
    repetitions = config.unclustered_iterations(sim.network.params)
    for _ in range(repetitions):
        if len(current) <= 1:
            break
        level = sparsify(sim, current, gamma, config, cluster_of=None)
        levels.append(level)
        sets.append(set(level.surviving))
        if config.adaptive_termination and not level.removed:
            break
        current = set(level.surviving)
    return sets, levels


def full_sparsification(
    sim: SINRSimulator,
    participants: Iterable[int],
    gamma: int,
    config: AlgorithmConfig,
    cluster_of: Optional[Mapping[int, int]] = None,
) -> SparsificationForest:
    """Algorithm 4: iterate Algorithm 2 until each cluster retains O(1) nodes.

    The per-level density budget shrinks by a factor 3/4 every level, as in
    the paper; the forest of parent pointers (one tree per surviving root,
    O(1) roots per cluster) is returned for the labeling and clustering
    algorithms to replay.
    """
    current: Set[int] = set(participants)
    start_round = sim.current_round
    forest = SparsificationForest(sets=[set(current)], levels=[])
    budget = float(max(gamma, 1))
    levels = config.full_sparsification_levels(gamma)

    for level_index in range(1, levels + 1):
        if len(current) <= 1:
            break
        level = sparsify(
            sim,
            current,
            max(1, int(round(budget))),
            config,
            cluster_of=cluster_of,
        )
        forest.levels.append(level)
        forest.sets.append(set(level.surviving))
        for child, parent in level.parent.items():
            forest.parent[child] = parent
            forest.children.setdefault(parent, set()).add(child)
            forest.removal_level[child] = level_index
        current = set(level.surviving)
        budget *= 3.0 / 4.0
        if config.adaptive_termination and not level.removed:
            break

    forest.rounds_used = sim.current_round - start_round
    return forest
