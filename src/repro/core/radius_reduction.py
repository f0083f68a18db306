"""Radius reduction of a clustering (Algorithm 5, Lemma 12).

Given an ``r``-clustering (``r = O(1)``) of a node set ``X``, build a
1-clustering of ``X``: repeatedly

1. fully sparsify ``X`` (O(1) survivors per cluster),
2. let the survivors run the Sparse Network Schedule and compute a maximal
   independent set ``D`` of the graph of pairs that exchanged messages,
3. let ``D`` run the Sparse Network Schedule again; every node hearing some
   ``u`` in ``D`` joins the new cluster centred at ``u``,
4. drop ``D`` and the newly assigned nodes and repeat for the rest.

Every ball of radius 1 ends up intersecting O(1) new clusters because the
new centres (elements of the maximal independent sets) are pairwise more
than ``1 - eps`` apart within an iteration and only ``chi(r+1, 1-eps)``
iterations are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Set

from ..selectors.mis import iterated_local_minima_mis
from ..simulation.engine import SINRSimulator
from ..simulation.schedule import DeliveryLedger, ScheduleResult
from .config import AlgorithmConfig
from .primitives import run_sns
from .sparsification import full_sparsification


@dataclass
class RadiusReductionResult:
    """Outcome of Algorithm 5."""

    cluster_of: Dict[int, int]
    centers: Set[int] = field(default_factory=set)
    iterations: int = 0
    rounds_used: int = 0
    unassigned: Set[int] = field(default_factory=set)


def _mutual_graph(result: ScheduleResult, nodes: Iterable[int]) -> Dict[int, Set[int]]:
    """Adjacency (keyed in ``nodes`` order) of the pairs that decoded each other in ``result``."""
    heard = DeliveryLedger(*result.delivery_pairs())
    senders, receivers = heard.pairs()
    mutual = heard.locate(receivers, senders) >= 0
    adjacency: Dict[int, Set[int]] = {uid: set() for uid in nodes}
    for u, v in zip(senders[mutual].tolist(), receivers[mutual].tolist()):
        adjacency[u].add(v)
    return adjacency


def reduce_radius(
    sim: SINRSimulator,
    participants: Iterable[int],
    cluster_of: Mapping[int, int],
    gamma: int,
    config: AlgorithmConfig,
    r: float = 2.0,
) -> RadiusReductionResult:
    """Algorithm 5: transform an ``r``-clustering of ``participants`` into a 1-clustering."""
    remaining: Set[int] = set(participants)
    all_nodes = set(remaining)
    start_round = sim.current_round
    new_cluster: Dict[int, int] = {}
    centers: Set[int] = set()

    max_iterations = max(1, config.radius_reduction_iterations(sim.network.params, r))
    iterations = 0
    for _ in range(max_iterations):
        if not remaining:
            break
        iterations += 1

        forest = full_sparsification(
            sim,
            remaining,
            gamma,
            config,
            cluster_of={uid: cluster_of[uid] for uid in remaining if uid in cluster_of},
        )
        survivors = forest.roots & remaining if forest.roots else set(remaining)
        if not survivors:
            survivors = set(remaining)

        # Survivors run SNS; pairs that heard each other form the graph G.
        outcome = run_sns(sim, survivors, config, listeners=sorted(survivors))
        mis, mis_iterations = iterated_local_minima_mis(_mutual_graph(outcome.result, survivors))
        if mis_iterations:
            # Status exchanges between G-neighbours: replay the SNS per iteration.
            sim.run_silent_rounds(mis_iterations * outcome.rounds)
        if not mis:
            mis = {min(survivors)}

        # New centres broadcast; every still-unassigned node that hears one
        # joins the cluster of the first centre it heard.
        assignment_outcome = run_sns(sim, sorted(mis), config, listeners=sorted(remaining - mis))
        listeners, first_senders, _ = assignment_outcome.result.first_receptions()
        newly_assigned = set(listeners.tolist())
        new_cluster.update(zip(listeners.tolist(), first_senders.tolist()))
        for center in mis:
            new_cluster[center] = center
        centers |= mis

        progressed = bool(mis | newly_assigned)
        remaining -= mis | newly_assigned
        if config.adaptive_termination and not progressed:
            break

    # Nodes the iteration budget did not reach keep a degenerate singleton
    # cluster centred at themselves; the paper's worst-case iteration count
    # guarantees this never happens, and tests assert it stays empty.
    unassigned = {uid for uid in all_nodes if uid not in new_cluster}
    for uid in unassigned:
        new_cluster[uid] = uid
        centers.add(uid)

    return RadiusReductionResult(
        cluster_of=new_cluster,
        centers=centers,
        iterations=iterations,
        rounds_used=sim.current_round - start_round,
        unassigned=unassigned,
    )
