"""Local broadcast (Algorithm 7, Theorem 2).

Every node has a message; the task is complete when every node's message has
been received by all of its communication-graph neighbours.  The algorithm:

1. build a 1-clustering of the whole network (Algorithm 6),
2. give every node a label via imperfect labeling (Lemma 11), so that every
   label appears O(1) times per cluster,
3. for each label value ``l = 1 .. Delta`` run the Sparse Network Schedule
   with exactly the label-``l`` nodes transmitting: their density is O(1), so
   by Lemma 4 each of them is heard within distance ``1 - eps``.

The result records which receivers got each sender's message so tests and
benchmarks can verify completion and count rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..simulation.engine import SINRSimulator
from ..simulation.schedule import DeliveryLedger
from .clustering import ClusteringResult, build_clustering
from .config import AlgorithmConfig
from .labeling import LabelingResult, imperfect_labeling
from .primitives import run_sns


@dataclass
class LocalBroadcastResult:
    """Outcome of the local broadcast algorithm."""

    clustering: ClusteringResult
    labeling: LabelingResult
    delivered: DeliveryLedger = field(default_factory=DeliveryLedger)
    rounds_used: int = 0
    rounds_clustering: int = 0
    rounds_labeling: int = 0
    rounds_transmission: int = 0


def local_broadcast(
    sim: SINRSimulator,
    config: Optional[AlgorithmConfig] = None,
    gamma: Optional[int] = None,
    extra_sweeps: int = 0,
) -> LocalBroadcastResult:
    """Algorithm 7: every node delivers its message to all of its neighbours.

    Parameters
    ----------
    sim:
        The simulator (all nodes awake, per the local broadcast model).
    config:
        Algorithm constants.
    gamma:
        Density bound ``Delta``; defaults to the network's ``delta_bound``.
    extra_sweeps:
        Number of times the label sweep of step 3 is repeated.  The paper's
        single sweep suffices with worst-case constants; with the compact
        selectors a second sweep inexpensively covers residual misses and is
        counted in the reported rounds.
    """
    config = config or AlgorithmConfig()
    network = sim.network
    if gamma is None:
        gamma = network.delta_bound
    gamma = max(1, int(gamma))
    start_round = sim.current_round

    clustering = build_clustering(sim, network.uids, gamma, config)
    rounds_clustering = sim.current_round - start_round

    labeling_start = sim.current_round
    labeling = imperfect_labeling(sim, network.uids, clustering.cluster_of, gamma, config)
    rounds_labeling = sim.current_round - labeling_start

    transmission_start = sim.current_round
    delivered = DeliveryLedger()
    by_label: Dict[int, List[int]] = {}
    for uid in network.uids:
        by_label.setdefault(labeling.labels[uid], []).append(uid)

    sweeps = 1 + max(0, extra_sweeps)
    for _ in range(sweeps):
        for label in range(1, gamma + 1):
            outcome = run_sns(sim, by_label.get(label, []), config)
            delivered.add(*outcome.result.delivery_pairs())

    rounds_transmission = sim.current_round - transmission_start
    return LocalBroadcastResult(
        clustering=clustering,
        labeling=labeling,
        delivered=delivered,
        rounds_used=sim.current_round - start_round,
        rounds_clustering=rounds_clustering,
        rounds_labeling=rounds_labeling,
        rounds_transmission=rounds_transmission,
    )
