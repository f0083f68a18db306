"""The wake-up problem (Theorem 4).

Some nodes wake spontaneously at adversarially chosen rounds; every other
node must eventually be activated by receiving a message.  With a global
clock the paper's solution runs, at every round divisible by the algorithm's
period ``T``, a fresh execution of: cluster the spontaneously awake nodes
(which yields a constant-density subset -- the surviving roots), then run
SMSBroadcast from that subset, which activates the entire network.

The simulator realizes one such execution explicitly: it aligns the start to
the period boundary following the earliest spontaneous wake-up, clusters the
then-awake nodes, and broadcasts.  Nodes that wake spontaneously later are
simply already active by their own clock; the returned activation rounds take
the minimum of the two mechanisms, matching the problem definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..simulation.engine import SINRSimulator
from .clustering import build_clustering
from .config import AlgorithmConfig
from .global_broadcast import GlobalBroadcastResult, sms_broadcast


@dataclass
class WakeupResult:
    """Outcome of the wake-up algorithm."""

    activation_round: Dict[int, int]
    spontaneous: Dict[int, int]
    execution_start: int
    broadcast: Optional[GlobalBroadcastResult] = None
    rounds_used: int = 0

    def all_active(self, network) -> bool:
        """Whether every node of the network was activated."""
        return set(self.activation_round) >= set(network.uids)

    def latency(self) -> int:
        """Rounds between the first spontaneous wake-up and the last activation."""
        if not self.activation_round:
            return 0
        first = min(self.spontaneous.values()) if self.spontaneous else 0
        return max(self.activation_round.values()) - first


def solve_wakeup(
    sim: SINRSimulator,
    spontaneous: Mapping[int, int],
    config: Optional[AlgorithmConfig] = None,
    gamma: Optional[int] = None,
    period: Optional[int] = None,
) -> WakeupResult:
    """Theorem 4: activate the whole network from spontaneously awake nodes.

    Parameters
    ----------
    sim:
        The simulator.
    spontaneous:
        Map from node ID to the round at which it wakes spontaneously.  Must
        be non-empty (otherwise nothing ever happens, as in the model).
    config, gamma:
        Algorithm constants and the density bound.
    period:
        The global-clock period ``T`` at which executions start; defaults to
        a crude upper bound derived from the network parameters.  The
        execution modelled here is the first one with a non-empty source set.
    """
    if not spontaneous:
        raise ValueError("the wake-up problem needs at least one spontaneously awake node")
    config = config or AlgorithmConfig()
    network = sim.network
    if gamma is None:
        gamma = network.delta_bound
    gamma = max(1, int(gamma))
    if period is None:
        period = max(1, 8 * gamma * max(1, network.id_space.bit_length()) * len(network.uids))

    earliest = min(spontaneous.values())
    execution_start = ((earliest + period - 1) // period) * period
    initially_awake = {uid for uid, r in spontaneous.items() if r <= execution_start}

    # Rounds before the execution starts are idle waiting on the global clock.
    start_round = sim.current_round
    sim.run_silent_rounds(max(0, execution_start - earliest))

    clustering = build_clustering(sim, sorted(initially_awake), gamma, config)
    sources = clustering.sparse_roots or set(initially_awake)
    broadcast = sms_broadcast(sim, sorted(sources), config=config, gamma=gamma)

    activation: Dict[int, int] = {}
    offset = execution_start
    for uid in network.uids:
        by_broadcast = None
        phase_index = broadcast.phase_of(uid)
        if phase_index is not None:
            # Activation round is approximated by the end of the phase in which
            # the node first received the message.
            rounds_so_far = sum(p.rounds_used for p in broadcast.phases[: phase_index + 1])
            by_broadcast = offset + rounds_so_far
        by_self = spontaneous.get(uid)
        candidates = [r for r in (by_broadcast, by_self) if r is not None]
        if candidates:
            activation[uid] = min(candidates)

    return WakeupResult(
        activation_round=activation,
        spontaneous=dict(spontaneous),
        execution_start=execution_start,
        broadcast=broadcast,
        rounds_used=sim.current_round - start_round,
    )
