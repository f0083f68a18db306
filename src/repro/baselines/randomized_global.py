"""Randomized global-broadcast baselines (Table 2).

Two comparison points for the global broadcast rows:

* :func:`randomized_global_broadcast_decay` -- a Bar-Yehuda/Goldreich/Itai
  "Decay"-style flood adapted to the SINR setting (the flavour of Daum,
  Gilbert, Kuhn, Newport [10] and Jurdzinski et al. [25]): informed nodes
  repeatedly run a decay sequence of transmission probabilities
  ``1/2, 1/4, ..., 1/Delta``; each decay sweep lets every uninformed node
  with an informed neighbour receive the message with constant probability,
  so ``O(D log n)`` sweeps (``O(D log n log Delta)`` rounds) inform everyone
  with high probability.
* :func:`randomized_global_broadcast_uniform` -- informed nodes transmit
  with fixed probability ``1/Delta`` (the simplest randomized flood), which
  costs ``O(D Delta log n)`` rounds and illustrates why the decay trick
  matters.

As with the local baselines, these are Monte-Carlo comparators used to
regenerate the qualitative ordering of Table 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from ..simulation.engine import SINRSimulator
from ..simulation.messages import Message


@dataclass
class RandomizedGlobalBroadcastResult:
    """Outcome of a randomized global-broadcast baseline run."""

    awakened_round: Dict[int, int] = field(default_factory=dict)
    rounds_used: int = 0
    completed_round: Optional[int] = None

    def reached_all(self, network) -> bool:
        """Whether every node received the broadcast message."""
        return set(self.awakened_round) >= set(network.uids)

    def reached_count(self) -> int:
        """Number of informed nodes (source included)."""
        return len(self.awakened_round)


def _run_informed_flood(
    sim: SINRSimulator,
    source: int,
    probability_for_round,
    max_rounds: int,
    rng: np.random.Generator,
    stop_when_complete: bool = True,
) -> RandomizedGlobalBroadcastResult:
    network = sim.network
    uids = list(network.uids)
    informed: Set[int] = {source}
    result = RandomizedGlobalBroadcastResult(awakened_round={source: 0})
    start_round = sim.current_round

    for local_round in range(1, max_rounds + 1):
        transmissions = {}
        for uid in informed:
            if rng.random() < probability_for_round(uid, local_round):
                transmissions[uid] = Message(sender=uid, tag="rand-global")
        delivered = sim.run_round(transmissions, listeners=uids)
        newly = {listener for listener in delivered if listener not in informed}
        for uid in newly:
            result.awakened_round[uid] = local_round
        informed |= newly
        if stop_when_complete and len(informed) == len(uids):
            result.completed_round = local_round
            break

    result.rounds_used = sim.current_round - start_round
    return result


def randomized_global_broadcast_decay(
    sim: SINRSimulator,
    source: int,
    delta: Optional[int] = None,
    seed: int = 0,
    rounds_factor: float = 6.0,
    stop_when_complete: bool = True,
) -> RandomizedGlobalBroadcastResult:
    """Decay-style randomized flood: probabilities sweep ``1/2, 1/4, ..., 1/Delta``."""
    network = sim.network
    if delta is None:
        delta = network.delta_bound
    delta = max(2, int(delta))
    rng = np.random.default_rng(seed)
    n = max(network.size, 2)
    levels = max(1, int(math.ceil(math.log2(delta))) + 1)
    sweeps = max(1, int(math.ceil(rounds_factor * (network.size) * math.log(n) / levels)))
    max_rounds = levels * sweeps

    def probability(uid: int, local_round: int) -> float:
        level = (local_round - 1) % levels
        return 1.0 / float(2 ** (level + 1))

    return _run_informed_flood(
        sim, source, probability, max_rounds, rng, stop_when_complete=stop_when_complete
    )


def randomized_global_broadcast_uniform(
    sim: SINRSimulator,
    source: int,
    delta: Optional[int] = None,
    seed: int = 0,
    rounds_factor: float = 6.0,
    stop_when_complete: bool = True,
) -> RandomizedGlobalBroadcastResult:
    """Uniform-probability randomized flood: every informed node sends w.p. ``1/Delta``."""
    network = sim.network
    if delta is None:
        delta = network.delta_bound
    delta = max(2, int(delta))
    rng = np.random.default_rng(seed)
    n = max(network.size, 2)
    max_rounds = max(1, int(math.ceil(rounds_factor * delta * network.size * math.log(n))))

    return _run_informed_flood(
        sim,
        source,
        lambda uid, r: 1.0 / delta,
        max_rounds,
        rng,
        stop_when_complete=stop_when_complete,
    )
