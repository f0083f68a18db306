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
from typing import Callable, Dict, Optional, Set

import numpy as np

from ..simulation.engine import SINRSimulator


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
    probability_of_round: Callable[[int], float],
    max_rounds: int,
    rng: np.random.Generator,
    stop_when_complete: bool = True,
) -> RandomizedGlobalBroadcastResult:
    """Flood from ``source``, one :meth:`SINRSimulator.run_schedule_table` call per round.

    Coins go to the informed nodes in the set's iteration order, as a loop of
    scalar draws would give them, so newly informed nodes must join the set in
    reception order.  Every awake node listens.
    """
    network = sim.network
    informed: Set[int] = {source}
    informed_mask = np.arange(network.id_space + 1) == source  # indexed by uid
    result = RandomizedGlobalBroadcastResult(awakened_round={source: 0})
    start_round = sim.current_round

    for local_round in range(1, max_rounds + 1):
        order = np.fromiter(informed, dtype=np.int64, count=len(informed))
        tx_uids = order[rng.random(len(order)) < probability_of_round(local_round)]
        if len(tx_uids):
            rx = sim.run_schedule_table(1, np.zeros_like(tx_uids), tx_uids).receiver_uids
            newly = set(rx[~informed_mask[rx]].tolist())
            informed_mask[rx] = True
            result.awakened_round.update(dict.fromkeys(newly, local_round))
            informed |= newly
        else:
            sim.run_silent_rounds(1)
        if stop_when_complete and len(informed) == network.size:
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

    def probability(local_round: int) -> float:
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
        sim, source, lambda local_round: 1.0 / delta, max_rounds, rng, stop_when_complete
    )
