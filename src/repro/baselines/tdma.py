"""Naive deterministic baselines: TDMA round-robin schedules.

The simplest deterministic algorithms in the pure model serve as sanity
anchors for both tables:

* :func:`tdma_local_broadcast` -- every node gets its own round over the ID
  space ``[N]``: ``N`` rounds, always correct, and exactly the ``Theta(n
  log N)``-type behaviour (for ``N = poly(n)``) the paper's deterministic
  competitors without extra features exhibit.
* :func:`tdma_global_broadcast` -- flooding with one round-robin sweep per
  hop layer: ``O(D * N)`` rounds, the natural "no cleverness" upper bound for
  global broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..simulation.engine import SINRSimulator
from ..simulation.schedule import DeliveryLedger, run_round_robin


@dataclass
class TDMALocalBroadcastResult:
    """Outcome of the round-robin local broadcast."""

    delivered: DeliveryLedger = field(default_factory=DeliveryLedger)
    rounds_used: int = 0


@dataclass
class TDMAGlobalBroadcastResult:
    """Outcome of the layer-by-layer flooding global broadcast."""

    awakened_in_sweep: Dict[int, int] = field(default_factory=dict)
    rounds_used: int = 0
    sweeps: int = 0

    def reached_all(self, network) -> bool:
        """Whether every node received the broadcast message."""
        return set(self.awakened_in_sweep) >= set(network.uids)


def tdma_local_broadcast(
    sim: SINRSimulator, charge_full_id_space: bool = True
) -> TDMALocalBroadcastResult:
    """One private round per node: trivially correct local broadcast.

    With ``charge_full_id_space`` the cost accounts for the full ``N`` rounds
    a node-oblivious TDMA schedule needs (nodes only know the ID space, not
    who is present); the physics is only evaluated for present nodes.
    """
    network = sim.network
    start_round = sim.current_round
    outcome = run_round_robin(sim, network.uids)
    result = TDMALocalBroadcastResult(DeliveryLedger(*outcome.delivery_pairs()))
    if charge_full_id_space:
        sim.run_silent_rounds(max(0, network.id_space - network.size))
    result.rounds_used = sim.current_round - start_round
    return result


def tdma_global_broadcast(
    sim: SINRSimulator,
    source: int,
    max_sweeps: Optional[int] = None,
    charge_full_id_space: bool = True,
) -> TDMAGlobalBroadcastResult:
    """Flooding: repeat round-robin sweeps; informed nodes retransmit each sweep."""
    network = sim.network
    start_round = sim.current_round
    informed: Set[int] = {source}
    result = TDMAGlobalBroadcastResult(awakened_in_sweep={source: 0})
    if max_sweeps is None:
        max_sweeps = network.size + 1

    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        outcome = run_round_robin(sim, sorted(informed))
        if charge_full_id_space:
            sim.run_silent_rounds(max(0, network.id_space - len(informed)))
        _, receivers = outcome.delivery_pairs()
        newly = set(receivers.tolist()) - informed
        for uid in newly:
            result.awakened_in_sweep[uid] = sweeps
        if not newly:
            break
        informed |= newly

    result.sweeps = sweeps
    result.rounds_used = sim.current_round - start_round
    return result
