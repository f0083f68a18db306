"""Location-aware deterministic baseline (the [22]/[26] rows of Tables 1-2).

The prior deterministic algorithms the paper compares against assume every
node knows its own coordinates.  With coordinates, a classic grid strategy
works: tile the plane with cells of diameter at most ``1 - eps``, colour the
cells so that same-coloured cells are far apart (a ``c x c`` periodic
pattern), and iterate over the colours; within a colour class, nodes resolve
contention with a strongly selective family over their IDs.  This gives a
deterministic ``O(Delta log N)``-per-colour local broadcast -- the
``O(Delta polylog n)`` behaviour of Jurdzinski-Kowalski [22] -- and, applied
layer by layer, a ``O(D polylog n)``-flavoured global broadcast
(Jurdzinski-Kowalski-Stachowiak [26]).

This baseline deliberately *breaks* the paper's pure model (it reads node
positions); it exists so the Table 1/2 experiments can show what the extra
model feature buys, which is exactly the comparison the paper makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..selectors.ssf import greedy_random_ssf
from ..simulation.engine import SINRSimulator
from ..simulation.messages import Message
from ..simulation.schedule import run_schedule


@dataclass
class LocationAwareResult:
    """Outcome of the location-aware deterministic local broadcast."""

    delivered: Dict[int, Set[int]] = field(default_factory=dict)
    rounds_used: int = 0
    colors_used: int = 0

    def completed(self, network) -> bool:
        """Whether every node reached all of its communication-graph neighbours."""
        return network.served_fraction(self.delivered) == 1.0

    def completion_ratio(self, network) -> float:
        """Fraction of (node, neighbour) pairs served."""
        return network.served_fraction(self.delivered)


def _grid_color(position: Tuple[float, float], cell: float, period: int) -> Tuple[int, int]:
    gx = int(math.floor(position[0] / cell)) % period
    gy = int(math.floor(position[1] / cell)) % period
    return gx, gy


def location_aware_local_broadcast(
    sim: SINRSimulator,
    delta: Optional[int] = None,
    color_period: int = 4,
    selector_seed: int = 7,
    sweeps: int = 1,
) -> LocationAwareResult:
    """Grid-coloured deterministic local broadcast using node coordinates.

    Parameters
    ----------
    sim:
        The simulator.
    delta:
        Density bound used to size the per-colour selective family.
    color_period:
        Same-coloured grid cells are ``color_period`` cells apart; 4 keeps
        simultaneous transmitters at distance > 2 for the default geometry.
    sweeps:
        Number of times the full colour sweep is repeated.
    """
    network = sim.network
    params = network.params
    if delta is None:
        delta = network.delta_bound
    delta = max(2, int(delta))
    cell = params.communication_radius / math.sqrt(2.0)

    colors: Dict[Tuple[int, int], List[int]] = {}
    for uid in network.uids:
        color = _grid_color(network.position_of(uid), cell, color_period)
        colors.setdefault(color, []).append(uid)

    selector = greedy_random_ssf(
        network.id_space,
        min(delta, network.id_space),
        seed=selector_seed,
        max_rounds=max(1, int(2.0 * delta * (math.log(max(network.id_space, 2)) + 1))),
    )

    result = LocationAwareResult(delivered={uid: set() for uid in network.uids})
    start_round = sim.current_round
    for _ in range(max(1, sweeps)):
        for color in sorted(colors):
            participants = colors[color]
            outcome = run_schedule(
                sim,
                selector,
                participants,
                message_factory=lambda uid: Message(sender=uid, tag="grid-local"),
                phase=f"grid:{color}",
            )
            senders, receivers = outcome.delivery_pairs()
            for sender, listener in zip(senders.tolist(), receivers.tolist()):
                result.delivered[sender].add(listener)
    result.colors_used = len(colors)
    result.rounds_used = sim.current_round - start_round
    return result
