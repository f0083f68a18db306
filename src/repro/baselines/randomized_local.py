"""Randomized local-broadcast baselines (Table 1).

Two classic comparison points from the literature the paper tabulates:

* :func:`randomized_local_broadcast_known_density` -- the Goussevskaia,
  Moscibroda, Wattenhofer style algorithm: when the density ``Delta`` is
  known, every node transmits with probability ``c / Delta`` in every round;
  after ``O(Delta log n)`` rounds every node has, with high probability,
  transmitted in a round where it is locally the only transmitter and is
  therefore heard by its neighbours.
* :func:`randomized_local_broadcast_unknown_density` -- the density-unaware
  variant (Goussevskaia et al. / Yu et al. flavour): nodes sweep a
  geometrically decreasing sequence of transmission probabilities, paying an
  extra logarithmic factor.

These are Monte-Carlo baselines: the reproduction uses them to regenerate
the *shape* of Table 1 (randomized O(Delta log n) versus this paper's
deterministic O(Delta log N log* N)), not to certify their high-probability
guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

import numpy as np

from ..simulation.engine import SINRSimulator


@dataclass
class RandomizedLocalBroadcastResult:
    """Outcome of a randomized local-broadcast baseline run."""

    delivered: Dict[int, Set[int]] = field(default_factory=dict)
    rounds_used: int = 0
    completed_round: Optional[int] = None

    def receivers_of(self, uid: int) -> Set[int]:
        """Nodes that decoded ``uid``'s message."""
        return self.delivered.get(uid, set())

    def completed(self, network) -> bool:
        """Whether every node reached all of its communication-graph neighbours."""
        return network.served_fraction(self.delivered) == 1.0

    def completion_ratio(self, network) -> float:
        """Fraction of (node, neighbour) pairs already served."""
        return network.served_fraction(self.delivered)


#: Rounds per :meth:`SINRSimulator.run_schedule_table` call.  The simulator
#: runs whole chunks, so its round counter may run up to ``_CHUNK_ROUNDS - 1``
#: rounds past the completion round.
_CHUNK_ROUNDS = 32


def _run_probabilistic_rounds(
    sim: SINRSimulator,
    probability_of_round: Callable[[int], float],
    max_rounds: int,
    rng: np.random.Generator,
    stop_when_complete: bool,
) -> RandomizedLocalBroadcastResult:
    """Drive the probabilistic rounds through the columnar schedule API.

    The per-round coin flips do not depend on reception outcomes, so the
    whole transmitter table is precomputed (one uniform draw per node per
    round, in uid order: the exact RNG stream a round-by-round execution
    would draw) and evaluated in blocks of ``_CHUNK_ROUNDS`` rounds via
    :meth:`SINRSimulator.run_schedule_table`.  The completion check runs
    after every round of a block, on a running count of undelivered
    (node, neighbour) pairs; deliveries after the completion round are
    discarded and ``completed_round`` / ``rounds_used`` keep the exact
    round-by-round semantics (the simulator's global counter runs to the
    end of the completing block, the price of batching).
    """
    network = sim.network
    uids = list(network.uids)
    uid_array = np.asarray(uids, dtype=np.int64)
    required = {uid: set(network.neighbors(uid)) for uid in uids}
    # (node, neighbour) pairs not yet delivered: the run is complete at 0.
    missing = sum(len(nbrs) for nbrs in required.values())
    result = RandomizedLocalBroadcastResult(delivered={uid: set() for uid in uids})
    start_round = sim.current_round

    selected = [
        np.flatnonzero(rng.random(len(uids)) < probability_of_round(local_round))
        for local_round in range(1, max_rounds + 1)
    ]
    counts = np.fromiter((len(s) for s in selected), dtype=np.int64, count=max_rounds)
    tx_uids = uid_array[np.concatenate(selected)] if max_rounds else uid_array[:0]
    tx_round_ids = np.repeat(np.arange(max_rounds, dtype=np.int64), counts)

    for chunk_start in range(0, max_rounds, _CHUNK_ROUNDS):
        num_rounds = min(_CHUNK_ROUNDS, max_rounds - chunk_start)
        lo, hi = np.searchsorted(tx_round_ids, [chunk_start, chunk_start + num_rounds])
        deliveries = sim.run_schedule_table(
            num_rounds, tx_round_ids[lo:hi] - chunk_start, tx_uids[lo:hi]
        )
        bounds = np.searchsorted(deliveries.round_ids, np.arange(num_rounds + 1)).tolist()
        receivers = deliveries.receiver_uids.tolist()
        senders = deliveries.sender_uids.tolist()
        for offset in range(num_rounds):
            for i in range(bounds[offset], bounds[offset + 1]):
                sender, receiver = senders[i], receivers[i]
                got = result.delivered[sender]
                if receiver not in got:
                    got.add(receiver)
                    if receiver in required[sender]:
                        missing -= 1
            if stop_when_complete and missing == 0:
                result.completed_round = chunk_start + offset + 1
                break
        if result.completed_round is not None:
            break

    if result.completed_round is not None:
        result.rounds_used = result.completed_round
    else:
        result.rounds_used = sim.current_round - start_round
    return result


def randomized_local_broadcast_known_density(
    sim: SINRSimulator,
    delta: Optional[int] = None,
    seed: int = 0,
    rounds_factor: float = 8.0,
    stop_when_complete: bool = True,
) -> RandomizedLocalBroadcastResult:
    """Goussevskaia-style baseline with known density ``Delta``.

    Every node transmits with probability ``1 / Delta`` each round, for at
    most ``rounds_factor * Delta * ln n`` rounds (the O(Delta log n) bound).
    """
    network = sim.network
    if delta is None:
        delta = network.delta_bound
    delta = max(2, int(delta))
    rng = np.random.default_rng(seed)
    n = network.size
    max_rounds = max(1, int(math.ceil(rounds_factor * delta * (math.log(max(n, 2)) + 1))))
    return _run_probabilistic_rounds(
        sim,
        probability_of_round=lambda r: 1.0 / delta,
        max_rounds=max_rounds,
        rng=rng,
        stop_when_complete=stop_when_complete,
    )


def randomized_local_broadcast_unknown_density(
    sim: SINRSimulator,
    seed: int = 0,
    rounds_factor: float = 4.0,
    stop_when_complete: bool = True,
) -> RandomizedLocalBroadcastResult:
    """Density-unaware baseline: sweep probabilities ``1/2, 1/4, ..., 1/n``.

    Each probability level is kept for ``Theta(log n)`` rounds and the sweep
    is repeated, costing the extra logarithmic factors of the unknown-density
    rows of Table 1.
    """
    network = sim.network
    rng = np.random.default_rng(seed)
    n = max(network.size, 2)
    levels = max(1, int(math.ceil(math.log2(n))))
    rounds_per_level = max(1, int(math.ceil(rounds_factor * math.log(n))))
    sweep_length = levels * rounds_per_level
    max_rounds = 4 * sweep_length * levels  # repeated sweeps, O(log^2 n) overhead

    def probability(local_round: int) -> float:
        position = (local_round - 1) % sweep_length
        level = position // rounds_per_level
        return 1.0 / float(2 ** (level + 1))

    return _run_probabilistic_rounds(
        sim,
        probability_of_round=probability,
        max_rounds=max_rounds,
        rng=rng,
        stop_when_complete=stop_when_complete,
    )
