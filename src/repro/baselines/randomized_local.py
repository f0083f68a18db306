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
from typing import Callable, Optional

import numpy as np

from ..simulation.engine import SINRSimulator
from ..simulation.schedule import DeliveryLedger


@dataclass
class RandomizedLocalBroadcastResult:
    """Outcome of a randomized local-broadcast baseline run."""

    delivered: DeliveryLedger = field(default_factory=DeliveryLedger)
    rounds_used: int = 0
    completed_round: Optional[int] = None


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
    :meth:`SINRSimulator.run_schedule_table`.  The run completes at the
    first round after which every directed communication-graph edge was
    served, found per block from a running count of first deliveries;
    deliveries after it are discarded and ``completed_round`` /
    ``rounds_used`` keep the exact round-by-round semantics (the
    simulator's global counter runs to the end of the completing block).
    """
    uid_array = sim.network.uid_array
    required = DeliveryLedger.edges_of(sim.network)
    served = np.zeros(len(required), dtype=bool)
    result = RandomizedLocalBroadcastResult()
    start_round = sim.current_round

    selected = [
        np.flatnonzero(rng.random(len(uid_array)) < probability_of_round(local_round))
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
        rounds, senders, receivers = deliveries.round_ids, deliveries.sender_uids, deliveries.receiver_uids
        if stop_when_complete:
            edge = required.locate(senders, receivers)
            fresh = np.flatnonzero(edge >= 0)
            fresh = fresh[~served[edge[fresh]]]
            # Rows are round-major, so an edge's first row is its first round.
            edges, first = np.unique(edge[fresh], return_index=True)
            newly_served = np.bincount(rounds[fresh[first]], minlength=num_rounds)
            # Edges still unserved after each round of the block: complete at 0.
            remaining = np.count_nonzero(~served) - np.cumsum(newly_served)
            served[edges] = True
            done = np.flatnonzero(remaining == 0)
            if len(done):
                result.completed_round = chunk_start + int(done[0]) + 1
                keep = np.searchsorted(rounds, done[0], side="right")
                senders, receivers = senders[:keep], receivers[:keep]
        result.delivered.add(senders, receivers)
        if result.completed_round is not None:
            break

    result.rounds_used = result.completed_round or sim.current_round - start_round
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
