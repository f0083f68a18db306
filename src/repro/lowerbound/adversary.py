"""The adversarial ID assignment of Lemma 13 and delivery-time measurements.

Lemma 13 shows that for *any* deterministic algorithm there is an assignment
of IDs to the gadget's core nodes under which the target ``t`` receives
nothing for ``Omega(Delta)`` rounds.  The argument only uses the algorithm's
behaviour while a node has heard nothing beyond the initial wake-up message
from ``s`` -- in that regime a deterministic node's transmission pattern is a
function of its ID and the round number alone.  We model that regime with
:class:`ObliviousAlgorithm`: a deterministic map ``(ID, rounds since wake-up)
-> transmit?``, which covers every selector/schedule-based deterministic
broadcast strategy (including the paper's own algorithms and the TDMA
baseline) up to the first successful reception inside the gadget core.

:func:`adversarial_id_assignment` reproduces the constructive argument: IDs
are fixed two at a time so that in every round either nobody or at least two
already-placed core nodes transmit, which by Fact 2 keeps every other core
node ignorant of its position and keeps ``v_{Delta+1}`` from ever
transmitting alone.  :func:`measure_gadget_delivery` then replays the
resulting execution against the exact physics and reports when ``t`` first
decodes a message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..selectors.ssf import TransmissionSchedule
from ..simulation.engine import SINRSimulator
from .gadget import build_gadget, lower_bound_parameters


class ObliviousAlgorithm:
    """A deterministic transmission strategy in the nothing-heard-yet regime.

    ``transmits(uid, local_round)`` must be a pure function: it answers
    whether a node with identifier ``uid`` that was woken ``local_round``
    rounds ago (and has received nothing since) transmits in this round.
    """

    def __init__(self, rule: Callable[[int, int], bool], name: str = "oblivious") -> None:
        self._rule = rule
        self.name = name

    def transmits(self, uid: int, local_round: int) -> bool:
        """Whether node ``uid`` transmits ``local_round`` rounds after waking."""
        return bool(self._rule(uid, local_round))

    def first_transmission_after(self, uid: int, after_round: int, horizon: int) -> Optional[int]:
        """First round strictly after ``after_round`` (up to ``horizon``) in which ``uid`` transmits."""
        for r in range(after_round + 1, horizon + 1):
            if self.transmits(uid, r):
                return r
        return None


def round_robin_algorithm(id_space: int) -> ObliviousAlgorithm:
    """The TDMA strategy: node ``i`` transmits in rounds congruent to ``i`` mod ``N``."""
    return ObliviousAlgorithm(
        lambda uid, r: (r % id_space) == (uid % id_space), name=f"round-robin({id_space})"
    )


def schedule_algorithm(schedule: TransmissionSchedule, repeat: bool = True) -> ObliviousAlgorithm:
    """Wrap a transmission schedule (e.g. an ssf/wss) as an oblivious strategy."""
    length = max(1, len(schedule))

    def rule(uid: int, local_round: int) -> bool:
        index = (local_round - 1) % length if repeat else (local_round - 1)
        if index >= length:
            return False
        return schedule.transmits_in(uid, index)

    return ObliviousAlgorithm(rule, name=f"schedule({schedule.name})")


def exponential_backoff_algorithm(id_space: int) -> ObliviousAlgorithm:
    """A deterministic "backoff" strategy: node ``i`` transmits when ``r mod 2^j == i mod 2^j``.

    Included as a representative of doubling-style deterministic contention
    resolution; the adversary defeats it like any other oblivious rule.
    """

    def rule(uid: int, local_round: int) -> bool:
        level = max(1, int(math.log2(max(local_round, 2))))
        modulus = 2 ** min(level, max(1, id_space.bit_length()))
        return (local_round % modulus) == (uid % modulus)

    return ObliviousAlgorithm(rule, name="exponential-backoff")


@dataclass
class AdversarialAssignment:
    """Outcome of the Lemma 13 construction."""

    core_ids: List[int]
    delayed_rounds: int
    pair_rounds: List[int] = field(default_factory=list)

    def id_of_core_position(self, position: int) -> int:
        """ID assigned to core node ``v_position``."""
        return self.core_ids[position]


def adversarial_id_assignment(
    algorithm: ObliviousAlgorithm,
    delta: int,
    id_pool: Sequence[int],
    horizon: Optional[int] = None,
) -> AdversarialAssignment:
    """Lemma 13: choose core IDs so that ``v_{Delta+1}`` never transmits alone early.

    Core positions are filled two at a time: at every step the adversary
    finds the earliest future round in which any still-unassigned ID would
    transmit (having heard nothing), and places two IDs that transmit in that
    round (or one such ID plus an arbitrary companion) onto the two lowest
    unfilled positions.  Positions are filled left to right, so whenever that
    round arrives at least two low-position nodes transmit and, by Fact 2,
    every higher-position node hears nothing and stays oblivious.
    """
    core_size = delta + 2
    pool = list(dict.fromkeys(int(uid) for uid in id_pool))
    if len(pool) < core_size:
        raise ValueError(f"need at least {core_size} candidate IDs, got {len(pool)}")
    if horizon is None:
        horizon = max(4 * len(pool), 4 * core_size, 64)

    remaining: List[int] = list(pool)
    assignment: List[int] = []
    pair_rounds: List[int] = []
    current_round = 0

    while len(assignment) + 2 <= core_size:
        next_round: Optional[int] = None
        movers: List[int] = []
        for uid in remaining:
            r = algorithm.first_transmission_after(uid, current_round, horizon)
            if r is None:
                continue
            if next_round is None or r < next_round:
                next_round = r
                movers = [uid]
            elif r == next_round:
                movers.append(uid)
        if next_round is None:
            # Nobody ever transmits again within the horizon; any placement works.
            assignment.extend(remaining[: core_size - len(assignment)])
            break
        if len(movers) == 1:
            companion = next(uid for uid in remaining if uid != movers[0])
            chosen = [movers[0], companion]
        else:
            chosen = movers[:2]
        assignment.extend(chosen)
        for uid in chosen:
            remaining.remove(uid)
        pair_rounds.append(next_round)
        current_round = next_round

    while len(assignment) < core_size:
        assignment.append(remaining.pop(0))

    delayed = pair_rounds[-1] if pair_rounds else 0
    return AdversarialAssignment(core_ids=assignment, delayed_rounds=delayed, pair_rounds=pair_rounds)


@dataclass
class GadgetDeliveryResult:
    """Outcome of replaying an oblivious algorithm on an (adversarial) gadget."""

    delivery_round: Optional[int]
    rounds_simulated: int
    assignment: Optional[AdversarialAssignment] = None

    @property
    def delivered(self) -> bool:
        """Whether the target ever decoded a message within the simulated horizon."""
        return self.delivery_round is not None


def measure_gadget_delivery(
    algorithm: ObliviousAlgorithm,
    delta: int,
    params=None,
    id_pool: Optional[Sequence[int]] = None,
    adversarial: bool = True,
    max_rounds: Optional[int] = None,
    base: Optional[float] = None,
) -> GadgetDeliveryResult:
    """Simulate the algorithm on one gadget and report when ``t`` first decodes.

    With ``adversarial=True`` the core IDs come from Lemma 13's construction;
    otherwise they are assigned in increasing order (the benign case used for
    comparison in the Figure 5/6 experiment).
    """
    params = params or lower_bound_parameters()
    core_size = delta + 2
    if id_pool is None:
        id_pool = list(range(2, core_size + 2))
    id_pool = list(id_pool)
    if max_rounds is None:
        max_rounds = max(16 * (delta + 4), 4 * len(id_pool), 256)

    assignment = None
    if adversarial:
        assignment = adversarial_id_assignment(algorithm, delta, id_pool, horizon=max_rounds)
        core_ids = assignment.core_ids
    else:
        core_ids = sorted(id_pool)[:core_size]

    # Build the gadget with the chosen IDs on the core; s and t get fresh IDs.
    taken = set(core_ids)
    spare = [uid for uid in range(1, max(taken) + core_size + 4) if uid not in taken]
    uids = [spare[0]] + list(core_ids) + [spare[1]]
    id_space = max(uids) + core_size
    network, layout = build_gadget(delta, params, uids=uids, id_space=id_space, base=base)
    sim = SINRSimulator(network)

    source_uid = uids[layout.source_index]
    target_uid = uids[layout.target_index]
    core_uids = [uids[i] for i in layout.core_indices]

    # Round 0: the source transmits alone and wakes the whole core.
    sim.run_round([source_uid], listeners=network.uids)

    delivery_round: Optional[int] = None
    for local_round in range(1, max_rounds + 1):
        transmitters = [uid for uid in core_uids if algorithm.transmits(uid, local_round)]
        delivered = sim.run_round(transmitters, listeners=[target_uid])
        if target_uid in delivered:
            delivery_round = local_round
            break

    return GadgetDeliveryResult(
        delivery_round=delivery_round,
        rounds_simulated=sim.current_round,
        assignment=assignment,
    )
