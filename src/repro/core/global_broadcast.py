"""Global broadcast / sparse multiple-source broadcast (Algorithm 8, Theorem 3).

The sparse multiple source broadcast (SMSB) problem starts from a set ``S``
of pairwise-distant sources holding the broadcast message; it is solved when
every node has the message *and* every node has performed a successful local
broadcast to its communication-graph neighbours.  Global broadcast is the
special case ``|S| = 1``.

The algorithm proceeds in phases.  Nodes awakened in the previous phase are
1-clustered; a phase (i) gives them labels via imperfect labeling, (ii) runs
the Sparse Network Schedule once per label so each of them performs a local
broadcast -- newly awakened listeners inherit the cluster of the node that
woke them, yielding a 2-clustering -- and (iii) runs radius reduction on the
newly awakened set to restore a 1-clustering for the next phase.  After ``D``
phases the whole network is awake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..simulation.engine import SINRSimulator
from ..simulation.messages import Message
from .config import AlgorithmConfig
from .labeling import imperfect_labeling
from .primitives import run_sns
from .radius_reduction import reduce_radius


@dataclass
class BroadcastPhase:
    """Statistics of one phase of the global broadcast (Figure 1 material)."""

    index: int
    broadcasters: int
    newly_awakened: int
    clusters_before: int
    clusters_after_inherit: int
    clusters_after_reduction: int
    rounds_used: int


@dataclass
class GlobalBroadcastResult:
    """Outcome of SMSBroadcast."""

    sources: Set[int]
    awakened_in_phase: Dict[int, int] = field(default_factory=dict)
    cluster_of: Dict[int, int] = field(default_factory=dict)
    delivered: Dict[int, Set[int]] = field(default_factory=dict)
    phases: List[BroadcastPhase] = field(default_factory=list)
    rounds_used: int = 0

    def reached(self) -> Set[int]:
        """All nodes that hold the broadcast message (sources included)."""
        return set(self.awakened_in_phase)

    def reached_all(self, network) -> bool:
        """Whether every node of the network was reached."""
        return self.reached() >= set(network.uids)

    def phase_of(self, uid: int) -> Optional[int]:
        """The phase in which ``uid`` was awakened (0 for sources)."""
        return self.awakened_in_phase.get(uid)

    def local_broadcast_completed(self, network) -> bool:
        """Condition (b) of the SMSB problem: every awake node reached its neighbours."""
        return network.served_fraction(self.delivered, senders=self.reached()) == 1.0


def sms_broadcast(
    sim: SINRSimulator,
    sources: Iterable[int],
    config: Optional[AlgorithmConfig] = None,
    gamma: Optional[int] = None,
    max_phases: Optional[int] = None,
    payload: Tuple[int, ...] = (),
    phase: str = "smsb",
) -> GlobalBroadcastResult:
    """Algorithm 8: sparse multiple-source broadcast from ``sources``.

    All non-source nodes are put to sleep (non-spontaneous wake-up model);
    asleep nodes can listen and wake on their first reception, but do not
    transmit until the phase after they wake.
    """
    config = config or AlgorithmConfig()
    network = sim.network
    if gamma is None:
        gamma = network.delta_bound
    gamma = max(1, int(gamma))
    source_set = {int(uid) for uid in sources}
    if not source_set:
        return GlobalBroadcastResult(sources=set())
    all_uids = list(network.uids)
    start_round = sim.current_round

    sim.put_all_to_sleep(except_for=source_set)
    result = GlobalBroadcastResult(sources=set(source_set))
    for uid in source_set:
        result.awakened_in_phase[uid] = 0
        result.cluster_of[uid] = uid
    result.delivered = {uid: set() for uid in all_uids}

    def broadcast_message(cluster_lookup: Mapping[int, int]):
        # Snapshot the lookup: ScheduleResult materializes messages lazily,
        # so a factory must capture send-time state, not the live dict that
        # the wave loop keeps mutating.
        snapshot = dict(cluster_lookup)

        def factory(uid: int) -> Message:
            return Message(
                sender=uid,
                tag="broadcast",
                cluster=snapshot.get(uid, uid),
                payload=payload,
            )

        return factory

    # ------------------------- Phase 1 seed (line 1) ------------------------- #
    phase_start = sim.current_round
    outcome = run_sns(
        sim,
        sorted(source_set),
        config,
        message_factory=broadcast_message(result.cluster_of),
        listeners=all_uids,
        phase=f"{phase}:seed",
        wake_on_reception=True,
    )
    current_wave: Set[int] = set()
    senders, receivers = outcome.result.delivery_pairs()
    for sender, listener in zip(senders.tolist(), receivers.tolist()):
        result.delivered[sender].add(listener)
    first_receivers, first_senders, _ = outcome.result.first_receptions()
    for listener, first_sender in zip(first_receivers.tolist(), first_senders.tolist()):
        if listener not in result.awakened_in_phase:
            result.awakened_in_phase[listener] = 1
            # The seed messages carry cluster_lookup.get(sender, sender).
            result.cluster_of[listener] = result.cluster_of.get(first_sender, first_sender) or first_sender
            current_wave.add(listener)
    sim.wake(current_wave)
    result.phases.append(
        BroadcastPhase(
            index=0,
            broadcasters=len(source_set),
            newly_awakened=len(current_wave),
            clusters_before=len(source_set),
            clusters_after_inherit=len({result.cluster_of[u] for u in current_wave} | set()),
            clusters_after_reduction=len({result.cluster_of[u] for u in current_wave} | set()),
            rounds_used=sim.current_round - phase_start,
        )
    )

    if max_phases is None:
        max_phases = len(all_uids) + 1

    # ------------------------------ Main phases ------------------------------ #
    phase_index = 0
    while current_wave and phase_index < max_phases:
        phase_index += 1
        phase_start = sim.current_round
        wave = set(current_wave)
        clusters_before = len({result.cluster_of[u] for u in wave})

        # Stage 1: imperfect labeling of the wave.
        labeling = imperfect_labeling(
            sim, wave, result.cluster_of, gamma, config, phase=f"{phase}:p{phase_index}:labeling"
        )

        # Stage 2: local broadcast from the wave, one SNS execution per label.
        by_label: Dict[int, List[int]] = {}
        for uid in wave:
            by_label.setdefault(labeling.labels[uid], []).append(uid)
        newly_awakened: Set[int] = set()
        for label in range(1, gamma + 1):
            participants = by_label.get(label, [])
            outcome = run_sns(
                sim,
                participants,
                config,
                message_factory=broadcast_message(result.cluster_of),
                listeners=all_uids,
                phase=f"{phase}:p{phase_index}:label-{label}",
                wake_on_reception=True,
            )
            senders, receivers = outcome.result.delivery_pairs()
            for sender, listener in zip(senders.tolist(), receivers.tolist()):
                result.delivered[sender].add(listener)
            first_receivers, first_senders, _ = outcome.result.first_receptions()
            for listener, first_sender in zip(first_receivers.tolist(), first_senders.tolist()):
                if listener not in result.awakened_in_phase:
                    result.awakened_in_phase[listener] = phase_index + 1
                    # Wave messages carry cluster_lookup.get(sender, sender).
                    result.cluster_of[listener] = (
                        result.cluster_of.get(first_sender, first_sender) or first_sender
                    )
                    newly_awakened.add(listener)
        sim.wake(newly_awakened)
        clusters_inherited = len({result.cluster_of[u] for u in newly_awakened}) if newly_awakened else 0

        # Stage 3: radius reduction of the newly awakened set (2-clustering -> 1-clustering).
        clusters_reduced = clusters_inherited
        if len(newly_awakened) > 1:
            reduction = reduce_radius(
                sim,
                newly_awakened,
                result.cluster_of,
                gamma,
                config,
                r=2.0,
                phase=f"{phase}:p{phase_index}:radius",
            )
            for uid in newly_awakened:
                result.cluster_of[uid] = reduction.cluster_of[uid]
            clusters_reduced = len({result.cluster_of[u] for u in newly_awakened})

        result.phases.append(
            BroadcastPhase(
                index=phase_index,
                broadcasters=len(wave),
                newly_awakened=len(newly_awakened),
                clusters_before=clusters_before,
                clusters_after_inherit=clusters_inherited,
                clusters_after_reduction=clusters_reduced,
                rounds_used=sim.current_round - phase_start,
            )
        )
        current_wave = newly_awakened

    result.rounds_used = sim.current_round - start_round
    return result


def global_broadcast(
    sim: SINRSimulator,
    source: int,
    config: Optional[AlgorithmConfig] = None,
    gamma: Optional[int] = None,
    max_phases: Optional[int] = None,
    payload: Tuple[int, ...] = (),
) -> GlobalBroadcastResult:
    """Global broadcast from a single source (Theorem 3, ``|S| = 1``)."""
    return sms_broadcast(
        sim,
        [source],
        config=config,
        gamma=gamma,
        max_phases=max_phases,
        payload=payload,
        phase="global-broadcast",
    )
