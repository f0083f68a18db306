"""Executing transmission schedules against the SINR simulator.

The paper's deterministic protocols are all of the same shape: a globally
known schedule (an ssf, wss or wcss) prescribes, per round, which IDs *may*
transmit; a node actually transmits iff it is participating in the current
sub-protocol and the schedule names it (and, for cluster-aware schedules, its
current cluster).  This module turns a schedule plus a participant set into
actual rounds on the :class:`~repro.simulation.engine.SINRSimulator` and
returns the reception table that the algorithms consume.

The pipeline is columnar end to end.  The runners intersect the schedule's
CSR member table with a participant lookup mask (one vectorized pass -- no
per-round Python sets), hand the resulting transmitter table straight to
:meth:`~repro.simulation.engine.SINRSimulator.run_schedule_table`, and wrap
the columnar delivery table in a :class:`ScheduleResult`: parallel ``round /
sender / receiver`` integer arrays, one row per reception.  No message
content is simulated; algorithms read what a message would carry from their
own state.  ``tests/test_columnar_equivalence.py`` checks every runner
against transmitter sets built from the schedules' frozenset views and
against a brute-force evaluation of Equation 1.

Rounds in which no participant is scheduled are not evaluated by the physics
backend -- nobody transmits, so nobody can receive -- but they still advance
the round counter, so reported round complexities match a faithful execution.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..selectors._csr import sorted_lookup
from ..selectors.ssf import TransmissionSchedule
from ..selectors.wcss import ClusterAwareSchedule
from .engine import ScheduleDeliveries, SINRSimulator


_EMPTY = np.empty(0, dtype=np.int64)


class ScheduleResult:
    """Outcome of executing a schedule once (columnar reception table).

    The record is three parallel arrays -- ``round / sender / receiver`` per
    successful reception, round-major -- plus the analogous transmission
    table, with ``length`` the number of rounds the schedule was charged.
    """

    def __init__(
        self,
        length: int,
        round_ids: Optional[np.ndarray] = None,
        sender_uids: Optional[np.ndarray] = None,
        receiver_uids: Optional[np.ndarray] = None,
        tx_round_ids: Optional[np.ndarray] = None,
        tx_uids: Optional[np.ndarray] = None,
    ) -> None:
        self.length = int(length)
        self._round_ids = round_ids if round_ids is not None else _EMPTY
        self._sender_uids = sender_uids if sender_uids is not None else _EMPTY
        self._receiver_uids = receiver_uids if receiver_uids is not None else _EMPTY
        self._tx_round_ids = tx_round_ids if tx_round_ids is not None else _EMPTY
        self._tx_uids = tx_uids if tx_uids is not None else _EMPTY

    def event_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(round_ids, sender_uids, receiver_uids)`` reception arrays."""
        return self._round_ids, self._sender_uids, self._receiver_uids

    def delivery_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sender_uids, receiver_uids)`` of every reception event."""
        return self._sender_uids, self._receiver_uids

    def transmitter_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(round_ids, uids)`` of every transmission (round-major)."""
        return self._tx_round_ids, self._tx_uids

    def first_receptions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each listener's first decoded event: ``(receivers, senders, rounds)``.

        "First" is by round order (the table is round-major, and a listener
        decodes at most one message per round).
        """
        receivers, first = np.unique(self._receiver_uids, return_index=True)
        return receivers, self._sender_uids[first], self._round_ids[first]


#: A pair's key is ``sender << _SHIFT | receiver``, so sorted keys are sorted pairs.
_SHIFT = 32


def _pack(senders, receivers) -> np.ndarray:
    uids = np.stack([np.asarray(senders, dtype=np.int64), np.asarray(receivers, dtype=np.int64)])
    if uids.size and (uids.min() < 0 or uids.max() >= 1 << 31):
        raise ValueError("delivery uids must lie in [0, 2**31)")
    return (uids[0] << _SHIFT) | uids[1]


def _unpack(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return keys >> _SHIFT, keys & ((1 << _SHIFT) - 1)


class DeliveryLedger:
    """Which receivers decoded each sender's message, as sorted unique uid pairs.

    The pairs are packed int64 keys that no other code reads.  Theorem 2's
    task, and condition (b) of Theorem 3's SMSB, is ``served_fraction(network)
    == 1.0``: every directed communication-graph edge is a recorded pair.
    """

    def __init__(self, senders=_EMPTY, receivers=_EMPTY) -> None:
        self._keys = _EMPTY
        self.add(senders, receivers)

    @classmethod
    def edges_of(cls, network, senders: Optional[Iterable[int]] = None) -> "DeliveryLedger":
        """The directed communication-graph edges (of ``senders``, if given) as a ledger."""
        sender, receiver = np.concatenate([network.edges(), network.edges()[:, ::-1]]).T
        if senders is not None:
            keep = np.isin(sender, np.fromiter(senders, dtype=np.int64))
            sender, receiver = sender[keep], receiver[keep]
        return cls(sender, receiver)

    def add(self, senders, receivers) -> None:
        """Record the parallel ``senders`` / ``receivers`` uid arrays (duplicates are fine)."""
        if not len(senders):
            return
        keys = np.concatenate([self._keys, np.sort(_pack(senders, receivers))])
        keys.sort(kind="stable")  # merges the two sorted runs; np.union1d hashes and sorts anew
        self._keys = keys[np.diff(keys, prepend=-1) != 0]

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sender_uids, receiver_uids)`` of every recorded pair, sorted by sender, then receiver."""
        return _unpack(self._keys)

    def receivers_of(self, uid: int) -> Set[int]:
        """Nodes that decoded ``uid``'s message (empty for an unknown uid)."""
        senders, receivers = self.pairs()
        return set(receivers[senders == uid].tolist())

    def locate(self, senders, receivers) -> np.ndarray:
        """Position of each pair among :meth:`pairs`, or -1 for a pair not recorded."""
        found, positions = sorted_lookup(self._keys, _pack(senders, receivers))
        return np.where(found, positions, -1)

    def served_fraction(self, network, senders: Optional[Iterable[int]] = None) -> float:
        """Fraction of directed edges ``(u, v)`` (``u`` in ``senders``, if given) recorded.

        ``1.0`` means every such node reached all its communication-graph
        neighbours, as it does when there is no such edge.
        """
        required = DeliveryLedger.edges_of(network, senders)._keys
        return int(np.isin(required, self._keys).sum()) / len(required) if len(required) else 1.0

    def missing(self, network) -> Tuple[np.ndarray, np.ndarray]:
        """``(sender_uids, receiver_uids)`` of the directed edges not recorded, sorted."""
        required = DeliveryLedger.edges_of(network)._keys
        return _unpack(required[~np.isin(required, self._keys)])

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeliveryLedger) and np.array_equal(self._keys, other._keys)


def _from_deliveries(
    deliveries: ScheduleDeliveries,
    length: int,
    tx_round_ids: np.ndarray,
    tx_uids: np.ndarray,
) -> ScheduleResult:
    return ScheduleResult(
        length=length,
        round_ids=deliveries.round_ids,
        sender_uids=deliveries.sender_uids,
        receiver_uids=deliveries.receiver_uids,
        tx_round_ids=tx_round_ids,
        tx_uids=tx_uids,
    )


def _participant_lookup(participants: Iterable[int], id_space: int) -> np.ndarray:
    """Boolean mask over ``[0, id_space]`` marking the participating uids."""
    mask = np.zeros(id_space + 1, dtype=bool)
    arr = np.fromiter((int(u) for u in participants), dtype=np.int64)
    arr = arr[(arr >= 1) & (arr <= id_space)]
    mask[arr] = True
    return mask


def run_schedule(
    sim: SINRSimulator,
    schedule: TransmissionSchedule,
    participants: Iterable[int],
    listeners: Optional[Iterable[int]] = None,
    wake_on_reception: bool = False,
) -> ScheduleResult:
    """Execute an (unclustered) schedule restricted to ``participants``.

    Parameters
    ----------
    sim:
        The simulator to run on.
    schedule:
        The globally known transmission schedule.
    participants:
        IDs of the nodes taking part in this sub-protocol; only they ever
        transmit.  Non-participants still listen unless ``listeners`` is given.
    listeners:
        Restrict who listens (default: every awake node).
    wake_on_reception:
        Let sleeping listeners decode and be woken by their first reception
        (see :meth:`~repro.simulation.engine.SINRSimulator.run_round`).
    """
    mask = _participant_lookup(participants, schedule.id_space)
    _, members = schedule.member_table()
    keep = mask[members]
    tx_uids = members[keep]
    tx_round_ids = schedule.family.round_ids()[keep]
    deliveries = sim.run_schedule_table(
        len(schedule),
        tx_round_ids,
        tx_uids,
        listeners=listeners,
        wake_on_reception=wake_on_reception,
    )
    return _from_deliveries(deliveries, len(schedule), tx_round_ids, tx_uids)


def run_cluster_schedule(
    sim: SINRSimulator,
    schedule: ClusterAwareSchedule,
    participants: Iterable[int],
    cluster_of: Mapping[int, int],
    listeners: Optional[Iterable[int]] = None,
    wake_on_reception: bool = False,
) -> ScheduleResult:
    """Execute a cluster-aware schedule restricted to ``participants``.

    A participant ``v`` transmits in round ``t`` iff the schedule admits both
    its ID and its current cluster ``cluster_of[v]``.  The cluster gate is
    evaluated as one vectorized membership probe: candidate ``(round,
    cluster)`` keys are binary-searched against the cluster stage's sorted
    CSR keys.
    """
    id_space = schedule.id_space
    mask = _participant_lookup(participants, id_space)
    cluster_arr = np.full(id_space + 1, -1, dtype=np.int64)
    for uid, cluster in cluster_of.items():
        uid = int(uid)
        cluster = int(cluster)
        if 1 <= uid <= id_space and 1 <= cluster <= id_space:
            cluster_arr[uid] = cluster

    _, node_members = schedule.node_table()
    keep = mask[node_members]
    cand_uids = node_members[keep]
    cand_rounds = schedule.node_family.round_ids()[keep]
    cand_clusters = cluster_arr[cand_uids]
    clustered = cand_clusters >= 0
    cand_uids = cand_uids[clustered]
    cand_rounds = cand_rounds[clustered]
    cand_clusters = cand_clusters[clustered]

    # Membership probe: is (round, cluster) admitted by the cluster stage?
    stride = id_space + 2
    cluster_keys = (
        schedule.cluster_family.round_ids() * stride + schedule.cluster_family.members
    )
    probe_keys = cand_rounds * stride + cand_clusters
    admitted, _ = sorted_lookup(cluster_keys, probe_keys)
    tx_uids = cand_uids[admitted]
    tx_round_ids = cand_rounds[admitted]

    deliveries = sim.run_schedule_table(
        len(schedule),
        tx_round_ids,
        tx_uids,
        listeners=listeners,
        wake_on_reception=wake_on_reception,
    )
    return _from_deliveries(deliveries, len(schedule), tx_round_ids, tx_uids)


def run_round_robin(
    sim: SINRSimulator,
    participants: Sequence[int],
    listeners: Optional[Iterable[int]] = None,
    wake_on_reception: bool = False,
) -> ScheduleResult:
    """Execute one round per participant, in increasing ID order.

    The trivial collision-free schedule; used by the TDMA baseline and by the
    lower-bound experiments where an exact, interference-free reference is
    needed.
    """
    tx_uids = np.unique(np.fromiter((int(u) for u in participants), dtype=np.int64))
    tx_round_ids = np.arange(len(tx_uids), dtype=np.int64)
    deliveries = sim.run_schedule_table(
        len(tx_uids),
        tx_round_ids,
        tx_uids,
        listeners=listeners,
        wake_on_reception=wake_on_reception,
    )
    return _from_deliveries(deliveries, len(tx_uids), tx_round_ids, tx_uids)
