"""The synchronous round-based execution engine.

:class:`SINRSimulator` wraps a :class:`~repro.sinr.network.WirelessNetwork`
and exposes the single primitive the paper's model provides: in each round,
a set of nodes transmits a message each, every other (awake) node listens,
and the SINR inequality (Equation 1) decides who decodes whom.  Because the
threshold ``beta`` exceeds one, a listener decodes at most one transmitter
per round, so the result of a round is a partial map ``listener -> sender``.
Only receptions are simulated, never message content.

The simulator is *index-native*: wakefulness is a NumPy boolean mask over
dense node indices, transmitter/listener sets are converted to index arrays
once per round, and uid translation of the results is a single fancy-indexing
pass over the network's uid array.  Every round runs through one method,
:meth:`SINRSimulator.run_schedule_table`, which evaluates a whole
precomputed sequence of transmitter sets through the physics backend's
``receptions_table`` in vectorized NumPy calls.  The schedule runners
(:mod:`repro.simulation.schedule`, and through them every deterministic
algorithm in :mod:`repro.core`) and the randomized baselines call it
directly; the per-round :meth:`SINRSimulator.run_round` is a one-round
wrapper over it.

Wake-up semantics (non-spontaneous wake-up model): sleeping nodes never
listen -- they are dropped even from an explicitly passed ``listeners``
iterable -- unless ``wake_on_reception`` is set, in which case a sleeping
listener may decode and is *woken by* that first reception in the same round
(a node can never decode while staying asleep).

The simulator alone owns the wake state of one execution: every simulator
starts with all nodes awake, and nothing it does is written back onto the
network, so two runs on the same network never see each other's sleepers.
It also keeps the global round counter (protocol complexity is measured in
rounds) and the transmission and reception counters; a per-stage cost is
the difference of these counters across the stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..sinr.network import WirelessNetwork


@dataclass(frozen=True)
class ScheduleDeliveries:
    """Columnar outcome of a batched schedule execution, in uid space.

    One row per successful reception: ``receiver_uids[i]`` decoded
    ``sender_uids[i]`` in schedule-relative round ``round_ids[i]``.  Rows are
    sorted round-major.  This is what the schedule runners and the
    randomized baselines consume.
    """

    num_rounds: int
    round_ids: np.ndarray
    receiver_uids: np.ndarray
    sender_uids: np.ndarray

    def __len__(self) -> int:
        return len(self.round_ids)


class SINRSimulator:
    """Synchronous SINR round executor over a fixed network.

    Parameters
    ----------
    network:
        The network (placement + physics + shared knowledge) to execute on.
    """

    def __init__(self, network: WirelessNetwork) -> None:
        self._network = network
        self._uids = network.uid_array
        self._awake = np.ones(network.size, dtype=bool)
        self._round = 0
        self._messages_sent = 0
        self._messages_delivered = 0

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #

    @property
    def network(self) -> WirelessNetwork:
        """The underlying network."""
        return self._network

    @property
    def current_round(self) -> int:
        """Number of rounds executed so far."""
        return self._round

    @property
    def messages_sent(self) -> int:
        """Total number of transmissions across all rounds."""
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """Total number of successful receptions across all rounds."""
        return self._messages_delivered

    def reset_counters(self) -> None:
        """Reset the round and message counters."""
        self._round = 0
        self._messages_sent = 0
        self._messages_delivered = 0

    # ------------------------------------------------------------------ #
    # Round execution.
    # ------------------------------------------------------------------ #

    def run_round(
        self,
        transmitters: Iterable[int],
        listeners: Optional[Iterable[int]] = None,
        wake_on_reception: bool = False,
    ) -> Dict[int, int]:
        """Execute one synchronous round.

        A one-round :meth:`run_schedule_table` call: listener selection,
        physics, wake-up and counters are all that path's.

        Parameters
        ----------
        transmitters:
            IDs of the nodes that transmit this round.
        listeners:
            IDs of the nodes that listen this round; defaults to every node
            that is awake and not transmitting.  Transmitting nodes never
            receive (half-duplex), and sleeping nodes are dropped unless
            ``wake_on_reception`` is set.
        wake_on_reception:
            Allow sleeping nodes named in ``listeners`` to decode; a sleeping
            node that decodes is woken in the same round.  This models radios
            that are powered but dormant (the wake-up channel of global
            broadcast); a node can never decode a message and stay asleep.

        Returns
        -------
        dict
            ``listener ID -> sender ID`` for every listener whose SINR
            constraint was met by some transmitter.
        """
        tx_uids = np.asarray(list(transmitters))
        if not len(tx_uids):
            self._round += 1
            return {}

        deliveries = self.run_schedule_table(
            1,
            np.zeros(len(tx_uids), dtype=np.int64),
            tx_uids,
            listeners=listeners,
            wake_on_reception=wake_on_reception,
        )
        return dict(zip(deliveries.receiver_uids.tolist(), deliveries.sender_uids.tolist()))

    def run_schedule_table(
        self,
        num_rounds: int,
        tx_round_ids: np.ndarray,
        tx_uids: np.ndarray,
        listeners: Optional[Iterable[int]] = None,
        wake_on_reception: bool = False,
    ) -> ScheduleDeliveries:
        """Execute a columnar transmitter table as one batch (the native path).

        ``tx_round_ids`` / ``tx_uids`` are parallel arrays, sorted round-major
        with no duplicate uid within a round: entry ``i`` says node
        ``tx_uids[i]`` transmits in relative round ``tx_round_ids[i]``.  Each
        round follows the listener defaults, half-duplex rule and wake model
        documented on :meth:`run_round`; counters advance per round, and a
        round with no transmitter is charged but silent, as in a faithful
        execution.  The physics of all rounds is evaluated in
        one call to the backend's ``receptions_table``.  Batching is exact,
        not an approximation: transmitter sets are fixed in advance and a
        round's outcome never depends on earlier rounds' receptions, so the
        batch and a round-by-round loop agree.
        """
        tx_round_ids = np.ascontiguousarray(tx_round_ids, dtype=np.int64)
        network = self._network
        tx_indices = network.indices_of(tx_uids)
        indptr = np.searchsorted(tx_round_ids, np.arange(num_rounds + 1))

        # The eligible listener pool is round-independent: waking (the only
        # mid-schedule state change) can only happen under wake_on_reception,
        # in which case sleeping listeners are eligible anyway; per-round
        # transmitters are excluded inside the batch.
        if listeners is None:
            rx_candidates = np.flatnonzero(self._awake)
        else:
            rx_candidates = network.indices_of(listeners)
            if not wake_on_reception:
                rx_candidates = rx_candidates[self._awake[rx_candidates]]

        table = network.physics.receptions_table(indptr, tx_indices, listeners=rx_candidates)

        if wake_on_reception:
            self._awake[table.receivers] = True

        uids = self._uids
        receiver_uids = uids[table.receivers]
        sender_uids = uids[table.senders]
        self._messages_sent += len(tx_indices)
        self._messages_delivered += len(table)
        self._round += num_rounds
        return ScheduleDeliveries(
            num_rounds=num_rounds,
            round_ids=table.round_ids,
            receiver_uids=receiver_uids,
            sender_uids=sender_uids,
        )

    def run_silent_rounds(self, count: int) -> None:
        """Advance the round counter by ``count`` rounds with no transmissions.

        Algorithms that synchronize on a global round counter sometimes need
        to "wait out" the remainder of a schedule; the simulator accounts for
        those rounds without paying the cost of evaluating empty rounds.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._round += count

    # ------------------------------------------------------------------ #
    # Wakefulness helpers (non-spontaneous wake-up model).
    # ------------------------------------------------------------------ #

    def sleeping_nodes(self) -> List[int]:
        """IDs of nodes that are currently asleep."""
        return [int(uid) for uid in self._uids[~self._awake]]

    def awake_nodes(self) -> List[int]:
        """IDs of nodes that are currently awake."""
        return [int(uid) for uid in self._uids[self._awake]]

    def put_all_to_sleep(self, except_for: Iterable[int] = ()) -> None:
        """Mark every node asleep except the given ones (global broadcast setup)."""
        keep = self._network.indices_of(except_for)
        mask = np.zeros(len(self._awake), dtype=bool)
        mask[keep] = True
        self._awake = mask

    def wake(self, uids: Iterable[int]) -> None:
        """Mark the given nodes awake."""
        self._awake[self._network.indices_of(uids)] = True

    def is_awake(self, uid: int) -> bool:
        """Whether node ``uid`` is awake."""
        return bool(self._awake[self._network.index_of(uid)])
