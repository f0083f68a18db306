"""The physics-backend protocol: SINR reception evaluation (Equation 1).

A *backend* answers one question -- given a placement, the model parameters
and a set of concurrent transmitters, which listeners decode which message --
while being free to choose its own storage/compute trade-off.  Three
backends ship with the reproduction:

* :class:`~repro.sinr.backends.dense.DenseMatrixBackend` precomputes the full
  ``(n, n)`` received-power (gain) matrix; O(n^2) memory, gathers only.
* :class:`~repro.sinr.backends.lazy.LazyBlockBackend` computes gain rows on
  demand from positions with an LRU row cache; O(n) resident memory, which
  unlocks deployments of 100k+ nodes.
* :class:`~repro.sinr.backends.spatial.SpatialGridBackend` buckets nodes in a
  uniform grid and certifies most rejections from near/far bounds, so a
  round costs O(active area) rather than O(n).

Reception is evaluated in one place per backend:
:meth:`PhysicsBackend.receptions_table`, which runs a whole CSR schedule and
returns a columnar :class:`DeliveryTable`.  The generic implementation here
is built on the single primitive :meth:`PhysicsBackend.gain_block` (the
received-power sub-matrix for arbitrary sender/receiver index arrays) and
serves dense and lazy; spatial overrides it, and runs its small-grid calls
through the same grouped reduction.  It reduces all rounds of one
transmitter count together, so its Python iterations scale with chunks x
distinct round sizes, not with rounds.  Every backend first validates the
schedule and listener indices (``_schedule_arrays``).
:meth:`~PhysicsBackend.receptions` (one round, a ``{listener: Reception}``
dict) is a base-class wrapper over it, so every entry point realizes the
same physics;
``tests/test_backend_differential.py`` checks all three backends against a
brute-force Equation 1 oracle.

Because the SINR threshold ``beta`` exceeds 1, at most one transmitter can be
decoded by any listener per round, and -- since the SINR of a candidate is
monotone increasing in its own gain for a fixed round -- the decoded sender
is always the one with maximal received power.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..model import NUMERIC_TOLERANCE, SINRParameters

#: Gain assigned to co-located *distinct* node pairs (zero distance would give
#: infinite received power).  Deliberately independent of the network size so
#: that incremental mutations (add/remove/move) leave exactly the same values
#: a fresh backend over the new placement would compute; the 2^32 headroom
#: keeps any realistic interference sum finite.
COLOCATED_GAIN = float(np.finfo(float).max / 2**32)


@dataclass(frozen=True)
class Reception:
    """Outcome of one listener in one round."""

    receiver: int
    sender: int
    sinr: float


@dataclass(frozen=True)
class DeliveryTable:
    """Columnar outcome of a whole schedule: one row per successful reception.

    The arrays are index-aligned and sorted by ``round_ids`` (round-major);
    within a round, receivers appear in listener-array order.  This is the
    native output of :meth:`PhysicsBackend.receptions_table` and what the
    simulator's columnar schedule path consumes directly -- no per-round
    Python containers.
    """

    num_rounds: int
    round_ids: np.ndarray
    receivers: np.ndarray
    senders: np.ndarray
    sinr: np.ndarray

    def __len__(self) -> int:
        return len(self.round_ids)


def gain_matrix(src_xy: np.ndarray, dst_xy: np.ndarray, params: SINRParameters) -> np.ndarray:
    """Received power ``P / d^alpha`` from each point of ``src_xy`` to each of ``dst_xy``.

    Co-located pairs, self-pairs included, get :data:`COLOCATED_GAIN`;
    callers zero the self-pairs.  The coordinate differences are laid out
    ``(2, len(src_xy), len(dst_xy))`` so that both subtractions and the
    einsum run over contiguous rows.
    """
    diff = np.empty((2, len(src_xy), len(dst_xy)))
    np.subtract.outer(src_xy[:, 0], dst_xy[:, 0], out=diff[0])
    np.subtract.outer(src_xy[:, 1], dst_xy[:, 1], out=diff[1])
    gains = np.einsum("kij,kij->ij", diff, diff)
    np.sqrt(gains, out=gains)
    np.power(gains, params.alpha, out=gains)
    with np.errstate(divide="ignore"):
        np.divide(params.power, gains, out=gains)
    gains[np.isinf(gains)] = COLOCATED_GAIN
    return gains


def check_node_indices(indices: np.ndarray, size: int, what: str = "node") -> None:
    """Raise ``ValueError`` unless every entry of ``indices`` lies in ``[0, size)``."""
    if indices.size and (indices.min() < 0 or indices.max() >= size):
        raise ValueError(f"{what} index out of range [0, {size})")


def _budget_cuts(
    counts: np.ndarray, budget: int, max_segments: Optional[int] = None
) -> Iterator[Tuple[int, int]]:
    """Cut consecutive segments into ``[start, end)`` pieces under a budget.

    ``counts[i]`` is the size of segment ``i`` (a CSR row length).  Pieces
    are taken greedily from the front: each holds as many whole segments
    as keep its total size within ``budget`` (and, when given, at most
    ``max_segments`` segments), but always at least one, so an
    over-budget segment forms a piece of its own.
    """
    indptr = np.concatenate(([0], np.cumsum(counts)))
    num, start = len(counts), 0
    while start < num:
        end = int(np.searchsorted(indptr, indptr[start] + budget, side="right")) - 1
        end = max(end, start + 1)
        if max_segments is not None:
            end = min(end, start + max_segments)
        yield start, end
        start = end


def _is_every_node(receivers: np.ndarray, n: int) -> bool:
    """Whether ``receivers`` is ``0 .. n-1`` in order (the default listener pool).

    A gain block for every node in order is whole rows, which
    ``take(senders, axis=0)`` copies without the column gather of ``np.ix_``.
    """
    return receivers.size == n and np.array_equal(receivers, np.arange(n))


def _empty_table(num_rounds: int) -> DeliveryTable:
    return DeliveryTable(
        num_rounds=num_rounds,
        round_ids=np.empty(0, dtype=np.int64),
        receivers=np.empty(0, dtype=np.int64),
        senders=np.empty(0, dtype=np.int64),
        sinr=np.empty(0, dtype=float),
    )


class PhysicsBackend(ABC):
    """Abstract SINR physics backend over a fixed ``n``-node placement.

    Subclasses implement :meth:`gain_block` and keep the placement in
    ``_positions`` (see :meth:`_placement`) and ``_n``; the reception
    semantics and the positional accessors live here so all backends agree
    exactly.
    """

    #: Soft cap on the number of elements materialized at once -- gain-matrix
    #: rows x listeners per :meth:`receptions_table` chunk here; keeps peak
    #: memory bounded even for long schedules over large deployments.  The
    #: spatial backend overrides it with a cache-sized budget (2^14 pairs)
    #: for its exact-tail and far-bound pair lists; its block-form calls
    #: keep this one.
    _BATCH_BLOCK_ELEMENTS = 4_000_000

    def __init__(self, params: SINRParameters) -> None:
        self._params = params

    # ------------------------------------------------------------------ #
    # Backend primitive and shape accessors.
    # ------------------------------------------------------------------ #

    @staticmethod
    def _placement(positions: np.ndarray) -> np.ndarray:
        """A private float copy of an ``(n, 2)`` coordinate array."""
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        return positions

    @property
    def size(self) -> int:
        """Number of nodes in the placement."""
        return self._n

    def _require_positions(self, operation: str) -> np.ndarray:
        if self._positions is None:
            raise ValueError(
                f"this backend was built from a distance matrix; {operation} needs coordinates"
            )
        return self._positions

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (read-only view); unavailable for metric-only backends."""
        view = self._require_positions("positions").view()
        view.flags.writeable = False
        return view

    @property
    def distances(self) -> np.ndarray:
        """Unavailable: a backend over positions keeps no pairwise-distance matrix."""
        raise ValueError(
            f"{type(self).__name__} does not materialize the pairwise-distance matrix; "
            "use distance(a, b) for point queries"
        )

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b`` (computed from positions)."""
        diff = self._positions[a] - self._positions[b]
        return float(np.sqrt(diff[0] * diff[0] + diff[1] * diff[1]))

    @abstractmethod
    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Received-power sub-matrix ``G[i, j] = gain(senders[i], receivers[j])``.

        Self-pairs (``senders[i] == receivers[j]``) have gain 0; co-located
        distinct pairs are clamped to a huge finite value (reception from a
        co-located node trivially succeeds when it transmits alone).
        """

    @property
    def params(self) -> SINRParameters:
        """The SINR parameters in force."""
        return self._params

    # ------------------------------------------------------------------ #
    # Incremental placement mutation (dynamic networks).
    # ------------------------------------------------------------------ #

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move the nodes at ``indices`` to coordinates ``new_xy``, in place.

        Backends update only the state the move actually touches (gain
        rows/columns of the moved nodes, cached rows, grid buckets)
        instead of rebuilding from scratch; after the call the backend is
        indistinguishable from one freshly constructed over the new
        placement (property-tested in ``tests/test_incremental_physics.py``).
        ``indices`` must be duplicate-free.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental position updates"
        )

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes at coordinates ``new_xy``; they take the next dense indices."""
        raise NotImplementedError(f"{type(self).__name__} does not support adding nodes")

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete the nodes at ``indices``; remaining nodes are re-indexed compactly.

        The surviving nodes keep their relative order, so dense index ``j``
        after the call refers to the ``j``-th surviving node.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support removing nodes")

    @staticmethod
    def _check_moves(size: int, indices: np.ndarray, new_xy: np.ndarray) -> tuple:
        """Validate and normalize an ``update_positions`` request."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        if len(indices) != len(new_xy):
            raise ValueError("indices and new_xy must have matching lengths")
        check_node_indices(indices, size)
        if len(np.unique(indices)) != len(indices):
            raise ValueError("indices must be duplicate-free")
        return indices, new_xy

    # ------------------------------------------------------------------ #
    # Scalar helpers (generic; backends may override with faster paths).
    # ------------------------------------------------------------------ #

    def gain(self, sender: int, receiver: int) -> float:
        """Received power ``P / d(sender, receiver)^alpha``."""
        block = self.gain_block(np.array([sender], dtype=int), np.array([receiver], dtype=int))
        return float(block[0, 0])

    def sinr(self, sender: int, receiver: int, transmitters: Iterable[int]) -> float:
        """SINR of ``sender`` at ``receiver`` for a given transmitter set."""
        transmitters = set(transmitters)
        if sender not in transmitters:
            raise ValueError("sender must be among the transmitters")
        if receiver == sender:
            return 0.0
        signal = self.gain(sender, receiver)
        others = [w for w in transmitters if w not in (sender, receiver)]
        interference = 0.0
        if others:
            block = self.gain_block(np.array(others, dtype=int), np.array([receiver], dtype=int))
            interference = float(block.sum())
        return float(signal / (self._params.noise + interference))

    def interference_at(self, receiver: int, transmitters: Iterable[int]) -> float:
        """Total interference power at ``receiver`` from ``transmitters``."""
        others = [w for w in transmitters if w != receiver]
        if not others:
            return 0.0
        block = self.gain_block(np.array(others, dtype=int), np.array([receiver], dtype=int))
        return float(block.sum())

    def hears_alone(self, sender: int, receiver: int) -> bool:
        """Whether ``receiver`` hears ``sender`` when nobody else transmits."""
        if sender == receiver:
            return False
        return self.gain(sender, receiver) / self._params.noise >= self._params.beta - NUMERIC_TOLERANCE

    # ------------------------------------------------------------------ #
    # Round evaluation (shared by all backends).
    # ------------------------------------------------------------------ #

    def receptions(
        self,
        transmitters: Sequence[int],
        listeners: Optional[Sequence[int]] = None,
    ) -> Dict[int, Reception]:
        """Compute, per listener, the (unique) successfully decoded sender.

        One round of :meth:`receptions_table`: a node that transmits in the
        round cannot receive in it (half-duplex radios, as in the paper), so
        listeners default to all non-transmitting nodes.
        """
        tx = np.fromiter(dict.fromkeys(int(t) for t in transmitters), dtype=np.int64)
        table = self.receptions_table(np.array([0, tx.size]), tx, listeners)
        return {
            r: Reception(receiver=r, sender=s, sinr=q)
            for r, s, q in zip(
                table.receivers.tolist(), table.senders.tolist(), table.sinr.tolist()
            )
        }

    def _schedule_arrays(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(tx_indptr, tx_members, listeners)`` int64 arrays.

        Listeners default to all nodes and are deduplicated keeping the
        first occurrence of each, in the given order.  Raises
        ``ValueError`` for a ``tx_indptr`` that does not start at 0, ever
        decreases or does not end at ``len(tx_members)``, and for
        transmitter or listener indices outside ``[0, n)`` -- NumPy would
        otherwise wrap negative indices silently.
        """
        tx_indptr = np.ascontiguousarray(tx_indptr, dtype=np.int64)
        tx_members = np.ascontiguousarray(tx_members, dtype=np.int64)
        if tx_indptr.size == 0 or tx_indptr[0] != 0:
            raise ValueError("tx_indptr must start at 0")
        if np.any(tx_indptr[1:] < tx_indptr[:-1]):
            raise ValueError("tx_indptr must be non-decreasing")
        if tx_indptr[-1] != len(tx_members):
            raise ValueError("tx_indptr must end at len(tx_members)")
        check_node_indices(tx_members, self.size, "transmitter")
        if listeners is None:
            return tx_indptr, tx_members, np.arange(self.size, dtype=np.int64)
        if isinstance(listeners, np.ndarray) and listeners.dtype.kind in "iu":
            rx = np.ascontiguousarray(listeners, dtype=np.int64)
            if rx.size > 1 and not np.all(np.diff(rx) > 0):
                # Not strictly increasing: may contain duplicates.  Keep the
                # first occurrence of each listener, in the given order.
                _, first = np.unique(rx, return_index=True)
                if len(first) != len(rx):
                    rx = rx[np.sort(first)]
        else:
            rx = np.array(list(dict.fromkeys(int(v) for v in listeners)), dtype=np.int64)
        check_node_indices(rx, self.size, "listener")
        return tx_indptr, tx_members, rx

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Evaluate a whole CSR schedule of transmitter sets, columnarly.

        ``tx_members[tx_indptr[t]:tx_indptr[t + 1]]`` are the transmitter
        indices of round ``t`` (duplicate-free within a round).  The same
        ``listeners`` apply to every round (default: all nodes), except that
        a round's own transmitters never receive (half-duplex).  The result
        is a single columnar :class:`DeliveryTable`.

        This is the one reception routine a backend owns: :meth:`receptions`
        wraps it for one round.  The generic implementation is
        :meth:`_block_table` under ``_BATCH_BLOCK_ELEMENTS``, which only
        relies on :meth:`gain_block` (dense and lazy use it); the spatial
        backend overrides this method with its certified batched driver
        and sends small-grid calls to :meth:`_block_table` too.
        """
        tx_indptr, tx_members, rx = self._schedule_arrays(tx_indptr, tx_members, listeners)
        return self._block_table(tx_indptr, tx_members, rx, self._BATCH_BLOCK_ELEMENTS)

    def _block_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        rx: np.ndarray,
        budget: int,
    ) -> DeliveryTable:
        """The grouped block reduction over validated schedule arrays.

        Rounds are cut into chunks of at most ``budget`` gain elements,
        one :meth:`gain_block` call each.  Within a chunk the entries are
        stably ordered by their round's transmitter count, so the ``R``
        rounds with ``k`` transmitters form one contiguous ``(R, k,
        listeners)`` view that is reduced in a handful of NumPy calls:
        Python iterates over chunks x distinct round sizes, never over
        rounds.  Each listener's total power adds the ``k`` gains in
        transmitter order: ``sum(axis=1)`` does so over a view with two or
        more listeners, while over one listener the ``k`` gains are
        contiguous and NumPy would sum them pairwise, so that case runs
        ``np.add.accumulate`` instead.  The SINR values therefore depend
        neither on the grouping nor on the listener pool.
        """
        num_rounds = len(tx_indptr) - 1
        if rx.size == 0 or len(tx_members) == 0:
            return _empty_table(num_rounds)

        noise = self._params.noise
        threshold = self._params.beta - NUMERIC_TOLERANCE
        pos_in_rx = np.full(self.size, -1, dtype=np.int64)
        pos_in_rx[rx] = np.arange(rx.size)
        counts = np.diff(tx_indptr)

        out_rounds: List[np.ndarray] = []
        out_pos: List[np.ndarray] = []
        out_senders: List[np.ndarray] = []
        out_sinr: List[np.ndarray] = []

        # Chunk rounds so that (chunk transmitter entries) x (listeners)
        # stays within the block budget; a chunk holds at least one round.
        for start, end in _budget_cuts(counts, max(1, budget // rx.size)):
            lo, hi = int(tx_indptr[start]), int(tx_indptr[end])
            if lo < hi:
                sizes = counts[start:end]
                # Stable order by round size: rounds keep their relative
                # order and each round its transmitter order.
                entry_order = np.argsort(np.repeat(sizes, sizes), kind="stable")
                entries = tx_members[lo:hi][entry_order]
                block = self.gain_block(entries, rx)
                round_order = np.argsort(sizes, kind="stable")
                sorted_sizes = sizes[round_order]
                group_starts = np.flatnonzero(np.diff(sorted_sizes, prepend=-1))
                group_ends = np.append(group_starts[1:], sizes.size)
                row = 0
                for g0, g1 in zip(group_starts.tolist(), group_ends.tolist()):
                    k = int(sorted_sizes[g0])
                    if k == 0:
                        continue
                    num = g1 - g0
                    gains = block[row : row + num * k].reshape(num, k, rx.size)
                    tx = entries[row : row + num * k].reshape(num, k)
                    row += num * k
                    if rx.size > 1:
                        total_power = gains.sum(axis=1)
                    else:
                        total_power = np.add.accumulate(gains, axis=1)[:, -1]
                    best_gain = gains.max(axis=1)
                    # Strongest transmitter == best SINR (see the module docstring).
                    best_sinr = best_gain / (noise + (total_power - best_gain))
                    ok = best_sinr >= threshold
                    # Half-duplex: a round's transmitters never receive in it.
                    own = pos_in_rx[tx]
                    listening = own >= 0
                    ok[np.nonzero(listening)[0], own[listening]] = False
                    rr, cc = np.nonzero(ok)
                    if not rr.size:
                        continue
                    winners = gains[rr, :, cc].argmax(axis=1)
                    out_rounds.append(start + round_order[g0:g1][rr])
                    out_pos.append(cc)
                    out_senders.append(tx[rr, winners])
                    out_sinr.append(best_sinr[rr, cc])

        if not out_rounds:
            return _empty_table(num_rounds)
        round_ids = np.concatenate(out_rounds)
        pos = np.concatenate(out_pos)
        # Restore round-major, listener order within a round.
        order = np.argsort(round_ids * rx.size + pos, kind="stable")
        return DeliveryTable(
            num_rounds=num_rounds,
            round_ids=round_ids[order],
            receivers=rx[pos[order]],
            senders=np.concatenate(out_senders)[order],
            sinr=np.concatenate(out_sinr)[order],
        )
