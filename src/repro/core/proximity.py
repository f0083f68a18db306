"""Proximity-graph construction (Algorithm 1, Lemma 7) and neighbour exchange.

``ProximityGraphConstruction`` turns a (clustered or unclustered) set of
participating nodes into a constant-degree graph ``H`` containing every close
pair as an edge:

1. **Exchange phase** -- execute the witnessed (cluster-aware) strong
   selector; every node records who it heard and in which rounds.
2. **Filtering phase** -- a node ``v`` drops a candidate ``w`` if it heard
   some other node in a round in which ``w`` was scheduled (then ``v, w``
   cannot be a close pair); if too many candidates survive, all are dropped.
3. **Confirmation phase** -- candidates are announced back; an edge is kept
   only if both endpoints keep each other.

The filtering phase is columnar: the exchange's reception table (parallel
``round / sender / receiver`` arrays) is joined against the selector
schedule's cached inverse index (node -> scheduled rounds) with one sorted
key binary search -- a sparse matrix intersection -- instead of a
candidates x rounds Python loop (``tests/test_columnar_equivalence.py``
keeps that loop as a test-side oracle and checks the join against it).

Because the physics is deterministic and the confirmation phase re-executes
the *same* schedule with the same transmitter sets, its receptions are
identical to the exchange phase; we therefore charge its rounds without
re-evaluating them (docs/paper.md, Reproduction notes).  The same replay
argument powers :func:`neighbor_exchange`, which charges one more exchange
between ``H``-neighbours at the cost of one schedule length, and the
distributed MIS driver :func:`distributed_mis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..selectors._csr import expand_slices, sorted_lookup
from ..selectors.mis import iterated_local_minima_mis
from ..simulation.engine import SINRSimulator
from ..simulation.schedule import ScheduleResult, run_cluster_schedule, run_schedule
from .config import AlgorithmConfig
from .primitives import wcss_for, wss_for


@dataclass
class ProximityGraph:
    """The output of Algorithm 1 on a participant set.

    ``adjacency`` is the symmetric edge set of ``H`` (only between
    participants, and -- in the clustered case -- only inside clusters).
    ``schedule_length`` is the length of the selector schedule ``S`` used;
    by Lemma 7, every edge of ``H`` corresponds to a pair of nodes that
    exchange messages during an execution of ``S``, which is what
    :func:`neighbor_exchange` exploits.
    """

    participants: Set[int]
    adjacency: Dict[int, Set[int]] = field(default_factory=dict)
    heard: Dict[int, List[int]] = field(default_factory=dict)
    candidates: Dict[int, Set[int]] = field(default_factory=dict)
    schedule_length: int = 0
    rounds_used: int = 0

    def neighbors(self, uid: int) -> Set[int]:
        """Neighbours of ``uid`` in ``H`` (empty set if isolated)."""
        return self.adjacency.get(uid, set())

    def degree(self, uid: int) -> int:
        """Degree of ``uid`` in ``H``."""
        return len(self.adjacency.get(uid, set()))

    def max_degree(self) -> int:
        """Largest degree in ``H``."""
        return max((len(adj) for adj in self.adjacency.values()), default=0)

    def edges(self) -> List[Tuple[int, int]]:
        """Edge list with ``u < v``."""
        result = []
        for u, adj in self.adjacency.items():
            for v in adj:
                if u < v:
                    result.append((u, v))
        return sorted(result)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of ``H``."""
        return v in self.adjacency.get(u, set())


def _columnar_filtering(
    exchange: ScheduleResult,
    participants: Set[int],
    cluster_arr: np.ndarray,
    id_space: int,
    schedule_length: int,
    scheduled_rounds_of: "callable",
) -> Tuple[Dict[int, List[int]], Dict[int, Set[int]]]:
    """Vectorized heard lists + filtering verdicts for all participants.

    ``scheduled_rounds_of(unique_senders)`` must return a CSR pair
    ``(indptr, rounds)`` over the given unique sender array: the rounds in
    which each sender was scheduled to transmit.

    Returns ``(heard, surviving)``: first-heard sender lists and the
    candidate sets that survive the disqualification rule (before the
    candidate-cap purge).
    """
    ev_rounds, ev_senders, ev_receivers = exchange.event_table()

    part_mask = np.zeros(id_space + 1, dtype=bool)
    part_arr = np.fromiter((int(u) for u in participants), dtype=np.int64)
    part_mask[part_arr] = True

    # Only same-cluster receptions by participants are filtering evidence
    # (Alg. 1 remark): a close pair's partner is the closest *same-cluster*
    # node, so only a same-cluster reception in one of w's rounds
    # disqualifies w.
    relevant = part_mask[ev_receivers] & (
        cluster_arr[ev_senders] == cluster_arr[ev_receivers]
    )
    rv = ev_receivers[relevant]
    rs = ev_senders[relevant]
    rt = ev_rounds[relevant]
    order = np.argsort(rv, kind="stable")  # receiver-major, rounds ascending
    rv, rs, rt = rv[order], rs[order], rt[order]

    # First-heard dedup of (receiver, sender) pairs.
    pair_keys = rv * np.int64(id_space + 1) + rs
    _, first_positions = np.unique(pair_keys, return_index=True)
    first_positions.sort()
    hv = rv[first_positions]
    hs = rs[first_positions]

    heard: Dict[int, List[int]] = {int(u): [] for u in participants}
    seg_receivers, seg_starts = np.unique(hv, return_index=True)
    seg_bounds = np.append(seg_starts, len(hv))

    # Disqualification: v drops w iff v decoded somebody else in a round in
    # which w was scheduled.  Join the (receiver, round) -> sender reception
    # table against the schedule's inverse index by sorted key search.
    reception_keys = rv * np.int64(schedule_length) + rt
    unique_ws = np.unique(hs) if len(hs) else np.empty(0, dtype=np.int64)
    w_indptr, w_rounds = scheduled_rounds_of(unique_ws)
    w_pos = np.searchsorted(unique_ws, hs)
    lens = w_indptr[w_pos + 1] - w_indptr[w_pos] if len(hs) else np.empty(0, dtype=np.int64)
    pair_of = np.repeat(np.arange(len(hs), dtype=np.int64), lens)
    expanded_rounds = w_rounds[expand_slices(w_indptr[w_pos], lens)]
    probe_keys = hv[pair_of] * np.int64(schedule_length) + expanded_rounds
    hit, positions = sorted_lookup(reception_keys, probe_keys)
    other_sender = hit & (rs[positions] != hs[pair_of])
    disqualified = np.zeros(len(hs), dtype=bool)
    disqualified[pair_of[other_sender]] = True

    surviving: Dict[int, Set[int]] = {int(u): set() for u in participants}
    hs_list = hs.tolist()
    keep_list = (~disqualified).tolist()
    for i, v in enumerate(seg_receivers.tolist()):
        lo, hi = int(seg_bounds[i]), int(seg_bounds[i + 1])
        segment = hs_list[lo:hi]
        heard[v] = segment
        surviving[v] = {w for w, keep in zip(segment, keep_list[lo:hi]) if keep}
    return heard, surviving


def build_proximity_graph(
    sim: SINRSimulator,
    participants: Iterable[int],
    config: AlgorithmConfig,
    cluster_of: Optional[Mapping[int, int]] = None,
) -> ProximityGraph:
    """Run Algorithm 1 on the given participants.

    Parameters
    ----------
    sim:
        The simulator.
    participants:
        IDs of the nodes taking part (the current ``Active`` set).
    config:
        Algorithm constants (``kappa``, ``rho``, selector lengths).
    cluster_of:
        Current cluster of each participant; ``None`` selects the unclustered
        variant (every node in cluster 1, plain wss instead of wcss).
    """
    participants = set(participants)
    graph = ProximityGraph(participants=participants)
    if not participants:
        return graph

    id_space = sim.network.id_space
    start_round = sim.current_round

    cluster_arr = np.full(id_space + 1, -1, dtype=np.int64)
    if cluster_of is None:
        for uid in participants:
            cluster_arr[uid] = 1
        schedule = wss_for(id_space, config)
        schedule_length = len(schedule)
        exchange = run_schedule(sim, schedule, participants)
        inv_indptr, inv_rounds = schedule.inverse_table()

        def scheduled_rounds_of(ws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            counts = inv_indptr[ws + 1] - inv_indptr[ws]
            indptr = np.zeros(len(ws) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return indptr, inv_rounds[expand_slices(inv_indptr[ws], counts)]

    else:
        cluster_lookup = {uid: int(cluster_of[uid]) for uid in participants}
        for uid, cluster in cluster_lookup.items():
            if 1 <= cluster <= id_space:
                cluster_arr[uid] = cluster
        schedule = wcss_for(id_space, config)
        schedule_length = len(schedule)
        exchange = run_cluster_schedule(sim, schedule, participants, cluster_of=cluster_lookup)

        def scheduled_rounds_of(ws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            parts = [
                schedule.rounds_of_array(int(w), cluster_lookup[int(w)]) for w in ws
            ]
            counts = np.fromiter((len(p) for p in parts), dtype=np.int64, count=len(parts))
            indptr = np.zeros(len(parts) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            rounds = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            return indptr, rounds

    graph.schedule_length = schedule_length

    # ----------------------------- Filtering ----------------------------- #
    candidate_cap = config.effective_candidate_cap
    heard, surviving = _columnar_filtering(
        exchange, participants, cluster_arr, id_space, schedule_length, scheduled_rounds_of
    )
    graph.heard = heard
    candidates: Dict[int, Set[int]] = {}
    for v in participants:
        candidate_set = surviving[v]
        if len(candidate_set) > candidate_cap:
            candidate_set = set()
        candidates[v] = candidate_set
    graph.candidates = candidates

    # --------------------------- Confirmation --------------------------- #
    # The confirmation phase repeats the schedule once per kept candidate
    # (at most ``candidate_cap`` times).  The transmitter sets are identical
    # to the exchange phase, so by determinism of the physics the receptions
    # are identical too: v hears w again iff it heard w before.  We charge
    # the rounds and compute the outcome from the exchange-phase record.
    confirmation_repetitions = max(
        (len(c) for c in candidates.values()), default=0
    )
    confirmation_repetitions = min(confirmation_repetitions, candidate_cap)
    if confirmation_repetitions:
        sim.run_silent_rounds(confirmation_repetitions * schedule_length)

    for v in participants:
        kept: Set[int] = set()
        heard_v = graph.heard.get(v, [])
        for w in candidates[v]:
            if w in candidates and v in candidates[w] and w in heard_v:
                kept.add(w)
        graph.adjacency[v] = kept
    # Symmetrize defensively (mutual condition above already implies symmetry).
    for v in participants:
        for w in graph.adjacency.get(v, set()):
            graph.adjacency.setdefault(w, set()).add(v)

    graph.rounds_used = sim.current_round - start_round
    return graph


def neighbor_exchange(sim: SINRSimulator, graph: ProximityGraph) -> None:
    """Charge one exchange across every edge of ``H`` (both directions).

    Realized by replaying the selector schedule with identical transmitter
    sets, hence identical receptions: both endpoints of every edge hear
    each other again.  Costs one schedule length of rounds.
    """
    sim.run_silent_rounds(graph.schedule_length)


def distributed_mis(
    sim: SINRSimulator,
    graph: ProximityGraph,
    config: AlgorithmConfig,
) -> Set[int]:
    """Compute a maximal independent set of ``H`` by local message exchange.

    Each iteration of the iterated-local-minima rule needs one status
    exchange between ``H``-neighbours, i.e. one replayed schedule execution.
    The rounds are charged accordingly; the resulting set is the
    lexicographically-first MIS of ``H`` (see :mod:`repro.selectors.mis`).
    """
    adjacency = {uid: set(graph.neighbors(uid)) for uid in graph.participants}
    mis, iterations = iterated_local_minima_mis(adjacency, max_iterations=config.mis_max_iterations)
    if iterations:
        sim.run_silent_rounds(iterations * max(graph.schedule_length, 1))
    return mis
