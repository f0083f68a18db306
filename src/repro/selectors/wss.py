"""Witnessed strong selectors (wss) -- Lemma 2 of the paper.

A sequence ``S = (S_1, ..., S_m)`` of subsets of ``[N]`` is an ``(N, k)``-wss
if for every ``X`` of size ``k``, every ``x`` in ``X`` and every ``y`` outside
``X`` there is a set ``S_i`` with ``S_i ∩ X = {x}`` and ``y ∈ S_i`` -- the
element ``y`` *witnesses* the selection of ``x``.

The paper proves existence of ``(N, k)``-wss of size ``O(k^3 log N)`` by the
probabilistic method and never gives an explicit construction, so we follow
the same recipe with a fixed seed: each round includes every ID independently
with probability ``1/k``.  The resulting schedule is deterministic (the seed
is part of the construction), reproducible, and carries the selection
property with overwhelming probability; :func:`verify_wss` checks it
exhaustively for the small instances used in unit tests, and
:func:`witness_rounds` lets property-based tests check the property for the
specific sets that actually occur in a simulation.

The ``size_factor`` knob trades schedule length against the probability of a
missing witness; see substitutions 2 and 3 of the reproduction notes
(docs/paper.md).

Construction and the witness/selection queries are columnar: the rounds are
sampled as boolean admission matrices (exact RNG-stream compatible with a
round-by-round loop) and the queries intersect the schedule's cached inverse
index instead of scanning every round.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .ssf import TransmissionSchedule, sampled_family


def wss_length(id_space: int, k: int, size_factor: float = 1.0, faithful: bool = False) -> int:
    """Number of rounds used by :func:`random_wss`.

    With ``faithful=True`` the paper's ``O(k^3 log N)`` bound is used; the
    default is the compact ``O(k^2 log N)`` length which suffices (with the
    fixed seed) for the node sets arising in laptop-scale simulations.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    log_n = math.log(max(id_space, 2))
    if faithful:
        base = 3.0 * math.e * (k**3) * (log_n + 2.0)
    else:
        base = 1.5 * math.e * (k**2) * (log_n + 2.0)
    return max(1, int(math.ceil(size_factor * base)))


def random_wss(
    id_space: int,
    k: int,
    seed: int = 0,
    size_factor: float = 1.0,
    faithful: bool = False,
    length: Optional[int] = None,
) -> TransmissionSchedule:
    """Seeded probabilistic-method construction of an ``(N, k)``-wss."""
    if id_space <= 0:
        raise ValueError("id_space must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, max(id_space, 1))
    rng = np.random.default_rng(seed)
    if length is None:
        length = wss_length(id_space, k, size_factor=size_factor, faithful=faithful)
    probability = 1.0 / max(k, 2)
    (family,) = sampled_family(rng, id_space, length, probability, drop_empty=False)
    return TransmissionSchedule(
        id_space=id_space,
        family=family,
        name=f"wss(N={id_space},k={k},seed={seed})",
    )


def witness_rounds(
    schedule: TransmissionSchedule, selected: int, witness: int, blockers: Iterable[int]
) -> List[int]:
    """Rounds in which ``selected`` transmits, ``witness`` transmits and no blocker does.

    ``blockers`` should be ``X \\ {selected}``; an empty result means the
    witnessed selection property fails for this particular triple.

    Answered from the schedule's inverse index: an intersection of the two
    sorted round lists minus the union of the blockers' round lists.
    """
    both = np.intersect1d(
        schedule.rounds_of_array(selected),
        schedule.rounds_of_array(witness),
        assume_unique=True,
    )
    blocked = _blocked_rounds(schedule, blockers, exclude=selected)
    return np.setdiff1d(both, blocked, assume_unique=True).tolist()


def selection_rounds(
    schedule: TransmissionSchedule, selected: int, blockers: Iterable[int]
) -> List[int]:
    """Rounds in which ``selected`` transmits and no blocker does (plain ssf selection)."""
    own = schedule.rounds_of_array(selected)
    blocked = _blocked_rounds(schedule, blockers, exclude=selected)
    return np.setdiff1d(own, blocked, assume_unique=True).tolist()


def _blocked_rounds(
    schedule: TransmissionSchedule, blockers: Iterable[int], exclude: int
) -> np.ndarray:
    """Sorted union of the rounds admitting any blocker (``exclude`` dropped)."""
    rounds = [
        schedule.rounds_of_array(b) for b in set(blockers) - {exclude}
    ]
    if not rounds:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(rounds))


def verify_wss(
    schedule: TransmissionSchedule,
    k: int,
    universe: Optional[Sequence[int]] = None,
    witnesses: Optional[Sequence[int]] = None,
) -> bool:
    """Exhaustively verify the witnessed strong selection property.

    Exponential in ``k``; restrict ``universe`` (the candidate ``X`` elements)
    and ``witnesses`` (the candidate ``y`` elements) to keep unit tests fast.
    """
    if universe is None:
        universe = list(range(1, schedule.id_space + 1))
    universe = list(universe)
    if witnesses is None:
        witnesses = universe
    for subset in combinations(universe, min(k, len(universe))):
        subset_set = set(subset)
        for x in subset:
            for y in witnesses:
                if y in subset_set:
                    continue
                if not witness_rounds(schedule, x, y, subset_set):
                    return False
    return True


def missing_witness_triples(
    schedule: TransmissionSchedule,
    sets: Iterable[Tuple[Set[int], int, int]],
) -> List[Tuple[Set[int], int, int]]:
    """Return the ``(X, x, y)`` triples for which the wss property fails.

    Used by property-based tests to check the property only for the sets that
    actually arise in a given simulation instead of all ``N^k`` subsets.
    """
    failures = []
    for subset, x, y in sets:
        if x not in subset or y in subset:
            raise ValueError("expected x in X and y outside X")
        if not witness_rounds(schedule, x, y, subset):
            failures.append((subset, x, y))
    return failures
