"""Maximal independent sets on bounded-degree graphs.

The paper uses the Schneider-Wattenhofer ``O(log* n)`` MIS algorithm for
growth-bounded graphs [34] as a black box on constant-degree proximity
graphs.  Per substitution 1 of the reproduction notes (docs/paper.md) we
replace it with the deterministic *iterated-local-minima* rule, which
yields a maximal independent set with the same output guarantees:

    repeat until every node is decided:
        every undecided node whose ID is smaller than the IDs of all its
        undecided neighbours joins the MIS;
        every undecided neighbour of a new MIS node becomes non-MIS.

On a graph with maximum degree ``d`` the rule terminates after at most
``n`` iterations and, on the constant-degree proximity graphs the paper
feeds it, after a small number of iterations in practice.  The functions
here operate on explicit adjacency structures; the *distributed* driver that
realizes each iteration through SINR message exchange lives in
:mod:`repro.core.proximity`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Set, Tuple


def greedy_mis(adjacency: Mapping[int, Iterable[int]]) -> Set[int]:
    """Sequential greedy MIS by increasing ID (reference implementation)."""
    selected: Set[int] = set()
    blocked: Set[int] = set()
    for node in sorted(adjacency):
        if node in blocked:
            continue
        selected.add(node)
        blocked.update(adjacency[node])
    return selected


def iterated_local_minima_mis(
    adjacency: Mapping[int, Iterable[int]],
    max_iterations: int | None = None,
) -> Tuple[Set[int], int]:
    """Iterated-local-minima MIS; returns the set and the number of iterations.

    Equivalent in output to :func:`greedy_mis` (both produce the
    lexicographically-first MIS) but computable with purely local decisions,
    which is what the distributed driver needs.
    """
    neighbours: Dict[int, Set[int]] = {int(v): {int(u) for u in adj} for v, adj in adjacency.items()}
    undecided: Set[int] = set(neighbours)
    in_mis: Set[int] = set()
    iterations = 0
    limit = max_iterations if max_iterations is not None else len(neighbours) + 1
    while undecided and iterations < limit:
        iterations += 1
        joiners = {
            v
            for v in undecided
            if all(u not in undecided or v < u for u in neighbours[v])
        }
        if not joiners:
            break
        in_mis |= joiners
        removed = set(joiners)
        for v in joiners:
            removed |= neighbours[v] & undecided
        undecided -= removed
    return in_mis, iterations


def local_minima(adjacency: Mapping[int, Iterable[int]]) -> Set[int]:
    """Nodes whose ID is smaller than all of their neighbours' IDs.

    This is the independent-set rule used by the *clustered* variant of the
    sparsification algorithm (Section 4.1): it is independent but not
    necessarily maximal, which is all Lemma 8 needs.
    """
    return {
        int(v)
        for v, adj in adjacency.items()
        if all(int(v) < int(u) for u in adj)
    }


def is_independent_set(adjacency: Mapping[int, Iterable[int]], candidate: Iterable[int]) -> bool:
    """Whether ``candidate`` is an independent set of the graph."""
    candidate_set = {int(v) for v in candidate}
    for v in candidate_set:
        for u in adjacency.get(v, ()):  # type: ignore[arg-type]
            if int(u) in candidate_set and int(u) != v:
                return False
    return True


def is_maximal_independent_set(
    adjacency: Mapping[int, Iterable[int]], candidate: Iterable[int]
) -> bool:
    """Whether ``candidate`` is a *maximal* independent set of the graph."""
    candidate_set = {int(v) for v in candidate}
    if not is_independent_set(adjacency, candidate_set):
        return False
    for v in adjacency:
        if int(v) in candidate_set:
            continue
        if not any(int(u) in candidate_set for u in adjacency[v]):
            return False
    return True
