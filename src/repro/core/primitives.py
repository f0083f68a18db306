"""Basic SINR communication primitives (Section 3.2 of the paper).

Two primitives drive everything else:

* **Sparse Network Schedule (SNS, Lemma 4)** -- a schedule of length
  ``O(log N)`` guaranteeing that in a set of *constant density* every
  participant delivers its message to every point within distance
  ``1 - eps``.  We realize it with a seeded ``(N, k_gamma)``-ssf; the
  parameter ``k_gamma`` comes from :class:`~repro.core.config.
  AlgorithmConfig` (Lemma 4 sizes it by the packing constant of a ball of
  radius ``x`` where distant interference becomes negligible).

* **Selector schedules for close pairs** -- the wss / wcss executions used by
  the proximity-graph construction; those live in
  :mod:`repro.core.proximity`.

This module also provides the schedule caches so that repeated executions
(e.g. the ``Delta`` SNS runs of local broadcast) reuse the same globally
known schedule object, exactly as the paper's nodes would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from ..selectors.ssf import TransmissionSchedule, greedy_random_ssf
from ..selectors.wcss import ClusterAwareSchedule, random_wcss
from ..selectors.wss import random_wss
from ..simulation.engine import SINRSimulator
from ..simulation.schedule import ScheduleResult, run_schedule
from .config import AlgorithmConfig


@lru_cache(maxsize=128)
def sparse_network_schedule(
    id_space: int,
    parameter: int,
    seed: int,
    size_factor: float,
) -> TransmissionSchedule:
    """The Sparse Network Schedule ``L_gamma`` of Lemma 4 (cached per parameters)."""
    length = max(1, int(size_factor * 3.0 * parameter * parameter * (math.log(max(id_space, 2)) + 2.0)))
    return greedy_random_ssf(id_space, parameter, seed=seed, max_rounds=length)


@lru_cache(maxsize=128)
def close_pair_selector(
    id_space: int,
    kappa: int,
    seed: int,
    size_factor: float,
    faithful: bool,
) -> TransmissionSchedule:
    """The ``(N, kappa)``-wss used by the unclustered proximity graph (cached)."""
    return random_wss(id_space, kappa, seed=seed, size_factor=size_factor, faithful=faithful)


@lru_cache(maxsize=128)
def cluster_close_pair_selector(
    id_space: int,
    kappa: int,
    rho: int,
    seed: int,
    size_factor: float,
    faithful: bool,
) -> ClusterAwareSchedule:
    """The ``(N, kappa, rho)``-wcss used by the clustered proximity graph (cached)."""
    return random_wcss(
        id_space, kappa, rho, seed=seed, size_factor=size_factor, faithful=faithful
    )


def sns_for(network_id_space: int, config: AlgorithmConfig) -> TransmissionSchedule:
    """Convenience accessor for the SNS matching a network/config pair."""
    return sparse_network_schedule(
        network_id_space,
        config.sns_parameter,
        config.selector_seed,
        config.selector_size_factor,
    )


def wss_for(network_id_space: int, config: AlgorithmConfig) -> TransmissionSchedule:
    """Convenience accessor for the close-pair wss matching a network/config pair."""
    return close_pair_selector(
        network_id_space,
        config.kappa,
        config.selector_seed,
        config.selector_size_factor,
        config.faithful_selectors,
    )


def wcss_for(network_id_space: int, config: AlgorithmConfig) -> ClusterAwareSchedule:
    """Convenience accessor for the cluster-aware wcss matching a network/config pair."""
    return cluster_close_pair_selector(
        network_id_space,
        config.kappa,
        config.rho,
        config.selector_seed,
        config.selector_size_factor,
        config.faithful_selectors,
    )


@dataclass
class SNSOutcome:
    """Result of one Sparse Network Schedule execution."""

    result: ScheduleResult
    rounds: int


def run_sns(
    sim: SINRSimulator,
    participants: Iterable[int],
    config: AlgorithmConfig,
    listeners: Optional[Iterable[int]] = None,
    wake_on_reception: bool = False,
) -> SNSOutcome:
    """Execute the Sparse Network Schedule for the given participants.

    The participants are assumed to have constant density (that is what the
    callers -- local broadcast per label, radius reduction on a fully
    sparsified set -- guarantee); under that assumption Lemma 4 states every
    participant is heard within distance ``1 - eps``.  ``wake_on_reception``
    is forwarded to the schedule runner: global broadcast uses it so sleeping
    listeners are woken by (not merely informed through) their first decoded
    message.
    """
    schedule = sns_for(sim.network.id_space, config)
    before = sim.current_round
    result = run_schedule(
        sim,
        schedule,
        participants=participants,
        listeners=listeners,
        wake_on_reception=wake_on_reception,
    )
    return SNSOutcome(result=result, rounds=sim.current_round - before)

