"""Deterministic test harnesses for the executor and the store.

This package holds tooling that *injects* controlled failures into the
system under test -- it is imported by the production code only through
cheap, lazily-guarded hooks, and does nothing at all unless a fault plan
has been installed:

* :mod:`repro.testing.faults` -- the seeded chaos harness: a
  :class:`~repro.testing.faults.FaultPlan` maps placement seeds to faults
  (``raise`` / ``hang`` / ``exit`` / ``corrupt``) that fire inside executor
  workers (or the store's staging path, for ``corrupt``) on exactly the
  chosen cells, so grid-robustness tests are bit-reproducible.

* :mod:`repro.testing.service` -- :class:`ServiceHarness`, a thread-hosted
  :class:`~repro.service.SimulationService` that blocking test and
  benchmark code can drive with plain HTTP clients.

* :mod:`repro.testing.oracle` -- :func:`oracle_events`, a brute-force
  evaluation of Equation 1 that the backend and schedule-runner tests
  check reception tables against.

See ``docs/guide/reliability.md`` for usage and ``tests/test_faults.py``
for the stress suite that drives grids through every failure mode.
"""

from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear,
    fire_if_planned,
    injected_faults,
    install,
)
from .service import ServiceHarness

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ServiceHarness",
    "active_plan",
    "clear",
    "fire_if_planned",
    "injected_faults",
    "install",
]
