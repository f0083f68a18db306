"""The epoch runner: mobility + churn + incremental physics + per-epoch runs.

:func:`run_epochs` is the dynamic counterpart of :func:`repro.api.run`.  A
:class:`~repro.api.specs.RunSpec` whose ``dynamics`` field is set describes a
*time-varying* scenario: the deployment is built once, and then for each
epoch the runner

1. applies the event timeline (crashes, joins, duty-cycle sleeps) and the
   mobility model's moves through the network's single mutation API -- which
   updates the physics backend *incrementally* (touched gain rows/columns
   only) instead of rebuilding the O(n^2) state;
2. re-runs the registered algorithm on a fresh
   :class:`~repro.simulation.engine.SINRSimulator` over the mutated network
   (epoch 0 runs on the pristine deployment);
3. appends the outcome to a columnar :class:`EpochSet` -- per-epoch rounds,
   checks, metrics and event counts, with the same accessor discipline as
   :class:`~repro.api.executor.RunSet`.

Everything is driven by the generator seeded from ``DynamicsSpec.seed``, so
a dynamic run is exactly reproducible: two invocations of the same spec
produce identical :meth:`EpochSet.payload` dictionaries (and byte-identical
CLI reports), which ``tests/test_dynamics.py`` pins down.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.reporting import ExperimentTable
from ..api.executor import _plain, build_deployment
from ..api.registry import ALGORITHMS, MOBILITY
from ..api.specs import RunSpec
from ..simulation import SINRSimulator
from .events import ChurnProcess, EpochEvents, EventTimeline

__all__ = ["EpochResult", "EpochSet", "iter_epochs", "run_epochs"]


@dataclass(frozen=True)
class EpochResult:
    """One epoch of a dynamic scenario: measurements plus what changed.

    ``events`` holds the epoch's mutation counts (``moved``, ``crashed``,
    ``joined``, ``slept``, ``woke``); ``elapsed`` is wall-clock seconds and
    is excluded from the deterministic :meth:`payload`.
    """

    epoch: int
    rounds: Dict[str, int]
    checks: Dict[str, bool]
    metrics: Dict[str, float]
    events: Dict[str, int]
    elapsed: float

    def all_checks_pass(self) -> bool:
        """Whether every recorded check passed (``True`` when none were recorded)."""
        return all(self.checks.values())

    def payload(self) -> Dict[str, Any]:
        """The deterministic portion (everything except timing)."""
        return {
            "epoch": self.epoch,
            "rounds": dict(self.rounds),
            "checks": dict(self.checks),
            "metrics": dict(self.metrics),
            "events": dict(self.events),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable form: the payload plus the elapsed time."""
        data = self.payload()
        data["elapsed"] = self.elapsed
        return data


class EpochSet:
    """A columnar dynamic-scenario result: one row per epoch.

    Mirrors :class:`~repro.api.executor.RunSet` -- accessors return NumPy
    arrays in epoch order, :meth:`table` renders a report, :meth:`to_json`
    serializes the whole trajectory.  Unlike ``RunSet``, aggregating an
    *empty* set is a hard error: :meth:`summary` raises instead of
    reporting vacuous truth for a scenario that never ran.
    """

    def __init__(self, spec: RunSpec, results: Sequence[EpochResult]) -> None:
        self.spec = spec
        self.results: Tuple[EpochResult, ...] = tuple(results)

    # ------------------------------------------------------------------ #
    # Columnar accessors.
    # ------------------------------------------------------------------ #

    @property
    def epochs(self) -> np.ndarray:
        """Epoch indices, in execution order."""
        return np.array([result.epoch for result in self.results], dtype=np.int64)

    def rounds(self, key: str = "total") -> np.ndarray:
        """Per-epoch round counts for one rounds entry (default ``"total"``)."""
        self._require(key, "rounds")
        return np.array([result.rounds[key] for result in self.results], dtype=np.int64)

    def check(self, key: str) -> np.ndarray:
        """Per-epoch boolean outcomes of one named check."""
        self._require(key, "checks")
        return np.array([result.checks[key] for result in self.results], dtype=bool)

    def metric(self, key: str) -> np.ndarray:
        """Per-epoch values of one named metric (``"n"`` tracks the population)."""
        self._require(key, "metrics")
        return np.array([result.metrics[key] for result in self.results], dtype=float)

    def event_counts(self, key: str) -> np.ndarray:
        """Per-epoch mutation counts (``moved``/``crashed``/``joined``/``slept``/``woke``)."""
        self._require(key, "events")
        return np.array([result.events[key] for result in self.results], dtype=np.int64)

    @property
    def elapsed(self) -> np.ndarray:
        """Per-epoch wall-clock execution times in seconds."""
        return np.array([result.elapsed for result in self.results], dtype=float)

    def _require(self, key: str, column: str) -> None:
        available = sorted({name for result in self.results for name in getattr(result, column)})
        if key not in available:
            raise KeyError(
                f"no {column} entry named {key!r} in this EpochSet; "
                f"available: {', '.join(available) or '(none)'}"
            )

    # ------------------------------------------------------------------ #
    # Aggregates and export.
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def all_checks_pass(self) -> bool:
        """Whether every check of every epoch passed.

        Raises :class:`ValueError` on an empty set: zero epochs verified
        nothing, and reporting success for them would be vacuous truth.
        """
        if not self.results:
            raise ValueError(
                "all_checks_pass() on an EpochSet with zero epochs is undefined: "
                "nothing ran, so nothing was verified"
            )
        return all(result.all_checks_pass() for result in self.results)

    def summary(self) -> Dict[str, Any]:
        """Aggregate statistics over the trajectory.

        Raises :class:`ValueError` on an empty set instead of fabricating
        vacuous aggregates (the ``SweepPoint.all_checks_pass`` lesson,
        applied up front).
        """
        if not self.results:
            raise ValueError("summary() of an EpochSet with zero epochs is undefined")
        keys = sorted({name for result in self.results for name in result.rounds})
        rounds = {}
        for key in keys:
            values = self.rounds(key)
            rounds[key] = {
                "min": int(values.min()),
                "mean": float(values.mean()),
                "max": int(values.max()),
            }
        population = self.metric("n")
        return {
            "algorithm": self.spec.algorithm.name,
            "deployment": self.spec.deployment.kind,
            "mobility": self.spec.dynamics.mobility.kind if self.spec.dynamics else None,
            "epochs": len(self),
            "rounds": rounds,
            "population": {
                "min": int(population.min()),
                "final": int(population[-1]),
                "max": int(population.max()),
            },
            "events": {
                key: int(self.event_counts(key).sum())
                for key in ("moved", "crashed", "joined", "slept", "woke")
            },
            "all_checks_pass": self.all_checks_pass(),
            "elapsed_total": float(self.elapsed.sum()),
        }

    def payload(self) -> Dict[str, Any]:
        """The deterministic trajectory (no timings): spec + per-epoch payloads."""
        return {
            "spec": self.spec.to_dict(),
            "epochs": [result.payload() for result in self.results],
        }

    def table(self, title: Optional[str] = None) -> ExperimentTable:
        """Per-epoch report table for :mod:`repro.analysis.reporting`."""
        dynamics = self.spec.dynamics
        mobility = dynamics.mobility.kind if dynamics else "?"
        table = ExperimentTable(
            title=title
            or (
                f"{self.spec.algorithm.name} on {self.spec.deployment.kind} "
                f"under {mobility} x {len(self)} epochs"
            ),
            columns=["epoch", "n", "rounds", "moved", "churn", "checks ok"],
        )
        for result in self.results:
            churn = (
                result.events.get("crashed", 0)
                + result.events.get("joined", 0)
                + result.events.get("slept", 0)
                + result.events.get("woke", 0)
            )
            table.add_row(
                self.spec.algorithm.name,
                epoch=result.epoch,
                n=int(result.metrics.get("n", 0)),
                rounds=result.rounds.get("total", 0),
                moved=result.events.get("moved", 0),
                churn=churn,
                **{"checks ok": "yes" if result.all_checks_pass() else "NO"},
            )
        return table

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable form: spec, per-epoch results, summary."""
        return {
            "spec": self.spec.to_dict(),
            "epochs": [result.to_dict() for result in self.results],
            "summary": self.summary(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the whole trajectory as a JSON artifact."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        checks = self.all_checks_pass() if self.results else "n/a"
        return (
            f"EpochSet({self.spec.algorithm.name!r} on {self.spec.deployment.kind!r}, "
            f"{len(self)} epochs, all_checks_pass={checks})"
        )


def _timeline_for(spec: RunSpec) -> EventTimeline:
    """Build the event timeline a spec's dynamics block describes."""
    dynamics = spec.dynamics
    assert dynamics is not None
    params = dynamics.event_dict()
    if not params:
        return EventTimeline()
    return ChurnProcess(**params)


def run_epochs(spec: RunSpec) -> EpochSet:
    """Execute a dynamic scenario epoch by epoch; returns the :class:`EpochSet`.

    The spec's ``dynamics`` field selects the mobility model (by MOBILITY
    registry key), the event process, the epoch count and the dynamics
    seed.  Standalone algorithms (which build their own network) cannot be
    run dynamically.  This is :func:`iter_epochs` drained to completion --
    incremental consumers (the service's streaming endpoint) iterate the
    generator directly and see each epoch the moment it is measured.
    """
    return EpochSet(spec=spec, results=list(iter_epochs(spec)))


def iter_epochs(spec: RunSpec):
    """Lazily execute a dynamic scenario, yielding one :class:`EpochResult` at a time.

    The generator form of :func:`run_epochs`: epoch ``k`` is yielded as soon
    as it has been simulated, *before* epoch ``k+1`` starts, so a consumer
    can forward results incrementally (NDJSON streaming in
    :mod:`repro.service`) while the trajectory is still running.  Epochs are
    produced in order and the sequence is exactly what :func:`run_epochs`
    would collect -- both drive the same seeded mobility/churn state, so
    payloads are bit-identical.

    Spec validation happens eagerly, in this call -- a bad spec raises
    here, not at the consumer's first ``next()``.
    """
    dynamics = spec.dynamics
    if dynamics is None:
        raise ValueError("run_epochs needs a RunSpec with a dynamics block (see RunSpec.with_dynamics)")
    if dynamics.epochs < 1:
        raise ValueError("a dynamic scenario needs at least one epoch")
    entry = ALGORITHMS.get(spec.algorithm.name)
    if entry.standalone:
        raise ValueError(
            f"algorithm {spec.algorithm.name!r} is standalone (builds its own network) "
            "and cannot be run dynamically"
        )
    return _generate_epochs(spec, entry)


def _generate_epochs(spec: RunSpec, entry):
    """The generator body of :func:`iter_epochs` (validation already done)."""
    dynamics = spec.dynamics
    config = spec.algorithm.build_config()
    params = spec.algorithm.param_dict()
    network = build_deployment(spec.deployment)
    rng = np.random.default_rng(dynamics.seed)
    model = MOBILITY.get(dynamics.mobility.kind)(**dynamics.mobility.param_dict())
    model.reset(network, rng)
    timeline = _timeline_for(spec)
    timeline.reset(network, rng)

    for epoch in range(dynamics.epochs):
        events = EpochEvents()
        moved = 0
        if epoch > 0:
            events = timeline.apply(network, rng, epoch)
            indices, new_xy = model.step(network, rng, epoch)
            if len(indices):
                network.move_nodes(network.uid_array[indices], new_xy)
                moved = len(indices)
        sim = SINRSimulator(network)
        started = time.perf_counter()
        outcome = entry.fn(sim, config=config, **params)
        elapsed = time.perf_counter() - started
        if "total" not in outcome.rounds:
            raise ValueError(
                f"algorithm {spec.algorithm.name!r} returned no 'total' rounds entry"
            )
        metrics = {key: float(value) for key, value in outcome.metrics.items()}
        metrics.setdefault("n", float(network.size))
        metrics.setdefault("delta_bound", float(network.delta_bound))
        event_counts = events.counts()
        event_counts["moved"] = moved
        yield EpochResult(
            epoch=epoch,
            rounds=dict(outcome.rounds),
            checks=dict(outcome.checks),
            metrics=_plain(metrics),
            events=event_counts,
            elapsed=elapsed,
        )
