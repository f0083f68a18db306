"""Spec execution: ``run`` one spec, ``run_many`` a seed ensemble, in parallel.

The executor is the single code path from a declarative :class:`RunSpec` to
measured results:

* :func:`run` -- build the deployment (through the registries), wrap it in a
  :class:`~repro.simulation.engine.SINRSimulator`, call the registered
  algorithm runner and return a :class:`RunResult`;
* :func:`run_grid` -- execute any list of specs, fanning out across a
  *supervised* process pool (:mod:`repro.api.supervisor`;
  ``parallel=False`` opts out; the default probes for multiprocessing
  support and falls back to serial execution);
* :func:`run_many` -- the multi-seed ensemble primitive: one base spec
  re-seeded across ``seeds``, executed via :func:`run_grid`, collected into
  a columnar :class:`RunSet`.

All entry points accept ``store=`` / ``cache=`` for the content-addressed
result cache (:mod:`repro.store`): stored cells are loaded instead of
executed, so interrupted grids resume and warm re-runs are near-instant,
bit-identical to cold execution.  Grid cells are committed to the store
*as they finish*, so a crash, hang or interrupt mid-sweep never discards
completed work.

The grid fan-out is fault-tolerant: ``timeout=`` cancels hung cells (the
worker is recycled), ``retries=`` re-runs failed cells with exponential
backoff and deterministic jitter, and ``on_error=`` decides what a cell
that exhausts its attempts does -- ``"raise"`` (default) propagates the
failure, ``"skip"`` / ``"retry"`` quarantine the cell as a structured
:class:`FailedResult` (spec, attempt count, cause, traceback) while every
other cell keeps running.  A worker death (hard exit, OOM kill) is a
per-cell event, not a grid abort.  See ``docs/guide/reliability.md``.

Every algorithm in the registry is deterministic given its spec (the
paper's constructions are seeded), so parallel execution is bit-identical
to serial execution -- ``tests/test_api.py`` property-tests exactly that by
comparing :meth:`RunResult.payload` dictionaries.  Workers therefore return
only the JSON payload (specs travel as dictionaries, results come back as
dictionaries), which keeps the pool protocol trivially picklable; the
in-memory algorithm result object is available as ``RunResult.raw`` on
serial paths only.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..analysis.reporting import ExperimentTable
from ..simulation import SINRSimulator
from .registry import ALGORITHMS, DEPLOYMENTS
from .specs import RunSpec
from .supervisor import CellFailure, CellSuccess, PoolUnavailable, SupervisedPool, backoff_delay

__all__ = [
    "ON_ERROR_POLICIES",
    "AlgorithmOutcome",
    "FailedResult",
    "GridExecutionError",
    "RunResult",
    "RunSet",
    "build_deployment",
    "run",
    "run_dynamic",
    "run_grid",
    "run_many",
    "run_on_network",
]

#: Valid ``on_error=`` policies for the grid entry points.
ON_ERROR_POLICIES = ("raise", "skip", "retry")


@dataclass(frozen=True)
class AlgorithmOutcome:
    """What a registered algorithm runner hands back to the executor.

    ``rounds`` must contain a ``"total"`` entry (plus any per-phase
    breakdown); ``checks`` are named correctness verdicts; ``metrics`` are
    numeric observables; ``details`` are JSON-representable extras (probe
    lists, per-phase tables, ...) used by the CLI reports; ``raw`` is the
    underlying result object for in-process callers.
    """

    rounds: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None


@dataclass(frozen=True)
class RunResult:
    """One executed spec: the spec itself plus everything measured.

    ``elapsed`` is wall-clock seconds and is deliberately excluded from
    :meth:`payload`, the deterministic portion that serial and parallel
    execution must agree on bit for bit.  ``cached`` records whether the
    result was loaded from an :class:`~repro.store.ExperimentStore` rather
    than executed; like ``elapsed``/``raw`` it is provenance, not payload,
    so cached results compare bit-identical to cold ones.
    """

    spec: RunSpec
    rounds: Dict[str, int]
    checks: Dict[str, bool]
    metrics: Dict[str, float]
    details: Dict[str, Any]
    elapsed: float
    raw: Any = None
    cached: bool = False

    #: Class-level discriminator against :class:`FailedResult` (grids with
    #: ``on_error="skip"|"retry"`` mix the two; filter on ``.failed``).
    failed = False

    @property
    def seed(self) -> int:
        """The placement seed this result was measured at."""
        return self.spec.seed

    def all_checks_pass(self) -> bool:
        """Whether every recorded check passed (``True`` when none were recorded)."""
        return all(self.checks.values())

    def payload(self) -> Dict[str, Any]:
        """The deterministic result payload (everything except timing/raw)."""
        return {
            "spec": self.spec.to_dict(),
            "rounds": dict(self.rounds),
            "checks": dict(self.checks),
            "metrics": dict(self.metrics),
            "details": _plain(self.details),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable form: the payload plus the elapsed time."""
        data = self.payload()
        data["elapsed"] = self.elapsed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result (without ``raw``) from :meth:`to_dict` output."""
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            rounds=dict(data.get("rounds") or {}),
            checks=dict(data.get("checks") or {}),
            metrics=dict(data.get("metrics") or {}),
            details=dict(data.get("details") or {}),
            elapsed=float(data.get("elapsed", 0.0)),
        )


@dataclass(frozen=True)
class FailedResult:
    """A grid cell that exhausted its attempts: the quarantine record.

    Produced by :func:`run_grid` / :func:`run_many` under
    ``on_error="skip"`` or ``"retry"`` in place of the
    :class:`RunResult` the cell would have yielded.  ``kind`` is
    ``"exception"`` (the cell raised; ``message`` carries the worker-side
    traceback), ``"timeout"`` (the attempt exceeded ``timeout=`` and was
    cancelled) or ``"worker-death"`` (the worker process died mid-cell --
    a hard exit, OOM kill or segfault).  ``attempts`` counts every
    execution attempt including retries; ``elapsed`` is the wall-clock
    spent across all of them.

    Failed cells are never committed to a store, so re-running the same
    grid with ``store=``/``cache="reuse"`` executes exactly the quarantined
    cells and nothing else.
    """

    spec: RunSpec
    kind: str
    message: str
    attempts: int
    elapsed: float = 0.0

    #: Class-level discriminator against :class:`RunResult`.
    failed = True

    @property
    def seed(self) -> int:
        """The placement seed of the failed cell."""
        return self.spec.seed

    def all_checks_pass(self) -> bool:
        """Always ``False``: a quarantined cell verified nothing."""
        return False

    def summary_line(self) -> str:
        """One human-readable line for failure reports."""
        reason = self.message.strip().splitlines()[-1] if self.message.strip() else self.kind
        return (
            f"seed {self.seed} [{self.spec.algorithm.name} on "
            f"{self.spec.deployment.kind}]: {self.kind} after "
            f"{self.attempts} attempt(s) -- {reason}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable form (inverse of :meth:`from_dict`)."""
        return {
            "spec": self.spec.to_dict(),
            "failed": True,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailedResult":
        """Rebuild a quarantine record from :meth:`to_dict` output."""
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            kind=str(data["kind"]),
            message=str(data.get("message", "")),
            attempts=int(data.get("attempts", 1)),
            elapsed=float(data.get("elapsed", 0.0)),
        )


class GridExecutionError(RuntimeError):
    """A grid cell failed terminally under ``on_error="raise"``.

    Raised for failure kinds that carry no original exception object
    (timeouts, worker deaths, unpicklable worker exceptions); when the
    worker's exception pickled cleanly it is re-raised directly instead,
    so ``on_error="raise"`` is a drop-in for the historical behavior.
    ``failure`` holds the structured :class:`FailedResult`.
    """

    def __init__(self, failure: FailedResult) -> None:
        super().__init__(failure.summary_line())
        self.failure = failure


def _plain(value: Any) -> Any:
    """Coerce containers/NumPy scalars to plain JSON types (deep)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class RunSet:
    """A columnar multi-seed ensemble: per-seed rounds, checks and timings.

    Results are stored in seed order; the accessors return NumPy arrays so
    ensembles plug straight into analysis code, and :meth:`table` renders an
    :class:`~repro.analysis.reporting.ExperimentTable` for the reporting
    layer.

    Under ``on_error="skip"|"retry"`` quarantined cells land in
    ``failures`` (a tuple of :class:`FailedResult`), keeping ``results``
    and every columnar accessor success-only; :meth:`all_checks_pass` is
    ``False`` whenever any cell was quarantined.
    """

    def __init__(
        self,
        spec: RunSpec,
        results: Sequence[RunResult],
        parallel: bool = False,
        failures: Sequence[FailedResult] = (),
    ) -> None:
        self.spec = spec
        self.results: Tuple[RunResult, ...] = tuple(results)
        #: Quarantined cells (empty unless on_error="skip"|"retry" was used).
        self.failures: Tuple[FailedResult, ...] = tuple(failures)
        #: Whether the ensemble actually executed on a process pool.
        self.executed_parallel = bool(parallel)

    # ------------------------------------------------------------------ #
    # Columnar accessors.
    # ------------------------------------------------------------------ #

    @property
    def seeds(self) -> np.ndarray:
        """Placement seeds, one per result, in execution order."""
        return np.array([result.seed for result in self.results], dtype=np.int64)

    def rounds(self, key: str = "total") -> np.ndarray:
        """Per-seed round counts for one rounds entry (default ``"total"``)."""
        self._require(key, "rounds")
        return np.array([result.rounds[key] for result in self.results], dtype=np.int64)

    def check(self, key: str) -> np.ndarray:
        """Per-seed boolean outcomes of one named check."""
        self._require(key, "checks")
        return np.array([result.checks[key] for result in self.results], dtype=bool)

    def metric(self, key: str) -> np.ndarray:
        """Per-seed values of one named metric."""
        self._require(key, "metrics")
        return np.array([result.metrics[key] for result in self.results], dtype=float)

    @property
    def elapsed(self) -> np.ndarray:
        """Per-seed wall-clock execution times in seconds."""
        return np.array([result.elapsed for result in self.results], dtype=float)

    def _require(self, key: str, column: str) -> None:
        available = sorted({name for result in self.results for name in getattr(result, column)})
        if key not in available:
            raise KeyError(
                f"no {column} entry named {key!r} in this RunSet; "
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
        """Whether every check of every seed passed (and no cell failed)."""
        if self.failures:
            return False
        return all(result.all_checks_pass() for result in self.results)

    def summary(self) -> Dict[str, Any]:
        """Aggregate statistics: per-rounds-key min/mean/max plus check status."""
        keys = sorted({name for result in self.results for name in result.rounds})
        rounds = {}
        for key in keys:
            values = self.rounds(key)
            rounds[key] = {
                "min": int(values.min()),
                "mean": float(values.mean()),
                "max": int(values.max()),
            }
        return {
            "algorithm": self.spec.algorithm.name,
            "deployment": self.spec.deployment.kind,
            "seeds": [int(seed) for seed in self.seeds],
            "rounds": rounds,
            "all_checks_pass": self.all_checks_pass(),
            "elapsed_total": float(self.elapsed.sum()),
            "executed_parallel": self.executed_parallel,
            "failures": len(self.failures),
        }

    def table(self, title: Optional[str] = None) -> ExperimentTable:
        """Per-seed report table for :mod:`repro.analysis.reporting`."""
        check_keys = sorted({name for result in self.results for name in result.checks})
        table = ExperimentTable(
            title=title
            or f"{self.spec.algorithm.name} on {self.spec.deployment.kind} x {len(self)} seeds",
            columns=["seed", "rounds", "checks ok", "time [ms]"],
        )
        for result in self.results:
            table.add_row(
                self.spec.algorithm.name,
                seed=result.seed,
                rounds=result.rounds.get("total", 0),
                **{
                    "checks ok": "yes" if result.all_checks_pass() else "NO",
                    "time [ms]": result.elapsed * 1000.0,
                },
            )
        if check_keys:
            table.add_note(f"checks: {', '.join(check_keys)}")
        if self.failures:
            table.add_note(
                f"quarantined: {len(self.failures)} cell(s) -- "
                + "; ".join(f"seed {f.seed} ({f.kind})" for f in self.failures)
            )
        return table

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable form: base spec, per-seed results, summary."""
        data = {
            "spec": self.spec.to_dict(),
            "results": [result.to_dict() for result in self.results],
            "summary": self.summary(),
        }
        if self.failures:
            data["failures"] = [failure.to_dict() for failure in self.failures]
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the whole ensemble as a JSON artifact."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        return (
            f"RunSet({self.spec.algorithm.name!r} on {self.spec.deployment.kind!r}, "
            f"{len(self)} seeds, all_checks_pass={self.all_checks_pass()})"
        )


# ---------------------------------------------------------------------- #
# Execution.
# ---------------------------------------------------------------------- #


def build_deployment(spec) -> Any:
    """Materialize a :class:`DeploymentSpec` into a ``WirelessNetwork``.

    The backend registry name flows through the deployment builder into
    :func:`repro.sinr.backends.make_backend`.
    """
    builder = DEPLOYMENTS.get(spec.kind)
    return builder(seed=spec.seed, backend=spec.backend, **spec.param_dict())


def _resolve_store(store, cache: str):
    """Validate ``cache`` and coerce ``store`` (path or instance) to a store.

    Returns ``None`` when caching is disabled (no store, or ``cache="off"``).
    Imported lazily: :mod:`repro.store` depends on this module.
    """
    from ..store.store import CACHE_MODES, resolve_store

    if cache not in CACHE_MODES:
        raise ValueError(f"cache must be one of {', '.join(CACHE_MODES)}; got {cache!r}")
    if store is None or cache == "off":
        return None
    return resolve_store(store)


def run(spec: RunSpec, keep_raw: bool = True, store=None, cache: str = "reuse") -> RunResult:
    """Execute one spec in-process and return its :class:`RunResult`.

    ``keep_raw=False`` drops the in-memory algorithm result object, which is
    what the parallel path does implicitly (raw objects never cross process
    boundaries).

    ``store`` (an :class:`~repro.store.ExperimentStore` or a path) enables
    the content-addressed cache: with ``cache="reuse"`` (default) an
    already-stored result for this exact spec is loaded instead of executed
    (``result.cached`` is then true) and fresh results are persisted;
    ``"refresh"`` recomputes and overwrites; ``"off"`` ignores the store.
    Cached results are bit-identical to cold execution
    (:meth:`RunResult.payload` compares equal, property-tested).

    A spec carrying a dynamics block is refused: a static execution would
    silently ignore the mobility/churn scenario the spec describes while
    still recording it in the result's spec.  Use :func:`run_dynamic` (or
    strip the block with ``spec.with_dynamics(None)``).
    """
    if spec.dynamics is not None:
        raise ValueError(
            "spec has a dynamics block; run_dynamic(spec) executes it -- a static "
            "run() would silently ignore the dynamics (use spec.with_dynamics(None) "
            "to run the initial placement only)"
        )
    cache_store = _resolve_store(store, cache)
    if cache_store is not None and cache == "reuse":
        hit = cache_store.load_result(spec)
        if hit is not None:
            return hit
    entry = ALGORITHMS.get(spec.algorithm.name)
    started = time.perf_counter()  # a run's elapsed time includes the deployment build
    network = None if entry.standalone else build_deployment(spec.deployment)
    result = _execute(spec, entry, network, started, keep_raw)
    if cache_store is not None:
        cache_store.put_result(result, overwrite=(cache == "refresh"))
    return result


def _execute(spec: RunSpec, entry, network, started: float, keep_raw: bool) -> RunResult:
    """The execution body of :func:`run` and :func:`run_on_network`.

    Runs ``entry`` on a fresh simulator over ``network`` (or standalone when
    ``network`` is ``None``) and packages the outcome; ``elapsed`` counts
    from ``started``.
    """
    config = spec.algorithm.build_config()
    params = spec.algorithm.param_dict()
    if network is None:
        outcome = entry.fn(config=config, **params)
    else:
        outcome = entry.fn(SINRSimulator(network), config=config, **params)
        outcome.metrics.setdefault("n", float(network.size))
        outcome.metrics.setdefault("delta_bound", float(network.delta_bound))
        outcome.metrics.setdefault("id_space", float(network.id_space))
        outcome.details.setdefault("network", network.describe())
    elapsed = time.perf_counter() - started
    if "total" not in outcome.rounds:
        raise ValueError(
            f"algorithm {spec.algorithm.name!r} returned no 'total' rounds entry"
        )
    return RunResult(
        spec=spec,
        rounds=dict(outcome.rounds),
        checks=dict(outcome.checks),
        metrics={key: float(value) for key, value in outcome.metrics.items()},
        details=_plain(outcome.details),
        elapsed=elapsed,
        raw=outcome.raw if keep_raw else None,
    )


def run_on_network(network, spec: RunSpec, store=None, cache: str = "reuse") -> RunResult:
    """Execute a static spec's algorithm against an *existing* network.

    This is the session-execution primitive of the service layer
    (:mod:`repro.service`): instead of materializing the spec's deployment,
    the registered algorithm runs directly on ``network`` -- a live
    :class:`~repro.sinr.network.WirelessNetwork` that may have been mutated
    (moves, crashes, joins) since it was built.  Each run gets a fresh
    simulator and leaves no state on the network, so repeated runs on the
    same placement are independent and deterministic, and a store hit
    leaves the network exactly as a cold run does.

    The caller is responsible for making ``spec`` *name* the network state
    it hands in: when the network no longer matches the spec's deployment
    block (it was mutated), derive a distinct spec -- e.g. with
    :meth:`RunSpec.with_tags` carrying a state fingerprint -- before
    enabling ``store=``, or stale placements would collide with fresh ones
    under the same content address.  With that contract, ``store``/``cache``
    behave exactly as in :func:`run`: warm hits load instead of executing
    and are bit-identical to cold runs.

    Standalone algorithms (which build their own network) and specs with a
    dynamics block are refused: the former would ignore ``network``, the
    latter describe a trajectory, not a single run.
    """
    if spec.dynamics is not None:
        raise ValueError(
            "spec has a dynamics block; run_on_network executes a single static "
            "run on the live network (use run_dynamic for trajectories)"
        )
    entry = ALGORITHMS.get(spec.algorithm.name)
    if entry.standalone:
        raise ValueError(
            f"algorithm {spec.algorithm.name!r} is standalone (builds its own "
            "network) and cannot run against an existing one"
        )
    cache_store = _resolve_store(store, cache)
    if cache_store is not None and cache == "reuse":
        hit = cache_store.load_result(spec)
        if hit is not None:
            return hit
    result = _execute(spec, entry, network, time.perf_counter(), keep_raw=False)
    if cache_store is not None:
        cache_store.put_result(result, overwrite=(cache == "refresh"))
    return result


def run_dynamic(spec: RunSpec, store=None, cache: str = "reuse"):
    """Execute a time-varying scenario epoch by epoch; returns an ``EpochSet``.

    The spec must carry a :class:`~repro.api.specs.DynamicsSpec` (see
    :meth:`RunSpec.with_dynamics`): per epoch the mobility model and event
    timeline mutate the network through the incremental-physics mutation
    API and the algorithm is re-run on the evolved placement.  This is the
    dynamic sibling of :func:`run`; the loop itself lives in
    :mod:`repro.dynamics.runner` (imported lazily -- the dynamics package
    depends on this module).

    ``store``/``cache`` behave as in :func:`run`: a stored trajectory for
    this exact spec is reused (``cache="reuse"``), recomputed and
    overwritten (``"refresh"``), or ignored (``"off"``); fresh trajectories
    are persisted as columnar NPZ artifacts.
    """
    from ..dynamics.runner import run_epochs

    cache_store = _resolve_store(store, cache)
    if cache_store is not None and cache == "reuse":
        hit = cache_store.load_epochs(spec)
        if hit is not None:
            return hit
    trajectory = run_epochs(spec)
    if cache_store is not None:
        cache_store.put_epochs(trajectory, overwrite=(cache == "refresh"))
    return trajectory


def _supervised_payload(spec_dict: Dict[str, Any], attempt: int) -> Dict[str, Any]:
    """Worker entry point: spec dictionary + attempt number in, result out.

    The fault-injection hook fires first (a no-op without an installed
    :class:`~repro.testing.faults.FaultPlan`), so chaos tests hit exactly
    the cells and attempts their plan names.
    """
    spec = RunSpec.from_dict(spec_dict)
    from ..testing.faults import fire_if_planned

    fire_if_planned(spec, attempt)
    return run(spec, keep_raw=False).to_dict()


def _run_cell_serial(
    spec: RunSpec, keep_raw: bool, retries: int, backoff: float
) -> Tuple[Optional[RunResult], Optional[Tuple[BaseException, str, int, float]]]:
    """One cell in-process, honoring the retry/backoff policy.

    Returns ``(result, None)`` on success or ``(None, (exception,
    traceback_text, attempts, elapsed))`` when every attempt failed.  The
    per-cell ``timeout`` cannot be enforced without a worker process to
    cancel, so the serial path ignores it (documented in
    :func:`run_grid`).
    """
    import traceback as _traceback

    from ..testing.faults import fire_if_planned

    attempt = 1
    spent = 0.0
    while True:
        started = time.perf_counter()
        try:
            fire_if_planned(spec, attempt)
            result = run(spec, keep_raw=keep_raw)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            spent += time.perf_counter() - started
            if attempt <= retries:
                time.sleep(backoff_delay(backoff, attempt, spec.seed))
                attempt += 1
                continue
            return None, (exc, _traceback.format_exc(), attempt, spent)
        return result, None


def _default_workers(jobs: int) -> int:
    return max(1, min(jobs, os.cpu_count() or 1))


def _pool_context():
    """The multiprocessing context used for the fan-out.

    Prefers ``fork`` where it is the platform's safe default (Linux): forked
    workers inherit the parent's registries, so deployments/algorithms
    registered at runtime (plugins, ``__main__`` scripts) stay resolvable.
    Elsewhere (``spawn`` platforms) the default context is used and workers
    re-import :mod:`repro.api` fresh, which only recreates the built-ins.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and multiprocessing.get_start_method(allow_none=True) in (None, "fork"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _workers_can_resolve(specs: Sequence[RunSpec], context) -> bool:
    """Whether pool workers will be able to look up every spec's names.

    Forked workers inherit the live registries, so anything resolvable here
    is resolvable there.  Spawned workers only see the built-in catalog:
    specs naming runtime-registered entries must stay in-process.
    """
    if context.get_start_method() == "fork":
        return True
    # Deferred import: catalog imports this module for AlgorithmOutcome.
    from .catalog import BUILTIN_ALGORITHMS, BUILTIN_DEPLOYMENTS

    return all(
        (spec.algorithm.name in BUILTIN_ALGORITHMS)
        and (
            ALGORITHMS.get(spec.algorithm.name).standalone
            or spec.deployment.kind in BUILTIN_DEPLOYMENTS
        )
        for spec in specs
    )


def run_grid(
    specs: Sequence[RunSpec],
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    keep_raw: bool = False,
    store=None,
    cache: str = "reuse",
    timeout: Optional[float] = None,
    retries: int = 0,
    on_error: str = "raise",
    backoff: float = 0.25,
) -> List[Union[RunResult, "FailedResult"]]:
    """Execute a list of specs, in spec order, on a supervised process pool.

    ``parallel=None`` (the default) uses the pool when there is more than
    one spec and multiprocessing is available, silently falling back to
    serial execution where process creation is forbidden (sandboxes, some
    CI runners).  ``parallel=True`` forces the pool (errors propagate);
    ``parallel=False`` forces serial execution.  Results are identical
    either way -- only ``RunResult.elapsed`` and ``RunResult.raw`` (dropped
    by the pool, retained serially when ``keep_raw``) differ.

    Failure policy (see ``docs/guide/reliability.md``):

    * ``timeout=`` -- per-*attempt* wall-clock budget in seconds; a hung
      cell is cancelled and its worker recycled.  Enforceable only on the
      pool (the serial path has no process to cancel and ignores it).
    * ``retries=`` -- failed cells (exception, timeout or worker death)
      are re-executed up to this many extra times, with exponential
      backoff (base ``backoff`` seconds) and deterministic jitter.
      Ignored under ``on_error="skip"``.
    * ``on_error=`` -- what a cell that exhausts its attempts does:
      ``"raise"`` (default) propagates the failure (the worker's exception
      when it pickled, else a :class:`GridExecutionError`); ``"skip"``
      quarantines the cell immediately as a :class:`FailedResult` without
      retrying; ``"retry"`` retries first, then quarantines.  Quarantined
      cells never abort the rest of the grid.

    A worker dying (hard exit, OOM kill, segfault) affects only the cell
    it was running: the supervisor spawns a replacement and the grid keeps
    going.  With ``store=`` every finished cell is committed *as it
    completes*, so a crash or interrupt mid-grid never discards completed
    work: already-stored cells are loaded (``cached=True``) on the next
    run and only the missing (including previously-failed) cells execute.
    ``cache="refresh"`` recomputes every cell and overwrites; ``"off"``
    ignores the store.  Cell order is preserved regardless of the
    hit/miss split or completion order.
    """
    results, _ = _run_grid(
        specs, parallel=parallel, max_workers=max_workers, keep_raw=keep_raw,
        store=store, cache=cache, timeout=timeout, retries=retries,
        on_error=on_error, backoff=backoff,
    )
    return results


def _validate_policy(on_error: str, timeout: Optional[float], retries: int) -> int:
    """Check the failure-policy knobs; returns the effective retry budget."""
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {', '.join(ON_ERROR_POLICIES)}; got {on_error!r}"
        )
    if timeout is not None and float(timeout) <= 0:
        raise ValueError(f"timeout must be positive (got {timeout!r})")
    if retries < 0:
        raise ValueError(f"retries must be >= 0 (got {retries!r})")
    return 0 if on_error == "skip" else int(retries)


def _run_grid(
    specs: Sequence[RunSpec],
    parallel: Optional[bool],
    max_workers: Optional[int],
    keep_raw: bool,
    store=None,
    cache: str = "reuse",
    timeout: Optional[float] = None,
    retries: int = 0,
    on_error: str = "raise",
    backoff: float = 0.25,
) -> Tuple[List[Union[RunResult, "FailedResult"]], bool]:
    """:func:`run_grid` plus a flag for whether the pool was actually used."""
    specs = list(specs)
    effective_retries = _validate_policy(on_error, timeout, retries)
    cache_store = _resolve_store(store, cache)
    if not specs:
        return [], False
    slots: List[Optional[Union[RunResult, FailedResult]]] = [None] * len(specs)
    if cache_store is not None and cache == "reuse":
        misses: List[int] = []
        for i, spec in enumerate(specs):
            hit = cache_store.load_result(spec)
            if hit is not None:
                slots[i] = hit
            else:
                misses.append(i)
    else:  # no store, or refresh: (re)compute everything
        misses = list(range(len(specs)))
    if not misses:
        return [slot for slot in slots if slot is not None], False

    overwrite = cache == "refresh"
    unsettled: Set[int] = set(misses)

    def settle(index: int, outcome: Union[RunResult, FailedResult]) -> None:
        # Called the moment a cell finishes (in completion order): commits
        # to the store immediately, so interrupted grids keep finished work.
        slots[index] = outcome
        unsettled.discard(index)
        if cache_store is not None and not outcome.failed:
            cache_store.put_result(outcome, overwrite=overwrite)

    miss_specs = [specs[i] for i in misses]
    want_parallel = parallel if parallel is not None else len(miss_specs) > 1
    context = None
    if want_parallel:
        context = _pool_context()
        if parallel is None and not _workers_can_resolve(miss_specs, context):
            # Spawned workers would fail the registry lookup for runtime-
            # registered entries; stay in-process rather than crash.
            want_parallel = False
    used_pool = False
    if want_parallel:
        try:
            used_pool = _run_cells_pooled(
                specs, misses, settle, context,
                max_workers=max_workers or _default_workers(len(miss_specs)),
                timeout=timeout, retries=effective_retries,
                on_error=on_error, backoff=backoff,
            )
        except (OSError, PermissionError, PoolUnavailable):
            # Process creation is forbidden (sandboxes, locked-down CI
            # runners) or every worker died and none could be respawned.
            # Cells the pool already settled -- committed to the store --
            # are kept; only the remainder re-runs on the serial leg below.
            if parallel:  # explicitly requested -- surface the failure
                raise
    for i in sorted(unsettled):
        result, failure = _run_cell_serial(
            specs[i], keep_raw=keep_raw, retries=effective_retries, backoff=backoff
        )
        if failure is None:
            assert result is not None
            settle(i, result)
            continue
        exc, text, attempts, spent = failure
        if on_error == "raise":
            raise exc  # the original exception: historical behavior
        settle(
            i,
            FailedResult(
                spec=specs[i], kind="exception", message=text,
                attempts=attempts, elapsed=spent,
            ),
        )
    if any(slot is None for slot in slots):
        raise RuntimeError("grid bookkeeping lost a cell (this is a bug)")
    return [slot for slot in slots if slot is not None], used_pool


def _run_cells_pooled(
    specs: Sequence[RunSpec],
    indices: Sequence[int],
    settle: Callable[[int, Union[RunResult, "FailedResult"]], None],
    context,
    max_workers: int,
    timeout: Optional[float],
    retries: int,
    on_error: str,
    backoff: float,
) -> bool:
    """Fan the miss cells over a :class:`SupervisedPool`, settling each as it finishes.

    Raises :class:`PoolUnavailable` (or ``OSError``/``PermissionError``)
    when workers cannot be started; cells settled before that point have
    already been delivered through ``settle``.  On ``KeyboardInterrupt``
    the pool is drained first so results that finished in-flight are still
    settled (and therefore store-committed) before the interrupt unwinds.
    """
    payloads = [specs[i].to_dict() for i in indices]
    pool = SupervisedPool(
        _supervised_payload,
        max_workers=min(int(max_workers), len(payloads)),
        context=context,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
    )
    with pool:
        try:
            for event in pool.run(payloads):
                grid_index = indices[event.index]
                if isinstance(event, CellSuccess):
                    settle(grid_index, RunResult.from_dict(event.value))
                    continue
                failure = FailedResult(
                    spec=specs[grid_index], kind=event.kind, message=event.message,
                    attempts=event.attempts, elapsed=event.elapsed,
                )
                if on_error == "raise":
                    if isinstance(event, CellFailure) and event.exception is not None:
                        raise event.exception
                    raise GridExecutionError(failure)
                settle(grid_index, failure)
        except KeyboardInterrupt:
            # Flush cells that finished but were not yet delivered, so an
            # interrupted sweep with a store resumes from everything done.
            for leftover in pool.drain():
                settle(indices[leftover.index], RunResult.from_dict(leftover.value))
            raise
    return True


def run_many(
    spec: RunSpec,
    seeds: Sequence[int],
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    store=None,
    cache: str = "reuse",
    timeout: Optional[float] = None,
    retries: int = 0,
    on_error: str = "raise",
    backoff: float = 0.25,
) -> RunSet:
    """Execute ``spec`` once per seed and collect a columnar :class:`RunSet`.

    This is the reproducible-ensemble primitive: the paper's algorithms are
    seeded-randomized constructions, so "the result" of a scenario is
    naturally a distribution over placement seeds.  Seeds are executed in
    the order given, duplicates included.

    ``store``/``cache`` behave as in :func:`run_grid`: each seed is cached
    as its own content-addressed entry (committed the moment it finishes),
    so an ensemble interrupted halfway resumes from the stored seeds and
    re-running a finished ensemble executes nothing.

    ``timeout``/``retries``/``on_error``/``backoff`` are the per-cell
    failure policy of :func:`run_grid`; under ``on_error="skip"|"retry"``
    quarantined seeds land in :attr:`RunSet.failures` instead of aborting
    the ensemble, and :meth:`RunSet.all_checks_pass` reports ``False``.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("run_many needs at least one seed")
    grid = [spec.with_seed(seed) for seed in seeds]
    results, used_pool = _run_grid(
        grid, parallel=parallel, max_workers=max_workers, keep_raw=False,
        store=store, cache=cache, timeout=timeout, retries=retries,
        on_error=on_error, backoff=backoff,
    )
    successes = [result for result in results if not result.failed]
    failures = [result for result in results if result.failed]
    return RunSet(spec=spec, results=successes, parallel=used_pool, failures=failures)
