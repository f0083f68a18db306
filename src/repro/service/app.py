"""Simulation-as-a-service: the HTTP application over the executor and store.

:class:`SimulationService` turns the batch machinery of :mod:`repro.api`
into a long-lived service:

* **Stateless runs** -- ``POST /run`` takes a :class:`~repro.api.RunSpec`
  JSON payload (validated by :func:`repro.api.spec_from_request`, so a bad
  payload is a structured 400 naming every offending field) and executes it
  through :func:`repro.api.run` with the configured experiment store and
  ``cache="reuse"``: warm hits are served from an in-memory LRU or the
  store without simulating anything.
* **Streaming dynamic runs** -- a spec with a dynamics block answers as an
  NDJSON stream, one line per epoch *as it is simulated*
  (:func:`repro.dynamics.runner.iter_epochs` under the hood), with a
  trailing summary line; completed trajectories are persisted to the store
  like any other dynamic run.
* **Persistent sessions** -- ``POST /sessions`` materializes a named
  :class:`~repro.sinr.network.WirelessNetwork` that stays in memory;
  clients run algorithms against it (``POST /sessions/<name>/run``) and
  mutate it (``POST /sessions/<name>/mutate`` -- explicit moves or seeded
  mobility steps).  All operations on one session serialize through its
  lock, so concurrent clients observe results bit-identical to the serial
  replay of the session's committed op log.  Session runs are store-cached
  under the *state fingerprint*, so repeated queries about an unchanged
  network are warm hits too.
* **Bounded execution + backpressure** -- blocking simulation work runs on
  a bounded thread pool; when running + queued requests reach the
  configured limit the service answers ``429`` with a ``Retry-After``
  header instead of queueing unboundedly.  Per-request ``timeout=`` and
  ``retries=`` reuse the executor's failure vocabulary: an exhausted
  request body carries a :class:`~repro.api.FailedResult` payload
  (``kind`` of ``"timeout"`` or ``"exception"``, attempt count, traceback).
* **Introspection** -- ``GET /health`` (liveness + load), ``GET /stats``
  (request/cache/stream counters, per-session detail, store and
  work-queue status -- the JSON twin of ``repro-sim queue status --json``).

Start it from the shell with ``repro-sim serve`` or programmatically::

    service = SimulationService(ServiceConfig(store="results-store"))
    await service.start()        # binds; service.port has the real port
    ...
    await service.stop()
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Pattern, Tuple

import re

from .. import __version__
from ..api import executor as api_executor
from ..api.executor import FailedResult, RunResult
from ..api.registry import MOBILITY
from ..api.specs import AlgorithmSpec, DeploymentSpec, RunSpec
from ..api.supervisor import backoff_delay
from ..api.validation import (
    SpecValidationError,
    section_key_problems,
    spec_from_request,
    validate_spec,
)
from ..dynamics.runner import EpochSet, iter_epochs
from .http import HttpError, Request, Response, StreamingResponse, json_response, run_server
from .sessions import SessionManager, SessionNotFound, payload_digest

__all__ = ["ServiceConfig", "SimulationService"]


@dataclass
class ServiceConfig:
    """Tunables of one :class:`SimulationService` instance.

    ``store`` enables the content-addressed result cache (path or
    :class:`~repro.store.ExperimentStore`; ``None`` disables persistence
    and serves everything from memory/execution).  ``queue_limit`` bounds
    *admitted* work -- requests running on the worker pool plus requests
    waiting for a thread; past it the service sheds load with 429.
    ``timeout`` is the default per-request wall-clock budget (seconds;
    ``None`` = unbounded), overridable per request; ``retries`` likewise.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    store: Any = None
    cache: str = "reuse"
    max_workers: int = 4
    queue_limit: int = 32
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.05
    max_sessions: int = 64
    memory_cache_size: int = 256


_Route = Tuple[str, "Pattern[str]", Callable[..., Any]]


class SimulationService:
    """The asyncio HTTP service holding sessions, the worker pool and counters.

    One instance owns: a :class:`~repro.service.sessions.SessionManager`,
    a bounded :class:`~concurrent.futures.ThreadPoolExecutor` for blocking
    simulation work, an in-memory LRU over hot result payloads, and
    (optionally) an :class:`~repro.store.ExperimentStore` shared with every
    other process on the machine -- the store's own file locking makes that
    safe.  :meth:`handle` is transport-agnostic (the stdlib server in
    :mod:`repro.service.http` and the ASGI adapter in
    :mod:`repro.service.asgi` both drive it).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.sessions = SessionManager(max_sessions=self.config.max_sessions)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="repro-service"
        )
        self._store = None
        if self.config.store is not None and self.config.cache != "off":
            from ..store.store import resolve_store

            self._store = resolve_store(self.config.store)
        self._memory_cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._pending = 0
        self._started = time.time()
        self._server = None
        self.counters: Dict[str, int] = {
            "requests_total": 0,
            "runs_executed": 0,
            "cache_hits_memory": 0,
            "cache_hits_store": 0,
            "rejected_429": 0,
            "failures": 0,
            "streams_total": 0,
            "streams_active": 0,
            "epochs_streamed": 0,
        }
        self._routes: List[_Route] = [
            ("GET", re.compile(r"^/$"), self._get_index),
            ("GET", re.compile(r"^/health$"), self._get_health),
            ("GET", re.compile(r"^/stats$"), self._get_stats),
            ("POST", re.compile(r"^/validate$"), self._post_validate),
            ("POST", re.compile(r"^/run$"), self._post_run),
            ("GET", re.compile(r"^/sessions$"), self._get_sessions),
            ("POST", re.compile(r"^/sessions$"), self._post_sessions),
            ("GET", re.compile(r"^/sessions/(?P<name>[^/]+)$"), self._get_session),
            ("DELETE", re.compile(r"^/sessions/(?P<name>[^/]+)$"), self._delete_session),
            ("POST", re.compile(r"^/sessions/(?P<name>[^/]+)/run$"), self._post_session_run),
            ("POST", re.compile(r"^/sessions/(?P<name>[^/]+)/mutate$"), self._post_session_mutate),
        ]

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listening socket (``config.port``; 0 = ephemeral)."""
        self._server = await run_server(self.handle, self.config.host, self.config.port)

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral binds); 0 before :meth:`start`."""
        if self._server is None or not self._server.sockets:
            return 0
        return int(self._server.sockets[0].getsockname()[1])

    async def stop(self) -> None:
        """Close the listener and release the worker pool (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # Dispatch.
    # ------------------------------------------------------------------ #

    async def handle(self, request: Request):
        """Route one request; the only entry point transports call."""
        self.counters["requests_total"] += 1
        allowed: List[str] = []
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            try:
                return await handler(request, **match.groupdict())
            except HttpError:
                raise
            except SessionNotFound as exc:
                raise HttpError(404, str(exc.args[0] if exc.args else exc)) from exc
            except SpecValidationError as exc:
                raise HttpError(400, str(exc), payload={"problems": exc.problems}) from exc
        if allowed:
            raise HttpError(
                405,
                f"{request.method} not allowed for {request.path}",
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        raise HttpError(404, f"no such endpoint: {request.path}")

    # ------------------------------------------------------------------ #
    # Bounded offloading (backpressure + failure vocabulary).
    # ------------------------------------------------------------------ #

    def _admit(self) -> None:
        """Reserve one unit of pool capacity or shed load with 429.

        ``Retry-After`` is a whole-second estimate from the current depth:
        clients that honor it spread their retries instead of stampeding.
        """
        if self._pending >= self.config.queue_limit:
            self.counters["rejected_429"] += 1
            retry_after = max(1, round(self._pending * 0.1))
            raise HttpError(
                429,
                f"service saturated ({self._pending} requests in flight, "
                f"limit {self.config.queue_limit}); retry later",
                headers={"Retry-After": str(retry_after)},
            )
        self._pending += 1

    async def _offload(self, fn: Callable[[], Any], timeout: Optional[float]) -> Any:
        """Run blocking work on the bounded pool under an optional deadline.

        The capacity unit reserved by :meth:`_admit` is released when the
        *thread* finishes, not when the await ends: a timed-out request
        abandons its thread, and that thread keeps occupying capacity until
        it actually returns -- which is exactly what backpressure should
        see.  Raises :class:`asyncio.TimeoutError` past the deadline.
        """
        loop = asyncio.get_running_loop()
        future = self._pool.submit(fn)
        future.add_done_callback(lambda _f: self._release_threadsafe(loop))
        wrapped = asyncio.wrap_future(future, loop=loop)
        if timeout is None:
            return await wrapped
        try:
            return await asyncio.wait_for(wrapped, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise asyncio.TimeoutError from None

    async def _offload_draining(self, fn: Callable[[], Any], timeout: Optional[float]) -> Any:
        """Offload work whose thread must NEVER be abandoned (session ops).

        Session jobs read and mutate a shared :class:`WirelessNetwork`
        under the session lock, so the lock has to outlive the thread:
        abandoning a timed-out thread (as :meth:`_offload` does for
        stateless runs) would let it keep touching the network after the
        lock is released -- racing later operations and caching results
        under a fingerprint the state no longer matches.  Here a deadline
        overrun keeps awaiting the *same* future until the thread actually
        finishes, then raises :class:`asyncio.TimeoutError`.  Because the
        lock was held throughout, any side effect the overrunning job
        completed (e.g. a store write) still happened against unchanged
        state and remains correctly addressed.
        """
        loop = asyncio.get_running_loop()
        future = self._pool.submit(fn)
        future.add_done_callback(lambda _f: self._release_threadsafe(loop))
        wrapped = asyncio.wrap_future(future, loop=loop)
        if timeout is None:
            return await wrapped
        done, _pending = await asyncio.wait([wrapped], timeout=timeout)
        if done:
            return await wrapped
        try:
            await wrapped  # drain: the thread is still using the network
        except Exception:  # noqa: BLE001 - the request already timed out
            pass
        raise asyncio.TimeoutError

    def _release(self) -> None:
        self._pending = max(0, self._pending - 1)

    def _release_threadsafe(self, loop: asyncio.AbstractEventLoop) -> None:
        """Release one capacity unit from a worker thread's done-callback.

        An abandoned (timed-out) thread can outlive the event loop in
        teardown paths; a closed loop means nobody is accounting anymore,
        so the release is simply dropped.
        """
        try:
            loop.call_soon_threadsafe(self._release)
        except RuntimeError:
            pass

    async def _execute_with_policy(
        self, fn: Callable[[], Any], spec: RunSpec, timeout: Optional[float], retries: int,
        drain: bool = False,
    ) -> Any:
        """Attempt ``fn`` under the executor's retry/backoff/quarantine policy.

        Success returns ``fn``'s result.  Exhausted attempts return a
        :class:`~repro.api.FailedResult` (never raises), mirroring
        ``run_grid(on_error="retry")``: ``kind`` is ``"timeout"`` or
        ``"exception"``, ``attempts`` counts every try, ``message`` carries
        the last traceback.  Backoff reuses the supervisor's deterministic
        seeded jitter.

        ``drain=True`` routes attempts through :meth:`_offload_draining`
        (session ops on shared network state): a timed-out attempt is fully
        drained before the verdict -- and before any retry resubmits -- so
        at most one job ever touches the network at a time.
        """
        offload = self._offload_draining if drain else self._offload
        attempt = 1
        started = time.perf_counter()
        while True:
            self._admit()
            try:
                return await offload(fn, timeout)
            except asyncio.TimeoutError:
                kind, message = "timeout", (
                    f"request exceeded its {timeout}s budget on attempt {attempt}"
                )
            except Exception:
                kind, message = "exception", traceback.format_exc()
            if attempt <= retries:
                await asyncio.sleep(backoff_delay(self.config.backoff, attempt, spec.seed))
                attempt += 1
                continue
            self.counters["failures"] += 1
            return FailedResult(
                spec=spec, kind=kind, message=message, attempts=attempt,
                elapsed=time.perf_counter() - started,
            )

    def _failure_response(self, failure: FailedResult) -> Response:
        """Render a quarantined request: 504 for timeouts, 500 otherwise."""
        status = 504 if failure.kind == "timeout" else 500
        return json_response(
            {"error": failure.summary_line(), "failure": failure.to_dict()}, status=status
        )

    # ------------------------------------------------------------------ #
    # Request-option parsing.
    # ------------------------------------------------------------------ #

    def _run_options(self, body: Any) -> Tuple[str, Optional[float], int, bool]:
        """Extract (cache, timeout, retries, stream) from a request envelope."""
        if not isinstance(body, dict):
            return self.config.cache, self.config.timeout, self.config.retries, True
        cache = body.get("cache", self.config.cache)
        if cache not in ("reuse", "refresh", "off"):
            raise HttpError(400, f"cache must be reuse, refresh or off; got {cache!r}")
        timeout = body.get("timeout", self.config.timeout)
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise HttpError(400, f"timeout must be a number of seconds; got {timeout!r}") from None
            if timeout <= 0:
                raise HttpError(400, f"timeout must be positive; got {timeout!r}")
        try:
            retries = int(body.get("retries", self.config.retries))
        except (TypeError, ValueError):
            raise HttpError(400, f"retries must be an integer; got {body.get('retries')!r}") from None
        if retries < 0:
            raise HttpError(400, f"retries must be >= 0; got {retries}")
        stream = bool(body.get("stream", True))
        return cache, timeout, retries, stream

    # ------------------------------------------------------------------ #
    # Memory cache.
    # ------------------------------------------------------------------ #

    def _memory_get(self, key: str) -> Optional[Dict[str, Any]]:
        cached = self._memory_cache.get(key)
        if cached is not None:
            self._memory_cache.move_to_end(key)
            self.counters["cache_hits_memory"] += 1
        return cached

    def _memory_put(self, key: str, payload: Dict[str, Any]) -> None:
        self._memory_cache[key] = payload
        self._memory_cache.move_to_end(key)
        while len(self._memory_cache) > self.config.memory_cache_size:
            self._memory_cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Introspection endpoints.
    # ------------------------------------------------------------------ #

    async def _get_index(self, request: Request) -> Response:
        """``GET /``: service banner + endpoint directory."""
        return json_response(
            {
                "service": "repro-sinr simulation service",
                "version": __version__,
                "endpoints": sorted(
                    f"{method} {pattern.pattern.strip('^$')}"
                    for method, pattern, _ in self._routes
                ),
            }
        )

    async def _get_health(self, request: Request) -> Response:
        """``GET /health``: liveness plus instantaneous load figures."""
        return json_response(
            {
                "status": "ok",
                "uptime_s": time.time() - self._started,
                "sessions": len(self.sessions),
                "pending": self._pending,
                "queue_limit": self.config.queue_limit,
                "streams_active": self.counters["streams_active"],
            }
        )

    async def _get_stats(self, request: Request) -> Response:
        """``GET /stats``: counters, session detail, store and queue status."""
        stats: Dict[str, Any] = {
            "service": {
                "version": __version__,
                "uptime_s": time.time() - self._started,
                "pending": self._pending,
                "queue_limit": self.config.queue_limit,
                "workers": self.config.max_workers,
            },
            "counters": dict(self.counters),
            "memory_cache": {
                "entries": len(self._memory_cache),
                "capacity": self.config.memory_cache_size,
            },
            "sessions": self.sessions.stats(),
        }
        if self._store is not None:
            from ..distributed.coordinator import queue_status

            stats["store"] = {"root": str(self._store.root), "entries": len(self._store)}
            # The same machine-readable snapshot `repro-sim queue status
            # --json` prints, so external monitors need only one format.
            stats["queues"] = queue_status(self._store)
        return json_response(stats)

    async def _post_validate(self, request: Request) -> Response:
        """``POST /validate``: all problems with a spec payload, without running it."""
        payload = request.json()
        try:
            spec = spec_from_request(payload, check_registries=False)
        except SpecValidationError as exc:
            return json_response({"valid": False, "problems": exc.problems})
        problems = validate_spec(spec)
        return json_response({"valid": not problems, "problems": problems})

    # ------------------------------------------------------------------ #
    # Stateless runs.
    # ------------------------------------------------------------------ #

    async def _post_run(self, request: Request):
        """``POST /run``: execute a RunSpec payload (streaming when dynamic)."""
        body = request.json()
        spec = spec_from_request(body)
        cache, timeout, retries, stream = self._run_options(body)
        if spec.dynamics is not None:
            if stream:
                return await self._stream_dynamic(spec, cache)
            return await self._dynamic_block(spec, cache, timeout, retries)
        return await self._static_run(spec, cache, timeout, retries)

    def _spec_key(self, spec: RunSpec) -> str:
        from ..store.hashing import spec_key

        return spec_key(spec)

    async def _static_run(
        self, spec: RunSpec, cache: str, timeout: Optional[float], retries: int
    ) -> Response:
        """Static-spec execution: memory LRU -> store -> bounded pool."""
        key = self._spec_key(spec)
        if cache == "reuse":
            hit = self._memory_get(key)
            if hit is not None:
                return json_response(dict(hit, cached=True, cache="memory"))
        store = self._store if cache != "off" else None

        def job() -> RunResult:
            return api_executor.run(spec, keep_raw=False, store=store, cache=cache)

        outcome = await self._execute_with_policy(job, spec, timeout, retries)
        if isinstance(outcome, FailedResult):
            return self._failure_response(outcome)
        self.counters["runs_executed"] += 1
        if outcome.cached:
            self.counters["cache_hits_store"] += 1
        payload = {"result": outcome.to_dict(), "cached": outcome.cached,
                   "cache": "store" if outcome.cached else None}
        if cache != "off":
            self._memory_put(key, {"result": payload["result"]})
        return json_response(payload)

    # ------------------------------------------------------------------ #
    # Dynamic runs (streaming).
    # ------------------------------------------------------------------ #

    async def _dynamic_block(
        self, spec: RunSpec, cache: str, timeout: Optional[float], retries: int
    ) -> Response:
        """Non-streaming dynamic run: the whole EpochSet JSON in one body.

        The store probe happens up front (exactly like the streaming path)
        so a warm hit is both served without occupying a worker thread and
        reported honestly as ``"cached": true``.
        """
        store = self._store if cache != "off" else None
        if store is not None and cache == "reuse":
            hit = store.load_epochs(spec)
            if hit is not None:
                self.counters["cache_hits_store"] += 1
                return json_response({"trajectory": hit.to_dict(), "cached": True})

        def job() -> EpochSet:
            return api_executor.run_dynamic(spec, store=store, cache=cache)

        outcome = await self._execute_with_policy(job, spec, timeout, retries)
        if isinstance(outcome, FailedResult):
            return self._failure_response(outcome)
        self.counters["runs_executed"] += 1
        return json_response({"trajectory": outcome.to_dict(), "cached": False})

    async def _stream_dynamic(self, spec: RunSpec, cache: str) -> StreamingResponse:
        """NDJSON stream: header line, one line per epoch, summary line.

        Epoch lines are emitted the moment each epoch finishes simulating
        (warm store hits replay the stored trajectory through the same
        framing, flagged ``"cached": true`` in the header).  Errors inside
        the producer become a final ``{"error": ...}`` line -- the status
        line has already been sent, so in-band is the only channel left.
        """
        store = self._store if cache != "off" else None
        cached_epochs: Optional[EpochSet] = None
        if store is not None and cache == "reuse":
            cached_epochs = store.load_epochs(spec)
            if cached_epochs is not None:
                self.counters["cache_hits_store"] += 1
        queue: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()

        def emit(item: Tuple[str, Any]) -> None:
            coro = queue.put(item)
            try:
                asyncio.run_coroutine_threadsafe(coro, loop).result()
            except RuntimeError:
                coro.close()  # loop torn down mid-stream; drop the frame

        def producer() -> None:
            try:
                if cached_epochs is not None:
                    for result in cached_epochs.results:
                        emit(("epoch", result.to_dict()))
                    emit(("summary", cached_epochs.summary()))
                    return
                results = []
                for result in iter_epochs(spec):
                    results.append(result)
                    emit(("epoch", result.to_dict()))
                epochs = EpochSet(spec=spec, results=results)
                if store is not None:
                    store.put_epochs(epochs, overwrite=(cache == "refresh"))
                emit(("summary", epochs.summary()))
            except Exception as exc:  # noqa: BLE001 - reported in-band
                emit(("error", f"{type(exc).__name__}: {exc}"))
            finally:
                emit(("end", None))

        self._admit()
        self.counters["streams_total"] += 1
        future = self._pool.submit(producer)
        future.add_done_callback(lambda _f: self._release_threadsafe(loop))

        async def chunks():
            # The increment lives inside the generator, paired with the
            # decrement in its finally: a client that disconnects before the
            # response head is even flushed closes the generator *unstarted*,
            # which skips finally blocks -- counting from out here would leak
            # streams_active upward forever.
            self.counters["streams_active"] += 1
            try:
                header = {
                    "spec": spec.to_dict(),
                    "epochs": spec.dynamics.epochs,
                    "cached": cached_epochs is not None,
                }
                yield (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
                while True:
                    kind, payload = await queue.get()
                    if kind == "end":
                        break
                    if kind == "error":
                        yield (json.dumps({"error": payload}) + "\n").encode("utf-8")
                        break
                    if kind == "epoch":
                        self.counters["epochs_streamed"] += 1
                    yield (json.dumps({kind: payload}, sort_keys=True) + "\n").encode("utf-8")
            finally:
                self.counters["streams_active"] -= 1

        return StreamingResponse(chunks=chunks())

    # ------------------------------------------------------------------ #
    # Sessions.
    # ------------------------------------------------------------------ #

    async def _get_sessions(self, request: Request) -> Response:
        """``GET /sessions``: summaries of every active session."""
        return json_response({"sessions": await self.sessions.describe_all_locked()})

    async def _post_sessions(self, request: Request) -> Response:
        """``POST /sessions``: create a named session from a DeploymentSpec."""
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        name = body.get("name")
        if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z0-9._-]{1,64}", name):
            raise HttpError(
                400, "name must be 1-64 characters of [A-Za-z0-9._-]"
            )
        deployment_data = body.get("deployment")
        if not isinstance(deployment_data, dict):
            raise HttpError(400, "deployment: required section is missing")
        problems = section_key_problems("deployment", deployment_data)
        if problems:
            raise SpecValidationError(problems)
        # Route the deployment through the spec adapter's registry checks by
        # validating a synthetic spec around it.
        try:
            deployment = DeploymentSpec.from_dict(deployment_data)
        except (TypeError, ValueError, KeyError) as exc:
            raise HttpError(400, f"deployment: {exc}") from exc
        probe = RunSpec(deployment=deployment, algorithm=AlgorithmSpec("cluster"))
        problems = [p for p in validate_spec(probe) if p.startswith("deployment")]
        if problems:
            raise SpecValidationError(problems)
        try:
            session = await self.sessions.create(name, deployment)
        except ValueError as exc:
            raise HttpError(409, str(exc)) from exc
        except RuntimeError as exc:
            raise HttpError(503, str(exc)) from exc
        async with session.lock:  # the name is published; another client may already be operating
            created = session.describe()
        return json_response(created, status=201)

    async def _get_session(self, request: Request, name: str) -> Response:
        """``GET /sessions/<name>``: state summary.

        ``?log=1`` appends the commit-ordered op history; ``?nodes=1``
        appends per-node detail (uid, position) -- how clients
        discover which uids exist before issuing a move.  The read runs
        under the session lock: a mutation executing concurrently on a
        worker thread must never yield torn positions or a fingerprint
        that matches neither the before- nor the after-state.
        """
        session = self.sessions.get(name)
        async with session.lock:
            data = session.describe()
            if request.query.get("log") in ("1", "true", "yes"):
                data["log"] = list(session.log)
            if request.query.get("nodes") in ("1", "true", "yes"):
                network = session.network
                data["node_detail"] = [
                    {"uid": uid, "position": position}
                    for uid, position in zip(network.uids, network.positions.tolist())
                ]
        return json_response(data)

    async def _delete_session(self, request: Request, name: str) -> Response:
        """``DELETE /sessions/<name>``: drop the session and its network."""
        await self.sessions.delete(name)
        return json_response({"deleted": name})

    async def _post_session_run(self, request: Request, name: str) -> Response:
        """``POST /sessions/<name>/run``: run an algorithm on the live network.

        The run executes under the session lock (serialized against
        mutations) and is cached under the base deployment spec tagged with
        the state fingerprint: an unchanged session answers repeat queries
        from the store or memory without simulating.
        """
        session = self.sessions.get(name)
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("algorithm"), dict):
            raise HttpError(400, "algorithm: required section is missing")
        problems = section_key_problems("algorithm", body["algorithm"])
        if problems:
            raise SpecValidationError(problems)
        try:
            algorithm = AlgorithmSpec.from_dict(body["algorithm"])
        except (TypeError, ValueError, KeyError) as exc:
            raise HttpError(400, f"algorithm: {exc}") from exc
        cache, timeout, retries, _stream = self._run_options(body)
        async with session.lock:
            fingerprint = session.fingerprint()
            spec = RunSpec(
                deployment=session.deployment,
                algorithm=algorithm,
                tags={"session-state": fingerprint},
            )
            problems = validate_spec(spec)
            if problems:
                raise SpecValidationError(problems)
            key = self._spec_key(spec)
            cached_payload = self._memory_get(key) if cache == "reuse" else None
            if cached_payload is not None:
                session.cache_hits += 1
                result_dict = cached_payload["result"]
                digest = payload_digest(
                    {k: result_dict[k] for k in ("spec", "rounds", "checks", "metrics", "details")}
                )
                response = dict(cached_payload, cached=True, cache="memory",
                                fingerprint=fingerprint, version=session.version)
            else:
                store = self._store if cache != "off" else None
                network = session.network

                def job() -> RunResult:
                    return api_executor.run_on_network(network, spec, store=store, cache=cache)

                # drain=True: the job runs on the live session network, so a
                # timed-out attempt must finish before the lock is released
                # (or a retry resubmits) -- see _offload_draining.
                outcome = await self._execute_with_policy(job, spec, timeout, retries, drain=True)
                if isinstance(outcome, FailedResult):
                    return self._failure_response(outcome)
                session.runs += 1
                if outcome.cached:
                    session.cache_hits += 1
                    self.counters["cache_hits_store"] += 1
                self.counters["runs_executed"] += 1
                digest = payload_digest(outcome.payload())
                if cache != "off":
                    self._memory_put(key, {"result": outcome.to_dict()})
                response = {
                    "result": outcome.to_dict(),
                    "cached": outcome.cached,
                    "cache": "store" if outcome.cached else None,
                    "fingerprint": fingerprint,
                    "version": session.version,
                }
            session.record(
                "run",
                {"algorithm": algorithm.to_dict(), "fingerprint": fingerprint, "digest": digest},
            )
            session.touch()
        response["digest"] = digest
        return json_response(response)

    async def _post_session_mutate(self, request: Request, name: str) -> Response:
        """``POST /sessions/<name>/mutate``: move nodes or apply a mobility step.

        Two deterministic operations, both serialized under the session
        lock and recorded in the op log (the replay contract):

        * ``{"op": "move", "uids": [...], "positions": [[x, y], ...]}`` --
          explicit placement;
        * ``{"op": "step", "mobility": {"kind": ..., "params": {...}},
          "seed": int}`` -- one step of a seeded mobility model from the
          current placement.
        """
        session = self.sessions.get(name)
        body = request.json()
        op = body.get("op") if isinstance(body, dict) else None
        if op not in ("move", "step"):
            raise HttpError(400, f"op must be 'move' or 'step'; got {op!r}")
        async with session.lock:
            network = session.network
            if op == "move":
                uids = body.get("uids")
                positions = body.get("positions")
                if not isinstance(uids, list) or not isinstance(positions, list):
                    raise HttpError(400, "move needs 'uids' (list) and 'positions' (list of [x, y])")
                if len(uids) != len(positions):
                    raise HttpError(
                        400, f"uids ({len(uids)}) and positions ({len(positions)}) differ in length"
                    )
                try:
                    requested = [int(u) for u in uids]
                except (TypeError, ValueError):
                    raise HttpError(400, f"uids must be integers; got {uids!r}") from None
                known = set(int(u) for u in network.uid_array.tolist())
                unknown = [u for u in requested if u not in known]
                if unknown:
                    raise HttpError(400, f"unknown uids: {unknown[:8]}")

                def job() -> int:
                    network.move_nodes(uids, positions)
                    return len(uids)

                detail: Dict[str, Any] = {"uids": list(uids), "positions": list(positions)}
            else:
                mobility = body.get("mobility")
                if not isinstance(mobility, dict) or "kind" not in mobility:
                    raise HttpError(400, "step needs 'mobility': {'kind': ..., 'params': {...}}")
                kind = mobility["kind"]
                try:
                    factory = MOBILITY.get(str(kind))
                except KeyError as exc:
                    raise HttpError(400, str(exc)) from exc
                params = mobility.get("params") or {}
                try:
                    seed = int(body.get("seed", 0))
                except (TypeError, ValueError):
                    raise HttpError(400, f"seed must be an integer; got {body.get('seed')!r}") from None

                def job() -> int:
                    import numpy as np

                    rng = np.random.default_rng(seed)
                    model = factory(**params)
                    model.reset(network, rng)
                    indices, new_xy = model.step(network, rng, 1)
                    if len(indices):
                        network.move_nodes(network.uid_array[indices], new_xy)
                    return int(len(indices))

                detail = {"mobility": {"kind": str(kind), "params": dict(params)}, "seed": seed}
            self._admit()
            try:
                # Mutations always run to completion: abandoning the thread
                # on a deadline would leave it mutating the network after the
                # lock is released, and a mutation that committed anyway must
                # be recorded or the op log stops replaying to the live state.
                moved = await self._offload_draining(job, None)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"mutation rejected: {exc}") from exc
            session.version += 1
            entry = session.record(op, dict(detail, moved=moved))
            session.touch()
            fingerprint = session.fingerprint()
        return json_response(
            {"session": name, "op": op, "moved": moved, "version": entry["version"],
             "fingerprint": fingerprint}
        )
