"""Named, persistent simulation sessions: live networks behind the service.

A :class:`Session` owns one long-lived
:class:`~repro.sinr.network.WirelessNetwork` built from a
:class:`~repro.api.specs.DeploymentSpec`, and serializes every operation
against it -- algorithm runs, node moves, mobility steps -- through a
per-session :class:`asyncio.Lock`.  That lock is the whole concurrency
story: interleaved clients mutate and query the same network, but each
operation runs alone, so the observable history is always equal to *some*
serial order -- the order recorded in the session's :attr:`Session.log`
(``tests/test_service_sessions.py`` replays that log serially and pins
bit-identical results).

State is content-named: :meth:`Session.fingerprint` hashes the live
placement (uids, positions, ID space), and session runs are
cached in the experiment store under the base spec *tagged with that
fingerprint* (see :func:`repro.api.run_on_network`), so two clients asking
the same question about the same state share one stored artifact -- even
across service restarts that replay the same mutations.

:class:`SessionManager` is the name -> session map with a creation cap;
it hands out sessions for the HTTP layer (:mod:`repro.service.app`) and
renders the ``/sessions`` listings.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import Any, Dict, List

import numpy as np

from ..api.executor import build_deployment
from ..api.specs import DeploymentSpec

__all__ = [
    "Session",
    "SessionManager",
    "SessionNotFound",
    "network_fingerprint",
    "payload_digest",
    "replay_log",
]


class SessionNotFound(KeyError):
    """No session with the requested name (renders as HTTP 404)."""


def network_fingerprint(network: Any) -> str:
    """Content hash of a live network's algorithm-visible state (16 hex chars).

    Covers uids, positions and the ID space -- everything the registered
    algorithms read from a placement -- plus an all-awake flag block of
    length n.  Wake state belongs to one run's simulator, never to the
    network, so the block is constant; it stays in the hash because stored
    session runs are keyed by fingerprints that include it.  Two networks
    with equal fingerprints produce bit-identical run payloads, which lets
    session runs be cached per *state* and lets :func:`replay_log` verify a
    replayed trajectory took the same path.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(network.uid_array, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(network.positions, dtype=np.float64).tobytes())
    digest.update(np.ones(network.size, dtype=bool).tobytes())
    digest.update(str(int(network.id_space)).encode())
    return digest.hexdigest()[:16]


def payload_digest(payload: Dict[str, Any]) -> str:
    """Stable 16-hex-char digest of a deterministic result payload.

    The unit of the serializability property: two runs agree iff their
    payload digests agree (canonical JSON, so dict ordering is irrelevant).
    """
    from ..store.hashing import canonical_json

    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()[:16]


def replay_log(deployment: DeploymentSpec, log: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Serially re-execute a session op log on a fresh network.

    This is the reference semantics of a session: build the deployment,
    apply every logged operation in commit order -- ``move`` and ``step``
    exactly as the service applies them, ``run`` through
    :func:`repro.api.run_on_network` with no store -- and return one entry
    per op carrying the recomputed ``fingerprint`` (state before a run /
    after a mutation) and, for runs, the recomputed payload ``digest``.

    The serializability property test compares these against the live
    session's log: equality means the interleaved clients observed results
    bit-identical to this serial order.
    """
    from ..api.executor import run_on_network
    from ..api.registry import MOBILITY
    from ..api.specs import AlgorithmSpec, RunSpec

    network = build_deployment(deployment)
    replayed: List[Dict[str, Any]] = []
    for entry in log:
        op = entry["op"]
        if op == "move":
            network.move_nodes(entry["uids"], entry["positions"])
            replayed.append({"op": "move", "fingerprint": network_fingerprint(network)})
        elif op == "step":
            rng = np.random.default_rng(int(entry["seed"]))
            mobility = entry["mobility"]
            model = MOBILITY.get(mobility["kind"])(**(mobility.get("params") or {}))
            model.reset(network, rng)
            indices, new_xy = model.step(network, rng, 1)
            if len(indices):
                network.move_nodes(network.uid_array[indices], new_xy)
            replayed.append({"op": "step", "fingerprint": network_fingerprint(network)})
        elif op == "run":
            fingerprint = network_fingerprint(network)
            spec = RunSpec(
                deployment=deployment,
                algorithm=AlgorithmSpec.from_dict(entry["algorithm"]),
                tags={"session-state": fingerprint},
            )
            result = run_on_network(network, spec, store=None, cache="off")
            replayed.append(
                {"op": "run", "fingerprint": fingerprint,
                 "digest": payload_digest(result.payload())}
            )
        else:  # pragma: no cover - the service only logs the three ops
            raise ValueError(f"cannot replay unknown op {op!r}")
    return replayed


class Session:
    """One named, long-lived network plus its serialization lock and history.

    ``version`` counts applied mutations (not runs); ``log`` records every
    state-changing *and* result-producing operation in commit order, which
    is what makes the serializability property testable from outside.
    """

    def __init__(self, name: str, deployment: DeploymentSpec) -> None:
        self.name = str(name)
        self.deployment = deployment
        self.network = build_deployment(deployment)
        #: Serializes all operations against :attr:`network`; held across
        #: the worker-pool offload, so ops commit in lock-acquisition order.
        self.lock = asyncio.Lock()
        self.version = 0
        #: Commit-ordered operation history: dicts with ``op``, the op's
        #: arguments, and the post-op ``version`` (runs also record the
        #: result digest).  Bounded consumers should read it soon after
        #: the scenario ends; it grows with the session.
        self.log: List[Dict[str, Any]] = []
        self.created = time.time()
        self.last_used = self.created
        self.runs = 0
        self.cache_hits = 0

    def touch(self) -> None:
        """Record use (for the idle-session listing in ``/sessions``)."""
        self.last_used = time.time()

    def fingerprint(self) -> str:
        """Content hash of the live network state (16 hex chars).

        Used to tag session-run specs so the store caches per *state*, not
        per original deployment: any mutation changes the fingerprint and
        therefore the content address of subsequent runs.  See
        :func:`network_fingerprint` for what the hash covers.
        """
        return network_fingerprint(self.network)

    def record(self, op: str, detail: Dict[str, Any]) -> Dict[str, Any]:
        """Append one committed operation to the history; returns the entry."""
        entry = {"op": op, "version": self.version, **detail}
        self.log.append(entry)
        return entry

    def describe(self) -> Dict[str, Any]:
        """The JSON summary served by ``GET /sessions/<name>``."""
        return {
            "name": self.name,
            "deployment": self.deployment.to_dict(),
            "nodes": int(self.network.size),
            "version": self.version,
            "fingerprint": self.fingerprint(),
            "runs": self.runs,
            "cache_hits": self.cache_hits,
            "operations": len(self.log),
            "created": self.created,
            "last_used": self.last_used,
        }


class SessionManager:
    """The name -> :class:`Session` map, with a bounded population.

    Creation and deletion run under one asyncio lock (map mutations only --
    per-session work holds the session's own lock), so two concurrent
    creates of the same name cannot both win.
    """

    def __init__(self, max_sessions: int = 64) -> None:
        self.max_sessions = int(max_sessions)
        self._sessions: Dict[str, Session] = {}
        self._lock = asyncio.Lock()

    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, name: str) -> Session:
        """The named session; :class:`SessionNotFound` when absent."""
        try:
            return self._sessions[name]
        except KeyError:
            available = ", ".join(sorted(self._sessions)) or "(none)"
            raise SessionNotFound(
                f"no session named {name!r} (active sessions: {available})"
            ) from None

    async def create(self, name: str, deployment: DeploymentSpec) -> Session:
        """Create (and return) a fresh session; raises on duplicates/capacity.

        The network build itself is synchronous here -- callers offload the
        whole coroutine to keep the event loop responsive for large
        deployments.
        """
        async with self._lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists (delete it first)")
            if len(self._sessions) >= self.max_sessions:
                raise RuntimeError(
                    f"session capacity reached ({self.max_sessions}); delete one first"
                )
            session = Session(name, deployment)
            self._sessions[name] = session
            return session

    async def delete(self, name: str) -> None:
        """Remove the named session (waits for its in-flight op to finish)."""
        session = self.get(name)
        async with self._lock:
            async with session.lock:
                self._sessions.pop(name, None)

    def describe_all(self) -> List[Dict[str, Any]]:
        """Summaries of every session, sorted by name.

        Lock-free: only safe when no operation can be in flight (tests,
        single-threaded tooling).  The service uses
        :meth:`describe_all_locked`, which serializes each summary against
        that session's operations.
        """
        return [self._sessions[name].describe() for name in sorted(self._sessions)]

    async def describe_all_locked(self) -> List[Dict[str, Any]]:
        """Summaries of every session, each taken under its own lock.

        Serializing each summary against the session's in-flight operation
        keeps fingerprints consistent (never computed from a half-applied
        mutation running on a worker thread); sessions deleted while the
        listing is in progress are simply skipped.
        """
        summaries: List[Dict[str, Any]] = []
        for name in sorted(self._sessions):
            session = self._sessions.get(name)
            if session is None:
                continue
            async with session.lock:
                summaries.append(session.describe())
        return summaries

    def names(self) -> List[str]:
        """Sorted names of the active sessions."""
        return sorted(self._sessions)

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters for the ``/stats`` endpoint."""
        sessions = list(self._sessions.values())
        return {
            "active": len(sessions),
            "capacity": self.max_sessions,
            "runs": int(sum(s.runs for s in sessions)),
            "cache_hits": int(sum(s.cache_hits for s in sessions)),
            "mutations": int(sum(s.version for s in sessions)),
        }
