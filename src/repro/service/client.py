"""A small blocking client for the simulation service (stdlib only).

:class:`ServiceClient` wraps :class:`http.client.HTTPConnection` with
keep-alive reuse, JSON encoding/decoding and typed errors, and exposes one
method per service endpoint.  It is what the test suite and the load-test
harness (``benchmarks/bench_service_api.py``) drive the service with, and
doubles as the reference for writing clients in other stacks::

    client = ServiceClient("127.0.0.1", port)
    client.create_session("demo", {"kind": "uniform", "params": {"nodes": 40}})
    out = client.session_run("demo", {"name": "local-broadcast", "preset": "fast"})
    for line in client.run_stream(dynamic_spec_dict):   # NDJSON, incremental
        print(line.get("epoch", line))

Streaming responses (:meth:`run_stream`) arrive line by line *while the
server is still simulating later epochs*; each line is one decoded JSON
object (a header, then ``{"epoch": ...}`` lines, then ``{"summary": ...}``).
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx service response, with the decoded error body attached.

    ``status`` is the HTTP status; ``payload`` the JSON error body;
    ``retry_after`` the parsed ``Retry-After`` seconds when the service
    shed the request with 429 (``None`` otherwise) -- callers doing their
    own backpressure handling branch on it.
    """

    def __init__(self, status: int, payload: Dict[str, Any],
                 retry_after: Optional[float] = None) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = int(status)
        self.payload = payload
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSON client with a persistent keep-alive connection.

    One instance owns (at most) one TCP connection and is **not**
    thread-safe; concurrent load generators create one client per worker
    thread.  The connection is (re)opened lazily and transparently after
    the server closes it (streams and errors close connections).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 60.0) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Transport.
    # ------------------------------------------------------------------ #

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, str], Any]:
        """One request/response exchange: ``(status, headers, decoded body)``.

        Retries exactly once on a stale keep-alive connection (the server
        may have closed it between requests); JSON bodies are decoded,
        anything else comes back as raw bytes.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                break
            except (ConnectionError, BrokenPipeError, OSError):
                self.close()
                if attempt == 2:
                    raise
        data = response.read()
        response_headers = {k.lower(): v for k, v in response.getheaders()}
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        decoded: Any = data
        if "json" in response_headers.get("content-type", ""):
            decoded = json.loads(data.decode("utf-8")) if data else {}
        return response.status, response_headers, decoded

    def _json(self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
              expect: Tuple[int, ...] = (200, 201)) -> Any:
        status, headers, decoded = self.request(method, path, body)
        if status not in expect:
            retry_after = None
            if "retry-after" in headers:
                try:
                    retry_after = float(headers["retry-after"])
                except ValueError:
                    retry_after = None
            raise ServiceError(status, decoded if isinstance(decoded, dict) else {}, retry_after)
        return decoded

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #

    def health(self) -> Dict[str, Any]:
        """``GET /health``."""
        return self._json("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``."""
        return self._json("GET", "/stats")

    def validate(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /validate``: ``{"valid": bool, "problems": [...]}``."""
        return self._json("POST", "/validate", spec)

    # ------------------------------------------------------------------ #
    # Stateless runs.
    # ------------------------------------------------------------------ #

    def run(self, spec: Dict[str, Any], **options: Any) -> Dict[str, Any]:
        """``POST /run`` for a static spec; options merge into the envelope.

        Recognized options: ``cache`` (``"reuse"``/``"refresh"``/``"off"``),
        ``timeout`` (seconds), ``retries`` (int), ``stream=False`` to get a
        dynamic run as one JSON body instead of a stream.
        """
        return self._json("POST", "/run", {"spec": spec, **options})

    def run_stream(self, spec: Dict[str, Any], **options: Any) -> Iterator[Dict[str, Any]]:
        """``POST /run`` for a dynamic spec, yielding NDJSON lines as they land.

        A dedicated connection is used (the server closes it after the
        stream); each yielded value is one decoded JSON object.  The
        iterator finishing without a ``summary`` line means the stream was
        cut short -- callers treat the in-band ``{"error": ...}`` line as
        the failure signal.
        """
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        payload = json.dumps({"spec": spec, **options}).encode("utf-8")
        try:
            conn.request("POST", "/run", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status != 200:
                data = response.read()
                decoded = json.loads(data.decode("utf-8")) if data else {}
                raise ServiceError(response.status, decoded)
            for raw_line in response:
                line = raw_line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # Sessions.
    # ------------------------------------------------------------------ #

    def create_session(self, name: str, deployment: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /sessions``: materialize a named live network."""
        return self._json("POST", "/sessions", {"name": name, "deployment": deployment})

    def sessions(self) -> List[Dict[str, Any]]:
        """``GET /sessions``: summaries of all active sessions."""
        return self._json("GET", "/sessions")["sessions"]

    def session(self, name: str, log: bool = False, nodes: bool = False) -> Dict[str, Any]:
        """``GET /sessions/<name>``.

        ``log=True`` includes the commit-ordered op history; ``nodes=True``
        includes per-node detail (uid, position) -- the way to learn
        valid uids before :meth:`move_nodes`.
        """
        flags = [flag for flag, on in (("log=1", log), ("nodes=1", nodes)) if on]
        suffix = "?" + "&".join(flags) if flags else ""
        return self._json("GET", f"/sessions/{name}{suffix}")

    def delete_session(self, name: str) -> Dict[str, Any]:
        """``DELETE /sessions/<name>``."""
        return self._json("DELETE", f"/sessions/{name}")

    def session_run(self, name: str, algorithm: Dict[str, Any], **options: Any) -> Dict[str, Any]:
        """``POST /sessions/<name>/run``: run an algorithm on the live network."""
        return self._json("POST", f"/sessions/{name}/run", {"algorithm": algorithm, **options})

    def move_nodes(self, name: str, uids: Sequence[int],
                   positions: Sequence[Sequence[float]]) -> Dict[str, Any]:
        """``POST /sessions/<name>/mutate`` with an explicit move op."""
        return self._json(
            "POST", f"/sessions/{name}/mutate",
            {"op": "move", "uids": list(uids),
             "positions": [list(p) for p in positions]},
        )

    def step(self, name: str, mobility: Dict[str, Any], seed: int = 0) -> Dict[str, Any]:
        """``POST /sessions/<name>/mutate`` with a seeded mobility step."""
        return self._json(
            "POST", f"/sessions/{name}/mutate",
            {"op": "step", "mobility": mobility, "seed": int(seed)},
        )
