"""The ``service`` workload: ``repro-sim serve`` under a closed-loop client mix.

The server runs in its own process (``python -m repro.cli serve``, or
``serve.py`` when traced) with a store and ``SERVER_WORKERS`` threads.  This
process drives ``CLIENTS`` keep-alive connections, one thread each, and each
sends its next request only after the previous reply arrived.  The mix is an
unverified assumption (no real traffic log exists), drawn per iteration from
the seed:

* 75 %  ``run_warm``: ``POST /run`` of one of four pre-warmed specs (memory LRU);
* 12.5 % ``run_cold``: ``POST /run`` of a never-seen tiny spec (execute + store write);
* 12.5 % a session step: ``session_mutate`` (move one node) then ``session_run``
  on the moved network, on the connection's own session.

The end-to-end ``pass_s`` is the median time the service takes to complete
:data:`PASS_REQUESTS` consecutive requests of this mix, so it depends on the
weights.  Because the weights are guessed, the per-class medians are printed
beside it and reported by the traced run (``service.<class>.p50_ms``).

Every reply is gated after the timed window: statuses must be 2xx, ``/run``
payloads must equal a direct ``api.run`` of the same spec, and session runs
must equal ``api.run_on_network`` on a locally replayed copy of the session.
"""

from __future__ import annotations

import http.client
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from gate import Gate, body, canonical
from stats import highest_reportable, percentile
from tracer import Tracer, attribution, calls_by_name, total_time_by_name
from workloads import Context, Outcome, check_attribution

SERVER_WORKERS = 2
CLIENTS = 2
WARM_SPECS = 4
#: Request-class weights: provisional, since no traffic record supports them.
MIX = (("run_warm", 0.75), ("run_cold", 0.125), ("session", 0.125))
ROUTES = ("run_warm", "run_cold", "session_mutate", "session_run")
#: Requests per pass: ``pass_s`` is the median time between the completion of
#: request k * PASS_REQUESTS and of request (k + 1) * PASS_REQUESTS.
PASS_REQUESTS = 100
#: Single-hop disc: global broadcast must reach every node of it, so every
#: reply can be checked (sparse random placements may be disconnected).
TINY = {"nodes": 6, "radius": 0.5}
#: Session moves stay inside this square, which lies inside the disc.
MOVE_HALF_SIDE = 0.35


def tiny_spec(seed: int) -> Dict[str, Any]:
    """A fresh tiny global-broadcast spec: cheap to execute, so orchestration dominates."""
    from repro import api

    return api.RunSpec(
        deployment=api.DeploymentSpec("ball", TINY, seed=seed),
        algorithm=api.AlgorithmSpec("global-broadcast"),
    ).to_dict()


SESSION_ALGORITHM = {"name": "global-broadcast", "preset": "fast"}


class Server:
    """One service process; stopped (SIGINT, then SIGKILL) by :meth:`stop`."""

    def __init__(self, ctx: Context, store: Path, spans: Optional[Path] = None) -> None:
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--workers", str(SERVER_WORKERS), "--store", str(store)]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli"] + serve_args
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve.py")),
                       "--spans", str(spans)] + serve_args
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
        self.port = self._read_port(deadline=time.monotonic() + 60.0)

    def _read_port(self, deadline: float) -> int:
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            line = stream.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("service did not report its port")

    def peak_rss_mb(self) -> float:
        """The server process's high-water RSS (``VmHWM``), in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class Record:
    """One request: its class, client-side latency, status and what to verify."""

    route: str
    started: float
    latency: float
    status: int
    reply: Any
    spec: Optional[Dict[str, Any]] = None
    move: Optional[Tuple[int, List[float]]] = None


@dataclass
class Client:
    """One closed-loop connection with its own session and seeded op stream."""

    index: int
    session: str
    deployment: Dict[str, Any]
    uids: List[int]
    records: List[Record] = field(default_factory=list)


def _timed(client, route: str, method: str, path: str, payload, **extra) -> Record:
    started = time.perf_counter()
    try:
        status, _headers, reply = client.request(method, path, payload)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, reply = 599, {"error": repr(exc)}  # no reply: counted as a failed request
    return Record(route, started, time.perf_counter() - started, status, reply, **extra)


def setup_service(ctx: Context, store: Path, spans: Optional[Path] = None):
    """Start the server, wait for ``/health``, create sessions, warm the warm set."""
    from repro.service.client import ServiceClient

    server = Server(ctx, store, spans)
    try:
        admin = ServiceClient("127.0.0.1", server.port)
        if admin.health().get("status") != "ok":
            raise RuntimeError("service unhealthy")
        rng = ctx.rng("specs")
        warm = [tiny_spec(rng.randrange(2**31)) for _ in range(WARM_SPECS)]
        for spec in warm:
            admin.run(spec)
        clients = []
        for index in range(CLIENTS):
            deployment = {"kind": "ball", "params": dict(TINY),
                          "seed": rng.randrange(2**31), "backend": "dense"}
            name = f"s{index}"
            admin.create_session(name, deployment)
            uids = [node["uid"] for node in admin.session(name, nodes=True)["node_detail"]]
            clients.append(Client(index, name, deployment, uids))
        admin.close()
    except BaseException:
        server.stop()
        raise
    return server, warm, clients


def drive(ctx: Context, port: int, warm, clients: List[Client], seconds: float,
          stream: str) -> None:
    """Run every client's closed loop for ``seconds``."""
    from repro.service.client import ServiceClient

    deadline = time.perf_counter() + seconds

    def loop(client: Client) -> None:
        rng = ctx.rng(f"{stream}:client{client.index}")
        conn = ServiceClient("127.0.0.1", port)
        thresholds = []
        acc = 0.0
        for name, share in MIX:
            acc += share
            thresholds.append((acc, name))
        try:
            while time.perf_counter() < deadline:
                draw = rng.random()
                kind = next(name for limit, name in thresholds if draw < limit)
                if kind == "run_warm":
                    spec = warm[rng.randrange(len(warm))]
                    client.records.append(_timed(conn, "run_warm", "POST", "/run", {"spec": spec},
                                                 spec=spec))
                elif kind == "run_cold":
                    spec = tiny_spec(rng.randrange(2**31))
                    client.records.append(_timed(conn, "run_cold", "POST", "/run", {"spec": spec},
                                                 spec=spec))
                else:
                    uid = client.uids[rng.randrange(len(client.uids))]
                    xy = [rng.uniform(-MOVE_HALF_SIDE, MOVE_HALF_SIDE) for _ in range(2)]
                    client.records.append(_timed(
                        conn, "session_mutate", "POST", f"/sessions/{client.session}/mutate",
                        {"op": "move", "uids": [uid], "positions": [xy]}, move=(uid, xy)))
                    client.records.append(_timed(
                        conn, "session_run", "POST", f"/sessions/{client.session}/run",
                        {"algorithm": SESSION_ALGORITHM}))
        finally:
            conn.close()

    threads = [threading.Thread(target=loop, args=(c,), name=f"client{c.index}") for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")


def verify(clients: List[Client], gate: Gate) -> None:
    """Gate every recorded reply against a direct execution in this process."""
    from repro import api

    expected: Dict[str, str] = {}
    for client in clients:
        network = api.build_deployment(api.DeploymentSpec.from_dict(client.deployment))
        session_spec = api.RunSpec(
            deployment=api.DeploymentSpec.from_dict(client.deployment),
            algorithm=api.AlgorithmSpec.from_dict(SESSION_ALGORITHM),
        )
        for record in client.records:
            what = f"{record.route} by client {client.index}"
            ok_status = 200 <= record.status < 300
            if record.route == "session_mutate":
                gate.http(record.status, what)
                if ok_status:
                    uid, xy = record.move
                    network.move_nodes([uid], [xy])
                continue
            if not ok_status:
                gate.http(record.status, what)
                continue
            if record.route == "session_run":
                reference = canonical(body(api.run_on_network(network, session_spec).to_dict()))
            else:
                key = canonical(record.spec)
                if key not in expected:
                    direct = api.run(api.RunSpec.from_dict(record.spec))
                    expected[key] = canonical(body(direct.to_dict()))
                reference = expected[key]
            gate.result(record.reply.get("result") or {}, reference, what)


def pass_times(records: List[Record]) -> List[float]:
    """Seconds per block of :data:`PASS_REQUESTS` consecutive completions."""
    done = sorted(r.started + r.latency for r in records)
    return [done[k + PASS_REQUESTS] - done[k]
            for k in range(0, len(done) - PASS_REQUESTS, PASS_REQUESTS)]


def load_metrics(clients: List[Client]) -> Dict[str, Any]:
    """Median pass time, latency percentiles, class shares."""
    records = [r for c in clients for r in c.records]
    latencies = [r.latency if 200 <= r.status < 300 else float("inf") for r in records]
    passes = pass_times(records)
    if not passes:
        raise RuntimeError(f"only {len(records)} requests completed, fewer than one pass")
    by_route = {route: [lat for r, lat in zip(records, latencies) if r.route == route]
                for route in ROUTES}
    return {
        "pass_s": statistics.median(passes),
        "passes": len(passes),
        "p90": percentile(latencies, 90.0),
        "count": len(records),
        "top": (top := highest_reportable(len(records))),
        "top_value": percentile(latencies, top) if top else float("nan"),
        "counts": {route: len(v) for route, v in by_route.items()},
        "route_p50": {route: percentile(v, 50.0) for route, v in by_route.items() if v},
    }


def service(ctx: Context) -> Outcome:
    """Closed-loop load on ``repro-sim serve``; see the module docstring."""
    import repro.api  # noqa: F401
    from repro.service.client import ServiceClient

    ctx.work.mkdir(parents=True, exist_ok=True)
    gate = Gate()
    if ctx.trace:
        return _traced_service(ctx, gate)
    server, warm, clients = setup_service(ctx, ctx.work / "store")
    outcome = Outcome(gate=gate, setup_s=time.perf_counter() - ctx.started)
    try:
        drive(ctx, server.port, warm, clients, ctx.seconds, "timed")
        with ServiceClient("127.0.0.1", server.port) as admin:
            counters = admin.stats()["counters"]
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    verify(clients, gate)
    load = load_metrics(clients)
    outcome.metrics = {
        "pass_s": (load["pass_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome.notes.append(
        f"pass_s: median of {load['passes']} passes of {PASS_REQUESTS} requests; "
        "p50 per class: "
        + ", ".join(f"{k}={1000.0 * v:.2f} ms" for k, v in load["route_p50"].items())
    )
    outcome.notes.append(
        f"requests: {load['count']} (p90 {1000.0 * load['p90']:.2f} ms; highest percentile with "
        f"10 samples beyond: p{load['top']:g} = {1000.0 * load['top_value']:.2f} ms); "
        "per class (p50 samples, share): "
        + ", ".join(f"{k}={n} ({n / load['count']:.3f})" for k, n in load["counts"].items())
        + f"; server counters: 429={counters['rejected_429']}, "
        f"memory_hits={counters['cache_hits_memory']}"
    )
    return outcome


def _traced_service(ctx: Context, gate: Gate) -> Outcome:
    """Half the window on a plain server, half on a traced one (server spans)."""
    from repro.service.client import ServiceClient

    half = ctx.seconds / 2.0
    by_label, counters = {}, {}
    for label, spans in (("untraced", None), ("traced", ctx.work / "server-spans.json")):
        server, warm, clients = setup_service(ctx, ctx.work / f"store-{label}", spans)
        try:
            drive(ctx, server.port, warm, clients, half, label)
            with ServiceClient("127.0.0.1", server.port) as admin:
                counters[label] = admin.stats()["counters"]
        finally:
            server.stop()
        verify(clients, gate)
        by_label[label] = load_metrics(clients)
    load, counters = by_label["traced"], counters["traced"]
    tracer = Tracer.load(str(ctx.work / "server-spans.json"))
    total = total_time_by_name(tracer.spans)
    calls = calls_by_name(tracer.spans)
    executed = sum(total.get(name, 0.0) for name in
                   ("api.run", "api.run_on_network", "network.move_nodes"))
    handled = max(1, calls.get("service.handle", 0))
    loads = max(1, calls.get("store.load_result", 0))
    m: Dict[str, Tuple[float, str]] = {
        f"service.{route}.p50_ms": (1000.0 * p50, "ms") for route, p50 in load["route_p50"].items()
    }
    m["service.handle.self_ms"] = (1000.0 * (total.get("service.handle", 0.0) - executed) / handled,
                                   "ms")
    m["service.memory_hit_ratio"] = (counters["cache_hits_memory"] / max(1, counters["requests_total"]),
                                     "1")
    m["service.shed_429"] = (counters["rejected_429"], "count")
    m["network.move_nodes_s"] = (
        total.get("network.move_nodes", 0.0) / max(1, calls.get("network.move_nodes", 0)), "s")
    m["store.put_result.ms_per_call"] = (
        1000.0 * total.get("store.put_result", 0.0) / max(1, calls.get("store.put_result", 0)), "ms")
    m["store.load_result.ms_per_call"] = (1000.0 * total.get("store.load_result", 0.0) / loads, "ms")
    m["store.hit_ratio"] = (tracer.counters.get("store.load_result.hits", 0.0) / loads, "1")
    m["trace.overhead_ratio"] = (load["pass_s"] / by_label["untraced"]["pass_s"] - 1.0, "1")
    outcome = Outcome(gate=gate, metrics=m)
    # Executions run on the service's worker threads, outside the request's
    # context, so each is an op of its own.  Their wall time includes waits for
    # the GIL, which the event loop and the other worker hold and no layer
    # owns (single ops reached 0.91), so the total over all ops is gated.
    check_attribution(outcome, attribution(tracer.spans, ["api.run", "api.run_on_network"]),
                      per_op=False)
    return outcome


def setup_probe(ctx: Context) -> float:
    """One fresh-process set-up: server spawn, ``/health``, sessions, warm set."""
    import repro.api  # noqa: F401

    ctx.work.mkdir(parents=True, exist_ok=True)
    server, _warm, _clients = setup_service(ctx, ctx.work / "store")
    elapsed = time.perf_counter() - ctx.started
    server.stop()
    return elapsed
