"""Service-layer tests: endpoints, caching, streaming, backpressure, failures.

The acceptance-critical scenarios:

* responses are payload-identical to direct ``api.run`` execution (the
  service is a transport, never a different answer);
* a dynamic run STREAMS: the client owns the first epoch line while the
  server is still simulating later epochs (pinned via a gate inside a
  registered algorithm);
* a saturated service answers 429 with a ``Retry-After`` header;
* a request over its ``timeout=`` budget answers 504 carrying a
  ``FailedResult`` payload with ``kind == "timeout"``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.service import ServiceConfig, ServiceError
from repro.service.asgi import create_asgi_app
from repro.service.http import HttpError, Request, json_response
from repro.store import ExperimentStore
from repro.testing import ServiceHarness

pytestmark = pytest.mark.service


def spec_dict(seed: int = 3, nodes: int = 24) -> dict:
    return {
        "deployment": {"kind": "uniform", "params": {"nodes": nodes, "area": 2.0}, "seed": seed},
        "algorithm": {"name": "local-broadcast", "preset": "fast"},
    }


def dynamic_spec_dict(seed: int = 3, epochs: int = 3) -> dict:
    data = spec_dict(seed)
    data["dynamics"] = {
        "mobility": {"kind": "waypoint", "params": {"speed": 0.05}},
        "epochs": epochs,
    }
    return data


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    store = tmp_path_factory.mktemp("service") / "store"
    with ServiceHarness(ServiceConfig(port=0, store=str(store))) as h:
        yield h


@pytest.fixture()
def client(harness):
    c = harness.client()
    yield c
    c.close()


class TestBasicEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_limit"] > 0

    def test_index_lists_endpoints(self, client):
        status, _, body = client.request("GET", "/")
        assert status == 200
        assert any("/run" in e for e in body["endpoints"])

    def test_unknown_path_is_404(self, client):
        status, _, body = client.request("GET", "/nope")
        assert status == 404
        assert "error" in body

    def test_wrong_method_is_405_with_allow(self, client):
        status, headers, _ = client.request("PUT", "/run")
        assert status == 405
        assert "POST" in headers["allow"]

    def test_malformed_json_is_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port)
        conn.request("POST", "/run", body=b"{not json", headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        conn.close()

    def test_stats_exposes_counters_and_queues(self, client):
        stats = client.stats()
        assert "requests_total" in stats["counters"]
        assert stats["sessions"]["capacity"] > 0
        # Store attached => the queue_status snapshot is present (the same
        # payload `repro-sim queue status --json` prints).
        assert "queues" in stats
        assert "root" in stats["store"]


class TestValidation:
    def test_valid_spec(self, client):
        out = client.validate({"spec": spec_dict()})
        assert out == {"valid": True, "problems": []}

    def test_unknown_names_are_all_reported(self, client):
        out = client.validate(
            {"deployment": {"kind": "hexagon"}, "algorithm": {"name": "nope"}}
        )
        assert out["valid"] is False
        assert len(out["problems"]) == 2
        assert any("hexagon" in p for p in out["problems"])
        assert any("nope" in p for p in out["problems"])

    def test_bad_run_payload_is_structured_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.run({"deployment": {"kind": "hexagon"}, "algorithm": {"name": "nope"}})
        assert err.value.status == 400
        assert len(err.value.payload["problems"]) == 2

    def test_missing_sections_are_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.run({"algorithm": {"name": "cluster"}})
        assert err.value.status == 400

    def test_top_level_seed_is_rejected_not_ignored(self, client):
        # deployment.seed is where the placement seed lives; a stray
        # top-level "seed" must be a loud 400, never a silently different
        # experiment.
        bad = spec_dict()
        bad["seed"] = 7
        with pytest.raises(ServiceError) as err:
            client.run(bad)
        assert err.value.status == 400
        assert any("deployment.seed" in p for p in err.value.payload["problems"])

    @pytest.mark.parametrize(
        "section, key, value",
        [("deployment", "sed", 3),
         ("deployment", "backend_params", {"gain_dtype": "float32"}),
         ("algorithm", "overide", {"rounds": 1})],
    )
    def test_unknown_section_key_is_400_on_run(self, client, section, key, value):
        # A dropped key would run a different experiment (seed 0, the
        # default backend, the preset config) than the client asked for.
        bad = spec_dict()
        bad[section][key] = value
        with pytest.raises(ServiceError) as err:
            client.run(bad)
        assert err.value.status == 400
        assert err.value.payload["problems"] == [f"spec.{section}.{key}: unknown key"]

    @pytest.mark.parametrize(
        "key, value", [("sed", 3), ("backend_params", {"gain_dtype": "float32"})]
    )
    def test_unknown_deployment_key_is_400_on_session_create(self, client, key, value):
        deployment = dict(spec_dict()["deployment"], **{key: value})
        with pytest.raises(ServiceError) as err:
            client.create_session("stale-keys", deployment)
        assert err.value.status == 400
        assert err.value.payload["problems"] == [f"spec.deployment.{key}: unknown key"]
        assert all(s["name"] != "stale-keys" for s in client.sessions())

    def test_unknown_algorithm_key_is_400_on_session_run(self, client):
        client.create_session("typo-run", spec_dict(nodes=8)["deployment"])
        try:
            algorithm = dict(spec_dict()["algorithm"], overide={"rounds": 1})
            with pytest.raises(ServiceError) as err:
                client.session_run("typo-run", algorithm)
            assert err.value.status == 400
            assert err.value.payload["problems"] == ["spec.algorithm.overide: unknown key"]
        finally:
            client.delete_session("typo-run")


class TestRunEndpoint:
    def test_response_payload_identical_to_direct_execution(self, client):
        served = client.run(spec_dict(seed=17))["result"]
        direct = api.run(api.RunSpec.from_dict(spec_dict(seed=17)), keep_raw=False)
        # Compare the deterministic payload: everything but timing.
        served.pop("elapsed")
        assert served == json.loads(json.dumps(direct.payload()))

    def test_second_request_is_cached(self, client):
        spec = spec_dict(seed=18)
        cold = client.run(spec)
        warm = client.run(spec)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["cache"] in ("memory", "store")
        assert warm["result"]["rounds"] == cold["result"]["rounds"]

    def test_cache_off_executes_fresh(self, client):
        spec = spec_dict(seed=19)
        client.run(spec)
        fresh = client.run(spec, cache="off")
        assert fresh["cached"] is False

    def test_store_hit_survives_service_restart(self, harness, tmp_path):
        # A second service over the same store answers warm immediately.
        spec = spec_dict(seed=20)
        harness.client().run(spec)
        with ServiceHarness(
            ServiceConfig(port=0, store=str(harness.service._store.root))
        ) as second:
            warm = second.client().run(spec)
        assert warm["cached"] is True
        assert warm["cache"] == "store"


class TestTimeoutsAndFailures:
    def test_timeout_is_504_failed_result(self, client):
        big = spec_dict(seed=21, nodes=220)
        with pytest.raises(ServiceError) as err:
            client.run(big, timeout=0.01, cache="off")
        assert err.value.status == 504
        failure = err.value.payload["failure"]
        assert failure["failed"] is True
        assert failure["kind"] == "timeout"
        assert failure["attempts"] == 1

    def test_retries_are_counted(self, client):
        big = spec_dict(seed=22, nodes=220)
        with pytest.raises(ServiceError) as err:
            client.run(big, timeout=0.01, retries=2, cache="off")
        assert err.value.payload["failure"]["attempts"] == 3

    def test_bad_options_are_400(self, client):
        for options in ({"cache": "sometimes"}, {"timeout": -1}, {"retries": -2}):
            with pytest.raises(ServiceError) as err:
                client.run(spec_dict(), **options)
            assert err.value.status == 400


class TestBackpressure:
    def test_saturated_service_sheds_with_429_retry_after(self, tmp_path):
        started, gate = threading.Event(), threading.Event()

        @api.register_algorithm("service-gated-occupant")
        def gated(sim, config, **params):
            # Hold the single service slot until the test saw the 429.
            started.set()
            gate.wait(timeout=30)
            from repro.api.catalog import _run_local_broadcast

            return _run_local_broadcast(sim, config)

        config = ServiceConfig(port=0, max_workers=1, queue_limit=1)
        try:
            with ServiceHarness(config) as harness:
                slow = spec_dict(seed=1)
                slow["algorithm"] = {"name": "service-gated-occupant", "preset": "fast"}
                outcome = {}

                def occupy():
                    c = harness.client()
                    try:
                        outcome["slow"] = c.run(slow, cache="off")
                    finally:
                        c.close()

                thread = threading.Thread(target=occupy)
                thread.start()
                assert started.wait(timeout=30), "the occupying run never started"
                c = harness.client()
                with pytest.raises(ServiceError) as err:
                    c.run(spec_dict(seed=2), cache="off")
                gate.set()
                thread.join(timeout=60)
                c.close()
        finally:
            gate.set()
            api.ALGORITHMS._entries.pop("service-gated-occupant", None)
        assert err.value.status == 429
        assert err.value.retry_after is not None and err.value.retry_after >= 1
        assert "slow" in outcome  # the occupying request still completed


class TestStreaming:
    def test_stream_shape_and_summary(self, client):
        lines = list(client.run_stream(dynamic_spec_dict(seed=30)))
        assert "spec" in lines[0] and lines[0]["cached"] is False
        epoch_lines = [l for l in lines if "epoch" in l]
        assert len(epoch_lines) == 3
        assert [l["epoch"]["epoch"] for l in epoch_lines] == [0, 1, 2]
        assert "summary" in lines[-1]

    def test_stream_matches_direct_run_epochs(self, client):
        from repro.dynamics.runner import run_epochs

        seed_spec = dynamic_spec_dict(seed=31)
        lines = list(client.run_stream(seed_spec, cache="off"))
        direct = run_epochs(api.RunSpec.from_dict(seed_spec))
        served = [l["epoch"] for l in lines if "epoch" in l]
        expected = json.loads(json.dumps([r.payload() for r in direct.results]))
        for got, want in zip(served, expected):
            got = dict(got)
            got.pop("elapsed")
            want.pop("elapsed", None)
            assert got == want

    def test_warm_stream_replays_stored_trajectory(self, client):
        seed_spec = dynamic_spec_dict(seed=32)
        cold = list(client.run_stream(seed_spec))
        warm = list(client.run_stream(seed_spec))
        assert cold[0]["cached"] is False
        assert warm[0]["cached"] is True
        strip = lambda ls: [  # noqa: E731 - local one-liner
            {k: {a: b for a, b in v.items() if a != "elapsed"} for k, v in l.items()}
            for l in ls
            if "epoch" in l
        ]
        assert strip(cold) == strip(warm)

    def test_first_epoch_arrives_before_run_finishes(self, tmp_path):
        """The incrementality pin: epoch 1 is client-side while the service
        still reports an active stream (later epochs still simulating)."""
        gate = threading.Event()

        @api.register_algorithm("service-gated-broadcast")
        def gated(sim, config, **params):
            # Epochs after the first block until the test saw line one.
            if getattr(gated, "ran_once", False):
                gate.wait(timeout=30)
            gated.ran_once = True
            from repro.api.catalog import _run_local_broadcast

            return _run_local_broadcast(sim, config)

        try:
            with ServiceHarness(ServiceConfig(port=0)) as harness:
                client = harness.client()
                spec = dynamic_spec_dict(seed=33)
                spec["algorithm"] = {"name": "service-gated-broadcast", "preset": "fast"}
                stream = client.run_stream(spec, cache="off")
                header = next(stream)
                assert "spec" in header
                first = next(stream)
                assert "epoch" in first
                # The stream is demonstrably still in flight.
                probe = harness.client()
                assert probe.stats()["counters"]["streams_active"] >= 1
                probe.close()
                gate.set()
                rest = list(stream)
                assert "summary" in rest[-1]
        finally:
            gate.set()
            api.ALGORITHMS._entries.pop("service-gated-broadcast", None)

    def test_dynamic_run_without_streaming(self, client):
        blocked = client.run(dynamic_spec_dict(seed=34), stream=False)
        assert len(blocked["trajectory"]["epochs"]) == 3

    def test_dynamic_block_reports_store_hit(self, client):
        """The non-streaming path must report warm hits honestly, like the
        streaming header does (regression: it always said cached=false)."""
        spec = dynamic_spec_dict(seed=36)
        cold = client.run(spec, stream=False)
        warm = client.run(spec, stream=False)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert len(warm["trajectory"]["epochs"]) == 3

    def test_unstarted_stream_generator_never_counts(self):
        """A client gone before the response head flushes closes the chunk
        generator *unstarted*, which skips finally blocks: the active-stream
        counter must not tick up out-of-band and leak forever."""
        import asyncio

        from repro.api.validation import spec_from_request
        from repro.service import SimulationService

        service = SimulationService(ServiceConfig(port=0))

        async def scenario():
            spec = spec_from_request(dynamic_spec_dict(seed=37))
            response = await service._stream_dynamic(spec, "off")
            await response.chunks.aclose()  # closed before the first chunk
            # Let the orphaned producer finish while the loop is still alive
            # (its emits need the loop), then check the counter never moved.
            await asyncio.get_running_loop().run_in_executor(
                None, service._pool.shutdown, True
            )

        asyncio.run(scenario())
        assert service.counters["streams_active"] == 0
        assert service.counters["streams_total"] == 1

    def test_client_disconnect_mid_stream_releases_the_stream(self, harness, client, monkeypatch):
        """Hanging up on a live stream must not leak ``streams_active``.

        The transport closes the abandoned chunk generator, so the counter
        drains once the producer's next frame hits the dead socket (found
        live: a curl | head pipeline left /health reporting a phantom
        stream forever).
        """
        import socket

        counters = _NotifyingCounters(harness.service.counters)
        monkeypatch.setattr(harness.service, "counters", counters)
        body = json.dumps({"spec": dynamic_spec_dict(seed=35), "stream": True})
        raw = socket.create_connection(("127.0.0.1", harness.port), timeout=30)
        try:
            raw.sendall(
                f"POST /run HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
            )
            # The response head is flushed before the chunk generator starts,
            # and the generator counts the stream on its first step; the
            # "spec" header line is yielded after that count, so the stream
            # is live (streams_active == 1) once it has arrived.
            received = b""
            while b'"spec"' not in received:
                data = raw.recv(1024)
                assert data, f"connection closed before the first chunk: {received!r}"
                received += data
            assert b"200" in received
        finally:
            raw.close()  # hang up mid-run
        with counters.changed:
            counters.changed.wait_for(lambda: counters["streams_active"] == 0, timeout=30)
        assert client.health()["streams_active"] == 0


class _NotifyingCounters(dict):
    """Service counters that signal :attr:`changed` on every update, so a
    test waits for a counter to reach a value instead of polling it."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.changed = threading.Condition()

    def __setitem__(self, key, value) -> None:
        with self.changed:
            super().__setitem__(key, value)
            self.changed.notify_all()


class TestHttpPrimitives:
    """Transport-level units that need no running service."""

    def test_json_response_roundtrip(self):
        response = json_response({"b": 2, "a": 1}, status=201)
        assert response.status == 201
        assert json.loads(response.body) == {"a": 1, "b": 2}

    def test_http_error_renders_payload(self):
        error = HttpError(429, "busy", headers={"Retry-After": "2"}, payload={"x": 1})
        rendered = error.to_response()
        assert rendered.status == 429
        assert rendered.headers["Retry-After"] == "2"
        assert json.loads(rendered.body)["x"] == 1

    def test_request_json_empty_body_is_empty_dict(self):
        request = Request(method="POST", path="/", query={}, headers={}, body=b"")
        assert request.json() == {}

    def test_request_json_malformed_raises_400(self):
        request = Request(method="POST", path="/", query={}, headers={}, body=b"{nope")
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400

    def test_oversized_body_is_413(self, harness):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", harness.port)
        conn.request(
            "POST", "/run", body=b"",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        response = conn.getresponse()
        assert response.status == 413
        conn.close()


class TestAsgiAdapter:
    """The ASGI callable driven directly -- no uvicorn required."""

    @staticmethod
    def _drive(app, scope, body=b""):
        import asyncio

        sent = []
        messages = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            return messages.pop(0)

        async def send(message):
            sent.append(message)

        asyncio.run(app(scope, receive, send))
        return sent

    @staticmethod
    def _http_scope(method, path, body=b""):
        return {
            "type": "http",
            "method": method,
            "path": path,
            "query_string": b"",
            "headers": [(b"content-type", b"application/json")],
        }

    def test_health_through_asgi(self):
        from repro.service import SimulationService

        service = SimulationService(ServiceConfig(port=0))
        app = create_asgi_app(service)
        sent = self._drive(app, self._http_scope("GET", "/health"))
        assert sent[0]["status"] == 200
        assert json.loads(sent[1]["body"])["status"] == "ok"

    def test_streaming_through_asgi_uses_more_body(self):
        from repro.service import SimulationService

        service = SimulationService(ServiceConfig(port=0))
        app = create_asgi_app(service)
        body = json.dumps({"spec": dynamic_spec_dict(seed=35, epochs=2)}).encode()
        sent = self._drive(app, self._http_scope("POST", "/run"), body=body)
        chunks = [m for m in sent if m["type"] == "http.response.body" and m.get("body")]
        assert all(m.get("more_body") for m in chunks)
        lines = b"".join(m["body"] for m in chunks).decode().strip().split("\n")
        assert len(lines) == 4  # header + 2 epochs + summary
        assert "summary" in json.loads(lines[-1])

    def test_lifespan_protocol(self):
        import asyncio

        from repro.service import SimulationService

        app = create_asgi_app(SimulationService(ServiceConfig(port=0)))
        sent = []
        messages = [{"type": "lifespan.startup"}, {"type": "lifespan.shutdown"}]

        async def receive():
            return messages.pop(0)

        async def send(message):
            sent.append(message)

        asyncio.run(app({"type": "lifespan"}, receive, send))
        assert [m["type"] for m in sent] == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]


class TestCliIntegration:
    """`repro-sim serve` wiring and the queue status --json satellite."""

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0
        assert args.queue_limit == 32
        assert args.handler.__name__ == "_cmd_serve"

    def test_queue_status_json_empty_store(self, tmp_path, capsys):
        from repro.cli import main

        ExperimentStore(tmp_path / "store")
        code = main(["queue", "status", "--json", "--store", str(tmp_path / "store")])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["queues"] == {}
        assert snapshot["store"].endswith("store")

    def test_queue_status_json_with_queue(self, tmp_path, capsys):
        from repro.cli import main
        from repro.distributed import submit_grid

        store = ExperimentStore(tmp_path / "store")
        spec = api.RunSpec.from_dict(spec_dict())
        submit_grid(store, "svc", [spec.with_seed(s) for s in range(3)])
        code = main(["queue", "status", "--json", "--name", "svc",
                     "--store", str(tmp_path / "store")])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counts"]["total"] == 3
        assert snapshot["counts"]["pending"] == 3

    def test_repro_store_env_reaches_queue_commands(self, tmp_path, capsys, monkeypatch):
        """REPRO_STORE is the default --store for every queue subcommand."""
        from repro.cli import build_parser, main

        store_path = tmp_path / "env-store"
        ExperimentStore(store_path)
        monkeypatch.setenv("REPRO_STORE", str(store_path))
        # Parser default picks the env var up for all four subcommands.
        parser_args = [
            ["queue", "status"],
            ["queue", "worker", "--name", "x"],
            ["queue", "resume", "--name", "x"],
            ["serve"],
        ]
        for argv in parser_args:
            args = build_parser().parse_args(argv)
            assert args.store == str(store_path), argv
        # And end to end: status with no --store resolves the env store.
        code = main(["queue", "status", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["store"] == str(store_path)

    def test_missing_store_is_an_error(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        code = main(["queue", "status"])
        assert code == 2
        assert "no store" in capsys.readouterr().err
