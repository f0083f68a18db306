"""Session tests: lifecycle, state-fingerprint caching, serializability.

The acceptance-critical scenario is
:class:`TestInterleavedClientsSerializability`: several client threads
interleave mutations and runs against one session, and the session's
committed op log, replayed serially on a fresh network
(:func:`repro.service.sessions.replay_log`), must reproduce every state
fingerprint and every run-result digest bit for bit.  That is the
mutation-safety contract: concurrent clients observe results identical to
*some* serial order -- the logged one.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import api
from repro.api.executor import build_deployment
from repro.api.specs import AlgorithmSpec, DeploymentSpec, RunSpec
from repro.service import ServiceConfig, ServiceError
from repro.service import app as service_app
from repro.service.sessions import network_fingerprint, replay_log
from repro.store import ExperimentStore
from repro.testing import ServiceHarness

pytestmark = pytest.mark.service

DEPLOYMENT = {"kind": "uniform", "params": {"nodes": 24, "area": 2.0}, "seed": 9}
ALGORITHM = {"name": "local-broadcast", "preset": "fast"}


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    store = tmp_path_factory.mktemp("service-sessions") / "store"
    with ServiceHarness(ServiceConfig(port=0, store=str(store))) as h:
        yield h


@pytest.fixture()
def client(harness):
    c = harness.client()
    yield c
    for session in c.sessions():
        c.delete_session(session["name"])
    c.close()


class TestLifecycle:
    def test_create_describe_delete(self, client):
        created = client.create_session("alpha", DEPLOYMENT)
        assert created["name"] == "alpha"
        assert created["nodes"] == 24
        assert created["version"] == 0
        assert [s["name"] for s in client.sessions()] == ["alpha"]
        assert client.session("alpha")["fingerprint"] == created["fingerprint"]
        client.delete_session("alpha")
        assert client.sessions() == []

    def test_duplicate_name_is_409(self, client):
        client.create_session("dup", DEPLOYMENT)
        with pytest.raises(ServiceError) as err:
            client.create_session("dup", DEPLOYMENT)
        assert err.value.status == 409

    def test_unknown_session_is_404_naming_active(self, client):
        client.create_session("known", DEPLOYMENT)
        with pytest.raises(ServiceError) as err:
            client.session("unknown")
        assert err.value.status == 404
        assert "known" in err.value.payload["error"]

    def test_invalid_name_is_400(self, client):
        for bad in ("", "has space", "a" * 65, "sl/ash"):
            with pytest.raises(ServiceError) as err:
                client.create_session(bad, DEPLOYMENT)
            assert err.value.status == 400

    def test_bad_deployment_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.create_session("bad", {"kind": "hexagon"})
        assert err.value.status == 400
        assert any("hexagon" in p for p in err.value.payload.get("problems", []))

    def test_capacity_is_503(self):
        with ServiceHarness(ServiceConfig(port=0, max_sessions=2)) as harness:
            c = harness.client()
            c.create_session("one", DEPLOYMENT)
            c.create_session("two", DEPLOYMENT)
            with pytest.raises(ServiceError) as err:
                c.create_session("three", DEPLOYMENT)
            c.close()
        assert err.value.status == 503

    def test_node_detail_lists_uids_and_positions(self, client):
        client.create_session("detail", DEPLOYMENT)
        detail = client.session("detail", nodes=True)["node_detail"]
        assert len(detail) == 24
        assert all(len(node["position"]) == 2 for node in detail)
        assert len({node["uid"] for node in detail}) == 24


class TestSessionRuns:
    def test_run_and_fingerprint_cache(self, client):
        client.create_session("runs", DEPLOYMENT)
        cold = client.session_run("runs", ALGORITHM)
        warm = client.session_run("runs", ALGORITHM)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["digest"] == cold["digest"]
        assert warm["fingerprint"] == cold["fingerprint"]

    def test_mutation_invalidates_then_restoring_state_rehits(self, client):
        client.create_session("restore", DEPLOYMENT)
        before = client.session_run("restore", ALGORITHM)
        node = client.session("restore", nodes=True)["node_detail"][0]
        original = node["position"]
        client.move_nodes("restore", [node["uid"]], [[0.1, 0.1]])
        moved = client.session_run("restore", ALGORITHM)
        assert moved["fingerprint"] != before["fingerprint"]
        assert moved["cached"] is False
        # Moving the node back restores the exact state: the content
        # address matches again and the run is a warm hit.
        client.move_nodes("restore", [node["uid"]], [original])
        restored = client.session_run("restore", ALGORITHM)
        assert restored["fingerprint"] == before["fingerprint"]
        assert restored["cached"] is True
        assert restored["digest"] == before["digest"]

    def test_two_identical_sessions_share_cache(self, client):
        client.create_session("twin-a", DEPLOYMENT)
        client.create_session("twin-b", DEPLOYMENT)
        first = client.session_run("twin-a", ALGORITHM)
        second = client.session_run("twin-b", ALGORITHM)
        assert second["cached"] is True
        assert second["digest"] == first["digest"]

    def test_mutate_validates_input(self, client):
        client.create_session("strict", DEPLOYMENT)
        cases = [
            {"op": "teleport"},
            {"op": "move", "uids": [1, 2], "positions": [[0, 0]]},
            {"op": "move", "uids": [999999], "positions": [[0, 0]]},
            {"op": "move", "uids": ["abc"], "positions": [[0, 0]]},
            {"op": "move", "uids": [None], "positions": [[0, 0]]},
            {"op": "step", "mobility": {"params": {}}},
            {"op": "step", "mobility": {"kind": "warp"}},
        ]
        for body in cases:
            status, _, _ = client.request("POST", "/sessions/strict/mutate", body)
            assert status == 400, body

    def test_run_on_unknown_algorithm_is_400(self, client):
        client.create_session("algcheck", DEPLOYMENT)
        with pytest.raises(ServiceError) as err:
            client.session_run("algcheck", {"name": "nope"})
        assert err.value.status == 400

    def test_log_records_commit_order(self, client):
        client.create_session("logged", DEPLOYMENT)
        client.session_run("logged", ALGORITHM)
        client.step("logged", {"kind": "drift", "params": {"sigma": 0.02}}, seed=4)
        client.session_run("logged", ALGORITHM)
        log = client.session("logged", log=True)["log"]
        assert [entry["op"] for entry in log] == ["run", "step", "run"]
        assert log[1]["version"] == 1  # the mutation bumped the version
        assert log[0]["fingerprint"] != log[2]["fingerprint"]


class _DeadlineGate:
    """Stands in for ``asyncio`` inside the service module.

    Everything is delegated to the real module; ``wait`` additionally
    opens :attr:`expired` when it returns with work still pending -- the
    moment a draining session op's deadline fires.  A job that blocks on
    the gate therefore overruns its deadline without any wall-clock sleep.
    """

    def __init__(self) -> None:
        self.expired = threading.Event()

    def __getattr__(self, name):
        return getattr(asyncio, name)

    async def wait(self, fs, **kwargs):
        done, pending = await asyncio.wait(fs, **kwargs)
        if pending:
            self.expired.set()
        return done, pending


class TestSessionTimeoutDraining:
    """A timed-out session op must never abandon its worker thread.

    Session jobs touch the shared live network under the session lock; the
    regression being pinned: an abandoned thread kept running after the
    lock was released, raced subsequent mutations, and stored its (now
    stale-state) result under the pre-timeout fingerprint -- durably
    poisoning the cache.  The fix drains the thread before answering, so
    the 504 only goes out once nothing touches the network anymore, and
    whatever the overrunning attempt stored is still correct for the
    fingerprint it was tagged with.
    """

    def test_timed_out_session_run_drains_before_responding(self, tmp_path, monkeypatch):
        finished = threading.Event()
        gate = _DeadlineGate()
        monkeypatch.setattr(service_app, "asyncio", gate)

        @api.register_algorithm("service-slow-broadcast")
        def slow(sim, config, **params):
            try:
                # Outlast the request deadline by construction: hold the
                # network until the service has seen the deadline pass.
                assert gate.expired.wait(timeout=30), "the service never timed out"
                from repro.api.catalog import _run_local_broadcast

                return _run_local_broadcast(sim, config)
            finally:
                finished.set()

        algorithm = {"name": "service-slow-broadcast", "preset": "fast"}
        try:
            config = ServiceConfig(port=0, store=str(tmp_path / "store"))
            with ServiceHarness(config) as harness:
                c = harness.client()
                c.create_session("drain", DEPLOYMENT)
                with pytest.raises(ServiceError) as err:
                    c.session_run("drain", algorithm, timeout=0.05)
                assert err.value.status == 504
                assert err.value.payload["failure"]["kind"] == "timeout"
                # The lock outlived the thread: by the time the 504 was on
                # the wire the worker had finished with the network.
                assert finished.is_set()
                # The drained attempt ran entirely against unchanged state,
                # so the result it stored is *valid*: the same query warm-hits
                # with exactly the digest a fresh execution produces.
                fresh = c.session_run("drain", algorithm, cache="off")
                warm = c.session_run("drain", algorithm)
                assert warm["cached"] is True
                assert warm["digest"] == fresh["digest"]
                # And the timed-out attempt never committed to the op log.
                ops = [e["op"] for e in c.session("drain", log=True)["log"]]
                assert ops == ["run", "run"]
                c.close()
        finally:
            api.ALGORITHMS._entries.pop("service-slow-broadcast", None)


class TestSerialReplay:
    def test_replay_reproduces_a_simple_history(self, client):
        client.create_session("serial", DEPLOYMENT)
        client.session_run("serial", ALGORITHM)
        node = client.session("serial", nodes=True)["node_detail"][3]
        client.move_nodes("serial", [node["uid"]], [[0.42, 0.42]])
        client.step("serial", {"kind": "waypoint", "params": {"speed": 0.05}}, seed=11)
        client.session_run("serial", ALGORITHM)
        log = client.session("serial", log=True)["log"]

        replayed = replay_log(DeploymentSpec.from_dict(DEPLOYMENT), log)
        assert len(replayed) == len(log)
        for live, again in zip(log, replayed):
            assert live["op"] == again["op"]
            if live["op"] == "run":
                assert live["fingerprint"] == again["fingerprint"]
                assert live["digest"] == again["digest"]


#: A global broadcast on this placement misses some nodes, so a cold run
#: ends with sleepers in its simulator.
PARTIAL_BROADCAST = {"kind": "uniform", "params": {"nodes": 30, "area": 12.0}, "seed": 3}
GLOBAL_BROADCAST = {"name": "global-broadcast", "preset": "fast"}


class TestRunsLeaveNoState:
    """A run, cold or loaded from the store, leaves the network as it found it."""

    def test_cold_run_and_store_hit_leave_equal_fingerprints(self, tmp_path):
        deployment = DeploymentSpec.from_dict(PARTIAL_BROADCAST)
        spec = RunSpec(deployment=deployment, algorithm=AlgorithmSpec.from_dict(GLOBAL_BROADCAST))
        store = ExperimentStore(tmp_path / "store")
        api.run_on_network(build_deployment(deployment), spec, store=store)

        cold = build_deployment(deployment)
        cold_result = api.run_on_network(cold, spec, cache="off")
        warm = build_deployment(deployment)
        warm_result = api.run_on_network(warm, spec, store=store)

        assert cold_result.checks == {"reached_all": False}
        assert warm_result.cached and not cold_result.cached
        assert network_fingerprint(cold) == network_fingerprint(warm)

    def test_replay_reproduces_a_warm_session(self, client):
        client.create_session("gb-seed", PARTIAL_BROADCAST)
        client.session_run("gb-seed", GLOBAL_BROADCAST)
        client.create_session("gb-warm", PARTIAL_BROADCAST)
        runs = [client.session_run("gb-warm", GLOBAL_BROADCAST) for _ in range(2)]
        assert all(run["cached"] for run in runs)
        log = client.session("gb-warm", log=True)["log"]

        replayed = replay_log(DeploymentSpec.from_dict(PARTIAL_BROADCAST), log)
        assert [(e["op"], e["fingerprint"], e["digest"]) for e in log] == [
            (e["op"], e["fingerprint"], e["digest"]) for e in replayed
        ]


class TestPinnedFingerprints:
    """Fingerprints name stored session runs, so their bytes must not drift."""

    def test_fresh_placement(self):
        network = build_deployment(DeploymentSpec.from_dict(PARTIAL_BROADCAST))
        assert network_fingerprint(network) == "3fc0bec5a5b43e94"

    def test_placement_after_a_move(self):
        network = build_deployment(DeploymentSpec.from_dict(PARTIAL_BROADCAST))
        network.move_nodes([network.uids[0]], [[1.0, 2.0]])
        assert network_fingerprint(network) == "1226c1bfa7c6c078"

    def test_ball_session_after_a_completing_global_broadcast(self, client):
        client.create_session("ball", {"kind": "ball", "params": {"nodes": 6, "radius": 0.5}})
        run = client.session_run("ball", GLOBAL_BROADCAST, cache="off")
        assert run["result"]["checks"] == {"reached_all": True}
        assert run["fingerprint"] == "c6f12121ca353869"
        assert client.session("ball")["fingerprint"] == "c6f12121ca353869"


class TestInterleavedClientsSerializability:
    """The acceptance property: concurrency == some serial order, bitwise."""

    @pytest.mark.slow
    def test_interleaved_clients_match_serial_replay(self):
        with ServiceHarness(ServiceConfig(port=0, max_workers=4)) as harness:
            setup = harness.client()
            setup.create_session("prop", DEPLOYMENT)
            uids = [n["uid"] for n in setup.session("prop", nodes=True)["node_detail"]]
            setup.close()
            errors = []

            def runner_client(worker: int) -> None:
                c = harness.client()
                try:
                    for i in range(3):
                        c.session_run("prop", ALGORITHM, cache="off")
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                finally:
                    c.close()

            def mutator_client(worker: int) -> None:
                c = harness.client()
                try:
                    for i in range(3):
                        uid = uids[(worker * 7 + i) % len(uids)]
                        c.move_nodes("prop", [uid], [[0.05 * worker + 0.01 * i, 0.3]])
                        c.step("prop", {"kind": "drift", "params": {"sigma": 0.01}},
                               seed=worker * 100 + i)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                finally:
                    c.close()

            threads = [threading.Thread(target=runner_client, args=(w,)) for w in range(2)]
            threads += [threading.Thread(target=mutator_client, args=(w,)) for w in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors, errors

            audit = harness.client()
            log = audit.session("prop", log=True)["log"]
            audit.close()

        # 2 runner clients x 3 runs + 2 mutator clients x 3 (move + step).
        assert len(log) == 2 * 3 + 2 * 3 * 2

        replayed = replay_log(DeploymentSpec.from_dict(DEPLOYMENT), log)
        for live, again in zip(log, replayed):
            assert live["op"] == again["op"]
            if live["op"] == "run":
                # Bit-identical: same pre-run state, same result digest.
                assert live["fingerprint"] == again["fingerprint"]
                assert live["digest"] == again["digest"]
