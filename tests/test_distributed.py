"""Distributed work-queue tests: leases, takeover, merge bit-identity, chaos.

The acceptance scenario lives in :class:`TestThreeWorkersWithSigkill`: a
24-cell grid drained by three concurrent worker processes, one of which is
SIGKILLed the moment it holds a lease.  The merged collection must equal a
serial ``run_grid`` over the same specs bit for bit (per
``RunResult.payload``), with zero lost and zero duplicated cells.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import api
from repro.distributed import (
    QueueError,
    QueueWorker,
    WorkQueue,
    merge_collection,
    queue_status,
    run_distributed,
    spawn_local_workers,
    submit_grid,
    wait_for_completion,
)
from repro.store import ExperimentStore, spec_key
from repro.testing import faults


def small_spec() -> api.RunSpec:
    return api.RunSpec(
        deployment=api.DeploymentSpec("uniform", {"nodes": 16, "area": 2.0}),
        algorithm=api.AlgorithmSpec("local-broadcast", preset="fast"),
    )


def grid(n: int) -> list:
    return [small_spec().with_seed(seed) for seed in range(n)]


class FakeClock:
    """Stands in for the ``time`` module the queue reads lease ages from."""

    def __init__(self) -> None:
        self.now = time.time()

    def time(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock(monkeypatch) -> FakeClock:
    """Freeze the queue's clock; lease ages move only by ``clock.advance``."""
    fake = FakeClock()
    monkeypatch.setattr("repro.distributed.queue.time", fake)
    return fake


class TestWorkQueueUnit:
    def test_submit_and_counts(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(4))
        assert len(queue) == 4
        assert queue.counts() == {
            "total": 4, "done": 0, "failed": 0, "leased": 0, "stale": 0, "pending": 4,
        }
        assert not queue.is_complete()

    def test_open_missing_queue_lists_available(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        WorkQueue.submit(store, "exists", grid(1))
        with pytest.raises(QueueError, match="exists"):
            WorkQueue(store, "absent")

    def test_resubmit_same_grid_is_idempotent(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        WorkQueue.submit(store, "q", grid(3))
        queue = WorkQueue.submit(store, "q", grid(3))
        assert queue.counts()["pending"] == 3

    def test_resubmit_different_grid_requires_force(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        WorkQueue.submit(store, "q", grid(3))
        with pytest.raises(QueueError, match="force"):
            WorkQueue.submit(store, "q", grid(5))
        queue = WorkQueue.submit(store, "q", grid(5), force=True)
        assert len(queue) == 5

    def test_dynamics_specs_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = small_spec().with_dynamics(
            api.DynamicsSpec(mobility=api.MobilitySpec("static"), epochs=2)
        )
        with pytest.raises(QueueError, match="dynamics"):
            WorkQueue.submit(store, "q", [spec])

    def test_claim_in_grid_order_and_exclusive(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(3))
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first.index == 0 and second.index == 1
        assert first.key != second.key
        counts = queue.counts()
        assert counts["leased"] == 2 and counts["pending"] == 1

    def test_complete_releases_and_store_hit_skips(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(2))
        claim = queue.claim("w1")
        api.run(claim.spec, keep_raw=False, store=store, cache="reuse")
        queue.complete(claim)
        counts = queue.counts()
        assert counts["done"] == 1 and counts["leased"] == 0
        # the done cell is never claimable again
        nxt = queue.claim("w1")
        assert nxt.index == 1

    def test_stale_lease_takeover_counts_attempts(self, tmp_path, clock):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(1), lease_timeout=0.05)
        claim = queue.claim("w1")
        clock.advance(0.1)  # let the untended lease expire
        taken = queue.claim("w2")
        assert taken is not None
        assert taken.key == claim.key
        assert taken.attempts == 2

    def test_dead_pid_lease_is_stale_immediately(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(1), lease_timeout=300.0)
        claim = queue.claim("w1")
        lease_path = queue._lease_path(claim.key)
        lease = json.loads(lease_path.read_text())
        lease["pid"] = 2**22 + 11  # beyond any real pid on the test host
        lease_path.write_text(json.dumps(lease))
        taken = queue.claim("w2")
        assert taken is not None and taken.attempts == 2

    def test_abandoned_cell_quarantined_after_budget(self, tmp_path, clock):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(1), lease_timeout=0.05)
        for _ in range(3):
            assert queue.claim("w", max_attempts=3) is not None
            clock.advance(0.1)
        assert queue.claim("w", max_attempts=3) is None
        failures = queue.failures()
        assert len(failures) == 1
        assert failures[0].kind == "worker-death"
        assert queue.is_complete()

    def test_heartbeat_keeps_lease_fresh(self, tmp_path, clock):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(1), lease_timeout=0.3)
        claim = queue.claim("w1")
        for _ in range(4):
            clock.advance(0.1)
            assert queue.heartbeat(claim)
        assert queue.claim("w2") is None  # never went stale

    def test_requeue_failed(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(1))
        claim = queue.claim("w1")
        queue.fail(claim, api.FailedResult(claim.spec, "exception", "boom", 1))
        assert queue.counts()["failed"] == 1
        assert queue.requeue_failed() == 1
        assert queue.counts()["pending"] == 1

    def test_results_raises_while_unsettled(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "q", grid(2))
        with pytest.raises(QueueError, match="not complete"):
            queue.results()


class TestSingleWorkerDrain:
    @pytest.fixture(scope="class")
    def drained(self, tmp_path_factory):
        store = ExperimentStore(tmp_path_factory.mktemp("drain") / "store")
        specs = grid(6)
        submit_grid(store, "drain", specs)
        report = QueueWorker(store, "drain", worker_id="solo").work()
        results = merge_collection(store, "drain")
        serial = api.run_grid(specs, parallel=False)
        return store, specs, report, results, serial

    def test_worker_executed_everything(self, drained):
        _, specs, report, _, _ = drained
        assert report.executed == len(specs)
        assert report.failed == 0

    def test_merge_payload_identical_to_serial(self, drained):
        _, _, _, results, serial = drained
        assert [r.payload() for r in results] == [r.payload() for r in serial]

    def test_collection_manifest_records_grid_order(self, drained):
        store, specs, _, _, _ = drained
        manifest = store.read_manifest("queue-drain")
        assert manifest["grid"] == [spec_key(s) for s in specs]
        assert sorted(manifest["keys"]) == sorted(manifest["grid"])
        assert manifest["failed"] == []

    def test_warm_resubmit_enqueues_nothing(self, drained):
        store, specs, _, _, _ = drained
        report = submit_grid(store, "drain-warm", specs)
        assert report.enqueued == 0
        assert report.cached == len(specs)
        # and a worker against the warm queue only loads from cache
        worker_report = QueueWorker(store, "drain-warm", worker_id="warm").work()
        assert worker_report.executed == 0

    def test_queue_status_snapshot(self, drained):
        store, _, _, _, _ = drained
        status = queue_status(store, "drain")
        assert status["complete"] is True
        assert status["counts"]["done"] == status["counts"]["total"]
        everything = queue_status(store)
        assert "drain" in everything


class TestFailureQuarantine:
    def test_persistently_raising_cell_is_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        specs = grid(4)
        submit_grid(store, "chaos", specs)
        with faults.injected_faults(
            faults.FaultPlan({2: faults.FaultSpec("raise", times=-1)})
        ):
            report = QueueWorker(
                store, "chaos", worker_id="w", retries=1, backoff=0.01
            ).work()
        assert report.failed == 1
        results = merge_collection(store, "chaos")
        assert sum(1 for r in results if getattr(r, "failed", False)) == 1
        failure = results[2]
        assert failure.failed and failure.kind == "exception"
        assert failure.attempts == 2  # retries=1 -> two attempts
        assert "InjectedFault" in failure.message
        manifest = store.read_manifest("queue-chaos")
        assert len(manifest["failed"]) == 1

    def test_transient_fault_heals_on_in_lease_retry(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        submit_grid(store, "heal", grid(3))
        with faults.injected_faults(
            faults.FaultPlan({1: faults.FaultSpec("raise", times=1)})
        ):
            report = QueueWorker(
                store, "heal", worker_id="w", retries=2, backoff=0.01
            ).work()
        assert report.failed == 0
        assert len(merge_collection(store, "heal")) == 3


class TestThreeWorkersWithSigkill:
    """The acceptance scenario: 3 workers, 24 cells, one SIGKILL mid-grid."""

    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        store = ExperimentStore(tmp_path_factory.mktemp("sigkill") / "store")
        specs = grid(24)
        submit_grid(store, "big", specs, lease_timeout=1.0)
        workers = spawn_local_workers(
            store.root, "big", 3, retries=1, poll_interval=0.05
        )
        queue = WorkQueue(store, "big")
        killed_key = faults.kill_worker_when_leased(queue, workers[0], timeout=30.0)
        counts = wait_for_completion(
            store, "big", poll_interval=0.1, timeout=180.0,
            workers=workers, respawn=2,
        )
        results = merge_collection(store, "big")
        serial = api.run_grid(specs, parallel=False)
        return store, specs, killed_key, counts, results, serial

    def test_grid_settles_with_nothing_lost(self, outcome):
        _, specs, _, counts, results, _ = outcome
        assert counts["done"] == len(specs)
        assert counts["failed"] == 0
        assert len(results) == len(specs)

    def test_killed_workers_cell_was_reclaimed(self, outcome):
        store, _, killed_key, _, _, _ = outcome
        assert killed_key in store  # the orphaned cell was recomputed

    def test_no_duplicates_in_the_collection(self, outcome):
        store, specs, _, _, _, _ = outcome
        manifest = store.read_manifest("queue-big")
        assert len(manifest["keys"]) == len(set(manifest["keys"])) == len(specs)
        assert manifest["grid"] == [spec_key(s) for s in specs]

    def test_merged_results_bit_identical_to_serial(self, outcome):
        _, _, _, _, results, serial = outcome
        assert [r.payload() for r in results] == [r.payload() for r in serial]


class TestRunDistributed:
    def test_one_call_convenience(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        specs = grid(6)
        results = run_distributed(
            specs, store, "conv", workers=2, timeout=120.0, poll_interval=0.05
        )
        assert len(results) == 6
        serial = api.run_grid(specs, parallel=False)
        assert [r.payload() for r in results] == [r.payload() for r in serial]

    def test_workers_zero_merges_warm_grid(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        specs = grid(3)
        api.run_grid(specs, parallel=False, store=store)
        results = run_distributed(specs, store, "warm", workers=0, timeout=30.0)
        assert len(results) == 3
        assert all(r.cached for r in results)


class TestKillHelperErrors:
    def test_timeout_when_worker_never_leases(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "idle", grid(1))

        class FakeProcess:
            pid = os.getpid()

        with pytest.raises(TimeoutError, match="never held"):
            faults.kill_worker_when_leased(queue, FakeProcess(), timeout=0.3, poll_interval=0.05)

    def test_unknown_seed_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        queue = WorkQueue.submit(store, "idle", grid(1))

        class FakeProcess:
            pid = os.getpid()

        with pytest.raises(ValueError, match="seed"):
            faults.kill_worker_when_leased(queue, FakeProcess(), seed=99, timeout=0.2)
