"""Store read-concurrency: readers never observe partial or damaged entries.

The service holds an :class:`~repro.store.ExperimentStore` open while other
processes (queue workers, CLI runs, sibling services) publish into the same
root.  The store's contract under that load: a reader either gets a miss
(``None``) or a fully verified entry -- never a torn manifest, a
half-written payload, or an entry missing its checksums -- because entries
are staged in a scratch directory and published with an atomic rename.

These tests pin that contract with forked reader processes hammering
``load_result``/``load_epochs`` while the parent publishes sibling entries
(and refreshes an existing one) as fast as it can.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import api
from repro.store import ExperimentStore, spec_key

pytestmark = pytest.mark.slow


def _spec(seed: int) -> api.RunSpec:
    return api.RunSpec(
        deployment=api.DeploymentSpec("uniform", {"nodes": 16, "area": 2.0}, seed=seed),
        algorithm=api.AlgorithmSpec("local-broadcast", preset="fast"),
    )


def _result_for(spec: api.RunSpec) -> api.RunResult:
    # A synthetic-but-valid result: these tests exercise store I/O, not the
    # simulator, so publishing must be fast enough to race the readers.
    return api.RunResult(
        spec=spec,
        rounds={"total": 100 + spec.seed},
        checks={"completed": True},
        metrics={"clusters": 3.0},
        details={"network": f"synthetic-{spec.seed}"},
        elapsed=0.0,
    )


def _reader(root: str, key: str, expected_total: int, stop_at: float,
            failures: "multiprocessing.Queue") -> None:
    """Hammer the published entry until the deadline; report any anomaly."""
    try:
        store = ExperimentStore(root)
        reads = 0
        while time.time() < stop_at:
            loaded = store.load_result(key)
            if loaded is None:
                failures.put("load_result returned None for a published key")
                return
            if loaded.rounds["total"] != expected_total:
                failures.put(f"torn payload: rounds {loaded.rounds}")
                return
            if not loaded.cached:
                failures.put("loaded result not flagged cached")
                return
            reads += 1
        if reads == 0:
            failures.put("reader finished without completing a single read")
    except Exception as exc:  # noqa: BLE001 - any exception is a failure
        failures.put(f"{type(exc).__name__}: {exc}")


@pytest.mark.skipif(os.name != "posix", reason="fork start method required")
class TestConcurrentReaders:
    def test_readers_never_see_partial_entries_during_publishes(self, tmp_path):
        """4 forked readers loop on one entry while the writer publishes 40
        siblings and refreshes the hot entry itself; zero anomalies."""
        root = tmp_path / "store"
        store = ExperimentStore(root)
        hot_spec = _spec(0)
        hot_key = store.put_result(_result_for(hot_spec))
        assert hot_key == spec_key(hot_spec)

        ctx = multiprocessing.get_context("fork")
        failures: multiprocessing.Queue = ctx.Queue()
        stop_at = time.time() + 3.0
        readers = [
            ctx.Process(
                target=_reader,
                args=(str(root), hot_key, 100, stop_at, failures),
            )
            for _ in range(4)
        ]
        for proc in readers:
            proc.start()

        # Publish siblings as fast as possible while the readers hammer the
        # hot entry; overwrite the hot entry too (identical payload -- the
        # refresh path rewrites manifest + payload files in place via the
        # staging rename, which is exactly the torn-read hazard).
        seed = 1
        while time.time() < stop_at:
            store.put_result(_result_for(_spec(seed)))
            store.put_result(_result_for(hot_spec), overwrite=True)
            seed += 1

        for proc in readers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        problems = []
        while not failures.empty():
            problems.append(failures.get())
        assert problems == [], problems
        # The writer really did publish a crowd of siblings.
        assert len(store) >= 10

    def test_reader_of_missing_sibling_sees_clean_miss(self, tmp_path):
        """A key that is *being* published is either absent or complete."""
        root = tmp_path / "store"
        store = ExperimentStore(root)
        target_spec = _spec(777)
        target_key = spec_key(target_spec)

        ctx = multiprocessing.get_context("fork")
        outcome: multiprocessing.Queue = ctx.Queue()
        polling: multiprocessing.Queue = ctx.Queue()

        def poll_until_present() -> None:
            try:
                reader_store = ExperimentStore(str(root))
                deadline = time.time() + 30
                signalled = False
                while time.time() < deadline:
                    loaded = reader_store.load_result(target_key)
                    if loaded is not None:
                        # First successful sighting must already be complete.
                        outcome.put(("ok", loaded.rounds["total"]))
                        return
                    if not signalled:
                        polling.put(True)  # a miss seen: now inside the loop
                        signalled = True
                outcome.put(("timeout", None))
            except Exception as exc:  # noqa: BLE001 - any exception is a failure
                outcome.put(("error", f"{type(exc).__name__}: {exc}"))
                polling.put(False)  # never leave the publisher waiting

        readers = [ctx.Process(target=poll_until_present) for _ in range(3)]
        for proc in readers:
            proc.start()
        for _ in readers:  # publish only once every reader is polling
            polling.get(timeout=60)
        store.put_result(_result_for(target_spec))
        results = [outcome.get(timeout=60) for _ in readers]
        for proc in readers:
            proc.join(timeout=60)
        assert all(status == "ok" and total == 100 + 777 for status, total in results), results

    def test_epochs_readers_race_the_epoch_publisher(self, tmp_path):
        """Dynamic-run artifacts (manifest + columnar npz) obey the same
        contract: concurrent readers see a miss or a verified EpochSet."""
        from repro.dynamics.runner import run_epochs

        root = tmp_path / "store"
        store = ExperimentStore(root)
        spec = _spec(5).with_dynamics(
            api.DynamicsSpec(mobility=api.MobilitySpec("drift", {"sigma": 0.02}), epochs=2)
        )
        epochs = run_epochs(spec)

        ctx = multiprocessing.get_context("fork")
        outcome: multiprocessing.Queue = ctx.Queue()
        polling: multiprocessing.Queue = ctx.Queue()

        def poll_epochs() -> None:
            try:
                reader_store = ExperimentStore(str(root))
                deadline = time.time() + 30
                signalled = False
                while time.time() < deadline:
                    loaded = reader_store.load_epochs(spec)
                    if loaded is not None:
                        outcome.put(("ok", len(loaded.results)))
                        return
                    if not signalled:
                        polling.put(True)  # a miss seen: now inside the loop
                        signalled = True
                outcome.put(("timeout", None))
            except Exception as exc:  # noqa: BLE001 - any exception is a failure
                outcome.put(f"{type(exc).__name__}: {exc}")
                polling.put(False)  # never leave the publisher waiting

        readers = [ctx.Process(target=poll_epochs) for _ in range(3)]
        for proc in readers:
            proc.start()
        for _ in readers:  # publish only once every reader is polling
            polling.get(timeout=60)
        store.put_epochs(epochs)
        results = [outcome.get(timeout=60) for _ in readers]
        for proc in readers:
            proc.join(timeout=60)
        assert all(r == ("ok", 2) for r in results), results
