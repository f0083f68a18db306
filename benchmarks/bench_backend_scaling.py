"""Backend scaling benchmark: dense vs lazy vs spatial physics.

Claims measured here (and recorded in ``BENCH_backend_scaling.json``):

1. **Batch throughput** -- on a fixed schedule, evaluating its CSR form
   through one ``receptions_table`` call is at least ~1.5x faster than the
   equivalent round-by-round ``receptions`` loop for the lazy backend (gated; the
   other backends are recorded: dense runs the same shared gather-based
   routine as lazy over its precomputed matrix, and spatial's loop and
   batch both go through its batch core, so their ratios say little --
   see the spatial leg for the amortized comparison).
2. **Memory scaling** -- an n = 50000 deployment needs ~20 GB just for the
   dense gain matrix, far beyond a typical memory budget, while the lazy
   backend runs the same schedule within an O(n) resident footprint.
3. **Spatial speedup** -- the grid-indexed backend evaluates the same
   schedule >= 5x faster than dense at n = 10k (full mode gate; the quick
   mode gates a conservative 2x at n = 5k on noisy shared runners), with
   event-for-event identical deliveries asserted before timing.
4. **Batched round driver** -- on a driver-bound schedule (many rounds,
   few transmitters each) one ``receptions_table`` call over the whole
   schedule, which the spatial backend fuses into multi-round batches, is
   >= 3x faster than one call per one-round CSR slice on the same backend
   (quick mode gates a conservative 1.5x), with *bit-identical* delivery
   tables asserted before any timing.
5. **Local broadcast at n = 100k** -- a complete run of the paper's
   local-broadcast stack (clustering, labeling, SNS sweeps) on a
   constant-density 100k-node deployment through the spatial backend; the
   dense backend cannot even allocate its gain matrix at this size.
6. **n = 1M frontier** -- the spatial backend builds a million-node
   deployment and evaluates single rounds; recorded, not gated.

Run as a script (this is deliberately not a pytest-benchmark module: the
memory half must be free to *refuse* to allocate the dense matrix, and the
full mode runs for hours)::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_backend_scaling.py
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import AlgorithmConfig, local_broadcast
from repro.simulation.engine import SINRSimulator
from repro.sinr import deployment
from repro.sinr.backends import BACKENDS, LazyBlockBackend, make_backend
from repro.sinr.model import SINRParameters


def make_schedule(n: int, rounds: int, per_round: int, seed: int) -> List[List[int]]:
    """A fixed schedule: ``rounds`` transmitter sets of ``per_round`` indices."""
    rng = np.random.default_rng(seed)
    return [list(rng.choice(n, size=per_round, replace=False)) for _ in range(rounds)]


def csr_schedule(n: int, rounds: int, per_round: int, seed: int):
    """The CSR ``(indptr, members)`` form of :func:`make_schedule`."""
    rng = np.random.default_rng(seed)
    members = [rng.choice(n, size=per_round, replace=False) for _ in range(rounds)]
    indptr = np.arange(rounds + 1, dtype=np.int64) * per_round
    return indptr, np.concatenate(members).astype(np.int64)


def positions_for(n: int, seed: int = 0) -> np.ndarray:
    # Constant-density area: side grows with sqrt(n) so the physics stays in
    # the multi-hop regime the paper's schedules target.
    rng = np.random.default_rng(seed)
    side = max(4.0, float(np.sqrt(n) / 8.0))
    return rng.uniform(0.0, side, size=(n, 2))


def dense_matrix_bytes(n: int) -> int:
    """Resident bytes the dense backend needs: one n x n float64 gain matrix."""
    return n * n * 8


def bench_batch_vs_rounds(n: int, rounds: int, per_round: int) -> Dict[str, float]:
    """Time one receptions_table call against the round-by-round loop, per backend."""
    positions = positions_for(n)
    schedule = make_schedule(n, rounds, per_round, seed=1)
    indptr, members = csr_schedule(n, rounds, per_round, seed=1)
    params = SINRParameters.default()
    report: Dict[str, float] = {}
    for name in sorted(BACKENDS):
        backend = make_backend(name, positions, params)
        # Warm up (touches caches, page-faults the arrays, builds the grid).
        backend.receptions(schedule[0])

        start = time.perf_counter()
        loop_result = [backend.receptions(tx) for tx in schedule]
        loop_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch_result = backend.receptions_table(indptr, members)
        batch_seconds = time.perf_counter() - start

        # Sanity: both paths must deliver to the same receivers.
        for t, per_round_map in enumerate(loop_result):
            in_round = batch_result.round_ids == t
            assert set(per_round_map) == set(batch_result.receivers[in_round].tolist())

        report[f"{name}_loop_s"] = loop_seconds
        report[f"{name}_batch_s"] = batch_seconds
        report[f"{name}_speedup"] = loop_seconds / batch_seconds if batch_seconds else float("inf")
    return report


def bench_memory_scaling(n: int, rounds: int, per_round: int, budget_gb: float) -> Dict[str, float]:
    """Show the n=50k regime: dense exceeds the budget, lazy runs within it."""
    report: Dict[str, float] = {}
    dense_gb = dense_matrix_bytes(n) / 1e9
    report["dense_matrix_gb"] = dense_gb
    report["dense_fits_budget"] = float(dense_gb <= budget_gb)

    positions = positions_for(n)
    indptr, members = csr_schedule(n, rounds, per_round, seed=2)
    params = SINRParameters.default()

    tracemalloc.start()
    backend = LazyBlockBackend(positions, params)
    deliveries = backend.receptions_table(indptr, members)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    report["lazy_peak_gb"] = peak / 1e9
    report["lazy_deliveries"] = float(len(deliveries))
    info = backend.cache_info()
    report["lazy_cached_rows"] = float(info["resident_rows"])
    report["lazy_cache_hits"] = float(info["hits"])
    return report


def bench_spatial_speedup(n: int, rounds: int) -> Dict[str, float]:
    """Spatial vs dense, end to end: construct the backend, run the schedule.

    The gated number is *time to solution on a fresh deployment* --
    constructor plus whole-schedule evaluation -- which is what the
    paper-scale experiments pay: the dense constructor is O(n^2) in time
    and memory.  Once that one-time cost is sunk each dense round is a
    gather from the matrix, so the warm steady-state batch time is
    recorded alongside (unguarded) for honesty: spatial's case is one-shot
    workloads and the beyond-dense-memory regime, not warm throughput at
    small n.

    Event-for-event equivalence of the two backends on the exact schedule
    being timed is asserted first.
    """
    per_round = max(32, n // 20)
    positions = positions_for(n)
    indptr, members = csr_schedule(n, rounds, per_round, seed=3)
    params = SINRParameters.default()

    # Equivalence pass (untimed; also serves as a warm-up of both paths).
    dense = make_backend("dense", positions, params)
    spatial = make_backend("spatial", positions, params)
    d_out = dense.receptions_table(indptr, members)
    s_out = spatial.receptions_table(indptr, members)
    assert np.array_equal(d_out.round_ids, s_out.round_ids), "rounds diverged"
    assert np.array_equal(d_out.receivers, s_out.receivers), "receivers diverged"
    assert np.array_equal(d_out.senders, s_out.senders), "senders diverged"

    start = time.perf_counter()
    dense_warm = dense.receptions_table(indptr, members)
    dense_warm_s = time.perf_counter() - start
    assert dense_warm.num_rounds == rounds
    del dense

    start = time.perf_counter()
    spatial_warm = spatial.receptions_table(indptr, members)
    spatial_warm_s = time.perf_counter() - start
    assert spatial_warm.num_rounds == rounds
    del spatial

    start = time.perf_counter()
    dense = make_backend("dense", positions, params)
    dense_build_s = time.perf_counter() - start
    dense.receptions_table(indptr, members)
    dense_total_s = time.perf_counter() - start
    del dense

    start = time.perf_counter()
    spatial = make_backend("spatial", positions, params)
    spatial_build_s = time.perf_counter() - start
    spatial.receptions_table(indptr, members)
    spatial_total_s = time.perf_counter() - start

    return {
        "dense_build_s": dense_build_s,
        "spatial_build_s": spatial_build_s,
        "dense_total_s": dense_total_s,
        "spatial_total_s": spatial_total_s,
        "dense_warm_batch_s": dense_warm_s,
        "spatial_warm_batch_s": spatial_warm_s,
        "rounds": float(rounds),
        "per_round": float(per_round),
        "speedup": dense_total_s / spatial_total_s if spatial_total_s else float("inf"),
    }


def bench_batched_driver(n: int, rounds: int, per_round: int) -> Dict[str, float]:
    """The spatial backend's fused round driver against one call per round.

    The schedule is deliberately driver-bound -- many rounds, few
    transmitters each, unit-density placement (``side = sqrt(n)``, the
    regime the paper's schedules and the local-broadcast leg run in) -- so
    per-round NumPy call floors (argsort, searchsorted, unique) dominate
    and fusing rounds into one composite-keyed join is where the win
    lives.  The baseline runs the same backend one round at a time: one
    ``receptions_table`` call per one-round slice of the CSR schedule,
    its tables concatenated with shifted round ids.  Bit-identity of the
    two delivery tables (all four columns, SINR included) is asserted
    *before* anything is timed: a fast-but-different driver would be a
    bug, not a result.
    """
    rng = np.random.default_rng(0)
    positions = rng.uniform(0.0, float(np.sqrt(n)), size=(n, 2))
    indptr, members = csr_schedule(n, rounds, per_round, seed=4)
    backend = make_backend("spatial", positions, SINRParameters.default())

    def one_round_at_a_time():
        tables = [
            backend.receptions_table(
                indptr[t:t + 2] - indptr[t], members[indptr[t]:indptr[t + 1]]
            )
            for t in range(rounds)
        ]
        return [
            np.concatenate([table.round_ids + t for t, table in enumerate(tables)]),
            *(np.concatenate([getattr(table, column) for table in tables])
              for column in ("receivers", "senders", "sinr")),
        ]

    # Warm up (grid build, listener buckets), then the equivalence pass.
    round_ids, receivers, senders, sinr = one_round_at_a_time()
    fused = backend.receptions_table(indptr, members)
    assert np.array_equal(round_ids, fused.round_ids), "round_ids diverged"
    assert np.array_equal(receivers, fused.receivers), "receivers diverged"
    assert np.array_equal(senders, fused.senders), "senders diverged"
    assert np.array_equal(sinr, fused.sinr), "SINR not bit-identical"

    start = time.perf_counter()
    one_round_at_a_time()
    single_s = time.perf_counter() - start

    start = time.perf_counter()
    backend.receptions_table(indptr, members)
    fused_s = time.perf_counter() - start
    info = backend.grid_info()

    return {
        "rounds": float(rounds),
        "per_round": float(per_round),
        "deliveries": float(len(fused)),
        "single_s": single_s,
        "fused_s": fused_s,
        "batches": float(info["batches"]),
        "join_entries": float(info["join_entries"]),
        "speedup": single_s / fused_s if fused_s else float("inf"),
    }


def bench_local_broadcast(n: int, seed: int = 5) -> Dict[str, float]:
    """A complete local-broadcast run through the spatial backend.

    Constant-density deployment (one node per unit square, ``side =
    sqrt(n)``): the regime the paper's O(Gamma log N + log^2 N) analysis
    targets, and the documented n=100k recipe (docs/guide/performance.md).
    """
    network = deployment.uniform_random(
        n, area_side=float(np.sqrt(n)), seed=seed, backend="spatial"
    )
    sim = SINRSimulator(network)
    config = AlgorithmConfig.fast()
    start = time.perf_counter()
    result = local_broadcast(sim, config=config)
    seconds = time.perf_counter() - start
    ratio = result.delivered.served_fraction(network)
    return {
        "seconds": seconds,
        "rounds_used": float(result.rounds_used),
        "gamma": float(network.delta_bound),
        "completed": float(ratio == 1.0),
        "completion_ratio": float(ratio),
        "dense_matrix_gb_hypothetical": dense_matrix_bytes(n) / 1e9,
    }


def bench_single_round(n: int, tx_density: float = 0.001, seed: int = 7) -> Dict[str, float]:
    """Spatial build + one full round at frontier scale (recorded, not gated)."""
    rng = np.random.default_rng(seed)
    side = float(np.sqrt(n))
    positions = rng.uniform(0.0, side, size=(n, 2))
    params = SINRParameters.default()

    start = time.perf_counter()
    backend = make_backend("spatial", positions, params)
    transmitters = np.flatnonzero(rng.random(n) < tx_density)
    first = backend.receptions(list(transmitters))  # includes the grid build
    build_and_first_s = time.perf_counter() - start

    start = time.perf_counter()
    second = backend.receptions(list(transmitters))
    round_s = time.perf_counter() - start
    assert set(first) == set(second)

    return {
        "n": float(n),
        "build_and_first_round_s": build_and_first_s,
        "round_s": round_s,
        "transmitters": float(transmitters.size),
        "receivers": float(len(second)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small-n", type=int, default=5_000, help="deployment size for the batch-speed comparison")
    parser.add_argument("--large-n", type=int, default=50_000, help="deployment size for the memory comparison")
    parser.add_argument("--spatial-n", type=int, default=10_000, help="deployment size for the spatial-vs-dense gate")
    parser.add_argument("--broadcast-n", type=int, default=100_000, help="deployment size for the local-broadcast run")
    parser.add_argument("--frontier-n", type=int, default=1_000_000, help="deployment size for the single-round frontier leg")
    parser.add_argument("--rounds", type=int, default=64, help="schedule length")
    parser.add_argument("--per-round", type=int, default=32, help="transmitters per round")
    parser.add_argument("--budget-gb", type=float, default=4.0, help="memory budget the backends are judged against")
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: small sizes, the spatial gate drops to a "
        "conservative 2x (shared CI runners are too noisy for tight "
        "wall-clock gates), and the 100k/1M legs shrink to 2k/250k -- the "
        "equivalence assertions still fail loudly on semantic divergence",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_backend_scaling.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    if args.quick:
        # One n x n float64 gain matrix must exceed the 4 GB budget for the
        # memory leg to show anything (n >= 22,400); 24k needs 4.6 GB.
        small_n, large_n, spatial_n = 1_500, 24_000, 5_000
        broadcast_n, frontier_n = 2_000, 250_000
        rounds, per_round = 12, 16
        driver_rounds, driver_per_round = 256, 4
        required_speedup = 2.0
        required_driver_speedup = 1.5
    else:
        small_n, large_n, spatial_n = args.small_n, args.large_n, args.spatial_n
        broadcast_n, frontier_n = args.broadcast_n, args.frontier_n
        rounds, per_round = args.rounds, args.per_round
        driver_rounds, driver_per_round = 1_024, 4
        required_speedup = 5.0
        required_driver_speedup = 3.0

    print(f"== batched vs round-by-round execution (n={small_n}, "
          f"{rounds} rounds x {per_round} transmitters) ==")
    timing = bench_batch_vs_rounds(small_n, rounds, per_round)
    for name in sorted(BACKENDS):
        print(
            f"  {name:>7}: round-by-round {timing[f'{name}_loop_s']*1e3:8.1f} ms | "
            f"batched {timing[f'{name}_batch_s']*1e3:8.1f} ms | "
            f"speedup {timing[f'{name}_speedup']:5.1f}x"
        )

    print(f"\n== memory scaling (n={large_n}, budget {args.budget_gb:.1f} GB) ==")
    memory = bench_memory_scaling(large_n, rounds, per_round, args.budget_gb)
    verdict = "fits" if memory["dense_fits_budget"] else "DOES NOT FIT"
    print(f"  dense: needs {memory['dense_matrix_gb']:.1f} GB for its gain matrix -> {verdict} (not built)")
    print(f"  lazy:  ran the full schedule at peak {memory['lazy_peak_gb']:.2f} GB "
          f"({int(memory['lazy_deliveries'])} deliveries, "
          f"{int(memory['lazy_cached_rows'])} cached rows, "
          f"{int(memory['lazy_cache_hits'])} cache hits)")

    print(f"\n== spatial vs dense schedule evaluation (n={spatial_n}) ==")
    spatial = bench_spatial_speedup(spatial_n, rounds=30 if not args.quick else 12)
    print(f"  build: dense {spatial['dense_build_s']:7.2f} s | spatial {spatial['spatial_build_s']:7.3f} s")
    print(f"  build + schedule ({int(spatial['rounds'])} rounds x {int(spatial['per_round'])} tx): "
          f"dense {spatial['dense_total_s']:7.2f} s | spatial {spatial['spatial_total_s']:7.2f} s | "
          f"speedup {spatial['speedup']:5.1f}x")
    print(f"  warm re-evaluation (recorded, not gated): "
          f"dense {spatial['dense_warm_batch_s']:7.2f} s | spatial {spatial['spatial_warm_batch_s']:7.2f} s")

    print(f"\n== batched round driver (n={spatial_n}, "
          f"{driver_rounds} rounds x {driver_per_round} tx) ==")
    driver = bench_batched_driver(spatial_n, driver_rounds, driver_per_round)
    print(f"  bit-identity: asserted on {int(driver['deliveries'])} deliveries")
    print(f"  one call per round {driver['single_s']*1e3:8.1f} ms | "
          f"fused ({int(driver['batches'])} batches) {driver['fused_s']*1e3:8.1f} ms | "
          f"speedup {driver['speedup']:5.1f}x")

    print(f"\n== local broadcast through the spatial backend (n={broadcast_n}) ==")
    broadcast = bench_local_broadcast(broadcast_n)
    print(f"  {broadcast['seconds']:8.1f} s | {int(broadcast['rounds_used'])} rounds | "
          f"gamma={int(broadcast['gamma'])} | "
          f"completed={bool(broadcast['completed'])} "
          f"(ratio {broadcast['completion_ratio']:.3f}); "
          f"dense would need {broadcast['dense_matrix_gb_hypothetical']:.1f} GB")

    print(f"\n== single-round frontier (n={frontier_n}) ==")
    frontier = bench_single_round(frontier_n)
    print(f"  build+first round {frontier['build_and_first_round_s']:7.2f} s | "
          f"steady round {frontier['round_s']:7.2f} s | "
          f"{int(frontier['transmitters'])} tx -> {int(frontier['receivers'])} receivers")

    legs = {
        "batch_vs_rounds": timing,
        "memory_scaling": memory,
        "spatial_speedup": spatial,
        "batched_driver": driver,
        "local_broadcast": broadcast,
        "single_round_frontier": frontier,
    }
    # The batched-vs-loop claim is gated on the lazy backend (full mode):
    # batching is what makes O(n)-memory physics usable, and its win does
    # not depend on warm caches.  Dense and spatial loop/batch numbers are
    # recorded unguarded (see claim 1 in the module docstring).
    batched_ok = args.quick or timing["lazy_speedup"] >= 1.5
    ok = (
        batched_ok
        and not memory["dense_fits_budget"]
        and memory["lazy_peak_gb"] <= args.budget_gb
        and spatial["speedup"] >= required_speedup
        and driver["speedup"] >= required_driver_speedup
        and bool(broadcast["completed"])
    )
    print(
        f"\nacceptance: spatial >= {required_speedup:.1f}x over dense at n={spatial_n}: "
        f"{spatial['speedup']:.1f}x; fused driver >= {required_driver_speedup:.1f}x "
        f"over one call per round: {driver['speedup']:.1f}x; "
        f"local broadcast completed at n={broadcast_n}: "
        f"{bool(broadcast['completed'])}; lazy batched >= 1.5x: "
        f"{timing['lazy_speedup']:.1f}x -> {'PASS' if ok else 'FAIL'}"
    )

    record = {
        "benchmark": "backend_scaling",
        "mode": "quick" if args.quick else "full",
        "small_n": small_n,
        "large_n": large_n,
        "spatial_n": spatial_n,
        "broadcast_n": broadcast_n,
        "frontier_n": frontier_n,
        "rounds": rounds,
        "per_round": per_round,
        "required_speedup": required_speedup,
        "required_driver_speedup": required_driver_speedup,
        "legs": legs,
        "pass": bool(ok),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
