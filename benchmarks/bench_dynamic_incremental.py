"""Dynamic-physics benchmark: incremental position updates vs full rebuilds.

The dynamics subsystem's performance claim: when a small fraction of the
nodes moves between epochs, ``PhysicsBackend.update_positions`` -- which
recomputes only the touched gain rows/columns -- beats rebuilding the dense
backend (full pairwise-distance + power-law matrix) from scratch.

Two legs, each asserting exact semantic equivalence before timing:

1. **dense incremental vs rebuild** -- per epoch, move 5% of the nodes and
   either patch the warm backend in place or construct a fresh one; both are
   then evaluated on the same transmitter schedule and must produce the
   identical delivery table.  The acceptance gate (full mode) is a >= 5x
   speedup of the physics-maintenance step at n=2000.
2. **lazy cache warmth** -- the same moves against the O(n)-memory backend:
   patching keeps the LRU row cache warm, a fresh construction pays all row
   misses again on the next schedule.  Recorded, not gated (the lazy
   constructor itself is O(1), so the win is in the post-move evaluation).

The measurements are written to ``BENCH_dynamic_incremental.json``; CI runs
the ``--quick`` variant as a smoke check and archives the JSON.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_dynamic_incremental.py
    PYTHONPATH=src python benchmarks/bench_dynamic_incremental.py --quick
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.sinr.backends import DenseMatrixBackend, LazyBlockBackend
from repro.sinr.model import SINRParameters


def random_schedule(n: int, rng: np.random.Generator, rounds: int = 8, density: float = 0.02):
    members = []
    indptr = [0]
    for _ in range(rounds):
        chosen = np.flatnonzero(rng.random(n) < density)
        members.append(chosen)
        indptr.append(indptr[-1] + len(chosen))
    return np.array(indptr, dtype=np.int64), np.concatenate(members)


def assert_tables_equal(a, b, context: str) -> None:
    assert np.array_equal(a.round_ids, b.round_ids), f"{context}: rounds diverged"
    assert np.array_equal(a.receivers, b.receivers), f"{context}: receivers diverged"
    assert np.array_equal(a.senders, b.senders), f"{context}: senders diverged"


def epoch_moves(n: int, fraction: float, area: float, rng: np.random.Generator):
    m = max(1, int(round(fraction * n)))
    indices = rng.choice(n, size=m, replace=False)
    return indices, rng.uniform(0.0, area, size=(m, 2))


def bench_dense(n: int, epochs: int, fraction: float, seed: int) -> Dict[str, float]:
    """Leg 1: dense backend maintenance, incremental vs full rebuild."""
    params = SINRParameters.default()
    area = 2.0 * np.sqrt(n / 500.0)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, area, size=(n, 2))

    incremental = DenseMatrixBackend(positions.copy(), params)
    update_s = 0.0
    rebuild_s = 0.0
    for _ in range(epochs):
        indices, new_xy = epoch_moves(n, fraction, area, rng)
        positions[indices] = new_xy

        start = time.perf_counter()
        incremental.update_positions(indices, new_xy)
        update_s += time.perf_counter() - start

        start = time.perf_counter()
        rebuilt = DenseMatrixBackend(positions.copy(), params)
        rebuild_s += time.perf_counter() - start

        indptr, members = random_schedule(n, rng)
        assert_tables_equal(
            incremental.receptions_table(indptr, members),
            rebuilt.receptions_table(indptr, members),
            "dense incremental",
        )
    return {
        "incremental_s": update_s,
        "rebuild_s": rebuild_s,
        "speedup": rebuild_s / max(update_s, 1e-9),
    }


def bench_lazy(n: int, epochs: int, fraction: float, seed: int) -> Dict[str, float]:
    """Leg 2: lazy backend, post-move schedule evaluation warm vs cold cache."""
    params = SINRParameters.default()
    area = 2.0 * np.sqrt(n / 500.0)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, area, size=(n, 2))

    patched = LazyBlockBackend(positions.copy(), params)
    warm_s = 0.0
    cold_s = 0.0
    # One recurring schedule, as in real executions (the same globally known
    # schedule is re-run every epoch); its senders' rows are what the cache
    # keeps warm across epochs.
    indptr, members = random_schedule(n, rng)
    patched.receptions_table(indptr, members)  # populate the cache
    for _ in range(epochs):
        indices, new_xy = epoch_moves(n, fraction, area, rng)
        positions[indices] = new_xy
        patched.update_positions(indices, new_xy)
        cold = LazyBlockBackend(positions.copy(), params)

        start = time.perf_counter()
        warm_table = patched.receptions_table(indptr, members)
        warm_s += time.perf_counter() - start

        start = time.perf_counter()
        cold_table = cold.receptions_table(indptr, members)
        cold_s += time.perf_counter() - start
        assert_tables_equal(warm_table, cold_table, "lazy warm-vs-cold")
    hit_rate = patched.cache_info()["hits"] / max(
        1, patched.cache_info()["hits"] + patched.cache_info()["misses"]
    )
    return {
        "warm_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / max(warm_s, 1e-9),
        "hit_rate": hit_rate,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000, help="deployment size for the full run")
    parser.add_argument("--epochs", type=int, default=10, help="number of mutation epochs")
    parser.add_argument(
        "--fraction", type=float, default=0.05, help="fraction of nodes moved per epoch"
    )
    parser.add_argument("--seed", type=int, default=400, help="placement/moves seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: n=500, speedups recorded but not gated on -- shared "
        "CI runners are too noisy for wall-clock gates; the per-epoch "
        "equivalence assertions still fail loudly on semantic divergence",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_dynamic_incremental.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    n = 500 if args.quick else args.n
    epochs = 5 if args.quick else args.epochs
    required_speedup = None if args.quick else 5.0

    print(
        f"== incremental physics vs full rebuild "
        f"(n={n}, {args.fraction:.0%} moving, {epochs} epochs, seed={args.seed}) =="
    )
    legs = {
        "dense_update": bench_dense(n, epochs, args.fraction, args.seed),
        "lazy_cache_warmth": bench_lazy(n, epochs, args.fraction, args.seed),
    }
    dense = legs["dense_update"]
    lazy = legs["lazy_cache_warmth"]
    print(
        f"  dense maintenance: rebuild {dense['rebuild_s']*1e3:8.1f} ms | "
        f"incremental {dense['incremental_s']*1e3:8.1f} ms | speedup {dense['speedup']:5.1f}x"
    )
    print(
        f"  lazy schedule eval: cold {lazy['cold_s']*1e3:8.1f} ms | "
        f"warm {lazy['warm_s']*1e3:8.1f} ms | speedup {lazy['speedup']:5.1f}x "
        f"(row-cache hit rate {lazy['hit_rate']:.0%})"
    )

    if required_speedup is None:
        ok = True
        print(f"\nsmoke mode: dense incremental {dense['speedup']:.1f}x at n={n} (not gated)")
    else:
        ok = dense["speedup"] >= required_speedup
        print(
            f"\nacceptance: dense incremental update >= {required_speedup:.1f}x at n={n} "
            f"with {args.fraction:.0%} moving: {dense['speedup']:.1f}x -> {'PASS' if ok else 'FAIL'}"
        )

    record = {
        "benchmark": "dynamic_incremental",
        "mode": "quick" if args.quick else "full",
        "n": n,
        "epochs": epochs,
        "moved_fraction": args.fraction,
        "seed": args.seed,
        "required_speedup": required_speedup,
        "legs": legs,
        "pass": bool(ok),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
