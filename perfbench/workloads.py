"""The ``paper``, ``wide-rounds`` and ``sweep`` workloads (``service`` lives in
:mod:`service_load`).

Every input is generated here from the run's ``--seed``; the program only
sees the resulting specs.  Each workload function returns a
:class:`Outcome` whose ``metrics`` hold the end-to-end metrics (untraced
run) or the per-layer metrics (traced run).  Every workload reports the same
end-to-end metrics: ``pass_s`` is the time of one pass of the workload's
fixed unit of work, ``peak_rss_mb`` the high-water RSS of the process doing
it (``setup_s`` is added by ``run.py``).  README.md records why each
workload was chosen.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from gate import Gate, body, canonical, checks_pass
from tracer import (
    ID_STRIDE,
    Tracer,
    attribution,
    calls_by_name,
    self_time_by_name,
    shift_ids,
    total_time_by_name,
)

BACKENDS = ("dense", "lazy", "spatial")

#: Placement seed of every ``paper`` and ``wide-rounds`` input.  These inputs
#: are fixed, so every run does the same work and ``pass_s`` moves only with
#: the program and the host.  Drawn from ``--seed``, the work itself moved too
#: much: ``paper``'s charged rounds spread 0.25 over ten seeds, and on one
#: placement the coin flips of ``local-broadcast-randomized`` moved its rounds
#: from 1280 to 2658.  ``--seed`` orders the backends and specs of each cycle.
FIXED_SEED = 1

#: Randomized baselines that succeed only with high probability within a
#: fixed round budget (one of six coin-flip seeds on one n=1000 placement
#: ended ``local-broadcast-randomized`` with ``completed: false``).
MONTE_CARLO = ("local-broadcast-randomized", "global-broadcast-decay")

#: Monte-Carlo inputs of one run that may miss their success flag.  A miss
#: beyond this counts as a failed op on every backend.
MISS_TOLERANCE = 1

#: Parallelism of every pool the benchmark starts (checked against nproc).
WORKERS = 2

#: Repetitions below which a run keeps going past ``--seconds``, so that
#: every reported figure is a median of at least this many.  A ``paper``
#: cycle takes about 9 s on a 2-core box and a ``wide-rounds`` cycle about
#: 12 s, so two cycles keep a run within the time all runs may take.
MIN_CYCLES = 2
SWEEP_MIN_REPS = 2


@dataclass
class Context:
    """What one benchmark process knows: its arguments and where to work."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    started: float  # perf_counter() taken before ``import repro``

    def rng(self, stream: str) -> random.Random:
        """A generator derived from the single ``--seed`` (and a stream name)."""
        return random.Random(f"{self.workload}:{stream}:{self.seed}")


@dataclass
class Outcome:
    """A workload's result: metrics by name -> (value, unit), plus the gate."""

    gate: Gate
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    setup_s: float = 0.0
    notes: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """High-water RSS of this process, in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest high-water RSS among this process's waited-for descendants, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# paper and wide-rounds: the same run mix on every backend.
# ---------------------------------------------------------------------- #


def central_uid(deployment) -> int:
    """The uid of the node nearest the centre of the placement's bounding box."""
    import numpy as np
    from repro import api

    network = api.build_deployment(on_backend_deployment(deployment, "lazy"))
    positions = network.positions
    centre = (positions.min(axis=0) + positions.max(axis=0)) / 2.0
    return int(network.uid_array[np.argmin(((positions - centre) ** 2).sum(axis=1))])


def paper_specs() -> List[Any]:
    """Thm 2 local broadcast (with Thm 1 clustering) and Thm 3 global broadcast.

    uniform, n=120 on a 3.9 x 3.9 square (density bound about 32): long,
    narrow schedules of a few transmitters per round.  Global broadcast
    starts at the most central node: from node index 0, wherever it sits,
    its round count ranged 171k-320k over 8 placements, and from the centre
    164k-230k.
    """
    from repro import api

    deployment = api.DeploymentSpec("uniform", {"nodes": 120, "area": 3.9}, seed=FIXED_SEED)
    source = central_uid(deployment)
    return [
        api.RunSpec(deployment=deployment, algorithm=api.AlgorithmSpec("local-broadcast")),
        api.RunSpec(deployment=deployment,
                    algorithm=api.AlgorithmSpec("global-broadcast", params={"source": source})),
    ]


def wide_specs() -> List[Any]:
    """The Table 1/2 randomized baselines: few rounds, many pairs per round.

    Randomized local broadcast runs at n=400 (about 1000 rounds; at n=1000 it
    took 9 s a cycle, more than the time budget of a run allows); decay
    global broadcast keeps n=3000, whose 72 MB distance matrix exceeds the
    lazy backend's 64 MiB row cache.  Their coin flips use the catalog's
    default seeds.
    """
    from repro import api

    return [
        api.RunSpec(
            deployment=api.DeploymentSpec("uniform", {"nodes": 400, "area": 7.15},
                                          seed=FIXED_SEED),
            algorithm=api.AlgorithmSpec("local-broadcast-randomized"),
        ),
        api.RunSpec(
            deployment=api.DeploymentSpec("uniform", {"nodes": 3000, "area": 19.5},
                                          seed=FIXED_SEED),
            algorithm=api.AlgorithmSpec("global-broadcast-decay"),
        ),
    ]


def on_backend_deployment(d, backend: str):
    """The same deployment on another physics backend."""
    from repro import api

    return api.DeploymentSpec(d.kind, d.param_dict(), seed=d.seed, backend=backend)


def on_backend(spec, backend: str):
    """The same spec with its deployment moved to another physics backend."""
    from repro import api

    return api.RunSpec(deployment=on_backend_deployment(spec.deployment, backend),
                       algorithm=spec.algorithm)


def warm_selectors(specs) -> None:
    """Build the selector schedules the specs will look up (the paper's nodes
    know them in advance, so building them is set-up, not run time)."""
    from repro import api
    from repro.core.primitives import sns_for, wcss_for, wss_for

    for spec in specs:
        network = api.build_deployment(on_backend_deployment(spec.deployment, "lazy"))
        config = spec.algorithm.build_config()
        for accessor in (sns_for, wss_for, wcss_for):
            accessor(network.id_space, config)


def warm_backends(specs) -> None:
    """Run each algorithm of ``specs`` once per backend on a tiny placement.

    The first call of a backend pays one-time costs (lazy imports, first
    allocations): at n=400 the first dense pass of a process took 1.7 s
    against 1.2 s for a later, larger one.  Paying them here keeps them out
    of ``pass_s``.
    """
    from repro import api

    tiny = api.DeploymentSpec("uniform", {"nodes": 12, "area": 1.0}, seed=FIXED_SEED)
    for spec in specs:
        # Default parameters: a ``source`` of the real placement is not in the tiny one.
        algorithm = api.AlgorithmSpec(spec.algorithm.name)
        for backend in BACKENDS:
            api.run(on_backend(api.RunSpec(deployment=tiny, algorithm=algorithm), backend))


class BackendMix:
    """Runs the spec mix once per backend, gating every result.

    Every result must equal the first result of the same algorithm, whichever
    backend and cycle produced that one (the inputs never change in a run).
    """

    def __init__(self, gate: Gate) -> None:
        self.gate = gate
        self.references: Dict[str, str] = {}
        self.missed: set = set()  # Monte-Carlo inputs whose success flag is false

    def check(self, name: str, backend: str, data: Dict[str, Any]) -> bool:
        """Gate one result; a Monte-Carlo miss passes while within :data:`MISS_TOLERANCE`."""
        tolerated = name in MONTE_CARLO and (
            name in self.missed or len(self.missed) < MISS_TOLERANCE)
        ok = self.gate.result(data, self.references.get(name), f"{name}@{backend}",
                              checks=not tolerated)
        self.references.setdefault(name, canonical(body(data)))
        if tolerated and not checks_pass(data):
            self.missed.add(name)
        return ok

    def one_pass(self, mix, backend: str, tracer: Optional[Tracer] = None) -> float:
        """Run every spec of ``mix`` on ``backend``; returns the wall time of the pass."""
        from repro import api

        specs = [on_backend(spec, backend) for spec in mix]
        results = []
        started = time.perf_counter()
        for spec in specs:
            try:
                if tracer is None:
                    results.append(api.run(spec))
                else:
                    with tracer.span("op"):
                        results.append(api.run(spec))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                results.append(exc)
        elapsed = time.perf_counter() - started
        for spec, result in zip(specs, results):
            if isinstance(result, Exception):
                self.gate.record(False, f"{spec.algorithm.name}@{backend}: raised {result!r}")
            else:
                self.check(spec.algorithm.name, backend, result.to_dict())
        return elapsed


def backend_mix(ctx: Context, specs, warm: bool) -> Outcome:
    """Shared body of ``paper`` and ``wide-rounds``.

    A cycle runs the spec mix once on each backend, in an order drawn from
    the seed.  Cycles repeat while fewer than :data:`MIN_CYCLES` have run, or
    while another one (as long as the last) would end within ``--seconds``.
    ``pass_s`` is the sum over backends of the median of each backend's
    passes: one pass of the mix on all three.
    """
    gate = Gate()
    tracer = Tracer() if ctx.trace else None
    if tracer is not None:
        layers.install(tracer)
        selectors_before = layers.selector_cache_counts()
    if warm:
        warm_selectors(specs)
    warm_backends(specs)
    runner = BackendMix(gate)
    outcome = Outcome(gate=gate, setup_s=time.perf_counter() - ctx.started)
    if tracer is not None:
        return _traced_backend_mix(ctx, runner, specs, tracer, selectors_before, outcome)

    order = ctx.rng("order")
    passes: Dict[str, List[float]] = {b: [] for b in BACKENDS}
    started = time.perf_counter()
    cycles = 0
    while True:
        cycle_started = time.perf_counter()
        mix = order.sample(specs, len(specs))
        for backend in order.sample(BACKENDS, len(BACKENDS)):
            passes[backend].append(runner.one_pass(mix, backend))
            gc.collect()  # free this pass's networks before the next one allocates
        now = time.perf_counter()
        cycles += 1
        if cycles >= MIN_CYCLES and (now - started) + (now - cycle_started) > ctx.seconds:
            break
    medians = {b: statistics.median(passes[b]) for b in BACKENDS}
    outcome.metrics["pass_s"] = (sum(medians.values()), "s")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.notes.append(
        "passes per backend: "
        + ", ".join(f"{b}={[round(t, 3) for t in passes[b]]}" for b in BACKENDS)
        + "; median per backend: "
        + ", ".join(f"{b}={medians[b]:.3f} s" for b in BACKENDS)
    )
    if runner.missed:
        outcome.notes.append(f"Monte-Carlo inputs that missed their success flag: {runner.missed}")
    return outcome


def _traced_backend_mix(ctx, runner: BackendMix, mix, tracer: Tracer, selectors_before,
                        outcome) -> Outcome:
    """One untraced and one traced pass per backend on the same mix, then the
    per-layer metrics."""
    tracer.uninstall()
    untraced = {b: runner.one_pass(mix, b) for b in BACKENDS}
    layers.install(tracer)
    traced: Dict[str, float] = {}
    ops: Dict[str, set] = {}
    for backend in BACKENDS:
        first = len(tracer.spans)
        traced[backend] = runner.one_pass(mix, backend, tracer)
        ops[backend] = {span[5] for span in tracer.spans[first:] if span[1] == "op"}
    tracer.uninstall()
    hits, misses = (a - b for a, b in zip(layers.selector_cache_counts(), selectors_before))
    outcome.metrics = layer_metrics(
        tracer, traced, untraced, ops, selector_hit_ratio=hits / max(1, hits + misses)
    )
    wanted = PAPER_LAYER_METRICS if ctx.workload == "paper" else WIDE_LAYER_METRICS
    outcome.metrics = {k: v for k, v in outcome.metrics.items() if k in wanted}
    check_attribution(outcome, attribution(tracer.spans, ["op"]))
    return outcome


#: An op's inner layers must cover at least this share of its wall time.
MIN_ATTRIBUTED_SHARE = 0.95


def check_attribution(outcome: Outcome, ops: List[Tuple[float, float]],
                      per_op: bool = True) -> None:
    """Report how much of a traced run's op wall time the inner layers cover, and gate it.

    ``ops`` holds (unattributed s, wall s) per op.  With ``per_op`` every op
    must reach :data:`MIN_ATTRIBUTED_SHARE`; otherwise the ops' total must.
    """
    shares = [1.0 - loose / wall for loose, wall in ops]
    lowest = min(shares) if shares else 0.0
    overall = 1.0 - sum(loose for loose, _ in ops) / sum(wall for _, wall in ops) if ops else 0.0
    outcome.metrics["trace.attributed_share_min"] = (lowest, "1")
    outcome.notes.append(
        f"attributed share over {len(ops)} ops: min {lowest:.4f}, overall {overall:.4f}")
    gated = lowest if per_op else overall
    outcome.gate.record(gated >= MIN_ATTRIBUTED_SHARE,
                        f"trace: inner layers cover only {gated:.3f} of op wall time")


CORE_LAYERS = (
    "core.local_broadcast", "core.global_broadcast", "core.clustering", "core.radius_reduction",
    "core.sparsification", "core.proximity", "core.labeling", "core.sns",
)

_COMMON_LAYER_METRICS = (
    [f"api.build_deployment_s.{b}" for b in BACKENDS]
    + ["api.run.self_s", "simulation.run_schedule_table.calls",
       "simulation.run_schedule_table.rounds", "simulation.run_schedule_table.self_s"]
    + [f"backends.{b}.{m}" for b in BACKENDS
       for m in ("table.calls", "table.s", "table.us_per_round", "delivery_ratio", "share_of_run")]
    + ["trace.overhead_ratio", "trace.bookkeeping_s"]
)
PAPER_LAYER_METRICS = set(
    _COMMON_LAYER_METRICS
    + [f"{layer}.self_s" for layer in CORE_LAYERS]
    + ["selectors.build_s", "selectors.cache_hit_ratio", "simulation.schedule_runner.self_s",
       "backends.spatial.fused_round_ratio", "backends.spatial.join_entries"]
)
WIDE_LAYER_METRICS = set(
    _COMMON_LAYER_METRICS
    + ["baselines.self_s", "simulation.run_round.calls", "simulation.run_round.self_s",
       "backends.lazy.row_hit_ratio"]
    + [f"backends.{b}.{m}" for b in BACKENDS for m in ("round.s", "ns_per_pair")]
)


def layer_metrics(tracer: Tracer, traced: Dict[str, float], untraced: Dict[str, float],
                  ops: Dict[str, set], selector_hit_ratio: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass per backend."""
    spans, counters = tracer.spans, tracer.counters
    own = self_time_by_name(spans)
    total = total_time_by_name(spans)
    calls = calls_by_name(spans)
    out: Dict[str, Tuple[float, str]] = {}
    for backend in BACKENDS:
        build = self_time_by_name(
            [s for s in spans if s[5] in ops[backend] and s[1] == "api.build_deployment"]
        )
        out[f"api.build_deployment_s.{backend}"] = (build.get("api.build_deployment", 0.0), "s")
        table_s = total.get(f"backends.{backend}.table", 0.0)
        round_s = total.get(f"backends.{backend}.round", 0.0)
        nonempty = counters.get(f"backends.{backend}.table.rounds_nonempty", 0.0)
        pairs = counters.get(f"backends.{backend}.pairs", 0.0)
        out[f"backends.{backend}.table.calls"] = (calls.get(f"backends.{backend}.table", 0), "count")
        out[f"backends.{backend}.table.s"] = (table_s, "s")
        out[f"backends.{backend}.table.us_per_round"] = (1e6 * table_s / max(1.0, nonempty), "us")
        out[f"backends.{backend}.round.s"] = (round_s, "s")
        out[f"backends.{backend}.ns_per_pair"] = (1e9 * (table_s + round_s) / max(1.0, pairs), "ns")
        out[f"backends.{backend}.delivery_ratio"] = (
            counters.get(f"backends.{backend}.deliveries", 0.0) / max(1.0, pairs), "1"
        )
        out[f"backends.{backend}.share_of_run"] = ((table_s + round_s) / traced[backend], "1")
    for layer in CORE_LAYERS + ("baselines", "api.run", "simulation.schedule_runner",
                                "simulation.run_schedule_table", "simulation.run_round"):
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    out["simulation.run_schedule_table.calls"] = (calls.get("simulation.run_schedule_table", 0), "count")
    out["simulation.run_schedule_table.rounds"] = (
        counters.get("simulation.run_schedule_table.rounds", 0.0), "count"
    )
    out["simulation.run_round.calls"] = (calls.get("simulation.run_round", 0), "count")
    out["selectors.build_s"] = (total.get("selectors.build", 0.0), "s")
    out["selectors.cache_hit_ratio"] = (selector_hit_ratio, "1")
    fused = counters.get("backends.spatial.rounds_fused", 0.0)
    single = counters.get("backends.spatial.rounds_single", 0.0)
    out["backends.spatial.fused_round_ratio"] = (fused / max(1.0, fused + single), "1")
    out["backends.spatial.join_entries"] = (counters.get("backends.spatial.join_entries", 0.0), "count")
    row_hits = counters.get("backends.lazy.row_hits", 0.0)
    row_total = row_hits + counters.get("backends.lazy.row_misses", 0.0)
    out["backends.lazy.row_hit_ratio"] = (row_hits / max(1.0, row_total), "1")
    out["trace.overhead_ratio"] = (sum(traced.values()) / sum(untraced.values()) - 1.0, "1")
    out["trace.bookkeeping_s"] = (own.get("trace.bookkeeping", 0.0), "s")
    return out


def paper(ctx: Context) -> Outcome:
    """Thm 1-3 algorithms on every backend (see :func:`paper_specs`)."""
    return backend_mix(ctx, paper_specs(), warm=True)


def wide_rounds(ctx: Context) -> Outcome:
    """Table 1/2 baselines on every backend (see :func:`wide_specs`)."""
    return backend_mix(ctx, wide_specs(), warm=False)


# ---------------------------------------------------------------------- #
# sweep: one grid through the queue, the pool, and warm from the store.
# ---------------------------------------------------------------------- #


def sweep_specs(ctx: Context) -> List[Any]:
    """32 small local-broadcast cells (n in {8, 16}) on fixed placements.

    The seed orders the grid, and so which cells each worker claims.
    """
    from repro import api

    specs = [
        api.RunSpec(
            deployment=api.DeploymentSpec(
                "uniform", {"nodes": nodes, "area": area}, seed=FIXED_SEED + index
            ),
            algorithm=api.AlgorithmSpec("local-broadcast"),
        )
        for nodes, area in ((8, 1.5), (16, 2.0))
        for index in range(16)
    ]
    ctx.rng("grid").shuffle(specs)
    return specs


#: The warm pass reads the whole grid this many times.  One read of 32 cells
#: takes a few milliseconds, so its share of ``pass_s`` comes from the median
#: read of all repetitions, which a single slow read cannot move.
WARM_REPEATS = 100


class Grid:
    """One repetition: cold queue, cold pool, warm store; gated cell by cell."""

    def __init__(self, specs, gate: Gate, work: Path) -> None:
        self.specs = specs
        self.gate = gate
        self.work = work
        self.references: List[Optional[str]] = [None] * len(specs)
        self.reps = 0

    def repetition(self) -> Dict[str, Any]:
        from repro import api
        from repro.distributed import run_distributed

        rep = self.work / f"rep{self.reps}"
        self.reps += 1
        rep.mkdir(parents=True)
        timings: Dict[str, float] = {}
        outputs: Dict[str, List[Any]] = {}
        try:
            started = time.perf_counter()
            outputs["queue"] = run_distributed(self.specs, rep / "queue", "grid", workers=WORKERS)
            timings["queue"] = time.perf_counter() - started
            started = time.perf_counter()
            outputs["pool"] = api.run_grid(
                self.specs, parallel=True, max_workers=WORKERS, store=rep / "pool"
            )
            timings["pool"] = time.perf_counter() - started
            outputs["warm"], reads = [], []
            for _ in range(WARM_REPEATS):
                started = time.perf_counter()
                outputs["warm"].extend(api.run_grid(self.specs, store=rep / "pool"))
                reads.append(time.perf_counter() - started)
            timings["warm"] = sum(reads)
        finally:
            shutil.rmtree(rep, ignore_errors=True)
        for path in ("queue", "pool", "warm"):
            for position, result in enumerate(outputs[path]):
                index = position % len(self.specs)
                what = f"cell {index} via {path}"
                if getattr(result, "failed", False):
                    self.gate.record(False, f"{what}: {result.summary_line()}")
                    continue
                data = result.to_dict()
                self.gate.result(data, self.references[index], what)
                if self.references[index] is None:
                    self.references[index] = canonical(body(data))
            if path == "warm" and not all(r.cached for r in outputs[path]):
                self.gate.record(False, "warm pass executed cells instead of loading them")
        return {"timings": timings, "outputs": outputs, "reads": reads}


def _cell_overhead_ms(wall: float, results, cells: int) -> float:
    """(wall - Σ cell elapsed / workers) per cell, in ms."""
    busy = sum(r.elapsed for r in results) / WORKERS
    return 1000.0 * (wall - busy) / cells


def sweep(ctx: Context) -> Outcome:
    """Cold grid through ``run_distributed``, then ``run_grid(parallel=True)``, then warm."""
    import repro.api  # noqa: F401
    import repro.distributed  # noqa: F401

    gate = Gate()
    specs = sweep_specs(ctx)
    ctx.work.mkdir(parents=True, exist_ok=True)
    grid = Grid(specs, gate, ctx.work)
    outcome = Outcome(gate=gate, setup_s=time.perf_counter() - ctx.started)
    cells = len(specs)
    if ctx.trace:
        return _traced_sweep(ctx, grid, outcome)

    times: Dict[str, List[float]] = {"queue": [], "pool": []}
    reads: List[float] = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        rep = grid.repetition()
        for path in times:
            times[path].append(rep["timings"][path])
        reads.extend(rep["reads"])
        now = time.perf_counter()
        if grid.reps >= SWEEP_MIN_REPS and (now - started) + (now - rep_started) > ctx.seconds:
            break
    medians = {path: statistics.median(values) for path, values in times.items()}
    medians["warm"] = statistics.median(reads)
    outcome.metrics["pass_s"] = (sum(medians.values()), "s")
    outcome.metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    outcome.notes.append(
        "grid seconds per repetition: "
        + ", ".join(f"{p}={[round(v, 3) for v in times[p]]}" for p in times)
        + f"; warm: median of {len(reads)} grid reads; cells/s (median): "
        + ", ".join(f"{p}={cells / t:.2f}" for p, t in medians.items())
    )
    return outcome


def _traced_sweep(ctx: Context, grid: Grid, outcome: Outcome) -> Outcome:
    """One untraced and one traced repetition; queue workers dump their spans."""
    import repro.distributed.coordinator as coordinator

    untraced = grid.repetition()["timings"]
    tracer = Tracer()
    layers.install(tracer)
    spans_dir = ctx.work / "worker-spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    entry = coordinator._worker_entry

    def traced_entry(*args, **kwargs):
        # Runs in a forked worker: start from an empty record, dump on exit.
        tracer.spans.clear()
        tracer.counters.clear()
        try:
            return entry(*args, **kwargs)
        finally:
            tracer.dump(str(spans_dir / f"{os.getpid()}.json"))

    coordinator._worker_entry = traced_entry
    try:
        rep = grid.repetition()
    finally:
        coordinator._worker_entry = entry
        tracer.uninstall()
    spans, counters = list(tracer.spans), dict(tracer.counters)
    for number, path in enumerate(sorted(spans_dir.glob("*.json")), start=1):
        child = Tracer.load(str(path))
        # Forked workers count span ids on from the same state: keep them apart.
        spans.extend(shift_ids(child.spans, number * ID_STRIDE))
        for key, value in child.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    shutil.rmtree(spans_dir, ignore_errors=True)
    timings, outputs = rep["timings"], rep["outputs"]
    cells = len(grid.specs)
    total = total_time_by_name(spans)
    calls = calls_by_name(spans)
    loads = calls.get("store.load_result", 0)
    m = outcome.metrics
    m["api.supervisor.overhead_ms_per_cell"] = (
        _cell_overhead_ms(timings["pool"], outputs["pool"], cells), "ms")
    m["distributed.overhead_ms_per_cell"] = (
        _cell_overhead_ms(timings["queue"], outputs["queue"], cells), "ms")
    m["distributed.submit_s"] = (total.get("distributed.submit", 0.0), "s")
    m["distributed.claims"] = (counters.get("distributed.claims", 0.0), "count")
    m["distributed.retries"] = (counters.get("distributed.retries", 0.0), "count")
    m["store.put_result.ms_per_call"] = (
        1000.0 * total.get("store.put_result", 0.0) / max(1, calls.get("store.put_result", 0)), "ms")
    m["store.load_result.ms_per_call"] = (
        1000.0 * total.get("store.load_result", 0.0) / max(1, loads), "ms")
    m["store.hit_ratio"] = (counters.get("store.load_result.hits", 0.0) / max(1, loads), "1")
    m["trace.overhead_ratio"] = (sum(timings.values()) / sum(untraced.values()) - 1.0, "1")
    # Cells are short and their workers share the cores with the coordinator,
    # so a cell's wall time includes time off the CPU: gate the total.
    check_attribution(outcome, attribution(spans, ["api.run"]), per_op=False)
    return outcome


def setup_probe(ctx: Context) -> float:
    """One fresh-process set-up of ``ctx.workload`` (no timed work); seconds."""
    import repro.api  # noqa: F401

    if ctx.workload == "paper":
        specs = paper_specs()
        warm_selectors(specs)
        warm_backends(specs)
    elif ctx.workload == "wide-rounds":
        warm_backends(wide_specs())
    else:
        import repro.distributed  # noqa: F401

        sweep_specs(ctx)
        ctx.work.mkdir(parents=True, exist_ok=True)
    return time.perf_counter() - ctx.started
