"""Which public functions the traced run wraps, and the counters it keeps.

Layer names follow the repository's modules (``api``, ``core``,
``baselines``, ``selectors``, ``simulation``, ``backends``, ``network``,
``store``, ``distributed``, ``service``).  Functions are patched at every
early-bound call site (see :meth:`tracer.Tracer.patch_function`); methods
are patched on each concrete class.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from tracer import Tracer

#: (module, function, span name).
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("repro.api.executor", "run", "api.run"),
    ("repro.api.executor", "run_on_network", "api.run_on_network"),
    ("repro.api.executor", "build_deployment", "api.build_deployment"),
    ("repro.core.local_broadcast", "local_broadcast", "core.local_broadcast"),
    ("repro.core.global_broadcast", "global_broadcast", "core.global_broadcast"),
    ("repro.core.global_broadcast", "sms_broadcast", "core.global_broadcast"),
    ("repro.core.clustering", "build_clustering", "core.clustering"),
    ("repro.core.radius_reduction", "reduce_radius", "core.radius_reduction"),
    ("repro.core.sparsification", "sparsify", "core.sparsification"),
    ("repro.core.sparsification", "sparsify_unclustered", "core.sparsification"),
    ("repro.core.sparsification", "full_sparsification", "core.sparsification"),
    ("repro.core.proximity", "build_proximity_graph", "core.proximity"),
    ("repro.core.proximity", "neighbor_exchange", "core.proximity"),
    ("repro.core.proximity", "distributed_mis", "core.proximity"),
    ("repro.core.labeling", "imperfect_labeling", "core.labeling"),
    ("repro.core.primitives", "run_sns", "core.sns"),
    ("repro.selectors.ssf", "greedy_random_ssf", "selectors.build"),
    ("repro.selectors.wss", "random_wss", "selectors.build"),
    ("repro.selectors.wcss", "random_wcss", "selectors.build"),
    ("repro.baselines.randomized_local", "randomized_local_broadcast_known_density", "baselines"),
    ("repro.baselines.randomized_global", "randomized_global_broadcast_decay", "baselines"),
    ("repro.simulation.schedule", "run_schedule", "simulation.schedule_runner"),
    ("repro.simulation.schedule", "run_cluster_schedule", "simulation.schedule_runner"),
    ("repro.simulation.schedule", "run_round_robin", "simulation.schedule_runner"),
    ("repro.distributed.coordinator", "submit_grid", "distributed.submit"),
]

#: The cached selector accessors of ``core.primitives`` (hit ratio source).
SELECTOR_CACHES = ("sparse_network_schedule", "close_pair_selector", "cluster_close_pair_selector")


def backend_classes() -> Dict[str, type]:
    """Backend name -> concrete class."""
    from repro.sinr.backends.dense import DenseMatrixBackend
    from repro.sinr.backends.lazy import LazyBlockBackend
    from repro.sinr.backends.spatial import SpatialGridBackend

    return {"dense": DenseMatrixBackend, "lazy": LazyBlockBackend, "spatial": SpatialGridBackend}


# ---------------------------------------------------------------------- #
# After-call hooks (run inside a trace.bookkeeping span).
# ---------------------------------------------------------------------- #


def _lazy_rows(tracer: Tracer, backend) -> None:
    info = backend.cache_info()
    seen_hits, seen_misses = backend.__dict__.get("_perfbench_rows", (0, 0))
    tracer.count("backends.lazy.row_hits", info["hits"] - seen_hits)
    tracer.count("backends.lazy.row_misses", info["misses"] - seen_misses)
    backend.__dict__["_perfbench_rows"] = (info["hits"], info["misses"])


def _table_hook(name: str):
    def after(tracer: Tracer, args, kwargs, table) -> None:
        backend, indptr, members = args[0], np.asarray(args[1]), np.asarray(args[2])
        listeners = args[3] if len(args) > 3 else kwargs.get("listeners")
        sizes = np.diff(indptr)
        if listeners is None:
            listening = np.full(len(sizes), backend.size) - sizes
        else:
            rx = np.asarray(list(listeners) if not isinstance(listeners, np.ndarray) else listeners)
            inside = np.isin(members, rx)
            rounds_of = np.repeat(np.arange(len(sizes)), sizes)
            listening = len(rx) - np.bincount(rounds_of[inside], minlength=len(sizes))
        tracer.count(f"backends.{name}.table.rounds_nonempty", int(np.count_nonzero(sizes)))
        tracer.count(f"backends.{name}.pairs", float(np.dot(sizes, listening)))
        tracer.count(f"backends.{name}.deliveries", len(table))
        if name == "spatial":
            info = backend.grid_info()
            tracer.count("backends.spatial.rounds_fused", info["rounds_fused"])
            tracer.count("backends.spatial.rounds_single", info["rounds_single"])
            tracer.count("backends.spatial.join_entries", info["join_entries"])
        elif name == "lazy":
            _lazy_rows(tracer, backend)

    return after


def _round_hook(name: str):
    def after(tracer: Tracer, args, kwargs, receptions) -> None:
        transmitters = args[1]
        listeners = args[2] if len(args) > 2 else kwargs.get("listeners")
        n_tx = len(transmitters)
        n_rx = args[0].size - n_tx if listeners is None else len(listeners)
        tracer.count(f"backends.{name}.pairs", n_tx * n_rx)
        tracer.count(f"backends.{name}.deliveries", len(receptions))
        if name == "lazy":
            _lazy_rows(tracer, args[0])

    return after


def _charged_rounds(tracer: Tracer, args, kwargs, _result) -> None:
    tracer.count("simulation.run_schedule_table.rounds", int(args[1]))


def _store_hit(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("store.load_result.hits", result is not None)


def _claimed(tracer: Tracer, _args, _kwargs, claim) -> None:
    if claim is not None:
        tracer.count("distributed.claims")
        tracer.count("distributed.retries", claim.attempts > 1)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary this benchmark measures."""
    import repro.api  # noqa: F401  (loads every module the targets live in)
    import repro.distributed  # noqa: F401
    import repro.service  # noqa: F401
    from repro.distributed.queue import WorkQueue
    from repro.service.app import SimulationService
    from repro.simulation.engine import SINRSimulator
    from repro.sinr.network import WirelessNetwork
    from repro.store.store import ExperimentStore

    for module, attr, name in FUNCTIONS:
        tracer.patch_function(module, attr, name)
    tracer.patch_method(SINRSimulator, "run_schedule_table", "simulation.run_schedule_table",
                        _charged_rounds)
    tracer.patch_method(SINRSimulator, "run_round", "simulation.run_round")
    for name, cls in backend_classes().items():
        tracer.patch_method(cls, "receptions_table", f"backends.{name}.table", _table_hook(name))
        tracer.patch_method(cls, "receptions", f"backends.{name}.round", _round_hook(name))
    tracer.patch_method(WirelessNetwork, "move_nodes", "network.move_nodes")
    tracer.patch_method(ExperimentStore, "put_result", "store.put_result")
    tracer.patch_method(ExperimentStore, "load_result", "store.load_result", _store_hit)
    tracer.patch_method(WorkQueue, "claim", "distributed.claim", _claimed)
    tracer.patch_method(SimulationService, "handle", "service.handle")


def selector_cache_counts() -> Tuple[int, int]:
    """(hits, misses) summed over the cached selector accessors, patched or not."""
    import repro.core.primitives as primitives

    infos = [
        getattr(fn, "__perfbench_original__", fn).cache_info()
        for fn in (getattr(primitives, name) for name in SELECTOR_CACHES)
    ]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
