"""Built-in registry entries: the paper's deployments, algorithms, baselines.

Importing this module (done by ``repro.api.__init__``) populates
:data:`~repro.api.registry.DEPLOYMENTS` with the generator families of
:mod:`repro.sinr.deployment` and :data:`~repro.api.registry.ALGORITHMS`
with the paper's algorithms (Algorithms 6-8, Theorems 4-5), the Table 1/2
baselines and the Theorem 6 lower-bound gadget.  Everything here goes
through the same :func:`~repro.api.registry.register_deployment` /
:func:`~repro.api.registry.register_algorithm` decorators available to
third-party scenarios -- the built-ins enjoy no special powers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.validation import validate_clustering
from ..baselines import (
    randomized_global_broadcast_decay,
    randomized_local_broadcast_known_density,
    tdma_global_broadcast,
    tdma_local_broadcast,
)
from ..core import (
    build_clustering,
    elect_leader,
    global_broadcast,
    local_broadcast,
    solve_wakeup,
)

# Importing the mobility module registers the built-in mobility models
# (waypoint / drift / convoy / static) in the MOBILITY registry, exactly as
# importing this module registers deployments and algorithms.
from ..dynamics import mobility as _mobility  # noqa: F401
from ..lowerbound import (
    build_gadget,
    check_blocking_property,
    check_target_property,
    lower_bound_parameters,
    measure_gadget_delivery,
    round_robin_algorithm,
)
from ..sinr import deployment
from .executor import AlgorithmOutcome
from .registry import ALGORITHMS, DEPLOYMENTS, register_algorithm, register_deployment

# --------------------------------------------------------------------- #
# Deployments (repro.sinr.deployment families, CLI-friendly parameters).
# --------------------------------------------------------------------- #


@register_deployment("uniform")
def _uniform(seed: int, backend: str, nodes: int = 40, area: float = 3.0):
    """Nodes uniform at random in an ``area`` x ``area`` square."""
    return deployment.uniform_random(nodes, area_side=area, seed=seed, backend=backend)


@register_deployment("hotspots")
def _hotspots(
    seed: int,
    backend: str,
    nodes: int = 40,
    hotspots: int = 4,
    spread: float = 0.18,
    separation: float = 1.6,
):
    """Gaussian sensor hotspots; ``nodes`` is split evenly across them."""
    per_spot = max(1, nodes // max(1, hotspots))
    return deployment.gaussian_hotspots(
        hotspots, per_spot, spread=spread, separation=separation, seed=seed, backend=backend
    )


@register_deployment("strip")
def _strip(seed: int, backend: str, hops: int = 5, nodes_per_hop: int = 4):
    """Multi-hop corridor with controlled hop diameter and density."""
    return deployment.connected_strip(
        hops=hops, nodes_per_hop=nodes_per_hop, seed=seed, backend=backend
    )


@register_deployment("line")
def _line(seed: int, backend: str, nodes: int = 40):
    """Nodes on a line, the maximal hop diameter for a given size."""
    return deployment.line(nodes, seed=seed, backend=backend)


@register_deployment("ring")
def _ring(seed: int, backend: str, nodes: int = 40, clusters: int = 5):
    """Clusters on a ring, neighbouring clusters one hop apart."""
    per_cluster = max(1, nodes // max(1, clusters))
    return deployment.two_hop_clusters(clusters, per_cluster, seed=seed, backend=backend)


@register_deployment("grid")
def _grid(
    seed: int,
    backend: str,
    rows: int = 6,
    cols: int = 6,
    spacing: float = 0.5,
    jitter: float = 0.0,
):
    """Regular ``rows`` x ``cols`` grid with optional positional jitter."""
    return deployment.grid(rows, cols, spacing=spacing, jitter=jitter, seed=seed, backend=backend)


@register_deployment("ball")
def _ball(seed: int, backend: str, nodes: int = 40, radius: float = 0.5):
    """Single-hop dense disc -- the maximally contended placement."""
    return deployment.dense_ball(nodes, radius=radius, seed=seed, backend=backend)


# --------------------------------------------------------------------- #
# Algorithms: the paper's constructions.
# --------------------------------------------------------------------- #


@register_algorithm("cluster", description="1-clustering (Algorithm 6, Theorem 1)")
def _run_cluster(sim, config, max_radius: float = 2.0) -> AlgorithmOutcome:
    result = build_clustering(sim, config=config)
    report = validate_clustering(sim.network, result.cluster_of, max_radius=max_radius)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"valid_clustering": report.valid},
        metrics={
            "clusters": float(result.cluster_count()),
            "max_cluster_radius": float(report.max_radius),
            "max_clusters_per_unit_ball": float(report.max_clusters_per_unit_ball),
        },
        raw=result,
    )


@register_algorithm("local-broadcast", description="local broadcast (Algorithm 7, Theorem 2)")
def _run_local_broadcast(sim, config) -> AlgorithmOutcome:
    result = local_broadcast(sim, config=config)
    ratio = result.delivered.served_fraction(sim.network)
    return AlgorithmOutcome(
        rounds={
            "total": result.rounds_used,
            "clustering": result.rounds_clustering,
            "labeling": result.rounds_labeling,
            "transmission": result.rounds_transmission,
        },
        checks={"completed": ratio == 1.0},
        metrics={
            "clusters": float(result.clustering.cluster_count()),
            "max_label": float(result.labeling.max_label()),
            "completion_ratio": float(ratio),
        },
        raw=result,
    )


@register_algorithm("global-broadcast", description="global broadcast / SMSBroadcast (Algorithm 8, Theorem 3)")
def _run_global_broadcast(sim, config, source: Optional[int] = None) -> AlgorithmOutcome:
    network = sim.network
    if source is None:
        source = network.uids[0]
    result = global_broadcast(sim, source=source, config=config)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"reached_all": result.reached_all(network)},
        metrics={
            "phases": float(len(result.phases)),
            "diameter": float(network.diameter_hops(source)),
        },
        details={
            "source": source,
            "phases": [
                {
                    "index": phase.index,
                    "broadcasters": phase.broadcasters,
                    "newly_awakened": phase.newly_awakened,
                    "rounds_used": phase.rounds_used,
                }
                for phase in result.phases
            ],
        },
        raw=result,
    )


@register_algorithm("leader-election", description="network-wide leader election (Theorem 5)")
def _run_leader_election(sim, config) -> AlgorithmOutcome:
    result = elect_leader(sim, config=config)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"leader_elected": result.elected(sim.network)},
        metrics={
            "leader": float(result.leader),
            "candidates": float(len(result.candidates)),
            "probes": float(result.probe_count()),
        },
        details={
            "leader": result.leader,
            "candidates": sorted(result.candidates),
            "probes": [[lo, mid, bool(bit)] for lo, mid, bit in result.probes],
        },
        raw=result,
    )


@register_algorithm("wakeup", description="network wake-up from spontaneous starts (Theorem 4)")
def _run_wakeup(
    sim,
    config,
    spontaneous: Sequence[Tuple[int, int]] = ((0, 0),),
    period: Optional[int] = None,
) -> AlgorithmOutcome:
    """``spontaneous`` is ``[(node_index, round), ...]`` resolved against ``network.uids``."""
    network = sim.network
    spontaneous_uids = {network.uids[int(index)]: int(rnd) for index, rnd in spontaneous}
    result = solve_wakeup(sim, spontaneous_uids, config=config, period=period)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"all_active": result.all_active(network)},
        metrics={
            "latency": float(result.latency()),
            "execution_start": float(result.execution_start),
        },
        details={"spontaneous": sorted(spontaneous_uids.items())},
        raw=result,
    )


# --------------------------------------------------------------------- #
# Baselines (Tables 1 and 2).
# --------------------------------------------------------------------- #


@register_algorithm("local-broadcast-randomized", description="randomized local broadcast, known density (Table 1 baseline)")
def _run_local_randomized(sim, config, seed: int = 1) -> AlgorithmOutcome:
    result = randomized_local_broadcast_known_density(sim, seed=seed)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"completed": result.delivered.served_fraction(sim.network) == 1.0},
        raw=result,
    )


@register_algorithm("local-broadcast-tdma", description="TDMA round-robin local broadcast (deterministic anchor)")
def _run_local_tdma(sim, config) -> AlgorithmOutcome:
    result = tdma_local_broadcast(sim)
    completed = result.delivered.served_fraction(sim.network) == 1.0
    return AlgorithmOutcome(rounds={"total": result.rounds_used}, checks={"completed": completed}, raw=result)


@register_algorithm("global-broadcast-decay", description="randomized decay flood (Table 2 baseline)")
def _run_global_decay(sim, config, source: Optional[int] = None, seed: int = 2) -> AlgorithmOutcome:
    network = sim.network
    if source is None:
        source = network.uids[0]
    result = randomized_global_broadcast_decay(sim, source=source, seed=seed)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"reached_all": result.reached_all(network)},
        details={"source": source},
        raw=result,
    )


@register_algorithm("global-broadcast-tdma", description="deterministic TDMA flood (Table 2 baseline)")
def _run_global_tdma(sim, config, source: Optional[int] = None) -> AlgorithmOutcome:
    network = sim.network
    if source is None:
        source = network.uids[0]
    result = tdma_global_broadcast(sim, source=source)
    return AlgorithmOutcome(
        rounds={"total": result.rounds_used},
        checks={"reached_all": result.reached_all(network)},
        details={"source": source},
        raw=result,
    )


# --------------------------------------------------------------------- #
# Lower bound (standalone: builds its own gadget network).
# --------------------------------------------------------------------- #


@register_algorithm("gadget", standalone=True, description="lower-bound gadget inspection (Theorem 6)")
def _run_gadget(config, delta: int = 8, adversarial: bool = True) -> AlgorithmOutcome:
    params = lower_bound_parameters()
    network, layout = build_gadget(delta, params)
    blocking = check_blocking_property(layout, network)
    target = check_target_property(layout, network)
    id_space = 4 * (int(delta) + 4)
    algorithm = round_robin_algorithm(id_space)
    outcome = measure_gadget_delivery(
        algorithm,
        delta=int(delta),
        params=params,
        id_pool=list(range(2, id_space)),
        adversarial=adversarial,
    )
    delay = outcome.delivery_round if outcome.delivery_round is not None else outcome.rounds_simulated
    return AlgorithmOutcome(
        rounds={"total": delay},
        checks={
            "blocking_property": blocking,
            "target_property": target,
            "omega_delta": delay >= int(delta),
        },
        metrics={
            "delta": float(delta),
            "gadget_size": float(layout.size),
            "core_span": float(layout.core_span()),
            "delivered": float(outcome.delivery_round is not None),
        },
        details={"delivery_round": outcome.delivery_round, "rounds_simulated": outcome.rounds_simulated},
        raw=outcome,
    )


#: Names guaranteed resolvable in a freshly spawned worker process (which
#: re-imports repro.api and therefore this module, but no plugin modules).
#: The executor consults these before fanning out under a spawn context.
BUILTIN_DEPLOYMENTS = frozenset(DEPLOYMENTS.names())
BUILTIN_ALGORITHMS = frozenset(ALGORITHMS.names())
