"""repro: reproduction of "Deterministic Digital Clustering of Wireless Ad Hoc Networks".

The package is organised in layers:

* :mod:`repro.sinr` -- the physical substrate: SINR parameters, geometry,
  reception physics, network placements (index-aligned uid and position
  arrays, no per-run state) and deployment generators.
* :mod:`repro.selectors` -- combinatorial transmission schedules (ssf, wss,
  wcss) and MIS helpers.
* :mod:`repro.simulation` -- the synchronous round engine (which owns one
  run's wake state and round/message counters) and schedule execution.
* :mod:`repro.core` -- the paper's algorithms: proximity graphs,
  sparsification, clustering, local/global broadcast, wake-up and leader
  election.
* :mod:`repro.baselines` -- the comparison algorithms of Tables 1 and 2.
* :mod:`repro.lowerbound` -- the gadget networks and adversary of Theorem 6.
* :mod:`repro.analysis` -- invariant validation, complexity fits and the
  report generators used by the benchmark harness.
* :mod:`repro.api` -- the declarative front door: frozen JSON-serializable
  run specs, string-keyed registries, and a parallel multi-seed executor.
* :mod:`repro.dynamics` -- time-varying networks: mobility models, churn
  timelines and the epoch runner over incremental physics updates.

Quickstart (declarative)::

    from repro import api

    spec = api.RunSpec(
        deployment=api.DeploymentSpec("uniform", {"nodes": 80, "area": 4.0}, seed=7),
        algorithm=api.AlgorithmSpec("cluster", preset="fast"),
    )
    print(api.run(spec).rounds["total"])
    print(api.run_many(spec, seeds=range(8)).all_checks_pass())

Quickstart (direct simulator access)::

    from repro.sinr import deployment
    from repro.simulation import SINRSimulator
    from repro.core import AlgorithmConfig, build_clustering

    network = deployment.uniform_random(80, area_side=4.0, seed=7)
    sim = SINRSimulator(network)
    clustering = build_clustering(sim, config=AlgorithmConfig.fast())
    print(clustering.cluster_count(), "clusters in", clustering.rounds_used, "rounds")
"""

#: Package version (kept in sync with pyproject.toml).  Participates in the
#: content-addressed store keys (:mod:`repro.store`): bumping it deliberately
#: invalidates cached artifacts, because results are only guaranteed
#: reproducible against the exact code that produced them.
__version__ = "0.5.0"

from .core import AlgorithmConfig, build_clustering, global_broadcast, local_broadcast
from .simulation import SINRSimulator
from .sinr import SINRParameters, WirelessNetwork
from . import api

__all__ = [
    "AlgorithmConfig",
    "api",
    "SINRParameters",
    "SINRSimulator",
    "WirelessNetwork",
    "build_clustering",
    "global_broadcast",
    "local_broadcast",
    "__version__",
]
