"""Theorems 2-3: round scaling of local and global broadcast.

Theorem 2 bounds local broadcast by ``O(Delta log N log* N)``; Theorem 3
bounds global broadcast by ``O(D (Delta + log* N) log N)``.  This experiment
sweeps the two controlling parameters independently -- density ``Delta`` for
local broadcast, diameter ``D`` (at fixed density) for global broadcast --
and fits the measured growth exponents.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ExperimentTable,
    global_broadcast_bound,
    local_broadcast_bound,
    power_law_exponent,
)
from repro.core import global_broadcast, local_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import deployment

from _harness import bench_config, run_once

LOCAL_DENSITIES = [5, 8, 12]
GLOBAL_DIAMETERS = [3, 5, 7]


def _experiment():
    config = bench_config()
    results = {}

    local_table = ExperimentTable(
        title="Theorem 2 -- local broadcast rounds versus Delta",
        columns=["Delta", "rounds", "Delta*logN*log*N", "completed"],
    )
    deltas, local_rounds = [], []
    for density in LOCAL_DENSITIES:
        network = deployment.gaussian_hotspots(
            3, density, spread=0.18, separation=1.5, seed=600 + density
        )
        sim = SINRSimulator(network)
        outcome = local_broadcast(sim, config=config)
        delta = network.delta_bound
        local_table.add_row(
            f"Delta~{delta}",
            Delta=delta,
            rounds=outcome.rounds_used,
            **{
                "Delta*logN*log*N": round(local_broadcast_bound(delta, network.id_space), 1),
                "completed": "yes" if outcome.delivered.served_fraction(network) == 1.0 else "NO",
            },
        )
        deltas.append(float(delta))
        local_rounds.append(float(outcome.rounds_used))
        results[f"local_delta{delta:03d}"] = outcome.rounds_used
        results[f"local_delta{delta:03d}_done"] = outcome.delivered.served_fraction(network) == 1.0
    local_fit = power_law_exponent(deltas, local_rounds)
    local_table.add_note(f"local broadcast rounds grow as Delta^{local_fit.exponent:.2f}")

    global_table = ExperimentTable(
        title="Theorem 3 -- global broadcast rounds versus D",
        columns=["D", "Delta", "rounds", "D*(Delta+log*N)*logN", "reached all"],
    )
    diameters, global_rounds = [], []
    for hops in GLOBAL_DIAMETERS:
        network = deployment.connected_strip(hops=hops, nodes_per_hop=4, seed=700 + hops)
        sim = SINRSimulator(network)
        source = network.uids[0]
        outcome = global_broadcast(sim, source=source, config=config)
        diameter = network.diameter_hops(source)
        global_table.add_row(
            f"D={diameter}",
            D=diameter,
            Delta=network.delta_bound,
            rounds=outcome.rounds_used,
            **{
                "D*(Delta+log*N)*logN": round(
                    global_broadcast_bound(diameter, network.delta_bound, network.id_space), 1
                ),
                "reached all": "yes" if outcome.reached_all(network) else "NO",
            },
        )
        diameters.append(float(diameter))
        global_rounds.append(float(outcome.rounds_used))
        results[f"global_d{diameter:02d}"] = outcome.rounds_used
        results[f"global_d{diameter:02d}_reached"] = bool(outcome.reached_all(network))
    global_fit = power_law_exponent(diameters, global_rounds)
    global_table.add_note(f"global broadcast rounds grow as D^{global_fit.exponent:.2f}")

    print()
    print(local_table.render())
    print()
    print(global_table.render())
    results["local_exponent"] = local_fit.exponent
    results["global_exponent"] = global_fit.exponent
    return results


@pytest.mark.benchmark(group="theorem2-3")
def test_theorem2_3_broadcast_scaling(benchmark):
    result = run_once(benchmark, _experiment)
    assert all(v for k, v in result.items() if k.endswith("_done") or k.endswith("_reached"))
    # Near-linear growth in the controlling parameter for both tasks.
    assert result["local_exponent"] < 2.0
    assert 0.5 <= result["global_exponent"] < 2.0
