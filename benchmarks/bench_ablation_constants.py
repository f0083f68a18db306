"""Ablations of the engineering constants (docs/paper.md, Reproduction notes).

The reproduction replaces the paper's worst-case constants with configurable
ones; this benchmark quantifies what each knob buys and verifies that the
*output guarantees* (valid clustering, completed local broadcast) are
insensitive to them:

* ``selector_size_factor`` -- length of the witnessed selectors (rounds per
  proximity-graph construction) versus clustering cost;
* ``kappa`` -- the close-neighbourhood constant of Lemmas 5-6 (proximity
  graph degree cap) versus cost;
* ``adaptive_termination`` -- output-preserving early exit of the
  sparsification loops versus the fixed iteration budgets;
* ``radius_reduction_interval`` -- how often Algorithm 5 is interleaved in
  the clustering's upward pass versus the resulting cluster radius.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import ExperimentTable, validate_clustering
from repro.core import AlgorithmConfig, build_clustering, local_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import deployment

from _harness import run_once


def _network():
    return deployment.gaussian_hotspots(3, 8, spread=0.18, separation=1.5, seed=808)


def _run_clustering(config: AlgorithmConfig):
    network = _network()
    sim = SINRSimulator(network)
    clustering = build_clustering(sim, config=config)
    report = validate_clustering(network, clustering.cluster_of, max_radius=2.0)
    return clustering, report


def _experiment():
    base = AlgorithmConfig.fast()
    table = ExperimentTable(
        title="Ablations -- engineering constants vs rounds and output quality",
        columns=["rounds", "clusters", "max radius", "valid"],
    )
    results = {}

    variants = {
        "baseline (fast config)": base,
        "selector_size_factor=0.5": dataclasses.replace(base, selector_size_factor=0.5),
        "selector_size_factor=2.0": dataclasses.replace(base, selector_size_factor=2.0),
        "kappa=5": dataclasses.replace(base, kappa=5),
        "no adaptive termination": dataclasses.replace(base, adaptive_termination=False),
        "radius_reduction_interval=3": dataclasses.replace(base, radius_reduction_interval=3),
    }
    for label, config in variants.items():
        clustering, report = _run_clustering(config)
        table.add_row(
            label,
            rounds=clustering.rounds_used,
            clusters=clustering.cluster_count(),
            **{"max radius": round(report.max_radius, 2), "valid": "yes" if report.valid else "NO"},
        )
        key = label.replace(" ", "_").replace("=", "_").replace("(", "").replace(")", "")
        results[f"{key}_rounds"] = clustering.rounds_used
        results[f"{key}_valid"] = bool(report.valid)

    # Local broadcast with and without the extra coverage sweep.
    network = _network()
    single = local_broadcast(SINRSimulator(network), config=base, extra_sweeps=0)
    double_network = _network()
    double = local_broadcast(SINRSimulator(double_network), config=base, extra_sweeps=1)
    single_done = single.delivered.served_fraction(network) == 1.0
    double_done = double.delivered.served_fraction(double_network) == 1.0
    table.add_row(
        "local broadcast, 1 sweep",
        rounds=single.rounds_used,
        clusters=single.clustering.cluster_count(),
        **{"max radius": "-", "valid": "yes" if single_done else "NO"},
    )
    table.add_row(
        "local broadcast, 2 sweeps",
        rounds=double.rounds_used,
        clusters=double.clustering.cluster_count(),
        **{"max radius": "-", "valid": "yes" if double_done else "NO"},
    )
    results["sweep1_rounds"] = single.rounds_used
    results["sweep2_rounds"] = double.rounds_used
    results["sweep1_valid"] = single_done

    table.add_note("every variant must keep the output guarantees; only the round counts move")
    print()
    print(table.render())
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_constants(benchmark):
    result = run_once(benchmark, _experiment)
    assert all(v for k, v in result.items() if k.endswith("_valid"))
    # Longer selectors cost more rounds; shorter ones cost fewer.
    assert result["selector_size_factor_2.0_rounds"] > result["selector_size_factor_0.5_rounds"]
    # Disabling adaptive termination can only add rounds.
    assert result["no_adaptive_termination_rounds"] >= result["baseline_fast_config_rounds"]
    # The extra local-broadcast sweep costs extra rounds.
    assert result["sweep2_rounds"] > result["sweep1_rounds"]
