"""Shared helpers for the benchmark harness (imported by every bench module).

Every benchmark regenerates one table or figure of the paper (see the
paper map, docs/paper.md) from the simulator.  Wall-clock time is what
pytest-benchmark records, but the quantity of interest is the number of
*simulated rounds*; each benchmark therefore stores its measurements in
``benchmark.extra_info`` and prints the corresponding table so the run log
doubles as the experiment report.
"""

from __future__ import annotations

import os
from typing import Callable, Dict

from repro.core import AlgorithmConfig


def bench_config() -> AlgorithmConfig:
    """The algorithm constants used by every benchmark (laptop-scale)."""
    return AlgorithmConfig.fast()


def bench_backend() -> str:
    """Physics backend for the whole harness run.

    Selected via the ``REPRO_BENCH_BACKEND`` environment variable (``dense``,
    ``lazy`` or ``spatial``; default ``dense``), mirroring the CLI's
    ``--backend`` option:
    pytest-benchmark owns the command line, so the harness takes its knob from
    the environment, e.g.::

        REPRO_BENCH_BACKEND=lazy pytest benchmarks/ -q
    """
    return os.environ.get("REPRO_BENCH_BACKEND", "dense")


def run_once(benchmark, experiment: Callable[[], Dict]) -> Dict:
    """Run ``experiment`` exactly once under pytest-benchmark.

    The experiments are deterministic simulations lasting seconds; repeating
    them only to shrink timer noise would multiply the harness runtime for no
    informational gain, so a single round/iteration is used.
    """
    result: Dict = {}

    def wrapper():
        result.clear()
        result.update(experiment())
        return result

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    for key, value in result.items():
        if isinstance(value, (int, float, str, bool)):
            benchmark.extra_info[key] = value
    return result
