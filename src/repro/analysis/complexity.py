"""Complexity-shape analysis: fitting measured rounds against the paper's bounds.

The reproduction cannot match the paper's constants (there are none to
match -- it is a theory paper), so the experiments compare *shapes*:

* how measured rounds grow with the density ``Delta`` at fixed ``N`` (local
  broadcast should be near-linear in ``Delta``; Theorem 2),
* how they grow with the diameter ``D`` at fixed ``Delta`` (global broadcast
  should be near-linear in ``D``; Theorem 3),
* how the clustering time scales with ``Gamma`` (Theorem 1),
* how the lower-bound delivery time scales with ``D * Delta^{1 - 1/alpha}``
  (Theorem 6).

:func:`power_law_exponent` and :func:`normalized_against` implement the two
fits the benchmark harness and EXPERIMENTS.md rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..sinr.model import log_star


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y = c * x^exponent`` in log-log space."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Predicted ``y`` at ``x``."""
        return self.coefficient * x**self.exponent


def power_law_exponent(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit a power law through positive samples (log-log least squares)."""
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two samples to fit a power law")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fits need strictly positive samples")
    log_x = np.log(xs)
    log_y = np.log(ys)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predictions = slope * log_x + intercept
    total = float(np.sum((log_y - log_y.mean()) ** 2))
    residual = float(np.sum((log_y - predictions) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return PowerLawFit(exponent=float(slope), coefficient=float(math.exp(intercept)), r_squared=r_squared)


def normalized_against(
    measured: Sequence[float], reference: Sequence[float]
) -> List[float]:
    """Ratios ``measured / reference``; flat ratios mean the shapes agree."""
    measured = list(measured)
    reference = list(reference)
    if len(measured) != len(reference):
        raise ValueError("sequences must have equal length")
    result = []
    for m, r in zip(measured, reference):
        if r <= 0:
            raise ValueError("reference values must be positive")
        result.append(m / r)
    return result


def ratio_spread(ratios: Sequence[float]) -> float:
    """Max/min of a ratio sequence (1.0 = perfectly proportional)."""
    ratios = [r for r in ratios if r > 0]
    if not ratios:
        return math.inf
    return max(ratios) / min(ratios)


def local_broadcast_bound(delta: int, id_space: int) -> float:
    """Theorem 2 reference shape: ``Delta * log N * log* N``."""
    return max(1, delta) * math.log2(max(id_space, 2)) * max(1, log_star(id_space))


def global_broadcast_bound(diameter: int, delta: int, id_space: int) -> float:
    """Theorem 3 reference shape: ``D * (Delta + log* N) * log N``."""
    return (
        max(1, diameter)
        * (max(1, delta) + max(1, log_star(id_space)))
        * math.log2(max(id_space, 2))
    )


def clustering_bound(gamma: int, id_space: int) -> float:
    """Theorem 1 reference shape: ``Gamma * log N * log* N``."""
    return max(1, gamma) * math.log2(max(id_space, 2)) * max(1, log_star(id_space))


def lower_bound_shape(diameter: int, delta: int, alpha: float) -> float:
    """Theorem 6 reference shape: ``D * Delta^{1 - 1/alpha}``."""
    return max(1, diameter) * max(1, delta) ** (1.0 - 1.0 / alpha)


def crossover_point(
    xs: Sequence[float], series_a: Sequence[float], series_b: Sequence[float]
) -> Optional[float]:
    """First ``x`` at which series ``a`` stops beating series ``b`` (or ``None``).

    Used to report where a baseline overtakes (or is overtaken by) the
    paper's algorithm in the table experiments.
    """
    xs = list(xs)
    series_a = list(series_a)
    series_b = list(series_b)
    if not (len(xs) == len(series_a) == len(series_b)):
        raise ValueError("all series must have equal length")
    previously_better = None
    for x, a, b in zip(xs, series_a, series_b):
        better = a <= b
        if previously_better is None:
            previously_better = better
        elif better != previously_better:
            return x
    return None
