"""Algorithm configuration: the paper's constants, made explicit and tunable.

The algorithms of Sections 3-5 are governed by a handful of constants that
the paper treats as "O(1) depending only on the SINR parameters":

* ``kappa`` -- the close-neighbourhood size of Lemmas 5-6 (how many nearest
  nodes must stay silent for a close pair to communicate);
* ``rho`` -- the number of conflicting clusters of Lemma 6;
* ``sns_parameter`` -- the ssf parameter ``k_gamma`` of the Sparse Network
  Schedule (Lemma 4);
* the loop bounds expressed through packing numbers ``chi(...)`` (Algorithms
  3, 5 and 6).

Their worst-case values are astronomically conservative (packing constants in
the hundreds), which is irrelevant for an asymptotic analysis but would make
a faithful simulation intractable.  :class:`AlgorithmConfig` exposes every
constant with laptop-scale defaults and provides :meth:`AlgorithmConfig.
faithful` for the paper-accurate values; the reproduction notes of
docs/paper.md record this substitution.  All loops additionally support
*adaptive termination* (stop when a further iteration provably cannot change
the outcome), which preserves the output exactly while skipping the padding
iterations the worst-case bounds require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..sinr.geometry import chi
from ..sinr.model import SINRParameters


@dataclass(frozen=True)
class AlgorithmConfig:
    """Tunable constants for the clustering / broadcast algorithms.

    Attributes
    ----------
    kappa:
        Close-neighbourhood size (Lemma 5/6); the proximity-graph degree cap.
    rho:
        Number of conflicting clusters a wcss round must avoid (Lemma 6).
    candidate_cap:
        Purge threshold of Algorithm 1's filtering phase.  The paper uses
        ``kappa``; a slightly larger cap keeps the degree bound O(1) while
        being forgiving about compact selectors.
    sns_parameter:
        The ssf parameter ``k_gamma`` of the Sparse Network Schedule.
    selector_seed:
        Seed of the seeded probabilistic selector constructions.
    selector_size_factor:
        Multiplier on the compact selector lengths (1.0 = default length).
    faithful_selectors:
        Use the paper's full ``O(k^3 log N)`` / ``O((k+l) l k^2 log N)``
        selector lengths.
    max_sparsification_iterations:
        Upper bound on the iterations of Algorithm 2's main loop (the paper
        uses ``Gamma``); ``None`` means "use Gamma".
    unclustered_repetitions:
        Upper bound on the repetitions in Algorithm 3 (the paper uses
        ``chi(5, 1-eps)``); adaptive termination stops earlier.
    radius_reduction_repetitions:
        Upper bound on Algorithm 5's outer loop (paper: ``chi(r+1, 1-eps)``).
    adaptive_termination:
        Stop loops as soon as an iteration makes no progress (output-
        preserving; see module docstring).
    mis_max_iterations:
        Bound on iterated-local-minima MIS rounds (``None`` = size of graph).
    radius_reduction_interval:
        Run Algorithm 5 after every this-many levels of the clustering
        algorithm's reverse pass (the paper uses 1; larger values trade
        cluster radius for rounds).
    """

    kappa: int = 4
    rho: int = 3
    candidate_cap: Optional[int] = None
    sns_parameter: int = 6
    selector_seed: int = 2018
    selector_size_factor: float = 1.0
    faithful_selectors: bool = False
    max_sparsification_iterations: Optional[int] = 8
    unclustered_repetitions: Optional[int] = 3
    radius_reduction_repetitions: Optional[int] = 6
    adaptive_termination: bool = True
    mis_max_iterations: Optional[int] = None
    radius_reduction_interval: int = 1

    def __post_init__(self) -> None:
        if self.kappa < 2:
            raise ValueError("kappa must be at least 2")
        if self.rho < 1:
            raise ValueError("rho must be at least 1")
        if self.sns_parameter < 2:
            raise ValueError("sns_parameter must be at least 2")
        if self.selector_size_factor <= 0:
            raise ValueError("selector_size_factor must be positive")
        if self.radius_reduction_interval < 1:
            raise ValueError("radius_reduction_interval must be at least 1")

    @property
    def effective_candidate_cap(self) -> int:
        """The purge threshold actually used by Algorithm 1."""
        return self.candidate_cap if self.candidate_cap is not None else 2 * self.kappa

    # ------------------------------------------------------------------ #
    # Derived loop bounds.
    # ------------------------------------------------------------------ #

    def sparsification_iterations(self, gamma: int) -> int:
        """Iteration bound of Algorithm 2's main loop for density ``gamma``."""
        paper_bound = max(1, gamma)
        if self.max_sparsification_iterations is None:
            return paper_bound
        return min(paper_bound, self.max_sparsification_iterations)

    def unclustered_iterations(self, params: SINRParameters) -> int:
        """Repetition bound of Algorithm 3 (paper: ``chi(5, 1 - eps)``)."""
        paper_bound = chi(5.0, 1.0 - params.epsilon)
        if self.unclustered_repetitions is None:
            return paper_bound
        return min(paper_bound, self.unclustered_repetitions)

    def radius_reduction_iterations(self, params: SINRParameters, r: float) -> int:
        """Repetition bound of Algorithm 5 (paper: ``chi(r + 1, 1 - eps)``)."""
        paper_bound = chi(r + 1.0, 1.0 - params.epsilon)
        if self.radius_reduction_repetitions is None:
            return paper_bound
        return min(paper_bound, self.radius_reduction_repetitions)

    def full_sparsification_levels(self, gamma: int) -> int:
        """Number of levels of Algorithm 4: ``log_{4/3} Gamma``."""
        if gamma <= 1:
            return 1
        return max(1, int(math.ceil(math.log(gamma) / math.log(4.0 / 3.0))))

    # ------------------------------------------------------------------ #
    # Presets.
    # ------------------------------------------------------------------ #

    @classmethod
    def fast(cls) -> "AlgorithmConfig":
        """Small constants for unit tests on tiny networks."""
        return cls(
            kappa=3,
            rho=2,
            sns_parameter=5,
            selector_size_factor=0.75,
            max_sparsification_iterations=6,
            unclustered_repetitions=2,
            radius_reduction_repetitions=4,
            radius_reduction_interval=2,
        )

    @classmethod
    def faithful(cls, params: Optional[SINRParameters] = None) -> "AlgorithmConfig":
        """The paper's worst-case constants (expensive; for spot checks only)."""
        params = params or SINRParameters.default()
        return cls(
            kappa=8,
            rho=6,
            sns_parameter=10,
            faithful_selectors=True,
            max_sparsification_iterations=None,
            unclustered_repetitions=None,
            radius_reduction_repetitions=None,
            adaptive_termination=False,
        )

    def scaled(self, size_factor: float) -> "AlgorithmConfig":
        """Copy with a different selector size factor."""
        return replace(self, selector_size_factor=size_factor)
