"""The lower-bound gadget of Theorem 6 (Figures 5 and 6).

A gadget is a line network with ``Delta + 4`` nodes::

    s --(eps)-- v_0  v_1 ... v_Delta --(2 eps)-- v_{Delta+1} --(1 - eps)-- t

The core ``v_0 .. v_Delta`` uses geometrically increasing gaps so that the
whole core spans less than ``3 eps``.  The geometry delivers the two facts
the adversarial argument of Lemma 13 needs (Fact 2 in the paper):

1. whenever two core nodes ``v_i, v_j`` (``i < j``) transmit simultaneously,
   none of ``v_{j+1}, ..., v_{Delta+1}`` decodes anything (the two signals
   jam each other at every point to their right);
2. the target ``t`` is within transmission range of ``v_{Delta+1}`` only and
   decodes it only when ``v_{Delta+1}`` is the unique gadget transmitter.

Reproduction note (indexed in docs/paper.md): the paper writes the gaps as
``eps / 2^{Delta - i}`` and appeals to "eps small enough"; with an exact SINR
evaluation the base of the geometric sequence must additionally exceed
``1 + 1 / (beta^{1/alpha} - 1)`` for fact 1 to hold for *adjacent* triples,
and fact 2 needs ``(1-eps)^{-alpha} < 1 + beta (1+eps)^{-alpha}``.  We
therefore compute the base from the SINR parameters (base 2 is recovered
whenever ``beta >= (3/2)^alpha``) and provide
:func:`lower_bound_parameters` -- a parameter set under which both facts hold
exactly; the checks below verify them against the physics engine rather than
assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sinr.model import SINRParameters
from ..sinr.network import WirelessNetwork


def lower_bound_parameters(alpha: float = 3.0, beta: float = 2.0, epsilon: float = 0.05) -> SINRParameters:
    """SINR parameters under which the gadget facts hold with exact physics."""
    return SINRParameters(alpha=alpha, beta=beta, noise=1.0, epsilon=epsilon)


def geometric_base(params: SINRParameters, margin: float = 1.0) -> float:
    """Smallest gap-growth base for which Fact 2.1 holds for adjacent triples."""
    ratio = params.beta ** (1.0 / params.alpha) - 1.0
    if ratio <= 0:
        raise ValueError("beta must exceed 1")
    return 1.0 + 1.0 / ratio + margin


@dataclass(frozen=True)
class GadgetLayout:
    """Positions and roles of one gadget, before IDs are assigned.

    ``positions`` are 1-D coordinates along the line (the y coordinate is 0).
    Index 0 is the source ``s``, indices ``1 .. Delta + 2`` are the core
    nodes ``v_0 .. v_{Delta+1}``, and the last index is the target ``t``.
    """

    delta: int
    positions: Tuple[float, ...]
    params: SINRParameters
    base: float

    @property
    def size(self) -> int:
        """Total number of nodes (``Delta + 4``)."""
        return len(self.positions)

    @property
    def source_index(self) -> int:
        """Index of the source ``s``."""
        return 0

    @property
    def target_index(self) -> int:
        """Index of the target ``t``."""
        return self.size - 1

    @property
    def core_indices(self) -> range:
        """Indices of the core nodes ``v_0 .. v_{Delta+1}``."""
        return range(1, self.size - 1)

    @property
    def last_core_index(self) -> int:
        """Index of ``v_{Delta+1}`` -- the only node within range of ``t``."""
        return self.size - 2

    def core_span(self) -> float:
        """Distance between ``v_0`` and ``v_{Delta+1}``."""
        return self.positions[self.last_core_index] - self.positions[1]

    def distance(self, i: int, j: int) -> float:
        """Distance between nodes ``i`` and ``j`` of the layout."""
        return abs(self.positions[i] - self.positions[j])


def gadget_layout(
    delta: int,
    params: Optional[SINRParameters] = None,
    origin: float = 0.0,
    base: Optional[float] = None,
) -> GadgetLayout:
    """Construct the gadget geometry of Figures 5-6 for degree parameter ``delta``."""
    if delta < 1:
        raise ValueError("delta must be at least 1")
    params = params or lower_bound_parameters()
    if base is None:
        base = geometric_base(params)
    if base <= 1:
        raise ValueError("base must exceed 1")
    eps = params.epsilon

    positions: List[float] = [origin]  # s
    v0 = origin + eps
    positions.append(v0)
    current = v0
    for i in range(delta):
        gap = eps / (base ** (delta - i))
        current += gap
        positions.append(current)  # v_1 .. v_delta
    current += 2.0 * eps
    positions.append(current)  # v_{delta+1}
    positions.append(current + (1.0 - eps))  # t

    layout = GadgetLayout(delta=delta, positions=tuple(positions), params=params, base=base)
    _check_distinct(layout)
    return layout


def _check_distinct(layout: GadgetLayout) -> None:
    """Fail loudly if floating point collapsed two core nodes onto one point."""
    previous = None
    for index in layout.core_indices:
        position = layout.positions[index]
        if previous is not None and not position > previous:
            raise ValueError(
                "gadget gaps underflow double precision for delta="
                f"{layout.delta} and base={layout.base:.2f}; use a smaller delta"
            )
        previous = position


def build_gadget(
    delta: int,
    params: Optional[SINRParameters] = None,
    uids: Optional[Sequence[int]] = None,
    id_space: Optional[int] = None,
    base: Optional[float] = None,
) -> Tuple[WirelessNetwork, GadgetLayout]:
    """Build a single-gadget :class:`WirelessNetwork` plus its layout metadata."""
    layout = gadget_layout(delta, params, base=base)
    positions = np.column_stack([np.array(layout.positions), np.zeros(layout.size)])
    network = WirelessNetwork(
        positions,
        params=layout.params,
        uids=uids,
        id_space=id_space,
        delta_bound=delta,
    )
    return network, layout


def check_blocking_property(layout: GadgetLayout, network: WirelessNetwork) -> bool:
    """Fact 2.1 against exact physics: two core transmitters silence the right tail.

    For every pair ``i < j`` of core transmitters, no node to the right of
    ``v_j`` (within the core) may decode anything when exactly ``v_i`` and
    ``v_j`` transmit.
    """
    physics = network.physics
    core = list(layout.core_indices)
    for a in range(len(core)):
        for b in range(a + 1, len(core)):
            right_tail = core[b + 1 :]
            if not right_tail:
                continue
            receptions = physics.receptions([core[a], core[b]], listeners=right_tail)
            if receptions:
                return False
    return True


def check_target_property(layout: GadgetLayout, network: WirelessNetwork) -> bool:
    """Fact 2.2 against exact physics: ``t`` hears ``v_{Delta+1}`` only when it is alone."""
    physics = network.physics
    target = layout.target_index
    last_core = layout.last_core_index
    solo = physics.receptions([last_core], listeners=[target])
    if target not in solo:
        return False
    for other in layout.core_indices:
        if other == last_core:
            continue
        joint = physics.receptions([last_core, other], listeners=[target])
        if target in joint:
            return False
    # No other single core node reaches t either (d(x, t) > 1 for x != v_{Delta+1}).
    for other in layout.core_indices:
        if other == last_core:
            continue
        alone = physics.receptions([other], listeners=[target])
        if target in alone:
            return False
    return True


def gadget_interference_budget(layout: GadgetLayout) -> float:
    """The budget ``nu`` of Lemma 13 for this gadget's parameters."""
    return layout.params.gadget_interference_budget()
