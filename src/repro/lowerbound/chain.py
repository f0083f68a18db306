"""Multi-gadget chains (Figure 7) and the interference bound of Fact 3.

The ``Omega(D * Delta^{1 - 1/alpha})`` lower bound composes gadgets along a
line, separating consecutive gadgets with a *buffer path* of
``kappa = Delta^{1/alpha} / (1 - eps)`` relay nodes at spacing ``1 - eps``.
The buffer keeps the interference from everything left of a gadget below the
budget ``nu`` of Lemma 13, so the per-gadget ``Omega(Delta)`` argument keeps
applying gadget after gadget; since every buffer contributes only
``Delta^{1/alpha}`` to the diameter, the bound ``Omega(D Delta / kappa) =
Omega(D Delta^{1-1/alpha})`` follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sinr.model import SINRParameters
from ..sinr.network import WirelessNetwork
from .gadget import GadgetLayout, gadget_layout, lower_bound_parameters


def buffer_length(delta: int, params: SINRParameters) -> int:
    """The paper's buffer size ``kappa = Delta^{1/alpha} / (1 - eps)`` (at least 1)."""
    kappa = (max(delta, 1) ** (1.0 / params.alpha)) / (1.0 - params.epsilon)
    return max(1, int(math.ceil(kappa)))


@dataclass(frozen=True)
class ChainLayout:
    """A chain of gadgets with buffer paths, plus role bookkeeping.

    Node indices are global (into the chain network).  ``gadgets[k]`` carries
    the per-gadget index lists; ``buffers[k]`` the indices of the path
    separating gadget ``k`` from gadget ``k + 1``.
    """

    params: SINRParameters
    delta: int
    gadget_layouts: Tuple[GadgetLayout, ...]
    gadget_indices: Tuple[Tuple[int, ...], ...]
    buffer_indices: Tuple[Tuple[int, ...], ...]
    positions: Tuple[float, ...]

    @property
    def gadget_count(self) -> int:
        """Number of gadgets in the chain."""
        return len(self.gadget_layouts)

    @property
    def size(self) -> int:
        """Total number of nodes in the chain."""
        return len(self.positions)

    @property
    def source_index(self) -> int:
        """Global index of the broadcast source (the first gadget's ``s``)."""
        return self.gadget_indices[0][0]

    @property
    def final_target_index(self) -> int:
        """Global index of the last gadget's target ``t``."""
        return self.gadget_indices[-1][-1]

    def core_indices(self, gadget: int) -> Tuple[int, ...]:
        """Global indices of the core nodes ``v_0 .. v_{Delta+1}`` of a gadget."""
        members = self.gadget_indices[gadget]
        return tuple(members[1:-1])

    def span(self) -> float:
        """Total length of the chain (distance between the extreme nodes)."""
        return self.positions[-1] - self.positions[0]


def chain_layout(
    gadgets: int,
    delta: int,
    params: Optional[SINRParameters] = None,
    base: Optional[float] = None,
) -> ChainLayout:
    """Lay out ``gadgets`` gadgets separated by buffer paths (Figure 7)."""
    if gadgets < 1:
        raise ValueError("a chain needs at least one gadget")
    params = params or lower_bound_parameters()
    kappa = buffer_length(delta, params)
    hop = 1.0 - params.epsilon

    positions: List[float] = []
    gadget_layouts: List[GadgetLayout] = []
    gadget_indices: List[Tuple[int, ...]] = []
    buffer_indices: List[Tuple[int, ...]] = []

    cursor = 0.0
    for g in range(gadgets):
        layout = gadget_layout(delta, params, origin=cursor, base=base)
        gadget_layouts.append(layout)
        start_index = len(positions)
        positions.extend(layout.positions)
        gadget_indices.append(tuple(range(start_index, start_index + layout.size)))
        cursor = layout.positions[-1]
        if g < gadgets - 1:
            buffer_start = len(positions)
            for step in range(1, kappa + 1):
                positions.append(cursor + step * hop)
            buffer_indices.append(tuple(range(buffer_start, buffer_start + kappa)))
            cursor = positions[-1] + hop  # the next gadget's source sits one hop further

    return ChainLayout(
        params=params,
        delta=delta,
        gadget_layouts=tuple(gadget_layouts),
        gadget_indices=tuple(gadget_indices),
        buffer_indices=tuple(buffer_indices),
        positions=tuple(positions),
    )


def build_chain(
    gadgets: int,
    delta: int,
    params: Optional[SINRParameters] = None,
    uids: Optional[Sequence[int]] = None,
    id_space: Optional[int] = None,
    base: Optional[float] = None,
) -> Tuple[WirelessNetwork, ChainLayout]:
    """Build the chain network of Figure 7 plus its layout metadata."""
    layout = chain_layout(gadgets, delta, params, base=base)
    positions = np.column_stack([np.array(layout.positions), np.zeros(layout.size)])
    network = WirelessNetwork(
        positions,
        params=layout.params,
        uids=uids,
        id_space=id_space,
        delta_bound=delta,
    )
    return network, layout


def external_interference_at_core(
    network: WirelessNetwork, layout: ChainLayout, gadget: int
) -> float:
    """Worst-case interference at gadget ``gadget``'s core from all other nodes.

    Fact 3 bounds the interference from every node outside a gadget (they are
    all on its left in the paper's construction) by the budget ``nu``; here
    we evaluate the exact worst case -- every node outside the gadget
    transmitting simultaneously -- against the physics engine.
    """
    physics = network.physics
    inside = set(layout.gadget_indices[gadget])
    outside = [i for i in range(layout.size) if i not in inside]
    if not outside:
        return 0.0
    worst = 0.0
    for core_index in layout.core_indices(gadget):
        worst = max(worst, physics.interference_at(core_index, outside))
    return worst


def theoretical_lower_bound(diameter: int, delta: int, alpha: float) -> float:
    """The bound of Theorem 6: ``D * Delta^{1 - 1/alpha}`` (up to constants)."""
    return float(diameter) * float(delta) ** (1.0 - 1.0 / alpha)
