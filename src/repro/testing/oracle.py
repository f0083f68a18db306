"""A brute-force Equation 1 oracle, independent of every physics backend.

:func:`oracle_events` states the paper's reception rule directly, with
float64 loops over listener x transmitter and no shared code with
:mod:`repro.sinr.backends` beyond the co-location gain and the numeric
tolerance.  Tests compare each backend's ``receptions_table`` and the
schedule runners' event tables with it; because it is written for
clarity, not speed, keep its inputs small (tens of nodes and rounds).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from ..sinr.backends.base import COLOCATED_GAIN
from ..sinr.model import NUMERIC_TOLERANCE, SINRParameters


def oracle_events(
    positions: Sequence[Sequence[float]],
    indptr: Sequence[int],
    members: Sequence[int],
    params: SINRParameters,
    listeners: Optional[Iterable[int]] = None,
) -> List[Tuple[int, int, int, float]]:
    """Equation 1 by brute force over a CSR schedule of node indices.

    Round ``t`` is transmitted by ``members[indptr[t]:indptr[t + 1]]``.
    Listener ``v`` decodes transmitter ``u`` in a round iff ``v`` does not
    transmit in it (half-duplex) and ``P d(u,v)^-alpha / (N + sum over the
    round's other transmitters w of P d(w,v)^-alpha) >= beta`` (within the
    shared ``NUMERIC_TOLERANCE``).  ``listeners`` restricts who listens
    (duplicates count once; default every node).  Returns ``(round,
    receiver, sender, sinr)`` tuples, round-major, receivers in listener
    order.
    """

    def gain(u: int, v: int) -> float:
        d = math.dist(positions[u], positions[v])
        return COLOCATED_GAIN if d == 0.0 else params.power / d**params.alpha

    pool = range(len(positions)) if listeners is None else dict.fromkeys(int(v) for v in listeners)
    events = []
    for t in range(len(indptr) - 1):
        tx = [int(u) for u in members[indptr[t] : indptr[t + 1]]]
        for v in pool:
            if v in tx:
                continue
            for u in tx:
                noise_plus = params.noise + math.fsum(gain(w, v) for w in tx if w != u)
                sinr = gain(u, v) / noise_plus
                if sinr >= params.beta - NUMERIC_TOLERANCE:
                    events.append((t, v, u, sinr))
    return events
