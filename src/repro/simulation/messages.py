"""Message objects exchanged by protocols.

The paper limits messages to ``O(log N)`` bits; a message therefore carries a
small, fixed set of integer fields (sender ID, cluster ID, a label or a hop
counter, and a short tag identifying the protocol stage).  :class:`Message`
captures that budget explicitly and :func:`message_bits` lets tests assert
that every message a protocol emits stays within the model's limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Message:
    """An ``O(log N)``-bit message.

    Attributes
    ----------
    sender:
        ID of the transmitting node (always present -- the paper's protocols
        always identify their transmitter).
    tag:
        Short string naming the protocol stage (for example ``"exchange"``,
        ``"confirm"``, ``"broadcast"``).  Tags come from a fixed, protocol-wide
        vocabulary so they cost ``O(1)`` bits.
    cluster:
        Cluster ID of the sender, if it has one.
    payload:
        A small tuple of integers (labels, hop counters, target IDs, ...).
    """

    sender: int
    tag: str = "data"
    cluster: Optional[int] = None
    payload: Tuple[int, ...] = ()

    def with_payload(self, *values: int) -> "Message":
        """A copy of this message carrying the given integer payload."""
        return Message(sender=self.sender, tag=self.tag, cluster=self.cluster, payload=tuple(values))


def message_bits(message: Message, id_space: int) -> int:
    """Upper bound on the number of bits needed to encode ``message``.

    Each integer field costs ``ceil(log2(id_space + 1))`` bits; the tag is a
    constant-size enum.  Used by tests to assert the ``O(log N)`` message-size
    constraint of the model (Section 1.1).
    """
    bits_per_int = max(1, math.ceil(math.log2(id_space + 1)))
    fields = 1  # sender
    if message.cluster is not None:
        fields += 1
    fields += len(message.payload)
    tag_bits = 8
    return fields * bits_per_int + tag_bits
