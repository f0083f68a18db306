"""Synchronous round-based simulation layer for the SINR model."""

from .engine import ScheduleDeliveries, SINRSimulator
from .messages import Message, message_bits
from .schedule import (
    DeliveryLedger,
    ReceptionEvent,
    ScheduleResult,
    run_cluster_schedule,
    run_round_robin,
    run_schedule,
)

__all__ = [
    "DeliveryLedger",
    "Message",
    "ReceptionEvent",
    "ScheduleDeliveries",
    "ScheduleResult",
    "SINRSimulator",
    "message_bits",
    "run_cluster_schedule",
    "run_round_robin",
    "run_schedule",
]
