"""Synchronous round-based simulation layer for the SINR model."""

from .engine import ScheduleDeliveries, SINRSimulator
from .schedule import (
    DeliveryLedger,
    ScheduleResult,
    run_cluster_schedule,
    run_round_robin,
    run_schedule,
)

__all__ = [
    "DeliveryLedger",
    "ScheduleDeliveries",
    "ScheduleResult",
    "SINRSimulator",
    "run_cluster_schedule",
    "run_round_robin",
    "run_schedule",
]
