"""Section 7: message-passing implementation of N-Parallel SOLVE (w=1)."""

from .machine import (
    FaultStats,
    Machine,
    SimulationResult,
    render_event_log,
    simulate,
)
from .messages import Message, MsgKind
from .tasks import check_binary_nor

__all__ = [
    "FaultStats",
    "Machine",
    "SimulationResult",
    "simulate",
    "check_binary_nor",
    "render_event_log",
    "Message",
    "MsgKind",
]
