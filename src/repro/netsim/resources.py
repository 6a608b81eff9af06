"""The serial resource used to model shared hardware.

The dominant shared resource in the paper's setting is the per-node NIC:
when 112 ranks on a node all inject inter-node messages, those messages
serialize on the NIC's message-processing pipeline and injection bandwidth.
:class:`SerialResource` models exactly that: a single server that handles
one reservation at a time, in the order reservations are requested, and
counts its reservations and busy time.  Per-level message and byte totals
live on the message router (``MessageRouter.traffic_by_level``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["SerialResource"]


@dataclass
class SerialResource:
    """A FIFO single-server resource with an availability horizon.

    ``reserve(earliest_start, duration)`` books the resource for ``duration``
    seconds starting no earlier than ``earliest_start`` and no earlier than
    the end of the previous reservation, returning the (start, end) interval.
    This is the classic "available-at" NIC model: cheap (O(1) per message)
    yet capturing serialization and queueing delay.
    """

    name: str = "resource"
    available_at: float = 0.0
    busy_time: float = 0.0
    reservations: int = 0

    def reserve(self, earliest_start: float, duration: float) -> tuple[float, float]:
        if duration < 0.0:
            raise SimulationError(f"{self.name}: reservation duration must be non-negative")
        if earliest_start < 0.0:
            raise SimulationError(f"{self.name}: reservation start must be non-negative")
        start = max(earliest_start, self.available_at)
        end = start + duration
        self.available_at = end
        self.busy_time += duration
        self.reservations += 1
        return start, end

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` during which the resource was busy."""
        if horizon <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.available_at = 0.0
        self.busy_time = 0.0
        self.reservations = 0
