"""Tests for repro.netsim.resources."""

import pytest

from repro.errors import SimulationError
from repro.netsim.resources import SerialResource


class TestSerialResource:
    def test_first_reservation_starts_at_request(self):
        nic = SerialResource()
        start, end = nic.reserve(earliest_start=2.0, duration=1.0)
        assert (start, end) == (2.0, 3.0)

    def test_back_to_back_reservations_serialize(self):
        nic = SerialResource()
        nic.reserve(0.0, 1.0)
        start, end = nic.reserve(0.0, 2.0)
        assert (start, end) == (1.0, 3.0)

    def test_idle_gap_respected(self):
        nic = SerialResource()
        nic.reserve(0.0, 1.0)
        start, end = nic.reserve(10.0, 1.0)
        assert (start, end) == (10.0, 11.0)

    def test_busy_time_accumulates(self):
        nic = SerialResource()
        nic.reserve(0.0, 1.0)
        nic.reserve(0.0, 2.0)
        assert nic.busy_time == pytest.approx(3.0)
        assert nic.reservations == 2

    def test_utilization(self):
        nic = SerialResource()
        nic.reserve(0.0, 2.0)
        assert nic.utilization(4.0) == pytest.approx(0.5)
        assert nic.utilization(0.0) == 0.0
        assert nic.utilization(1.0) == 1.0  # clamped

    def test_reset(self):
        nic = SerialResource()
        nic.reserve(0.0, 5.0)
        nic.reset()
        assert nic.available_at == 0.0
        assert nic.busy_time == 0.0
        assert nic.reservations == 0

    def test_invalid_reservation_rejected(self):
        nic = SerialResource()
        with pytest.raises(SimulationError):
            nic.reserve(0.0, -1.0)
        with pytest.raises(SimulationError):
            nic.reserve(-1.0, 1.0)
