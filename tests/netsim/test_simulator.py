"""Tests for repro.netsim.simulator."""

import pytest

from repro.errors import SimulationError
from repro.netsim.simulator import Simulator


class TestScheduling:
    def test_runs_events_in_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(2))
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.run()
        assert seen == [1, 2]
        assert sim.now == 2.0

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_after(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_after(1.0, lambda: seen.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_ulp_rounding_error_tolerated_at_large_times(self):
        """A single-ulp-in-the-past time must not raise once the clock is large.

        The guard's tolerance is relative to ``now``: with the old absolute
        1e-18 tolerance, one ulp of rounding (~8.7e-19 at 4 ms, growing with
        the clock) in a callback's computed time raised a spurious error.
        """
        import math

        sim = Simulator()
        sim.schedule_at(0.0084, lambda: None)  # past the ~4 ms ulp crossover
        sim.run()
        seen = []
        sim.schedule_at(math.nextafter(sim.now, 0.0), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0084], "the clamped event must still fire at now"

    def test_relative_tolerance_tracks_clock_magnitude(self):
        import math

        sim = Simulator()
        sim.schedule_at(1000.0, lambda: None)
        sim.run()
        sim.schedule_at(math.nextafter(1000.0, 0.0), lambda: None)  # 1 ulp: tolerated
        with pytest.raises(SimulationError):
            sim.schedule_at(1000.0 * (1.0 - 1e-12), lambda: None)  # thousands of ulps: past

    def test_near_zero_clock_keeps_absolute_floor(self):
        sim = Simulator()
        sim.schedule_at(0.0, lambda: None)  # exactly now is fine at t=0
        with pytest.raises(SimulationError):
            sim.schedule_at(-1e-9, lambda: None)

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def rescheduler():
            sim.schedule_after(1.0, rescheduler)

        sim.schedule_at(0.0, rescheduler)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run()

    def test_reset(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_processed == 0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(0.0, nested)
        sim.run()
        assert len(errors) == 1


class TestOrdering:
    """Event order is ``(time, seq)``: same-instant events fire as scheduled."""

    def test_ties_broken_by_scheduling_order(self):
        sim = Simulator()
        seen = []
        for tag in "abcde":
            sim.schedule_at(1.0, lambda tag=tag: seen.append(tag))
        sim.run()
        assert seen == list("abcde")

    def test_ties_span_every_scheduling_call(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(1.0, seen.append, "call")
        sim.schedule_at(1.0, lambda: seen.append("at"))
        sim.schedule_after(1.0, lambda: seen.append("after"))
        sim.schedule_call(1.0, lambda a, b: seen.append(a + b), "tw", "o")
        sim.run()
        assert seen == ["call", "at", "after", "two"]

    def test_event_scheduled_now_runs_after_pending_ties(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_after(0.0, lambda: seen.append("scheduled-now"))

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: seen.append("second"))
        sim.run()
        assert seen == ["first", "second", "scheduled-now"]

    def test_reset_restarts_tie_order(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        sim.reset()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append("a"))
        sim.schedule_at(1.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b"]


class TestScheduleCall:
    def test_two_arguments_bound_directly(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(2.0, lambda a, b: seen.append((sim.now, a, b)), 1, "x")
        sim.run()
        assert seen == [(2.0, 1, "x")]

    @pytest.mark.parametrize("args", [(), (1,), (1, 2, 3)])
    def test_other_arities_go_through_trampoline(self, args):
        sim = Simulator()
        seen = []
        sim.schedule_call(1.0, lambda *got: seen.append(got), *args)
        sim.run()
        assert seen == [args]

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_call(1.0, lambda a, b: None, 1, 2)

    def test_single_ulp_in_past_clamped_to_now(self):
        import math

        sim = Simulator()
        sim.schedule_at(0.0084, lambda: None)
        sim.run()
        seen = []
        sim.schedule_call(math.nextafter(sim.now, 0.0), lambda a, b: seen.append(sim.now), 0, 0)
        sim.run()
        assert seen == [0.0084]


class TestRunLoop:
    def test_event_at_until_boundary_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(2))
        sim.schedule_at(2.5, lambda: seen.append(2.5))
        assert sim.run(until=2.0) == 2.0
        assert seen == [2]
        assert sim.pending_events == 1

    def test_empty_queue_returns_current_time(self):
        sim = Simulator()
        assert sim.run() == 0.0
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        assert sim.run() == 1.5
        assert sim.events_processed == 1

    def test_event_count_accumulates_across_runs(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_event_cap_is_cumulative_across_runs(self):
        sim = Simulator(max_events=3)
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        sim.schedule_at(3.0, lambda: None)
        sim.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError, match="exceeded 3 events"):
            sim.run()

    def test_failing_callback_leaves_simulator_usable(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule_at(1.0, boom)
        sim.schedule_at(2.0, lambda: None)
        with pytest.raises(RuntimeError, match="callback failed"):
            sim.run()
        assert sim.events_processed == 1
        assert sim.now == 1.0
        assert sim.run() == 2.0
        assert sim.events_processed == 2
