"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import (Engine, EngineClock, PeriodicTask,
                              SimulationError, Timer)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_clock_starts_at_given_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_call_at_runs_at_time(self):
        engine = Engine()
        seen = []
        engine.call_at(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

    def test_call_later_relative(self):
        engine = Engine(start_time=2.0)
        seen = []
        engine.call_later(0.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]

    def test_call_soon_runs_at_current_time(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, lambda: engine.call_soon(
            lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.0]

    def test_args_passed_through(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        engine.run()
        assert seen == [("x", 2)]

    def test_scheduling_in_past_rejected(self):
        engine = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().call_later(-1.0, lambda: None)

    def test_fifo_order_for_simultaneous_events(self):
        engine = Engine()
        seen = []
        for index in range(5):
            engine.call_at(1.0, lambda i=index: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_events_run_in_time_order_regardless_of_insertion(self):
        engine = Engine()
        seen = []
        for when in (3.0, 1.0, 2.0):
            engine.call_at(when, lambda w=when: seen.append(w))
        engine.run()
        assert seen == [1.0, 2.0, 3.0]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_execution_order_is_sorted(self, times):
        engine = Engine()
        seen = []
        for when in times:
            engine.call_at(when, lambda w=when: seen.append(w))
        engine.run()
        assert seen == sorted(times)

    def test_cancellation_skips_event(self):
        engine = Engine()
        seen = []
        event = engine.call_at(1.0, lambda: seen.append("cancelled"))
        engine.call_at(2.0, lambda: seen.append("kept"))
        event.cancel()
        engine.run()
        assert seen == ["kept"]

    def test_cancelled_event_inactive(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        assert event.active
        event.cancel()
        assert not event.active


class TestRunControl:
    def test_run_until_advances_clock_to_horizon(self):
        engine = Engine()
        engine.call_at(10.0, lambda: None)
        assert engine.run(until=5.0) == 5.0
        assert engine.now == 5.0

    def test_run_until_then_resume(self):
        engine = Engine()
        seen = []
        engine.call_at(10.0, lambda: seen.append(True))
        engine.run(until=5.0)
        assert seen == []
        engine.run()
        assert seen == [True]

    def test_run_with_empty_queue_advances_to_until(self):
        engine = Engine()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_max_events_bounds_execution(self):
        engine = Engine()
        seen = []
        for index in range(10):
            engine.call_at(float(index + 1), lambda i=index: seen.append(i))
        engine.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_stop_inside_callback(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, lambda: (seen.append(1), engine.stop()))
        engine.call_at(2.0, lambda: seen.append(2))
        engine.run()
        assert seen == [1]
        engine.run()
        assert seen == [1, 2]

    def test_reentrant_run_rejected(self):
        engine = Engine()

        def reenter():
            with pytest.raises(SimulationError):
                engine.run()
        engine.call_at(1.0, reenter)
        engine.run()

    @staticmethod
    def _boom(seen):
        seen.append("boom")
        raise RuntimeError("boom")

    def test_raising_event_is_consumed_and_the_batch_resumes_after_it(self):
        # regression: the cursor into the timestamp batch was lost when a
        # callback raised, so every later run() re-executed the batch
        # from its first event and pending_count() went negative
        engine = Engine()
        seen = []
        engine.call_at(1.0, seen.append, "a")
        engine.call_at(1.0, self._boom, seen)
        engine.call_at(1.0, seen.append, "c")
        engine.call_at(2.0, seen.append, "d")
        with pytest.raises(RuntimeError):
            engine.run()
        assert seen == ["a", "boom"]
        assert engine.pending_count() == self._live_scan(engine) == 2
        assert engine.next_event_time() == 1.0
        engine.run()
        assert seen == ["a", "boom", "c", "d"]
        assert engine.pending_count() == 0
        assert engine.events_processed == 4

    def test_raising_last_event_of_a_batch_is_not_rerun(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, seen.append, "a")
        engine.call_at(1.0, self._boom, seen)
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.pending_count() == 0
        assert engine.next_event_time() is None
        # a same-instant event scheduled after the failure still runs
        engine.call_at(1.0, seen.append, "late")
        engine.run()
        assert seen == ["a", "boom", "late"]

    def test_raise_interleaved_with_stop_and_max_events(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, lambda: (seen.append("stop"), engine.stop()))
        engine.call_at(1.0, self._boom, seen)
        engine.call_at(1.0, seen.append, "c")
        engine.call_at(1.0, seen.append, "d")
        engine.run()                       # stop() parks after the first
        assert seen == ["stop"]
        with pytest.raises(RuntimeError):
            engine.run(max_events=5)       # resumes at the raising one
        assert seen == ["stop", "boom"]
        engine.run(max_events=1)           # budget parks between c and d
        assert seen == ["stop", "boom", "c"]
        assert engine.pending_count() == self._live_scan(engine) == 1
        engine.run()
        assert seen == ["stop", "boom", "c", "d"]
        # a raise is not a stop: the engine is reusable, not wedged
        assert engine.pending_count() == 0 and engine.events_processed == 4

    def test_events_processed_counts_executions_only(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        event.cancel()
        engine.run()
        assert engine.events_processed == 1

    def test_pending_count_excludes_cancelled(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        event.cancel()
        assert engine.pending_count() == 1

    def test_pending_count_double_cancel_counts_once(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert engine.pending_count() == 1

    def test_pending_count_after_execution(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.run(max_events=1)
        assert engine.pending_count() == 1
        # cancelling an already-executed event must not corrupt the counter
        event.cancel()
        assert engine.pending_count() == 1

    def _live_scan(self, engine):
        # pending events live in per-timestamp batch lists
        return sum(1 for batch in engine._batches.values()
                   for ev in batch if ev.active and not ev._expired)

    def test_pending_counter_matches_heap_scan(self):
        # the O(1) counter must agree with a full heap scan through an
        # arbitrary schedule/cancel/run interleaving
        engine = Engine()
        events = [engine.call_at(float(i), lambda: None) for i in range(10)]
        assert engine.pending_count() == self._live_scan(engine) == 10
        for event in events[::3]:
            event.cancel()
        assert engine.pending_count() == self._live_scan(engine)
        engine.run(max_events=3)
        assert engine.pending_count() == self._live_scan(engine)
        events[8].cancel()
        events[8].cancel()
        assert engine.pending_count() == self._live_scan(engine)
        engine.run()
        assert engine.pending_count() == self._live_scan(engine) == 0

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False),
                              st.booleans()), min_size=1, max_size=40))
    def test_property_pending_counter_consistency(self, plan):
        engine = Engine()
        events = []
        for when, cancel in plan:
            events.append((engine.call_at(when, lambda: None), cancel))
        for event, cancel in events:
            if cancel:
                event.cancel()
        assert engine.pending_count() == self._live_scan(engine)
        engine.run(max_events=len(events) // 2)
        assert engine.pending_count() == self._live_scan(engine)
        engine.run()
        assert engine.pending_count() == self._live_scan(engine) == 0


class TestTimer:
    def test_fires_after_delay(self):
        engine = Engine()
        seen = []
        timer = Timer(engine, lambda: seen.append(engine.now))
        timer.start(2.0)
        engine.run()
        assert seen == [2.0]

    def test_restart_resets_deadline(self):
        engine = Engine()
        seen = []
        timer = Timer(engine, lambda: seen.append(engine.now))
        timer.start(2.0)
        engine.call_at(1.0, lambda: timer.start(2.0))
        engine.run()
        assert seen == [3.0]

    def test_cancel_prevents_firing(self):
        engine = Engine()
        seen = []
        timer = Timer(engine, lambda: seen.append(True))
        timer.start(2.0)
        timer.cancel()
        engine.run()
        assert seen == []

    def test_cancel_idempotent(self):
        timer = Timer(Engine(), lambda: None)
        timer.cancel()
        timer.cancel()

    def test_running_flag(self):
        engine = Engine()
        timer = Timer(engine, lambda: None)
        assert not timer.running
        timer.start(1.0)
        assert timer.running
        engine.run()
        assert not timer.running


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        engine = Engine()
        seen = []
        task = PeriodicTask(engine, 1.0, lambda: seen.append(engine.now))
        task.start()
        engine.run(until=3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_initial_delay_override(self):
        engine = Engine()
        seen = []
        task = PeriodicTask(engine, 1.0, lambda: seen.append(engine.now))
        task.start(initial_delay=0.25)
        engine.run(until=1.5)
        assert seen == [0.25, 1.25]

    def test_stop_ceases_firing(self):
        engine = Engine()
        seen = []
        task = PeriodicTask(engine, 1.0, lambda: seen.append(engine.now))
        task.start()
        engine.call_at(2.5, task.stop)
        engine.run(until=10.0)
        assert seen == [1.0, 2.0]

    def test_non_positive_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Engine(), 0.0, lambda: None)

    def test_running_flag(self):
        engine = Engine()
        task = PeriodicTask(engine, 1.0, lambda: None)
        assert not task.running
        task.start()
        assert task.running
        task.stop()
        assert not task.running

    def test_jitter_applied(self):
        engine = Engine()
        seen = []
        task = PeriodicTask(engine, 1.0, lambda: seen.append(engine.now),
                            jitter_fn=lambda: 0.1)
        task.start()
        engine.run(until=3.5)
        # first firing after plain period, subsequent with +0.1 jitter
        assert seen == pytest.approx([1.0, 2.1, 3.2])


class TestEngineClock:
    def test_read_only_view_tracks_time(self):
        engine = Engine()
        clock = EngineClock(engine)
        engine.call_at(4.0, lambda: None)
        engine.run()
        assert clock.now == 4.0
