"""Unit tests for the discrete-event engine."""

import gc
import math

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

    @pytest.mark.parametrize("when", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, when):
        engine = Engine(start_time=1.0)
        with pytest.raises(SimulationError):
            engine.call_at(when, lambda: None)
        assert engine.pending_count() == 0

    @pytest.mark.parametrize("delay", [math.nan, math.inf, 1e308])
    def test_non_finite_resulting_time_rejected(self, delay):
        engine = Engine(start_time=1e308)   # 1e308 + 1e308 overflows
        with pytest.raises(SimulationError):
            engine.call_later(delay, lambda: None)
        assert engine.pending_count() == 0

    def test_a_refused_nan_cannot_reorder_the_queue(self):
        # regression: a NaN key compares False against everything, so
        # the heap accepted it and then ran b@0.2, c@0.1, nan, a@0.5
        engine = Engine()
        seen = []
        engine.call_later(0.5, seen.append, "a")
        with pytest.raises(SimulationError):
            engine.call_later(math.nan, seen.append, "nan")
        engine.call_later(0.2, seen.append, "b")
        engine.call_later(0.1, seen.append, "c")
        engine.run()
        assert seen == ["c", "b", "a"]

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


@pytest.fixture
def collector():
    """The cyclic collector enabled, and left as the test found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    def test_paused_inside_and_restored_on_return(self, collector):
        engine = Engine()
        inside = []
        engine.call_at(1.0, lambda: inside.append(gc.isenabled()))
        engine.run()
        assert inside == [False] and gc.isenabled()
        gc.disable()
        engine.call_at(2.0, lambda: inside.append(gc.isenabled()))
        engine.run()
        assert inside == [False, False] and not gc.isenabled()

    def test_restored_when_a_callback_raises(self, collector):
        engine = Engine()
        engine.call_at(1.0, TestRunControl._boom, [])
        with pytest.raises(RuntimeError):
            engine.run()
        assert gc.isenabled()

    def test_a_nested_run_leaves_the_outer_pause_alone(self, collector):
        outer, inner = Engine(), Engine()
        seen = []
        inner.call_at(1.0, lambda: seen.append(("inner", gc.isenabled())))

        def run_inner():
            inner.run()
            seen.append(("after inner", gc.isenabled()))
        outer.call_at(1.0, run_inner)
        outer.run()
        assert seen == [("inner", False), ("after inner", False)]
        assert gc.isenabled()

    def test_no_collector_pass_inside_a_run(self, collector):
        engine = Engine()
        passes = []
        marks = []

        def churn():
            # far more container allocations than a generation-0 threshold
            for _ in range(2000):
                cell = []
                cell.append(cell)

        def on_pass(phase, _info):
            if phase == "start":
                passes.append(phase)
        engine.call_at(0.0, lambda: marks.append(len(passes)))
        for index in range(20):
            engine.call_at(1.0 + index, churn)
        engine.call_at(100.0, lambda: marks.append(len(passes)))
        gc.collect()
        gc.callbacks.append(on_pass)
        try:
            engine.run()
        finally:
            gc.callbacks.remove(on_pass)
        assert marks[0] == marks[1]

    @staticmethod
    def _cyclic_garbage_after(duration):
        """Cyclic objects a steady-state run of ``duration`` simulated
        seconds leaves for the collector: keepalives on every DIF and an
        echo flow pinging every 10 ms (EFCP retransmission and ack
        timers) over a two-level plant."""
        from repro.apps.echo import EchoClient, EchoServer
        from repro.core import run_until
        from repro.experiments.e6_scalability import build_stack
        network, systems, _difs = build_stack("recursive", 2, 2, seed=1)
        EchoServer(systems["h1_0"], dif_names=["h2h"])
        network.run(until=network.engine.now + 0.5)
        client = EchoClient(systems["h0_0"], dif_name="h2h")
        run_until(network, lambda: client.waiter.done(), timeout=20)
        assert client.ready
        PeriodicTask(network.engine, 0.01, lambda: client.ping(200)).start()
        gc.collect()
        gc.disable()     # nothing may collect between the run and the count
        replies = client.replies
        network.run(until=network.engine.now + duration)
        assert client.replies - replies >= 90 * duration
        return gc.collect()

    def test_what_the_pause_defers_does_not_grow_with_run_length(
            self, collector):
        assert (self._cyclic_garbage_after(1.0)
                == self._cyclic_garbage_after(4.0))


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
