"""Unit tests for the discrete-event engine."""

import gc
import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine, PeriodicTask, SimulationError, Timer


def pending_count(engine):
    """Live events still queued: each batch past its consumed prefix,
    cancelled events excluded (a scan; the engine keeps no count)."""
    return sum(not event.cancelled
               for when, batch in engine._batches.items()
               for event in batch[engine._batch_pos.get(when, 0):])


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_call_at_runs_at_time(self):
        engine = Engine()
        seen = []
        engine.call_at(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

    def test_call_later_relative(self):
        engine = Engine()
        engine.run(until=2.0)
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
        engine = Engine()
        engine.run(until=10.0)
        with pytest.raises(SimulationError):
            engine.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().call_later(-1.0, lambda: None)

    @pytest.mark.parametrize("when", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, when):
        engine = Engine()
        engine.run(until=1.0)
        with pytest.raises(SimulationError):
            engine.call_at(when, lambda: None)
        assert engine.next_event_time() is None

    @pytest.mark.parametrize("delay", [math.nan, math.inf, 1e308])
    def test_non_finite_resulting_time_rejected(self, delay):
        engine = Engine()
        engine.run(until=1e308)   # 1e308 + 1e308 overflows
        with pytest.raises(SimulationError):
            engine.call_later(delay, lambda: None)
        assert engine.next_event_time() is None

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
        assert not event.cancelled
        event.cancel()
        assert event.cancelled


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

    def test_run_until_before_the_clock_is_refused(self):
        # regression: a horizon in the past set the clock back, and an
        # event scheduled after that ran at t=6, after t=10 was reached
        engine = Engine()
        seen = []
        engine.call_at(12.0, seen.append, 12.0)
        engine.run(until=10.0)
        for until in (5.0, math.nan):
            with pytest.raises(SimulationError):
                engine.run(until=until)
            assert engine.now == 10.0
        engine.call_later(1.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [11.0, 12.0]

    def test_run_until_now_is_a_no_op(self):
        engine = Engine()
        seen = []
        engine.call_at(5.0, seen.append, "later")
        engine.run(until=2.0)
        assert engine.run(until=2.0) == 2.0
        assert seen == [] and engine.next_event_time() == 5.0

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
        # from its first event
        engine = Engine()
        seen = []
        engine.call_at(1.0, seen.append, "a")
        engine.call_at(1.0, self._boom, seen)
        engine.call_at(1.0, seen.append, "c")
        engine.call_at(2.0, seen.append, "d")
        with pytest.raises(RuntimeError):
            engine.run()
        assert seen == ["a", "boom"]
        assert pending_count(engine) == 2
        assert engine.next_event_time() == 1.0
        engine.run()
        assert seen == ["a", "boom", "c", "d"]
        assert pending_count(engine) == 0
        assert engine.events_processed == 4

    def test_raising_last_event_of_a_batch_is_not_rerun(self):
        engine = Engine()
        seen = []
        engine.call_at(1.0, seen.append, "a")
        engine.call_at(1.0, self._boom, seen)
        with pytest.raises(RuntimeError):
            engine.run()
        assert pending_count(engine) == 0
        assert engine.next_event_time() is None
        # a same-instant event scheduled after the failure still runs
        engine.call_at(1.0, seen.append, "late")
        engine.run()
        assert seen == ["a", "boom", "late"]

    def test_consecutive_raises_in_one_batch_resume_in_order(self):
        # runs that end part-way through a batch, then resume from its
        # cursor, with next_event_time() moving the cursor past a
        # cancelled event in between
        engine = Engine()
        seen = []
        engine.call_at(1.0, seen.append, "a")
        engine.call_at(1.0, self._boom, seen)
        engine.call_at(1.0, self._boom, seen)
        engine.call_at(1.0, seen.append, "x").cancel()
        engine.call_at(1.0, seen.append, "d")
        engine.call_at(2.0, seen.append, "e")
        with pytest.raises(RuntimeError):
            engine.run()
        assert seen == ["a", "boom"]
        with pytest.raises(RuntimeError):
            engine.run(until=1.0)          # resumes at the second raise
        assert seen == ["a", "boom", "boom"]
        assert engine.next_event_time() == 1.0      # "d", past "x"
        assert pending_count(engine) == 2
        engine.run(until=1.0)
        assert seen == ["a", "boom", "boom", "d"]
        assert engine.next_event_time() == 2.0
        engine.run()
        assert seen == ["a", "boom", "boom", "d", "e"]
        # a raise does not wedge the engine
        assert pending_count(engine) == 0 and engine.events_processed == 5

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
        assert pending_count(engine) == 1
        assert engine.next_event_time() == 2.0

    def test_pending_count_double_cancel_counts_once(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert pending_count(engine) == 1

    def test_pending_count_after_execution(self):
        engine = Engine()
        event = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.run(until=1.0)
        assert pending_count(engine) == 1
        # cancelling an already-executed event changes nothing
        event.cancel()
        assert pending_count(engine) == 1
        engine.run()
        assert engine.events_processed == 2

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False),
                              st.booleans()), min_size=1, max_size=40))
    def test_property_pending_counter_consistency(self, plan):
        engine = Engine()
        for when, cancel in plan:
            event = engine.call_at(when, lambda: None)
            if cancel:
                event.cancel()
        live = sorted(when for when, cancel in plan if not cancel)
        assert pending_count(engine) == len(live)
        horizon = sorted(when for when, _cancel in plan)[len(plan) // 2]
        engine.run(until=horizon)
        assert pending_count(engine) == sum(when > horizon for when in live)
        assert engine.next_event_time() == min(
            (when for when in live if when > horizon), default=None)
        engine.run()
        assert pending_count(engine) == 0
        assert engine.events_processed == len(live)


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
        from repro.core.flow import PENDING
        from repro.experiments.e6_scalability import build_stack
        network, systems, _difs = build_stack("recursive", 2, 2, seed=1)
        EchoServer(systems["h1_0"], dif_names=["h2h"])
        network.run(until=network.engine.now + 0.5)
        client = EchoClient(systems["h0_0"], dif_name="h2h")
        run_until(network, lambda: client.flow.state != PENDING, timeout=20)
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

    def test_later_restart_keeps_one_pending_event(self):
        engine = Engine()
        seen = []
        timer = Timer(engine, lambda: seen.append(engine.now))
        timer.start(2.0)
        for at in (0.5, 1.0, 1.5):
            engine.call_at(at, timer.start, 2.0)
        engine.run(until=1.6)
        # each restart recorded its deadline and scheduled nothing
        assert pending_count(engine) == 1
        engine.run()
        assert seen == [3.5]
        # the early fire at 2.0 re-armed once, at the last deadline
        assert engine.events_processed == 3 + 2

    def test_earlier_restart_reschedules(self):
        engine = Engine()
        seen = []
        timer = Timer(engine, lambda: seen.append(engine.now))
        timer.start(5.0)
        engine.call_at(1.0, timer.start, 0.5)
        engine.run()
        assert seen == [1.5]
        assert engine.events_processed == 1 + 1

    def test_cancel_after_a_lazy_restart_prevents_firing(self):
        engine = Engine()
        seen = []
        timer = Timer(engine, lambda: seen.append(engine.now))
        timer.start(1.0)
        engine.call_at(0.5, timer.start, 1.0)
        engine.call_at(1.2, timer.cancel)   # after the early fire re-armed
        engine.run()
        assert seen == []
        assert not timer.running

    def test_running_until_the_callback_runs(self):
        engine = Engine()
        states = []
        timer = Timer(engine, lambda: states.append(timer.running))
        timer.start(1.0)
        engine.call_at(0.5, timer.start, 1.0)
        engine.call_at(1.2, lambda: states.append(timer.running))
        engine.run()
        # armed across the early fire; disarmed when the callback runs
        assert states == [True, False]
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
