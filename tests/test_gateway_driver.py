"""AsyncEngineDriver: both time-ownership contracts.

Fast mode must honor causality (never jump a timer over an inflight
frame, compress idle sim-time to nothing, journal every advance); wall
mode must run engine timers in real seconds and stay interruptible by
injections.
"""

import asyncio

import pytest

from repro.gateway.driver import AsyncEngineDriver
from repro.sim.engine import Engine


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            AsyncEngineDriver(Engine(), mode="warp")

    def test_rejects_bad_time_scale(self):
        with pytest.raises(ValueError):
            AsyncEngineDriver(Engine(), time_scale=0)

    def test_mode_apis_are_exclusive(self):
        async def main():
            fast = AsyncEngineDriver(Engine(), mode="fast")
            with pytest.raises(RuntimeError):
                fast.start()
            wall = AsyncEngineDriver(Engine(), mode="wall")
            with pytest.raises(RuntimeError):
                await wall.run_until(lambda: True)
        run(main())


class TestFastMode:
    def test_fast_forwards_to_timers(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")
        fired = []
        engine.call_later(5.0, lambda: fired.append(engine.now))

        async def main():
            assert await driver.run_until(lambda: bool(fired), timeout=30.0)
        run(main())
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_timer_chains_run_in_order(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")
        order = []
        engine.call_later(1.0, lambda: order.append("a"))
        engine.call_later(2.0, lambda: (order.append("b"),
                                        engine.call_later(
                                            1.5, lambda: order.append("c"))))

        async def main():
            assert await driver.run_until(lambda: len(order) == 3)
        run(main())
        assert order == ["a", "b", "c"]
        assert engine.now == 3.5

    def test_timeout_returns_false(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")

        async def main():
            return await driver.run_until(lambda: False, timeout=0.5)
        assert run(main()) is False

    def test_inject_runs_inside_engine(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")
        seen = []

        async def main():
            driver.inject(lambda: seen.append(engine.now))
            assert await driver.run_until(lambda: bool(seen))
        run(main())
        assert seen == [0.0]

    def test_injections_preserve_order(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")
        order = []

        async def main():
            for index in range(10):
                driver.inject(order.append, index)
            assert await driver.run_until(lambda: len(order) == 10)
        run(main())
        assert order == list(range(10))

    def test_inflight_blocks_fast_forward(self):
        """A timer must not fire while a tracked frame is on the wire:
        the driver waits for io_end before jumping the clock."""
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast", idle_grace=0.005)
        fired = []
        engine.call_later(1.0, lambda: fired.append("timer"))

        async def main():
            driver.io_begin()
            assert driver.inflight == 1

            async def land_late():
                await asyncio.sleep(0.03)
                assert not fired   # clock still pinned at 0
                driver.io_end()
                driver.inject(fired.append, "frame")
            lander = asyncio.get_running_loop().create_task(land_late())
            assert await driver.run_until(lambda: len(fired) == 2)
            await lander
        run(main())
        assert fired == ["frame", "timer"]

    def test_settle_advances_exactly(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")

        async def main():
            await driver.settle(2.5)
        run(main())
        assert engine.now == 2.5

    def test_settle_serves_timers_inside_window(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast")
        fired = []
        engine.call_later(1.0, lambda: fired.append(1))
        engine.call_later(9.0, lambda: fired.append(9))

        async def main():
            await driver.settle(2.0)
        run(main())
        assert fired == [1]
        assert engine.now == 2.0

    def test_journal_records_advances_and_injections(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="fast", record=True)
        engine.call_later(1.0, lambda: None)

        async def main():
            driver.inject(lambda: None, label="test.mark")
            await driver.settle(2.0)
        run(main())
        assert ("inject", "test.mark") in driver.journal
        advances = [t for op, t in driver.journal if op == "advance"]
        assert advances == [1.0, 2.0]

    def test_journal_off_by_default(self):
        driver = AsyncEngineDriver(Engine(), mode="fast")
        assert driver.journal is None


class TestWallMode:
    def test_timers_fire_in_wall_time(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        fired = []
        engine.call_later(0.05, lambda: fired.append(engine.now))

        async def main():
            driver.start()
            deadline = asyncio.get_running_loop().time() + 2.0
            while not fired and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            await driver.stop()
        run(main())
        assert fired and fired[0] >= 0.05

    def test_injection_preempts_idle_sleep(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        seen = []

        async def main():
            driver.start()
            await asyncio.sleep(0.01)   # pump is now idle-sleeping
            driver.inject(seen.append, "poke")
            deadline = asyncio.get_running_loop().time() + 2.0
            while not seen and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.005)
            await driver.stop()
        run(main())
        assert seen == ["poke"]

    def test_start_is_idempotent(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")

        async def main():
            first = driver.start()
            assert driver.start() is first
            await driver.stop()
        run(main())

    def test_stop_then_restart(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        seen = []

        async def main():
            driver.start()
            await driver.stop()
            driver.start()
            driver.inject(seen.append, 1)
            await asyncio.sleep(0.05)
            await driver.stop()
        run(main())
        assert seen == [1]


class TestDrain:
    """enqueue + drain: a read batch runs to completion in its own turn."""

    def test_enqueue_waits_for_drain_which_runs_synchronously(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        seen = []

        async def main():
            driver.start()
            await asyncio.sleep(0.01)   # pump is idle-sleeping
            for index in range(3):
                driver.enqueue(seen.append, index)
            await asyncio.sleep(0.02)   # nobody was woken
            assert seen == []
            driver.drain()
            assert seen == [0, 1, 2]    # no await in between
            await driver.stop()
        run(main())

    def test_drain_inside_a_running_engine_is_a_no_op(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        seen = []

        async def main():
            driver.start()

            def nested():
                driver.enqueue(seen.append, "inner")
                driver.drain()          # must not re-enter engine.run
                seen.append("outer")
            driver.enqueue(nested)
            driver.drain()
            assert seen == ["outer", "inner"]
            await driver.stop()
        run(main())

    def test_drain_that_arms_an_earlier_timer_wakes_the_pump(self):
        """The pump sleeps towards the engine's next timer (0.2 s at a
        time when there is none); only a drain that armed an earlier
        one wakes it, to re-arm."""
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        fired = []

        async def turns(count=3):
            for _ in range(count):
                await asyncio.sleep(0)

        async def main():
            driver.start()
            await turns()
            assert driver._armed == float("inf")     # idle
            driver.enqueue(engine.call_later, 0.05, fired.append, "early")
            driver.drain()
            await turns()
            early = engine.next_event_time()
            assert driver._armed == early            # woken, re-armed
            driver.enqueue(engine.call_later, 5.0, fired.append, "late")
            driver.drain()
            (waiter,) = driver._waiters
            assert not waiter.done()                 # later timer: no wake
            await turns()
            assert driver._armed == early
            deadline = asyncio.get_running_loop().time() + 2.0
            while not fired and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.005)
            await driver.stop()
        run(main())
        assert fired == ["early"]

    def test_failing_callback_goes_to_on_error_and_nothing_runs_twice(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        seen, errors = [], []

        def boom():
            raise RuntimeError("callback bug")

        async def main():
            driver.start()
            driver.enqueue(seen.append, "before")
            driver.enqueue(boom)
            driver.enqueue(seen.append, "after")
            driver.drain(errors.append)
            assert seen == ["before", "after"]
            assert [str(exc) for exc in errors] == ["callback bug"]
            driver.enqueue(seen.append, "next batch")
            driver.drain(errors.append)
            assert seen == ["before", "after", "next batch"]
            assert len(errors) == 1
            await driver.stop()
        run(main())

    def test_failing_injection_is_reported_and_the_pump_survives(self):
        engine = Engine()
        driver = AsyncEngineDriver(engine, mode="wall")
        seen, reported = [], []

        def boom():
            raise RuntimeError("callback bug")

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: reported.append(ctx))
            driver.start()
            driver.inject(boom)
            await asyncio.sleep(0.02)
            driver.inject(seen.append, "still pumping")
            await asyncio.sleep(0.02)
            await driver.stop()
        run(main())
        assert seen == ["still pumping"]
        assert [str(ctx["exception"]) for ctx in reported] == ["callback bug"]

    def test_drain_before_start_and_in_fast_mode_runs_nothing(self):
        async def main():
            wall = AsyncEngineDriver(Engine(), mode="wall")
            fast = AsyncEngineDriver(Engine(), mode="fast")
            seen = []
            for driver in (wall, fast):
                driver.enqueue(seen.append, driver.mode)
                driver.drain()
            assert seen == []
            # fast mode: run_until owns the engine and was only woken
            assert await fast.run_until(lambda: seen == ["fast"])
        run(main())
