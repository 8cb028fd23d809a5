"""Unit tests for directories and the Flow object."""

import pytest

from repro.core.directory import (DIRECTORY_OBJ, DifDirectory,
                                  InterDifDirectory)
from repro.core.flow import (ALLOCATED, DEALLOCATED, FAILED, PENDING,
                             WRITABLE, Flow, FlowError)
from repro.core.names import Address, ApplicationName, DifName, PortId
from repro.core.qos import BEST_EFFORT
from repro.core.riep import M_WRITE, RiepMessage


def make_directory(address, floods=None):
    floods = floods if floods is not None else []
    return DifDirectory(lambda: address,
                        lambda message, exclude: floods.append(message) or 1)


class TestDifDirectory:
    def test_local_registration_resolves_locally(self):
        directory = make_directory(Address(1))
        app = ApplicationName("svc")
        directory.register(app)
        assert directory.lookup(app) == Address(1)

    def test_registration_floods_advertisement(self):
        floods = []
        directory = make_directory(Address(1), floods)
        directory.register(ApplicationName("svc"))
        assert len(floods) == 1
        assert floods[0].obj == DIRECTORY_OBJ
        assert "svc" in floods[0].value["names"]

    def test_duplicate_registration_not_refloded(self):
        floods = []
        directory = make_directory(Address(1), floods)
        app = ApplicationName("svc")
        directory.register(app)
        directory.register(app)
        assert len(floods) == 1

    def test_unregister_advertises_removal(self):
        floods = []
        directory = make_directory(Address(1), floods)
        app = ApplicationName("svc")
        directory.register(app)
        directory.unregister(app)
        assert directory.lookup(app) is None
        assert floods[-1].value["names"] == []

    def test_remote_update_learned_and_reflooded(self):
        directory = make_directory(Address(1))
        update = RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (2,), "seq": 1, "names": ["remote-svc"]})
        directory.handle_update(update, Address(2))
        assert directory.lookup(ApplicationName("remote-svc")) == Address(2)
        assert directory.updates_reflooded == 1

    def test_deprecated_refloded_alias_removed(self):
        # the misspelled alias is gone, same treatment as lsas_refloded
        # in core/routing.py
        directory = make_directory(Address(1))
        update = RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (2,), "seq": 1, "names": ["remote-svc"]})
        directory.handle_update(update, Address(2))
        assert not hasattr(directory, "updates_refloded")
        assert directory.updates_reflooded == 1

    def test_stale_update_ignored(self):
        directory = make_directory(Address(1))
        fresh = RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (2,), "seq": 5, "names": ["v5"]})
        stale = RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (2,), "seq": 3, "names": ["v3"]})
        directory.handle_update(fresh, Address(2))
        directory.handle_update(stale, Address(2))
        assert directory.lookup(ApplicationName("v5")) == Address(2)
        assert directory.lookup(ApplicationName("v3")) is None

    def test_own_echo_ignored(self):
        directory = make_directory(Address(1))
        echo = RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (1,), "seq": 99, "names": ["me"]})
        directory.handle_update(echo, Address(2))
        assert directory.lookup(ApplicationName("me")) is None

    def test_snapshot_roundtrip(self):
        source = make_directory(Address(1))
        source.register(ApplicationName("a"))
        source.handle_update(RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (2,), "seq": 1, "names": ["b"]}), Address(2))
        target = make_directory(Address(3))
        target.load_snapshot(source.sync_snapshot())
        assert target.lookup(ApplicationName("a")) == Address(1)
        assert target.lookup(ApplicationName("b")) == Address(2)

    def test_known_names_union(self):
        directory = make_directory(Address(1))
        directory.register(ApplicationName("mine"))
        directory.handle_update(RiepMessage(M_WRITE, obj=DIRECTORY_OBJ, value={
            "origin": (2,), "seq": 1, "names": ["theirs"]}), Address(2))
        assert directory.known_names() == {ApplicationName("mine"),
                                           ApplicationName("theirs")}

    def test_unenrolled_member_defers_advertisement(self):
        floods = []
        directory = DifDirectory(lambda: None,
                                 lambda m, e: floods.append(m) or 1)
        directory.register(ApplicationName("early"))
        assert floods == []


class TestInterDifDirectory:
    def test_register_and_candidates(self):
        idd = InterDifDirectory()
        app = ApplicationName("svc")
        idd.register(app, DifName("blue"))
        idd.register(app, DifName("red"))
        assert [str(d) for d in idd.candidates(app)] == ["blue", "red"]

    def test_unregister_clears_empty_entries(self):
        idd = InterDifDirectory()
        app = ApplicationName("svc")
        idd.register(app, DifName("blue"))
        idd.unregister(app, DifName("blue"))
        assert idd.candidates(app) == []
        assert idd.size() == 0

    def test_unknown_app_has_no_candidates(self):
        assert InterDifDirectory().candidates(ApplicationName("x")) == []


class TestFlow:
    def _flow(self):
        return Flow(PortId(1), ApplicationName("me"), ApplicationName("you"),
                    BEST_EFFORT, DifName("d"))

    def test_lifecycle_pending_to_allocated(self):
        flow = self._flow()
        assert flow.state == PENDING
        events = []
        flow.when(ALLOCATED, lambda f: events.append(f.state))
        flow.when(FAILED, lambda f: events.append("failed"))
        flow.provider_bind(lambda p, s: True)
        flow.provider_allocated()
        assert flow.state == ALLOCATED and events == [ALLOCATED]

    def test_allocated_requires_bind(self):
        flow = self._flow()
        with pytest.raises(FlowError):
            flow.provider_allocated()

    def test_send_before_allocation_raises(self):
        with pytest.raises(FlowError):
            self._flow().send("x", 1)

    def test_send_counts_traffic(self):
        flow = self._flow()
        flow.provider_bind(lambda p, s: True)
        flow.provider_allocated()
        flow.send("x", 10)
        assert flow.sdus_sent == 1 and flow.bytes_sent == 10

    def test_send_backpressure_not_counted(self):
        flow = self._flow()
        flow.provider_bind(lambda p, s: False)
        flow.provider_allocated()
        assert not flow.send("x", 10)
        assert flow.sdus_sent == 0

    def test_failure_path(self):
        flow = self._flow()
        events = []
        flow.when(FAILED, lambda f: events.append(f.failure_reason))
        flow.when(ALLOCATED, lambda f: events.append("allocated"))
        flow.provider_failed("nope")
        assert flow.state == FAILED
        assert flow.failure_reason == "nope"
        assert events == ["nope"]

    def test_deliver_counts_and_calls_receiver(self):
        flow = self._flow()
        received = []
        flow.set_receiver(lambda p, s: received.append((p, s)))
        flow.provider_deliver("data", 4)
        assert received == [("data", 4)]
        assert flow.sdus_received == 1

    def test_deallocate_invokes_provider_and_callback(self):
        flow = self._flow()
        released = []
        flow.provider_bind(lambda p, s: True, dealloc_fn=lambda: released.append(1))
        flow.provider_allocated()
        events = []
        flow.when(DEALLOCATED, lambda f: events.append(f.state))
        flow.deallocate()
        assert flow.state == DEALLOCATED and released
        assert events == [DEALLOCATED]

    def test_deallocate_idempotent(self):
        flow = self._flow()
        calls = []
        flow.provider_bind(lambda p, s: True, dealloc_fn=lambda: calls.append(1))
        flow.provider_allocated()
        flow.deallocate()
        flow.deallocate()
        assert len(calls) == 1

    def test_provider_released_notifies_user(self):
        flow = self._flow()
        flow.provider_bind(lambda p, s: True)
        flow.provider_allocated()
        events = []
        flow.when(DEALLOCATED, lambda f: events.append(f.state))
        flow.provider_released()
        assert flow.state == DEALLOCATED and events == [DEALLOCATED]

    def test_failed_flow_ignores_later_transitions(self):
        flow = self._flow()
        flow.provider_failed("x")
        flow.provider_released()
        assert flow.state == FAILED

    def test_withdrawing_a_pending_flow_fails_it(self):
        """No flow ever existed, so its FAILED watchers run, with the
        reason ``"deallocated"``, and no DEALLOCATED watcher does."""
        flow = self._flow()
        withdrawn, events = [], []
        flow.provider_bind(lambda p, s: True,
                           dealloc_fn=lambda: withdrawn.append(flow.state))
        flow.when(FAILED, lambda f: events.append(f.failure_reason))
        flow.when(DEALLOCATED, lambda f: events.append("deallocated-state"))
        flow.deallocate()
        assert flow.state == FAILED and flow.failure_reason == "deallocated"
        assert withdrawn == [FAILED] and events == ["deallocated"]
        flow.provider_allocated()   # a late grant changes nothing
        flow.deallocate()
        assert flow.state == FAILED and withdrawn == [FAILED]

    def test_granted_once_allocated_also_after_release(self):
        flow = self._flow()
        flow.provider_bind(lambda p, s: True)
        assert not flow.granted
        flow.provider_allocated()
        assert flow.granted
        flow.deallocate()
        assert flow.granted and not flow.allocated
        refused = self._flow()
        refused.provider_failed("nope")
        assert not refused.granted

    def test_allocated_flow_fails_no_more(self):
        flow = self._flow()
        events = []
        flow.when(FAILED, lambda f: events.append("failed"))
        flow.provider_bind(lambda p, s: True)
        flow.provider_allocated()
        flow.provider_failed("late")
        assert flow.state == ALLOCATED and flow.failure_reason is None
        assert events == []

    def test_watchers_of_a_state_run_in_subscription_order(self):
        """Determinism contract 5 (docs/ARCHITECTURE.md): the watchers of
        one state run in the order they subscribed, interleaved with the
        other states' watchers however they were; one subscribed while
        its state's watchers run waits for the next transition."""
        flow = self._flow()
        order = []
        for name in ("a", "b"):
            flow.when(ALLOCATED, lambda f, name=name: order.append(name))
            flow.when(DEALLOCATED,
                      lambda f, name=name: order.append(name.upper()))

        def late(f):
            order.append("c")
            f.when(ALLOCATED, lambda f: order.append("never"))
            f.when(DEALLOCATED, lambda f: order.append("C"))
        flow.when(ALLOCATED, late)
        flow.provider_bind(lambda p, s: True)
        flow.provider_allocated()
        assert order == ["a", "b", "c"]
        flow.provider_released()
        assert order == ["a", "b", "c", "A", "B", "C"]


class TestWritable:
    """A provider that refused a send says when it takes sends again."""

    def _allocated(self):
        flow = TestFlow()._flow()
        flow.provider_bind(lambda p, s: False)
        flow.provider_allocated()
        return flow

    def test_a_watcher_runs_once(self):
        flow = self._allocated()
        heard = []
        flow.when(WRITABLE, heard.append)
        flow.provider_writable()
        flow.provider_writable()
        assert heard == [flow]

    def test_watchers_run_in_subscription_order(self):
        flow = self._allocated()
        order = []
        flow.when(WRITABLE, lambda f: order.append("a"))
        flow.when(DEALLOCATED, lambda f: order.append("released"))
        flow.when(WRITABLE, lambda f: order.append("b"))
        flow.provider_writable()
        assert order == ["a", "b"]
        assert flow.state == ALLOCATED

    def test_a_watcher_subscribed_while_they_run_waits_for_the_next(self):
        flow = self._allocated()
        order = []

        def again(f):
            order.append("first")
            f.when(WRITABLE, lambda f: order.append("second"))
        flow.when(WRITABLE, again)
        flow.provider_writable()
        assert order == ["first"]
        flow.provider_writable()
        assert order == ["first", "second"]

    @pytest.mark.parametrize("release", ["deallocate", "provider_released"])
    def test_leaving_allocated_runs_them(self, release):
        """Whichever end releases the flow, a backlog waiting on WRITABLE
        hears of it at the release, in subscription order with the
        DEALLOCATED watchers, and no WRITABLE runs it again."""
        flow = self._allocated()
        order = []
        flow.when(WRITABLE, lambda f: order.append(("writable", f.state)))
        flow.when(DEALLOCATED, lambda f: order.append(("released", f.state)))
        getattr(flow, release)()
        assert order == [("writable", DEALLOCATED),
                         ("released", DEALLOCATED)]
        flow.provider_writable()
        assert len(order) == 2
