"""Event census: dispatched events per label on the small builders
behind the ``control_flat``, ``data_clean`` and ``flood`` workloads.

The census lives on the test side.  A fixture wraps ``Engine.call_at``
and ``Engine.call_later`` (``call_soon`` goes through ``call_at``) so
that every scheduled callback counts its label when it is dispatched;
cancelled events are never dispatched and so never counted.  Labels
that carry an instance name are grouped by kind: a link's
``<name>.tx`` / ``<name>.rx`` become ``<link>.tx`` / ``<link>.rx`` and
an IPCP's ``<dif>.ipcp.<node>.keepalive`` becomes ``<ipcp>.keepalive``.
Unlabelled events are their own row.

The expectations are exact: an engine or protocol change that adds or
loses an event shows here by label, not only as a different total.
"""

from collections import Counter

import pytest

from repro.sim.engine import Engine

_INSTANCE_KINDS = {"tx": "<link>", "rx": "<link>",
                   "keepalive": "<ipcp>", "refresh": "<ipcp>"}


def kind(label):
    """The census row an event label counts in."""
    if not label:
        return "(unlabelled)"
    tail = label.rpartition(".")[2]
    owner = _INSTANCE_KINDS.get(tail)
    return label if owner is None else f"{owner}.{tail}"


@pytest.fixture
def census(monkeypatch):
    """A ``Counter`` of dispatched events per :func:`kind`."""
    counts = Counter()
    call_at, call_later = Engine.call_at, Engine.call_later

    def counted(callback, label):
        row = kind(label)

        def dispatch(*args):
            counts[row] += 1
            callback(*args)
        return dispatch

    def wrapped_at(self, when, callback, *args, label=""):
        return call_at(self, when, counted(callback, label), *args,
                       label=label)

    def wrapped_later(self, delay, callback, *args, label=""):
        return call_later(self, delay, counted(callback, label), *args,
                          label=label)
    monkeypatch.setattr(Engine, "call_at", wrapped_at)
    monkeypatch.setattr(Engine, "call_later", wrapped_later)
    return counts


def _data_scenario():
    """``data_clean``'s spec, shortened: the same 6-node chain, two DIF
    ranks and workload mix, 3 simulated seconds and 100 kB transfers."""
    from repro.scenarios import Scenario
    return Scenario.from_dict({
        "name": "census-data-clean",
        "topology": {"family": "chain", "params": {"count": 6},
                     "link": {"capacity_bps": 1e8, "delay": 0.001}},
        "dif_depth": 2,
        "duration": 3.0,
        "workloads": [
            {"kind": "transfer", "client": "n0", "server": "n5",
             "start": 0.5, "bytes": 100_000},
            {"kind": "transfer", "client": "n5", "server": "n0",
             "start": 0.5, "bytes": 100_000},
            {"kind": "stream", "client": "n2", "server": "n3",
             "start": 0.5, "count": 50, "size": 400, "period": 0.01,
             "qos": "best-effort"},
            {"kind": "echo", "client": "n1", "server": "n4",
             "start": 0.5, "count": 50, "size": 200, "period": 0.01},
        ]})


def _control_flat():
    from repro.experiments.e6_scalability import run_scale
    return run_scale("flat", 3, 4, seed=0)["events"]


def _data_clean(stack):
    from repro.scenarios import ScenarioRunner
    return ScenarioRunner(_data_scenario(), 0).run(stack)["events"]


def _flood():
    from repro.experiments.e6_scalability import run_flood_scale
    return run_flood_scale(3, 2, seed=0)["events"]


#: Captured before the engine lost its test-only bookkeeping; they must
#: not move when the dispatch loop changes shape.  Since then two rows
#: moved, and only these:
#:
#: * ``<link>.tx`` is gone: a clean link direction computes each frame's
#:   serialization end when the frame is sent and schedules only its
#:   arrival (``<link>.rx``, unchanged).  Conditioned, lossy or re-rated
#:   directions still step through ``.tx`` events; none runs here.
#: * ``rmt.serve`` is left only where PDUs queue behind a busy port: an
#:   idle port sends at once.  control_flat 1,172 -> 23; data_clean's
#:   rina stack 2,987 -> 655, which are real waits behind EFCP bursts.
EXPECTED = {
    "control_flat": {
        "(unlabelled)": 1, "<ipcp>.keepalive": 288, "<link>.rx": 1186,
        "fabric.start": 1, "rmt.serve": 23, "routing.spf": 80,
        "shim.alloc-retry": 15},
    "data_clean_ip": {
        "<link>.rx": 2060, "wl.cbr.pump": 250, "wl.cbr.start": 1,
        "wl.echo.pump": 50, "wl.echo.start": 1, "wl.xfer.push": 14,
        "wl.xfer.start": 2},
    "data_clean_rina": {
        "(unlabelled)": 2, "<ipcp>.keepalive": 210, "<link>.rx": 2997,
        "cbr.tick": 250, "fa.allocate": 9, "fa.retry": 1,
        "fabric.start": 1, "rmt.serve": 655, "routing.spf": 18,
        "shim.alloc-retry": 5, "wl.cbr.start": 1, "wl.echo.pump": 50,
        "wl.echo.start": 1, "wl.xfer.start": 2},
    "flood": {"<link>.rx": 90, "flood.announce": 10},
}

RUNS = {
    "control_flat": _control_flat,
    "data_clean_rina": lambda: _data_clean("rina"),
    "data_clean_ip": lambda: _data_clean("ip"),
    "flood": _flood,
}


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_events_per_label(census, workload):
    events = RUNS[workload]()
    assert sum(census.values()) == events
    assert dict(census) == EXPECTED[workload]


def test_instance_labels_group_by_kind():
    assert kind("h0_0--border0.tx") == "<link>.tx"
    assert kind("n0--n1#0.rx") == "<link>.rx"
    assert kind("L2.ipcp.n3.keepalive") == "<ipcp>.keepalive"
    assert kind("rmt.serve") == "rmt.serve"
    assert kind("") == "(unlabelled)"
