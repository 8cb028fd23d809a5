"""Event census: dispatched events per label on the small builders
behind the ``control_flat``, ``data_clean``, ``data_lossy`` and
``flood`` workloads, on the scale tier's flat 5x10 row, and on the
full-size ``data_clean`` run at seed 0, the one whose transfers fill a
send buffer.  That run's delivered link frames are also counted by the
kind of PDU they carry.

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
def schedule_census(monkeypatch):
    """``(scheduled, dispatched)``: two ``Counter`` s of events per
    :func:`kind`, one counted when an event is scheduled and one when it
    is dispatched.  Their difference is what was cancelled or still
    pending when the run ended."""
    scheduled, counts = Counter(), Counter()
    call_at, call_later = Engine.call_at, Engine.call_later

    def counted(callback, label):
        row = kind(label)
        scheduled[row] += 1

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
    return scheduled, counts


@pytest.fixture
def census(schedule_census):
    """A ``Counter`` of dispatched events per :func:`kind`."""
    return schedule_census[1]


#: ``data_lossy``'s link conditions, on every link of the chain.
LOSSY_LINK = {
    "loss": 0.01,
    "jitter": {"model": "uniform", "amplitude": 0.0005},
    "corruption": {"probability": 0.005, "max_flips": 3},
    "reorder": {"probability": 0.02, "depth": 3, "max_hold": 0.01},
}


def _data_scenario(**conditions):
    """``data_clean``'s spec, shortened: the same 6-node chain, two DIF
    ranks and workload mix, 3 simulated seconds and 100 kB transfers.
    ``conditions`` are added to every link (``LOSSY_LINK`` makes it
    ``data_lossy``'s plant)."""
    from repro.scenarios import Scenario
    return Scenario.from_dict({
        "name": "census-data-lossy" if conditions else "census-data-clean",
        "topology": {"family": "chain", "params": {"count": 6},
                     "link": {"capacity_bps": 1e8, "delay": 0.001,
                              **conditions}},
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


def _scale_flat():
    from repro.experiments.e6_scalability import run_scale
    return run_scale("flat", 5, 10)["events"]


def _data_clean(stack):
    from repro.scenarios import ScenarioRunner
    return ScenarioRunner(_data_scenario(), 0).run(stack)["events"]


def _data_lossy():
    from repro.scenarios import ScenarioRunner
    return ScenarioRunner(_data_scenario(**LOSSY_LINK), 0).run(
        "rina")["events"]


def _flood():
    from repro.experiments.e6_scalability import run_flood_scale
    return run_flood_scale(3, 2, seed=0)["events"]


def _data_clean_full():
    """The benchmark's ``data_clean`` job at seed 0, through the same
    perf/child.py wrapper: its 4 MB transfers are the only runs here
    that fill an EFCP send buffer, so what backpressure costs in events
    shows in this row."""
    from test_trace_golden import _perf_child
    call, _check = _perf_child().prepare("data_clean", 0)
    (row,) = call()
    return row["events"]


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
#:
#: Flooded copies are then acked once per port after a delay, and timed
#: by one deadline queue per neighbour (``riep.flood-ack`` flushes and
#: ``riep.flood-retx`` head fires are new rows).  Every RINA row's
#: ``<link>.rx`` fell by the acks that coalesced (control_flat 1,186 ->
#: 969, scale_flat_5x10 8,860 -> 6,001, data_clean_rina 2,997 -> 2,927);
#: data_lossy_rina's rose 3,241 -> 3,306, because with fewer frames its
#: loss draws fall on other frames (see ``LOSSY_RECOVERY``).
#:
#: Each direction of a lossy or conditioned link then drew from its own
#: streams, so data_lossy_rina's draws fell on other frames again: 8,430
#: -> 9,658 events.  Its outcome hardly moved (both transfers and all 50
#: echoes complete, the stream received 245 messages, 241 before), but an
#: early adjacency came up sooner and more keepalives ran: ``<ipcp>.
#: keepalive`` 360 -> 600, ``<link>.rx`` 3,306 -> 3,762, ``<link>.tx``
#: 3,267 -> 3,727, ``rmt.serve`` 1,047 -> 1,090, ``routing.spf`` 28 -> 37,
#: ``efcp.retx`` 4 -> 8, ``fa.retry`` 1 -> 2, ``riep.invoke`` 1 -> 2,
#: ``riep.flood-ack`` 47 -> 53, ``riep.flood-retx`` 48 -> 56.
#:
#: Then every link came to decide a frame's fate when it is sent, lossy
#: and conditioned ones included: data_lossy_rina's ``<link>.tx`` row
#: (3,727) is gone, and so is the ``max_hold`` release a parked frame
#: used to schedule, which was labelled ``.rx`` and always fired:
#: ``<link>.rx`` 3,762 -> 3,680, the arrivals alone.  Every other row
#: held, and so did ``LOSSY_RECOVERY``.
#:
#: Then a FIFO RMT port came to hand every PDU straight to its shim, whose
#: link queue already started each frame when the link was free: the
#: ``rmt.serve`` row is gone (control_flat 21, data_clean_rina 641,
#: data_lossy_rina 1,090, scale_flat_5x10 69).  And a restarted ``Timer``
#: came to keep its pending event: an ``efcp.retx`` restarted by ACKs
#: fires early once and re-arms at its deadline, so data_lossy_rina's
#: dispatched ``efcp.retx`` rose 8 -> 23 while 237 -> 109 were scheduled
#: (``LOSSY_RECOVERY`` held: 8 timeouts).  Every other row held.
#:
#: Then the SPF hold-down became a deadline read at the next table query,
#: and the ``routing.spf`` row went: its fires only marked the table for
#: that query (control_flat 80, data_clean_rina and data_clean_full 18,
#: data_lossy_rina 37, scale_flat_5x10 604).  Every other row held.
EXPECTED = {
    "control_flat": {
        "(unlabelled)": 1, "<ipcp>.keepalive": 288, "<link>.rx": 969,
        "fabric.start": 1, "riep.flood-ack": 69, "riep.flood-retx": 60,
        "shim.alloc-retry": 15},
    "data_clean_ip": {
        "<link>.rx": 2060, "wl.cbr.pump": 250, "wl.cbr.start": 1,
        "wl.echo.pump": 50, "wl.echo.start": 1, "wl.xfer.push": 14,
        "wl.xfer.start": 2},
    "data_clean_rina": {
        "(unlabelled)": 2, "<ipcp>.keepalive": 210, "<link>.rx": 2877,
        "cbr.tick": 250, "efcp.ack": 4, "fa.allocate": 9, "fa.retry": 1,
        "fabric.start": 1, "riep.flood-ack": 36, "riep.flood-retx": 40,
        "shim.alloc-retry": 5,
        "wl.cbr.start": 1, "wl.echo.pump": 50, "wl.echo.start": 1,
        "wl.xfer.start": 2},
    # the benchmark's full-size run: the transfers outrun the links and
    # wait on a full send buffer.  They polled it, with the message
    # flow's 78 retry and the file sender's 76 poll events, until the
    # buffer came to say when it drains (the flow's WRITABLE); every
    # other row held
    "data_clean_full": {
        "(unlabelled)": 2, "<ipcp>.keepalive": 1422, "<link>.rx": 55837,
        "cbr.tick": 2949, "efcp.ack": 372, "efcp.retx": 88, "fa.allocate": 9,
        "fa.retry": 1,
        "fabric.start": 1, "riep.flood-ack": 36, "riep.flood-retx": 40,
        "shim.alloc-retry": 5, "wl.cbr.start": 1,
        "wl.echo.pump": 500, "wl.echo.start": 1, "wl.xfer.start": 2},
    # data_clean_rina's run on the lossy plant: EFCP recovery shows in
    # ``efcp.retx``
    "data_lossy_rina": {
        "(unlabelled)": 2, "<ipcp>.keepalive": 600, "<link>.rx": 3680,
        "cbr.tick": 250, "efcp.retx": 23,
        "fa.allocate": 9, "fa.retry": 2, "fabric.start": 1,
        "riep.flood-ack": 53, "riep.flood-retx": 56, "riep.invoke": 2,
        "shim.alloc-retry": 5,
        "wl.cbr.start": 1, "wl.echo.pump": 50, "wl.echo.start": 1,
        "wl.xfer.start": 2},
    "flood": {"<link>.rx": 90, "flood.announce": 10},
    # the scale tier's flat row, whose cost was once held to a wall-clock
    # floor: build plus flap scope at seed 1, 8,335 events
    "scale_flat_5x10": {
        "(unlabelled)": 1, "<ipcp>.keepalive": 1064, "<link>.rx": 6001,
        "fabric.start": 1, "riep.flood-ack": 389, "riep.flood-retx": 220,
        "shim.alloc-retry": 55},
}

RUNS = {
    "control_flat": _control_flat,
    "data_clean_rina": lambda: _data_clean("rina"),
    "data_clean_full": _data_clean_full,
    "data_lossy_rina": _data_lossy,
    "data_clean_ip": lambda: _data_clean("ip"),
    "flood": _flood,
    "scale_flat_5x10": _scale_flat,
}


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_events_per_label(census, workload):
    events = RUNS[workload]()
    assert sum(census.values()) == events
    assert dict(census) == EXPECTED[workload]


#: Events *scheduled* per label on the scale tier's flat 5x10 row, beside
#: its dispatched row in ``EXPECTED``.  Each flooded copy once armed a
#: ``riep.invoke`` timeout that its acknowledgement cancelled (3,358, none
#: fired); a neighbour's copies now share one deadline queue, whose head
#: is armed 220 times and always fires.  The 110 ``riep.invoke`` left are
#: enrollment requests; none fires.  The 69 ``rmt.serve`` went when FIFO
#: ports stopped pacing.  The full-size ``data_clean`` run schedules an
#: ``efcp.retx`` per restart that could not keep its pending event
#: (1,102, of which 88 fire), and no backpressure poll.  Neither schedules
#: a ``routing.spf`` event since the hold-down became a deadline (18 and
#: 604 before, all dispatched).
SCHEDULED = {
    "data_clean_full": {
        "(unlabelled)": 2, "<ipcp>.keepalive": 1434, "<link>.rx": 55837,
        "cbr.tick": 2950, "efcp.ack": 372, "efcp.retx": 1102, "fa.allocate": 9,
        "fa.retry": 1, "fabric.start": 1, "riep.flood-ack": 36,
        "riep.flood-retx": 40, "riep.invoke": 29, "shim.alloc-retry": 5,
        "wl.cbr.start": 1, "wl.echo.pump": 500, "wl.echo.start": 1,
        "wl.xfer.start": 2},
    "scale_flat_5x10": {
        "(unlabelled)": 1, "<ipcp>.keepalive": 1120, "<link>.rx": 6001,
        "fabric.start": 1, "riep.flood-ack": 389, "riep.flood-retx": 220,
        "riep.invoke": 110, "shim.alloc-retry": 55},
}


@pytest.mark.parametrize("workload", sorted(SCHEDULED))
def test_scheduled_against_dispatched(schedule_census, workload):
    scheduled, dispatched = schedule_census
    events = RUNS[workload]()
    assert sum(dispatched.values()) == events
    assert dict(dispatched) == EXPECTED[workload]
    assert dict(scheduled) == SCHEDULED[workload]


#: What a dispatch of each timer label is for.  A dispatch of one of
#: these that does not bring its effect about did nothing; an event of
#: any other label acts whenever it is dispatched.  (``routing.spf``,
#: whose effect was to be an SPF run, is gone: the hold-down is a
#: deadline the next table query reads.)
EFFECTS = {"riep.flood-retx": "a copy resent", "efcp.ack": "an ACK sent",
           "efcp.retx": "a PDU resent"}


@pytest.fixture
def waste_census(schedule_census, monkeypatch):
    """``waste()``: events per :func:`kind` that were scheduled and never
    dispatched, plus those of an :data:`EFFECTS` label dispatched without
    their effect."""
    from repro.core.efcp import EfcpConnection
    from repro.core.ipcp import Ipcp
    scheduled, dispatched = schedule_census
    effects, acted = Counter(), Counter()
    call_at, call_later = Engine.call_at, Engine.call_later

    def watched(callback, label):
        row = kind(label)
        effect = EFFECTS.get(row)
        if effect is None:
            return callback

        def dispatch(*args):
            before = effects[effect]
            callback(*args)
            acted[row] += effects[effect] != before
        return dispatch

    def watched_at(self, when, callback, *args, label=""):
        return call_at(self, when, watched(callback, label), *args,
                       label=label)

    def watched_later(self, delay, callback, *args, label=""):
        return call_later(self, delay, watched(callback, label), *args,
                          label=label)

    def counting(effect, method, acts):
        def wrapped(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            effects[effect] += acts(self, result, *args, **kwargs)
            return result
        return wrapped
    monkeypatch.setattr(Engine, "call_at", watched_at)
    monkeypatch.setattr(Engine, "call_later", watched_later)
    monkeypatch.setattr(Ipcp, "_send_copy", counting(
        "a copy resent", Ipcp._send_copy,
        lambda self, sent, *args: bool(sent)))
    monkeypatch.setattr(EfcpConnection, "_send_ack_now", counting(
        "an ACK sent", EfcpConnection._send_ack_now,
        lambda self, _none: not self.closed))
    monkeypatch.setattr(EfcpConnection, "_transmit", counting(
        "a PDU resent", EfcpConnection._transmit,
        lambda self, _none, *args, retransmit: retransmit))

    def waste():
        rows = Counter(scheduled)
        rows.subtract(acted)
        rows.subtract({row: count for row, count in dispatched.items()
                       if row not in EFFECTS})
        return {row: count for row, count in sorted(rows.items()) if count}
    return waste


def _benchmark(workload):
    """The benchmark's ``workload`` job at seed 0, through perf/child.py."""
    from test_trace_golden import _perf_child
    call, check = _perf_child().prepare(workload, 0)
    assert check(call())["failed"] == 0


#: Waste per label on the benchmark's own jobs at seed 0: events
#: scheduled and never dispatched, plus events dispatched without the
#: effect :data:`EFFECTS` names.  ``data_lossy`` is its panel of three
#: program seeds.  On ``control_flat`` no ``riep.flood-retx`` fire found
#: a copy to resend; the ``riep.invoke`` and keepalive rows are timeouts
#: an answer cancelled and ticks a crash or the run's end left pending.
#: Each ``routing.spf`` fire only marked the table for the next query
#: (control_flat 7,757, data_clean 18, data_lossy 80, none of them an SPF
#: run) until the hold-down became a deadline that query reads: the row
#: went, and control_flat's waste fell 9,558 -> 1,801.
WASTE = {
    "control_flat": {
        "<ipcp>.keepalive": 211, "riep.flood-retx": 1170,
        "riep.invoke": 420},
    "data_clean": {
        "<ipcp>.keepalive": 12, "cbr.tick": 1, "efcp.ack": 372,
        "efcp.retx": 1102, "riep.flood-retx": 40, "riep.invoke": 29},
    "data_lossy": {
        "<ipcp>.keepalive": 36, "<link>.rx": 957, "cbr.tick": 3,
        "efcp.ack": 71, "efcp.retx": 2438, "riep.flood-retx": 132,
        "riep.invoke": 87},
}


@pytest.mark.parametrize("workload", sorted(WASTE))
def test_waste_per_label(waste_census, workload):
    _benchmark(workload)
    assert waste_census() == WASTE[workload]


#: The same lossy run's reliable EFCP connections, summed: what loss
#: recovery cost (every resend, every copy the receiver already held,
#: every expired retransmission timer).  12 / 2 / 4 until flooded copies
#: were acked once per port: with fewer management frames on the links,
#: the loss draws fall on other frames.  28 / 9 / 4 until each direction
#: drew from its own streams, which moved the draws again.
LOSSY_RECOVERY = {"retransmissions": 38, "duplicates": 14, "timeouts": 8}


def test_data_lossy_recovery_counters(monkeypatch):
    from repro.core.efcp import EfcpConnection
    connections = []
    init = EfcpConnection.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        connections.append(self)
    monkeypatch.setattr(EfcpConnection, "__init__", recorded)
    _data_lossy()
    reliable = [c for c in connections if c.policy.reliable]
    assert reliable
    assert {counter: sum(getattr(c.stats, counter) for c in reliable)
            for counter in LOSSY_RECOVERY} == LOSSY_RECOVERY


#: Frames delivered on the full-size ``data_clean`` run at seed 0, by
#: nested PDU shape (:func:`frame_shape`): every rank-2 PDU rides a
#: rank-1 data PDU on each hop, so a rank-2 ACK shows as
#: ``Data(Control)``; the shim's own allocation frames are ``other``.
#: The rows sum to the census row's ``<link>.rx``.
FRAMES_DATA_CLEAN_FULL = {
    "Data(Data)": 35_259, "Data(Control)": 18_750, "Control": 1_590,
    "Data(Management)": 118, "Management": 110, "other": 10}

_PDU_KINDS = {"DataPdu": "Data", "ControlPdu": "Control",
              "ManagementPdu": "Management"}


def frame_shape(frame):
    """The row a delivered link frame counts in: the kind of the PDU a
    shim data frame carries and, for a data PDU that carries a PDU of
    the rank above, that PDU's kind in brackets."""
    if not (isinstance(frame, tuple) and frame[0] == "data"):
        return "other"
    pdu = frame[2]
    outer = _PDU_KINDS.get(type(pdu).__name__)
    if outer is None:
        return "other"
    inner = _PDU_KINDS.get(type(getattr(pdu, "payload", None)).__name__)
    return f"{outer}({inner})" if outer == "Data" and inner else outer


def test_data_clean_full_frames_by_kind(monkeypatch):
    from repro.sim.link import LinkEnd
    frames = Counter()
    attach = LinkEnd.attach

    def counting(self, receiver):
        def receive(frame, size):
            frames[frame_shape(frame)] += 1
            receiver(frame, size)
        attach(self, receive)
    monkeypatch.setattr(LinkEnd, "attach", counting)
    _data_clean_full()
    assert dict(frames) == FRAMES_DATA_CLEAN_FULL
    assert sum(frames.values()) == EXPECTED["data_clean_full"]["<link>.rx"]


def test_frame_shapes():
    from repro.core.names import Address
    from repro.core.pdu import ACK, ControlPdu, DataPdu, ManagementPdu
    a, b = Address(1), Address(2)
    ack = ControlPdu(a, b, ACK, 1, 2)
    data = DataPdu(a, b, 1, 2, 0, b"x", 1)
    assert frame_shape(("data", 0, DataPdu(a, b, 1, 2, 0, data, 21),
                        41)) == "Data(Data)"
    assert frame_shape(("data", 0, DataPdu(a, b, 1, 2, 0, ack, 20),
                        40)) == "Data(Control)"
    assert frame_shape(("data", 0, data, 21)) == "Data"
    assert frame_shape(("data", 0, ack, 20)) == "Control"
    assert frame_shape(("data", 0, ManagementPdu(a, None, "hello"),
                        88)) == "Management"
    assert frame_shape(("alloc", 0, ("a", "b"), 0)) == "other"


def test_instance_labels_group_by_kind():
    assert kind("h0_0--border0.tx") == "<link>.tx"
    assert kind("n0--n1#0.rx") == "<link>.rx"
    assert kind("L2.ipcp.n3.keepalive") == "<ipcp>.keepalive"
    assert kind("rmt.serve") == "rmt.serve"
    assert kind("") == "(unlabelled)"
