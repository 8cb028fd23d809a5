"""Call budget: Python calls into ``src/repro`` on the small builders
behind the ``control_flat``, ``data_clean``, ``flood`` and serial
stateful workloads.

A ``sys.setprofile`` hook counts every ``call`` event whose code lives
under ``src/repro``, generator resumptions included.  List, dict and
set comprehensions are left out: CPython 3.12 inlines them (PEP 709)
where 3.10 and 3.11 call them, so without them the count is the same
on all three.  Calls into the standard library and builtins are not
counted, so only this repository's code moves the numbers.  Each
builder runs once before it is counted, so the count is the steady
state whatever ran earlier in the process.

The expectations are exact, like the event census: an indirection put
back on the per-PDU path shows here as a number, not as a wall time
inside the noise.  The per-PDU path is bound when a stack is wired
(docs/ARCHITECTURE.md, "One call per layer crossing"): the clock is an
attribute, the RMT holds its IPCP's address, forwarding and receivers
are bound methods and partials, a neighbour's port list is read as it
is, an unreliable EFCP send skips the window pump, ``next_hop`` tests
for a pending SPF inline, and PDU constructors and the link's delivery
make one call less each.  The same runs, before → after:

* ``data_clean`` rina 216,202 → 151,551 (−30 %);
* ``data_clean`` ip 64,294 → 58,140 (−10 %);
* ``flood`` 1,334 → 1,001 (−25 %).

``Address`` is a ``tuple`` subclass, so the hash and equality of every
address-keyed dict probe run in C, and a stateful plant's RIB
fingerprints render each shared LSA once for all members
(docs/ARCHITECTURE.md, "Pay once per process for what members share"):

* ``data_clean`` rina 151,551 → 134,292 (−11 %);
* ``control_flat`` (flat E6 build at 3×4) 48,891 → 41,597 (−15 %);
* ``stateful_serial`` (the unsharded stateful run at 3×4, node stat
  rows included) 44,668 → 29,463 (−34 %).

A member acks the flooded copies a port brought in once, after a delay,
and times a neighbour's copies with one deadline queue instead of a
closure and an ``InvokeTable`` entry each (docs/ARCHITECTURE.md, "Flood
acknowledgement: one ack and one timer per neighbour"):

* ``control_flat`` 41,597 → 36,124 (−13 %);
* ``data_clean`` rina 134,292 → 132,034 (−1.7 %);
* ``stateful_serial`` 29,463 → 24,703 (−16 %).

A link decides every frame's fate when the frame is sent, so a failure
no longer hands frames back to a second path first, and a link's
``capacity_bps``, ``delay`` and ``loss`` are plain attributes, no longer
properties that recalled frames when set (a read was a call):

* ``control_flat`` 36,124 → 36,093 (its flap's ``fail()`` made one
  call, reads of the three made 30);
* ``data_clean`` rina 132,034 → 132,024;
* ``stateful_serial`` 24,703 → 24,673.

A message that fits one SDU crosses delimiting as itself: the
``Delimiter`` makes its one fragment without slicing, the
``Reassembler`` returns a lone fragment's data without a reset, and
``MessageFlow`` hands the fragment to an allocated flow without a
backlog round trip (docs/ARCHITECTURE.md, "One engine event per
read"):

* ``data_clean`` rina 132,024 → 130,969 (−0.8 %: ``MessageFlow._drain``
  and ``Flow.allocated`` −352 each, one per one-SDU message sent, and
  ``Reassembler._reset`` −351, one per one-SDU message received).

SPF reads each origin's row from the LSDB and its own from the live
adjacencies, so ``_set_claim``, ``_sync_local_claim`` and the local
address lookups they made are gone (docs/ARCHITECTURE.md, "Pay once per
process for what members share"):

* ``control_flat`` 36,093 → 35,471 (``_set_claim`` −438,
  ``_sync_local_claim`` −84, the IPCP's address lambda −100);
* ``data_clean`` rina 130,969 → 130,757 (−108, −52, −52);
* ``stateful_serial`` 24,673 → 24,132 (−389, −76, −76).

A flow owns its lifecycle, and whoever needs a transition subscribes
with ``Flow.when`` instead of overwriting a callback slot
(docs/ARCHITECTURE.md, determinism contract 5).  Each subscription is
one call, and a transition with watchers is one ``Flow._notify``; an
inbound lower flow goes to ``Ipcp.add_lower_flow`` itself.  The per-SDU
functions do not move:

* ``control_flat`` 35,471 → 35,531 (+0.17 %): ``Flow.when`` 0 → 60
  (ALLOCATED and FAILED on each of 15 enrolling lower flows, DEALLOCATED
  on the 30 lower flows the IPCPs adopt), ``Flow._notify`` 0 → 15 (the
  allocation of each enrolling lower flow), ``System._lower_flow``
  0 → 15 and its caller's lambda 0 → 15 (one per enrollment), in place
  of ``System.enroll``'s ``on_allocated`` 15 → 0; ``publish_ipcp``'s
  lambda and ``System._accept_lower_flow`` 15 → 0 each (one per inbound
  lower flow);
* ``data_clean`` rina 130,757 → 130,798 (+0.03 %): ``Flow.when`` 0 → 43,
  ``Flow._notify`` 0 → 13, ``System._lower_flow`` and its caller's
  lambda 0 → 10 each, ``System.enroll``'s ``on_allocated`` 10 → 0,
  ``publish_ipcp``'s lambda and ``System._accept_lower_flow`` 10 → 0
  each, the allocation waiter's ``_on_ok`` 4 → 0,
  ``EchoClient._on_allocated`` 1 → 0;
* ``stateful_serial`` 24,132 → 24,192 (+0.25 %): as ``control_flat``.

A FIFO RMT port hands every PDU straight to its (N-1) flow, and a
restarted ``Timer`` keeps its pending event when that is due first
(docs/ARCHITECTURE.md, "Waits that cost no event"):

* ``control_flat`` 35,531 → 34,450 (−3.0 %): ``Rmt._send`` −955 (a FIFO
  port sends from ``_enqueue``), ``Rmt._serve``, ``FifoScheduler.push``,
  ``pop`` and ``__len__``, ``Engine.call_at`` and ``Event.__init__`` −21
  each (one per ``rmt.serve``);
* ``data_clean`` rina 130,798 → 123,316 (−5.7 %): ``Rmt._send`` −2,918;
  ``_serve``, ``push``, ``pop``, ``__len__`` and ``call_at`` −641 each;
  ``Timer.cancel`` −284, ``Engine.call_later`` and ``Event.cancel`` −136
  each (``efcp.retx`` restarts that keep their event), ``Event.__init__``
  −777 (both); ``Flow.allocated`` −26 (``MessageFlow._drain`` reads
  ``flow.state``, which tells a pending flow from a failed or released
  one, whose backlog it drops);
* ``data_clean`` ip 58,140 → 57,478 (−1.1 %): ``Timer.cancel`` −266,
  ``Engine.call_later``, ``Event.__init__`` and ``Event.cancel`` −132
  each (``tcp.rto`` restarts);
* ``stateful_serial`` 24,192 → 23,682 (−2.1 %): ``Rmt._send`` −420, and
  −15 each as ``control_flat``.

A refused send waits on its flow's WRITABLE notification instead of a
retry timer, and the apps read their flow instead of an allocation
waiter (docs/ARCHITECTURE.md, "Backpressure is a notification"):

* ``data_clean`` rina 123,316 → 123,302: ``Timer.__init__`` −8 (one
  per ``MessageFlow``), the allocation waiter's ``__init__`` −4 (one per
  client app) and ``FileSender._begin`` −2 (``_push`` is subscribed to
  the allocation itself).
  The small plant never fills a send buffer, so nothing is refused and
  no WRITABLE is raised.
* ``control_flat`` 34,450 → 34,462: a shim raises WRITABLE on the flows
  its link refused once the link takes frames again.  Both ends of the
  flapped link are refused while it is down, so each waits for the
  repair once: ``Link.frees_at``, ``Link.observe``, ``LinkEnd.link``,
  ``ShimIpcp._writable``, ``Flow.provider_writable`` and
  ``Flow._notify`` +2 each.  No event is added.

A reliable EFCP receiver acks every second in-order PDU while the sender
has more queued, and holds a lone one's ACK on its ``efcp.ack`` timer
(docs/ARCHITECTURE.md, "Acks: one per two PDUs while more is queued"):

* ``data_clean`` rina 123,302 → 121,178 (−1.7 %): ``_schedule_ack``
  −250 (gone: a PDU is acked or held in ``handle_data``); 10 of the run's
  250 ACKs coalesce (rank-2 ones), each −1 in ``_send_ack_now``,
  ``ControlPdu.__init__``, ``handle_control`` (both the connection's and
  the flow allocator's), ``_fast_retransmit``, ``_pump`` and
  ``_effective_window_edge``, and the 50 rank-1 PDUs, frames and hops
  that carried them −50 or −100 per function on the relay path
  (``Rmt.receive``, ``_relay``, ``_enqueue``, ``next_hop``,
  ``Link.transmit`` ...); ``Timer._fire`` +4 (the four ``efcp.ack``
  events) and ``_send_held_ack`` +2 (two of them at a hold's deadline).

A flooded copy pays only for itself: the RMT sorts its neighbours once
per change of the set, a copy's first live port is read from the RMT's
own list, an ack owed on a port is appended in place, a flood ack's
size is counted from its ids, ``Timer.running`` reads the event's flag,
and a shim's data frame goes straight to its link end
(docs/ARCHITECTURE.md, "A flooded copy pays only for itself"):

* ``control_flat`` 34,462 → 31,927 (−7.4 %): ``ShimIpcp._send_frame``
  −955, ``estimate_value_size`` and its generator −355 each,
  ``Rmt.ports_to`` −288, ``Event.active`` −254,
  ``DeadlineFifo.setdefault`` −217, ``RiepMessage.estimate_size`` −180,
  ``flood_ack`` +69 (one per ack);
* ``data_clean`` rina 121,178 → 117,638 (−2.9 %): ``_send_frame``
  −2,868, ``Event.active`` −218, ``estimate_value_size`` and its
  generator −150 each, ``ports_to`` −110, ``setdefault`` −70,
  ``estimate_size`` −14, ``flood_ack`` +40;
* ``data_clean`` ip 57,478 → 57,344: ``Event.active`` −134 (its
  ``tcp.rto`` timers);
* ``stateful_serial`` 23,682 → 21,945 (−7.3 %): ``_send_frame`` −420,
  ``estimate_value_size`` and its generator −294 each, ``ports_to``
  −240, ``Event.active`` −209, ``setdefault`` −186, ``estimate_size``
  −148, ``flood_ack`` +54.
"""

import os
import sys

import pytest

import repro
from test_event_census import _control_flat, _data_clean, _flood

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def count_calls(run):
    """``(run(), calls into src/repro while it ran)``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(SRC)
                    and code.co_name not in _COMPREHENSIONS):
                count += 1
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, count


def _stateful_serial():
    from repro.experiments.e6_scalability import (build_flood_spec,
                                                  build_stateful_workload)
    from repro.shard import run_unsharded_stateful
    return run_unsharded_stateful(build_flood_spec(3, 4),
                                  build_stateful_workload(3, 4), seed=0)


EXPECTED = {
    "control_flat": 31927,
    "data_clean_rina": 117638,
    "data_clean_ip": 57344,
    "flood": 1001,
    "stateful_serial": 21945,
}

RUNS = {
    "control_flat": _control_flat,
    "data_clean_rina": lambda: _data_clean("rina"),
    "data_clean_ip": lambda: _data_clean("ip"),
    "flood": _flood,
    "stateful_serial": _stateful_serial,
}


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_calls_into_repro(workload):
    # a first run imports what the builder imports lazily: executing a
    # module body is a call too, and whether an earlier test already
    # imported it must not move the count
    RUNS[workload]()
    _events, calls = count_calls(RUNS[workload])
    assert calls == EXPECTED[workload]


def test_counter_counts_only_repro_code():
    from repro.sim.engine import Engine

    def run():
        engine = Engine()
        engine.call_later(1.0, sorted, [3, 1, 2])   # a builtin: not counted
        return engine.run()
    # Engine.__init__, call_later, Event.__init__, run
    assert count_calls(run) == (1.0, 4)
