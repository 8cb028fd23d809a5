"""A FIFO RMT port and a paced one-class port deliver at the same instants.

Over a shim the link serializes each frame with the shim's 8 B header,
so it is slower than the RMT's pacing of the bare PDU, and the link's
own FIFO queue starts every frame when the link is free, whether or not
the RMT held it back first.  Holding a FIFO port's PDUs in the RMT is
then a wait the link already models.

The same shim-backed chain runs twice: with ``scheduler="fifo"`` and with
``"priority"``, which is paced.  A one-way transfer puts only data PDUs,
one priority class, on the ports where anything waits, so strict
priority serves them in FIFO order.  Every delivery time, counter and
trace line must be equal.  Only the paced run schedules ``rmt.serve``
events (the RMT's waits), so only the engine's event count differs.
"""

from collections import Counter

import pytest

from repro.scenarios import Scenario, ScenarioRunner
from repro.sim.engine import Engine

from test_trace_golden import mask_events


def chain_spec(scheduler):
    """A 4-node chain, one DIF over the shims, one 200 kB transfer from
    end to end; keepalives are rare, so no management PDU of another
    class lands on a port while data waits there."""
    links = [("n0", "n1", "link:n0--n1#0"), ("n1", "n2", "link:n1--n2#1"),
             ("n2", "n3", "link:n2--n3#2")]
    return Scenario.from_dict({
        "name": "rmt-fifo-equivalence",
        "topology": {"family": "chain", "params": {"count": 4},
                     "link": {"capacity_bps": 1e7, "delay": 0.001}},
        "layers": [{"name": "net", "adjacencies": links,
                    "policies": {"scheduler": scheduler,
                                 "keepalive_interval": 20.0,
                                 "refresh_interval": None}}],
        "duration": 2.0,
        "workloads": [{"kind": "transfer", "client": "n0", "server": "n3",
                       "start": 0.2, "bytes": 200_000}],
    })


@pytest.fixture
def serve_count(monkeypatch):
    """A ``Counter`` whose ``"serve"`` counts ``rmt.serve`` events scheduled."""
    counts = Counter()
    call_at = Engine.call_at

    def counted(self, when, callback, *args, label=""):
        if label == "rmt.serve":
            counts["serve"] += 1
        return call_at(self, when, callback, *args, label=label)
    monkeypatch.setattr(Engine, "call_at", counted)
    return counts


def run(scheduler, counts):
    counts.clear()
    runner = ScenarioRunner(chain_spec(scheduler), seed=0)
    metrics = runner.run("rina")
    return runner.trace, metrics, counts["serve"]


def test_fifo_port_delivers_as_a_paced_one_class_port(serve_count):
    fifo_trace, fifo_metrics, fifo_serves = run("fifo", serve_count)
    paced_trace, paced_metrics, paced_serves = run("priority", serve_count)
    # the transfer completed, and the paced run really waited in the RMT
    assert fifo_metrics["transfers_completed"] == 1
    assert paced_serves > 0
    assert fifo_serves == 0
    deliveries = [line for line in fifo_trace.splitlines()
                  if line.startswith("delivery ")]
    assert len(deliveries) >= 20
    assert mask_events(fifo_trace) == mask_events(paced_trace)
    assert {key: value for key, value in fifo_metrics.items()
            if key != "events"} == \
        {key: value for key, value in paced_metrics.items()
         if key != "events"}
