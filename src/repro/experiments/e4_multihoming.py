"""E4 — Figure 4 / §6.3: multihoming as a consequence of two-step routing.

A host holds two attachments to its provider.  Steady request traffic
flows; at a known instant the primary link dies.  Three contenders:

* **RINA** — the host's node address is stable; routing's step one (next
  hop) is untouched, step two (PoA selection) just picks the surviving
  attachment once neighbor-monitoring declares the port dead.  The flow
  never notices beyond a delivery gap ≈ the keepalive dead interval.
* **TCP** — the connection *is* the (address, port) 4-tuple of the dead
  interface; it retransmits into the void, backs off, and aborts.  No
  recovery, ever (§6.3's core indictment).
* **SCTP** — survives by doing transport-layer "degenerate routing":
  per-path error counters must cross ``path_max_retrans`` before failover,
  so the outage is several RTO/heartbeat periods.

Measured: the delivery gap at the receiver around the failure, and whether
the session survived at all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..apps.echo import EchoClient, EchoServer
from ..baselines import IpFabric
from ..core import run_until
from ..scenarios.canned import e4_scenario
from ..scenarios.faults import FaultContext, make_injector
from ..scenarios.runner import build_rina_stack, build_topology
from ..sim.network import Network
from ..sweeps import Job
from .common import delivery_gap

SEND_PERIOD = 0.05
FAIL_AT = 2.0
TOTAL_MESSAGES = 120


def _two_link_topology(seed: int) -> Network:
    """The baseline stacks reuse the scenario spec's physical plant."""
    network = Network(seed=seed)
    build_topology(e4_scenario().topology, network)
    return network


def run_rina(keepalive_interval: float = 0.2, seed: int = 1) -> Dict[str, Any]:
    """The IPC architecture side: PoA failover below a surviving flow.

    The stack is the declarative spec
    :func:`repro.scenarios.canned.e4_scenario`; the primary-link kill goes
    through the scenario harness's link-flap injector (``duration=None``
    = permanent), and only the measurement logic stays bespoke.
    """
    spec = e4_scenario(keepalive_interval)
    built = build_rina_stack(spec, seed=seed)
    network, systems = built.network, built.systems
    policies = built.layers["net"].policies

    server = EchoServer(systems["provider"])
    network.run(until=network.engine.now + 0.5)
    client = EchoClient(systems["host"])
    run_until(network, lambda: client.waiter.done(), timeout=10)
    if not client.ready:
        raise RuntimeError(f"allocation failed: {client.waiter.reason}")

    delivery_times: List[float] = []
    original = client.message_flow._receiver

    def on_reply(data: bytes) -> None:
        delivery_times.append(network.engine.now)
        original(data)
    client.message_flow.set_message_receiver(on_reply)

    start = network.engine.now
    # the spec's fault schedule is the single source of the failure time
    fail_at = start + spec.faults[0].at
    make_injector(spec.faults[0]).arm(FaultContext(network, built=built),
                                      start)

    sent = [0]

    def pump() -> None:
        if sent[0] < TOTAL_MESSAGES:
            client.ping(200)
            sent[0] += 1
            network.engine.call_later(SEND_PERIOD, pump)
    pump()
    run_until(network, lambda: client.replies >= TOTAL_MESSAGES, timeout=120)
    return {
        "stack": f"rina(ka={keepalive_interval})",
        "delivered": client.replies,
        "survived": client.replies >= TOTAL_MESSAGES,
        "outage_s": delivery_gap(delivery_times, fail_at),
        "detection_budget_s": keepalive_interval * policies.dead_factor,
    }


def run_tcp(seed: int = 1) -> Dict[str, Any]:
    """The TCP side: bound to the failed interface's address."""
    network = _two_link_topology(seed)
    fabric = IpFabric(network, routers=[])
    host, provider = fabric.host("host"), fabric.host("provider")

    delivery_times: List[float] = []
    server_conns = []

    def on_accept(conn) -> None:
        server_conns.append(conn)
        conn.on_data = lambda n: delivery_times.append(network.engine.now)
    provider.tcp.listen(80, on_accept)
    conn = host.tcp.connect(host.addr("if0"), provider.addr("if0"), 80)
    aborted: List[float] = []
    conn.on_aborted = lambda: aborted.append(network.engine.now)
    run_until_established = network.run(until=1.0)

    fail_at = 1.0 + FAIL_AT
    network.engine.call_later(fail_at - network.engine.now,
                              network.links["uplink#a"].fail)
    sent = [0]

    def pump() -> None:
        if sent[0] < TOTAL_MESSAGES and conn.established:
            conn.send(200)
            sent[0] += 1
            network.engine.call_later(SEND_PERIOD, pump)
    pump()
    network.run(until=fail_at + 90)
    delivered = len(delivery_times)
    return {
        "stack": "tcp",
        "delivered": delivered,
        "survived": not aborted and delivered >= TOTAL_MESSAGES,
        "outage_s": float("inf") if aborted or delivered < TOTAL_MESSAGES
        else delivery_gap(delivery_times, fail_at),
        "aborted_at_s": (aborted[0] - fail_at) if aborted else None,
    }


def run_sctp(heartbeat_interval: float = 0.5, path_max_retrans: int = 3,
             seed: int = 1) -> Dict[str, Any]:
    """The SCTP side: transport-level failover after path errors."""
    network = _two_link_topology(seed)
    fabric = IpFabric(network, routers=[])
    host, provider = fabric.host("host"), fabric.host("provider")

    delivery_times: List[float] = []
    accepted = []

    def on_accept(association) -> None:
        association.on_data = lambda n: delivery_times.append(network.engine.now)
        accepted.append(association)
    provider.sctp.listen(7, provider.ip.addresses(), on_accept)
    association = host.sctp.associate(host.ip.addresses(), provider.addr("if0"), 7)
    association._hb_task._period = heartbeat_interval
    association.path_max_retrans = path_max_retrans
    network.run(until=1.0)
    if accepted:
        accepted[0]._hb_task._period = heartbeat_interval

    fail_at = network.engine.now + FAIL_AT
    network.engine.call_later(FAIL_AT, network.links["uplink#a"].fail)
    sent = [0]

    def pump() -> None:
        if sent[0] < TOTAL_MESSAGES:
            association.send_message(200)
            sent[0] += 1
            network.engine.call_later(SEND_PERIOD, pump)
    pump()
    run_until(network,
              lambda: (accepted and accepted[0].messages_delivered >= TOTAL_MESSAGES),
              timeout=120)
    delivered = accepted[0].messages_delivered if accepted else 0
    return {
        "stack": f"sctp(hb={heartbeat_interval},pmr={path_max_retrans})",
        "delivered": delivered,
        "survived": delivered >= TOTAL_MESSAGES,
        "outage_s": delivery_gap(delivery_times, fail_at),
        "failover_after_s": (association.failover_events[0][0] - fail_at)
        if association.failover_events else None,
    }


def iter_jobs(rina_keepalives: Optional[List[float]] = None,
              seed: int = 1) -> List[Job]:
    """The E4 table as data: one job per stack/parameterization, the
    RINA keepalives first, then TCP and SCTP."""
    jobs = [Job("repro.experiments.e4_multihoming:run_rina",
                kwargs={"keepalive_interval": keepalive, "seed": seed},
                group="e4", label=f"e4 rina keepalive={keepalive}")
            for keepalive in (rina_keepalives or [0.1, 0.2, 0.5])]
    jobs.append(Job("repro.experiments.e4_multihoming:run_tcp",
                    kwargs={"seed": seed}, group="e4", label="e4 tcp"))
    jobs.append(Job("repro.experiments.e4_multihoming:run_sctp",
                    kwargs={"seed": seed}, group="e4", label="e4 sctp"))
    return jobs
