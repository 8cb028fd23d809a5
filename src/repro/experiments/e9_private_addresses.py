"""E9 — §6.5 / §6.7: private addresses are the norm, NAT is unnecessary.

Claim: "None of the problems NATs cause in the Internet exist in our
model, even though private addresses are the norm, because there is a
complete addressing architecture."

Setup: ``k`` customer sites hang off a provider core; a public service
sits at a data-centre host.  Every site internally uses **the same**
private address space.

* **IP + NAT** — each site's addresses collide, so its border router must
  NAT.  We measure: translation state at each border (grows with flows),
  port-pool exhaustion (connections refused once the pool is full), and
  unsolicited inbound reachability (the service can never initiate a
  connection to a host behind the NAT).
* **IPC** — each site is its own DIF; *all sites deliberately get
  identical internal addresses* (flat policy starting at 1 — reuse is
  safe because addresses are private to each facility, §3.2).  Hosts also
  join the provider DIF for external flows.  Measured: address values
  reused across sites (maximal), border translation state (zero — the
  border router just relays), inbound flow success (the service allocates
  a flow *to the host's application name*).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..baselines import IpFabric, NatBox, ip, prefix_of
from ..core import (PENDING, ApplicationName, Dif, DifPolicies, FlatAddressing,
                    Flow, Orchestrator, add_shims, build_dif_over,
                    make_systems, run_until, shim_between)
from ..sim.network import Network
from ..sweeps import Job


def _site_topology(sites: int, hosts_per_site: int, seed: int = 1) -> Network:
    network = Network(seed=seed)
    network.add_node("core")
    network.add_node("dc")
    network.connect("dc", "core", delay=0.002)
    for site in range(sites):
        border = f"gw{site}"
        network.add_node(border)
        network.connect(border, "core", delay=0.002)
        for host_index in range(hosts_per_site):
            host = f"h{site}_{host_index}"
            network.add_node(host)
            network.connect(host, border, delay=0.001)
    return network


# ----------------------------------------------------------------------
# IP + NAT side
# ----------------------------------------------------------------------
def run_ip_nat(sites: int = 3, hosts_per_site: int = 2,
               flows_per_host: int = 40, port_pool: int = 64,
               seed: int = 1) -> Dict[str, Any]:
    """The NAT world: per-border state, exhaustion, broken inbound.

    Every site runs the *identical* 192.168/16 plan (the whole point of
    private addressing), so the cores cannot route to site interiors and
    each border must translate.
    """
    from ..baselines.sockets import Host

    network = _site_topology(sites, hosts_per_site, seed)
    hosts: Dict[str, Host] = {}
    routers = {"core"} | {f"gw{s}" for s in range(sites)}
    for name, node in network.nodes.items():
        hosts[name] = Host(node, forwarding=name in routers)

    # --- public plan: /30 per core-facing link, from 100.64.0.0 ---
    public_base = ip("100.64.0.0")
    core = hosts["core"]
    core_ifs = list(network.node("core").interfaces())
    gw_public: Dict[str, int] = {}
    for index, interface in enumerate(core_ifs):
        subnet = public_base + 4 * index
        core.ip.add_interface(interface.name, subnet + 1, 30)
        core.ip.add_route(subnet, 30, None, interface.name)
        # figure out who sits at the far end of this link
        far = [n for n in network.nodes
               if n != "core" and any(i.link is interface.link
                                      for i in network.node(n).interfaces())][0]
        far_host = hosts[far]
        far_if = [i for i in network.node(far).interfaces()
                  if i.link is interface.link][0]
        far_host.ip.add_interface(far_if.name, subnet + 2, 30)
        far_host.ip.add_route(subnet, 30, None, far_if.name)
        gw_public[far] = subnet + 2
        far_host.ip.add_route(0, 0, subnet + 1, far_if.name)  # default → core
    server = hosts["dc"]

    # --- private plan: identical per site ---
    private_base = ip("192.168.0.0")
    nats = []
    for site in range(sites):
        gw = hosts[f"gw{site}"]
        for host_index in range(hosts_per_site):
            host = hosts[f"h{site}_{host_index}"]
            link = network.link_between(f"h{site}_{host_index}", f"gw{site}")
            subnet = private_base + 4 * host_index
            host_if = [i for i in network.node(f"h{site}_{host_index}").interfaces()
                       if i.link is link][0]
            gw_if = [i for i in network.node(f"gw{site}").interfaces()
                     if i.link is link][0]
            host.ip.add_interface(host_if.name, subnet + 2, 30)
            gw.ip.add_interface(gw_if.name, subnet + 1, 30)
            host.ip.add_route(subnet, 30, None, host_if.name)
            host.ip.add_route(0, 0, subnet + 1, host_if.name)  # default → gw
            gw.ip.add_route(subnet, 30, None, gw_if.name)
        nats.append(NatBox(gw.ip, private_base, 16, gw_public[f"gw{site}"],
                           port_pool=port_pool))
    # core's connected /30s cover every public endpoint (one hop away);
    # crucially, *nothing* outside a site can route 192.168/16.
    server.tcp.listen(80, lambda conn: None)
    hosts["h0_0"].tcp.listen(8080, lambda conn: None)  # inbound target

    established: List[int] = []
    server_ip = [a for a in server.ip.addresses()][0]
    for site in range(sites):
        for host_index in range(hosts_per_site):
            host = hosts[f"h{site}_{host_index}"]
            for _ in range(flows_per_host):
                conn = host.tcp.connect(host.addr(), server_ip, 80)
                conn.on_connected = lambda: established.append(1)
    network.run(until=30.0)

    # unsolicited inbound: the server can only aim at the border's public
    # address (the interior plan is ambiguous from outside) — no mapping,
    # so the NAT drops it.
    inbound_ok: List[int] = []
    drops_before = sum(nat.drops_no_mapping for nat in nats)
    for site in range(sites):
        conn = server.tcp.connect(server_ip, gw_public[f"gw{site}"], 8080)
        conn.on_connected = lambda: inbound_ok.append(1)
    network.run(until=60.0)

    attempted = sites * hosts_per_site * flows_per_host
    return {
        "world": f"ip+nat(pool={port_pool})",
        "outbound_attempted": attempted,
        "outbound_established": len(established),
        "border_state_total": sum(nat.active_mappings() for nat in nats),
        "pool_exhausted_drops": sum(nat.drops_pool_exhausted for nat in nats),
        "inbound_attempts": sites,
        "inbound_succeeded": len(inbound_ok),
        "inbound_blocked": sum(nat.drops_no_mapping for nat in nats)
        > drops_before,
        "site_addresses_identical": True,
    }


# ----------------------------------------------------------------------
# IPC side
# ----------------------------------------------------------------------
def run_rina(sites: int = 3, hosts_per_site: int = 2,
             flows_per_host: int = 40, seed: int = 1) -> Dict[str, Any]:
    """The DIF world: identical private addresses per site, no middlebox."""
    network = _site_topology(sites, hosts_per_site, seed)
    systems = make_systems(network)
    add_shims(systems, network)
    orchestrator = Orchestrator(network)

    site_difs: List[Dif] = []
    for site in range(sites):
        # every site uses the very same internal address space on purpose
        dif = Dif(f"site{site}", DifPolicies(addressing=FlatAddressing(start=1),
                                             keepalive_interval=2.0,
                                             refresh_interval=None))
        site_difs.append(dif)
        border = f"gw{site}"
        adjacencies = [(f"h{site}_{i}", border,
                        shim_between(network, f"h{site}_{i}", border))
                       for i in range(hosts_per_site)]
        build_dif_over(orchestrator, dif, systems, adjacencies=adjacencies,
                       bootstrap=border, settle=0.2)

    provider = Dif("provider", DifPolicies(keepalive_interval=2.0,
                                           refresh_interval=None))
    adjacencies = [("dc", "core", shim_between(network, "dc", "core"))]
    for site in range(sites):
        adjacencies.append((f"gw{site}", "core",
                            shim_between(network, f"gw{site}", "core")))
        # hosts reach the provider DIF through their site DIF (the border
        # relays) — their provider-IPCP attaches over the site facility
        adjacencies.append((f"h{site}_0", f"gw{site}", f"site{site}"))
    build_dif_over(orchestrator, provider, systems, adjacencies=adjacencies,
                   bootstrap="core", settle=0.5)
    orchestrator.run(timeout=300)

    # the public service, plus one registered app per site's first host
    systems["dc"].register_app(ApplicationName("webservice"),
                               lambda flow: None, dif_names=["provider"])
    inbound_listeners: List = []
    for site in range(sites):
        systems[f"h{site}_0"].register_app(
            ApplicationName(f"site{site}-agent"),
            lambda flow: inbound_listeners.append(flow),
            dif_names=["provider"])
    network.run(until=network.engine.now + 1.0)

    # outbound flows from every first host
    flows: List[Flow] = []
    for site in range(sites):
        system = systems[f"h{site}_0"]
        for index in range(flows_per_host):
            flows.append(system.allocate_flow(
                ApplicationName(f"site{site}-client-{index}"),
                ApplicationName("webservice"), dif_name="provider"))
    run_until(network, lambda: all(f.state != PENDING for f in flows),
              timeout=120)

    # inbound: the service opens flows toward the site agents *by name*
    inbound: List[Flow] = [
        systems["dc"].allocate_flow(
            ApplicationName("webservice"),
            ApplicationName(f"site{site}-agent"), dif_name="provider")
        for site in range(sites)]
    run_until(network, lambda: all(f.state != PENDING for f in inbound),
              timeout=60)

    # address reuse: identical address values across the site DIFs
    address_sets = [sorted(str(a) for a in dif.members()) for dif in site_difs]
    reused = all(addresses == address_sets[0] for addresses in address_sets)
    attempted = sites * flows_per_host
    return {
        "world": "rina",
        "outbound_attempted": attempted,
        "outbound_established": sum(f.granted for f in flows),
        "border_state_total": 0,   # borders only relay; no translation table
        "pool_exhausted_drops": 0,
        "inbound_attempts": sites,
        "inbound_succeeded": sum(f.granted for f in inbound),
        "inbound_blocked": False,
        "site_addresses_identical": reused,
        "site_address_sets": address_sets[0],
    }


def iter_jobs(sites: int = 3, hosts_per_site: int = 2,
              flows_per_host: int = 40, port_pool: int = 64,
              seed: int = 1) -> List[Job]:
    """The E9 table as data: the NAT world, then the DIF world."""
    return [
        Job("repro.experiments.e9_private_addresses:run_ip_nat",
            kwargs={"sites": sites, "hosts_per_site": hosts_per_site,
                    "flows_per_host": flows_per_host, "port_pool": port_pool,
                    "seed": seed},
            group="e9", label="e9 ip+nat"),
        Job("repro.experiments.e9_private_addresses:run_rina",
            kwargs={"sites": sites, "hosts_per_site": hosts_per_site,
                    "flows_per_host": flows_per_host, "seed": seed},
            group="e9", label="e9 rina"),
    ]
