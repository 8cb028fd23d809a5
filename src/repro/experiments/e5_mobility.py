"""E5 — Figure 5 / §6.4: mobility is dynamic multihoming.

Physical plant (same for both stacks)::

    C --- B --- R1 --- BS1 BS2     (region 1)
           \\-- R2 --- BS3 BS4     (region 2)
    M (mobile) has a wireless link to every base station; only the
    current attachment carries traffic.

IPC configuration: three DIFs of different rank, exactly Fig 5's picture —

* ``region1`` = {R1, BS1, BS2, M}  (N-1, narrow scope, fast keepalives)
* ``region2`` = {R2, BS3, BS4, M}
* ``metro``   = {M, R1, R2, B, C}  (N), whose M–R1 adjacency *is a flow of
  region1* — so an intra-region move is invisible to it.

Moves measured:

1. **intra-region** (BS1 → BS2): only region1's routing updates; the metro
   DIF sees nothing; the correspondent's flow survives.
2. **inter-region** (BS2 → BS3): M enrolls in region2, brings up a new
   metro adjacency via region2, then loses the old radio; routing updates
   stay inside region2 + metro; the flow still survives.

Baseline: Mobile-IP on the identical topology — home agent at R1,
care-of registration per move, triangle routing forever after.

Reported per move: routing-update messages by DIF (the paper's locality
argument), delivery outage at the correspondent, and for Mobile-IP the
path stretch and registration signalling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..apps.echo import EchoClient, EchoServer
from ..baselines import HomeAgent, IpFabric, MobileNode
from ..core import run_until, shim_name_for
from ..scenarios.canned import e5_scenario
from ..scenarios.runner import build_rina_stack, build_topology
from ..sim.network import Network
from ..sweeps import Job
from .common import delivery_gap

REGIONS = {
    "region1": ("r1", ["bs1", "bs2"]),
    "region2": ("r2", ["bs3", "bs4"]),
}
SEND_PERIOD = 0.05


def build_physical(seed: int = 1) -> Network:
    """The shared physical plant (from the declarative E5 scenario spec)."""
    network = Network(seed=seed)
    build_topology(e5_scenario().topology, network)
    return network


# ----------------------------------------------------------------------
# RINA side
# ----------------------------------------------------------------------
class RinaMobilityScenario:
    """Builds the three-DIF stack and drives the two moves."""

    def __init__(self, seed: int = 1) -> None:
        # Fig 5's plant and three-DIF stack, re-expressed as the canned
        # scenario spec; this class keeps the move orchestration.
        built = build_rina_stack(e5_scenario(), seed=seed)
        self.network = built.network
        self.systems = built.systems
        self.region1 = built.layers["region1"]
        self.region2 = built.layers["region2"]
        self.metro = built.layers["metro"]
        # prepare the not-yet-used attachment points: base stations must be
        # reachable over their radio shims for the mobile to attach later
        self.systems["bs2"].publish_ipcp("region1", shim_name_for("radio:bs2"))
        self.systems["bs3"].publish_ipcp("region2", shim_name_for("radio:bs3"))
        self.systems["bs4"].publish_ipcp("region2", shim_name_for("radio:bs4"))
        self.systems["m"].create_ipcp(self.region2)
        self.systems["m"].publish_ipcp("region2", shim_name_for("radio:bs3"))
        self.systems["r2"].publish_ipcp("metro", "region2")
        self._lsa_baseline: Dict[str, int] = {}

    # -- measurement helpers -------------------------------------------
    def lsa_counts(self) -> Dict[str, int]:
        """Total routing updates received, per DIF."""
        totals = {}
        for dif in (self.region1, self.region2, self.metro):
            totals[str(dif.name)] = sum(
                ipcp.routing.lsas_received for ipcp in dif.members().values())
        return totals

    def snapshot(self) -> None:
        """Remember current LSA counters (call before a move)."""
        self._lsa_baseline = self.lsa_counts()

    def lsa_delta(self) -> Dict[str, int]:
        """Routing updates received since the last snapshot, per DIF."""
        now = self.lsa_counts()
        return {name: now[name] - self._lsa_baseline.get(name, 0)
                for name in now}

    # -- the moves -------------------------------------------------------
    def move_intra_region(self, done: Optional[List] = None) -> None:
        """BS1 → BS2: make-before-break within region1."""
        system = self.systems["m"]
        member = self.region1.name.ipcp_name("bs2")

        def attached(ok: bool, reason: str) -> None:
            # new radio up: drop the old one (signal 'fails', Fig 5)
            self.network.links["radio:bs1"].fail()
            if done is not None:
                done.append((ok, reason))
        system.connect_neighbor("region1", member,
                                shim_name_for("radio:bs2"), attached)

    def move_inter_region(self, done: Optional[List] = None,
                          make_before_break: bool = True) -> None:
        """BS2 → BS3: enroll region2 and re-home the metro adjacency.

        With ``make_before_break`` (the default, and the right engineering)
        the new attachments come up before the old radio dies; the
        break-before-make variant — the radio fails first, as in an abrupt
        signal loss — is the A4 ablation: same machinery, larger outage.
        """
        system = self.systems["m"]
        region_member = self.region2.name.ipcp_name("bs3")
        metro_member = self.metro.name.ipcp_name("r2")

        if not make_before_break:
            self.network.links["radio:bs2"].fail()

        def metro_attached(ok: bool, reason: str) -> None:
            if make_before_break:
                self.network.links["radio:bs2"].fail()
            if done is not None:
                done.append((ok, reason))

        def enrolled(ok: bool, reason: str) -> None:
            if not ok:
                if done is not None:
                    done.append((ok, reason))
                return
            system.connect_neighbor("metro", metro_member, "region2",
                                    metro_attached)
        system.enroll("region2", region_member, shim_name_for("radio:bs3"),
                      done=enrolled)


def run_rina(seed: int = 1,
             make_before_break: bool = True) -> List[Dict[str, Any]]:
    """The RINA half of the E5 table: one row per move."""
    scenario = RinaMobilityScenario(seed)
    network = scenario.network
    server = EchoServer(scenario.systems["m"], dif_names=["metro"])
    network.run(until=network.engine.now + 1.0)
    client = EchoClient(scenario.systems["c"], dif_name="metro")
    run_until(network, lambda: client.waiter.done(), timeout=15)
    if not client.ready:
        raise RuntimeError(f"allocation failed: {client.waiter.reason}")

    delivery_times: List[float] = []
    original = client.message_flow._receiver

    def on_reply(data: bytes) -> None:
        delivery_times.append(network.engine.now)
        original(data)
    client.message_flow.set_message_receiver(on_reply)

    stop = [False]

    def pump() -> None:
        if not stop[0]:
            client.ping(120)
            network.engine.call_later(SEND_PERIOD, pump)
    pump()
    network.run(until=network.engine.now + 1.0)

    rows = []
    movers = (
        ("intra-region", scenario.move_intra_region),
        ("inter-region",
         lambda outcome: scenario.move_inter_region(
             outcome, make_before_break=make_before_break)),
    )
    for move_name, mover in movers:
        scenario.snapshot()
        before = len(delivery_times)
        move_at = network.engine.now
        outcome: List = []
        mover(outcome)
        network.run(until=move_at + 8.0)
        delta = scenario.lsa_delta()
        after = [t for t in delivery_times if t >= move_at]
        gap = delivery_gap(delivery_times, move_at)
        rows.append({
            "stack": "rina" if make_before_break else "rina(bbm)",
            "move": move_name,
            "flow_survived": client.flow.allocated and bool(after),
            "outage_s": gap,
            "updates_region1": delta["region1"],
            "updates_region2": delta["region2"],
            "updates_metro": delta["metro"],
        })
    stop[0] = True
    return rows


# ----------------------------------------------------------------------
# Mobile-IP side
# ----------------------------------------------------------------------
def run_mobileip(seed: int = 1, detection_delay: float = 0.1) -> List[Dict[str, Any]]:
    """The baseline half: home agent at R1, registration per move."""
    network = build_physical(seed)
    routers = ["bs1", "bs2", "bs3", "bs4", "r1", "r2", "b"]
    fabric = IpFabric(network, routers=routers)
    m, c, r1 = fabric.host("m"), fabric.host("c"), fabric.host("r1")

    home_address = m.addr("if0")          # address on the radio:bs1 link
    agent_ip = r1.addr("if0")
    agent = HomeAgent(r1.ip, r1.udp, agent_ip)
    mobile = MobileNode(network.engine, m.ip, m.udp, home_address, agent_ip)

    # a UDP echo responder on the mobile's stack, reachable via any address
    delivery_times: List[float] = []

    def echo_handler(payload, size, src_ip, src_port) -> None:
        m.udp.sendto(mobile.current_address(), 7, src_ip, src_port,
                     payload, size)
    m.udp.bind(7, echo_handler)

    replies: List[float] = []

    def reply_handler(payload, size, src_ip, src_port) -> None:
        replies.append(network.engine.now)
    client_port = c.udp.bind(0, reply_handler)

    stop = [False]

    def pump() -> None:
        if not stop[0]:
            c.udp.sendto(c.addr(), client_port, home_address, 7, b"ping", 120)
            network.engine.call_later(SEND_PERIOD, pump)
    pump()
    network.run(until=1.0)

    def rehome(new_ifname: str) -> None:
        """Point the mobile's default route at its current attachment —
        what a real mobile's DHCP/RA handling does on re-attachment."""
        stack = m.ip
        stack.clear_routes()
        for ifname, ip_if in stack.interfaces.items():
            if ip_if.up:
                prefix, plen = ip_if.network
                stack.add_route(prefix, plen, None, ifname)
        new_if = stack.interfaces[new_ifname]
        # default route via the base station's end of the subnet
        peer = (new_if.address & ~3) + (1 if (new_if.address & 3) == 2 else 2)
        stack.add_route(0, 0, peer, new_ifname)

    rows = []
    moves = [
        ("intra-region", "radio:bs1", "if1", 6),   # C-b-r1(HA)-r1..bs2-M
        ("inter-region", "radio:bs2", "if2", 8),
    ]
    direct_hops = {"intra-region": 4, "inter-region": 4}
    for move_name, old_link, new_if, via_ha_hops in moves:
        move_at = network.engine.now
        registrations_before = mobile.registrations_sent
        network.links[old_link].fail()
        care_of = m.addr(new_if)

        def attach(coa=care_of, ifname=new_if) -> None:
            rehome(ifname)
            mobile.move_to(coa)
        network.engine.call_later(detection_delay, attach)
        network.run(until=move_at + 8.0)
        after = [t for t in replies if t >= move_at]
        gap = delivery_gap(replies, move_at)
        rows.append({
            "stack": "mobile-ip",
            "move": move_name,
            "flow_survived": bool(after),
            "outage_s": gap,
            "registration_msgs": mobile.registrations_sent - registrations_before,
            "path_hops_via_ha": via_ha_hops,
            "path_hops_direct": direct_hops[move_name],
            "stretch": via_ha_hops / direct_hops[move_name],
        })
    stop[0] = True
    return rows


def run_rina_break_before_make(seed: int = 1) -> List[Dict[str, Any]]:
    """The A4 ablation rows: the inter-region move *without*
    make-before-break (enrollment starts only after the old PoA drops)."""
    return [row for row in run_rina(seed, make_before_break=False)
            if row["move"] == "inter-region"]


def iter_jobs(seed: int = 1) -> List[Job]:
    """The E5 table as data: the RINA moves, the Mobile-IP moves, then
    the A4 break-before-make ablation."""
    return [
        Job("repro.experiments.e5_mobility:run_rina",
            kwargs={"seed": seed}, group="e5", label="e5 rina"),
        Job("repro.experiments.e5_mobility:run_mobileip",
            kwargs={"seed": seed}, group="e5", label="e5 mobile-ip"),
        Job("repro.experiments.e5_mobility:run_rina_break_before_make",
            kwargs={"seed": seed}, group="e5", label="e5 rina(bbm)"),
    ]
