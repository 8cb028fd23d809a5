"""The IPC process (IPCP): one member of one DIF on one system.

Per §4, an IPCP is three loosely coupled task sets sharing state through
the RIB:

* **IPC Data Transfer** — the RMT (multiplexing, relaying, per-flow data
  transfer) — shortest timescale;
* **IPC Transfer Control** — EFCP instances created per flow by the flow
  allocator — middle timescale;
* **IPC Management** — RIEP messaging binding enrollment, directory,
  routing and flow allocation — longest timescale.

An IPCP is simultaneously an *application of the (N-1) DIFs* beneath it:
its attachments are ordinary flows allocated from lower facilities, added
here as RMT ports.  That dual role is the recursion the whole paper rests
on.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..sim.engine import Engine, PeriodicTask
from ..sim.trace import Tracer
from .dif import Dif
from .directory import DifDirectory
from .enrollment import EnrollmentTask
from .flow import Flow
from .flow_allocator import FLOW_OBJ, FlowAllocator
from .names import Address, ApplicationName
from .pdu import KEEPALIVE, ControlPdu, DataPdu, ManagementPdu, Pdu
from .riep import (InvokeTable, M_READ, RESULT_NOT_FOUND, RESULT_OK,
                   RiepMessage)
from .rmt import Rmt
from .routing import LSA_OBJ, LinkStateRouting
from .directory import DIRECTORY_OBJ
from .enrollment import AUTH_OBJ, DEPART_OBJ, ENROLL_OBJ
from .rib import Rib

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import System

InboundListener = Callable[[Flow], None]


class Ipcp:
    """One IPC process.  Create via :meth:`repro.core.system.System.create_ipcp`."""

    __slots__ = ("engine", "system_name", "dif", "name", "tracer", "address",
                 "rib", "_port_ids", "invoke_table", "rmt", "routing",
                 "directory", "enrollment", "flow_allocator", "_local_apps",
                 "_lower_flows", "_last_heard", "_keepalive_task",
                 "_refresh_task")

    def __init__(self, engine: Engine, system_name: str, dif: Dif,
                 tracer: Optional[Tracer] = None,
                 port_ids: Optional[itertools.count] = None) -> None:
        self.engine = engine
        self.system_name = system_name
        self.dif = dif
        self.name = dif.name.ipcp_name(system_name)
        self.tracer = tracer if tracer is not None else Tracer()
        self.address: Optional[Address] = None
        self.rib = Rib()
        self._port_ids = port_ids if port_ids is not None else itertools.count(1)
        policies = dif.policies
        self.invoke_table = InvokeTable(engine, policies.mgmt_timeout)
        self.rmt = Rmt(engine, lambda: self.address, self._deliver_local,
                       scheduler_factory=policies.make_scheduler,
                       path_selector=policies.make_path_selector(),
                       on_drop=self._on_rmt_drop)
        self.rmt.set_forwarding(lambda addr: self.routing.next_hop(addr))
        self.routing = LinkStateRouting(
            engine, lambda: self.address, self._flood,
            on_table_change=self._on_table_change,
            spf_delay=policies.spf_delay)
        self.directory = DifDirectory(lambda: self.address, self._flood)
        self.enrollment = EnrollmentTask(self)
        self.flow_allocator = FlowAllocator(self)
        self._local_apps: Dict[ApplicationName, InboundListener] = {}
        self._lower_flows: Dict[int, Flow] = {}
        self._last_heard: Dict[int, float] = {}
        self._keepalive_task = PeriodicTask(
            engine, policies.keepalive_interval, self._keepalive_tick,
            label=f"{self.name}.keepalive")
        self._keepalive_task.start(initial_delay=policies.keepalive_interval / 2)
        # anti-entropy: periodically re-flood own LSA + directory record so
        # state lost on lossy media converges (IS-IS-style refresh)
        self._refresh_task: Optional[PeriodicTask] = None
        if policies.refresh_interval is not None:
            self._refresh_task = PeriodicTask(
                engine, policies.refresh_interval, self._refresh_tick,
                label=f"{self.name}.refresh")
            self._refresh_task.start()

    # ------------------------------------------------------------------
    # Membership / identity
    # ------------------------------------------------------------------
    def set_address(self, address: Address) -> None:
        """Adopt the DIF-internal address assigned at enrollment."""
        self.address = address
        self.rib.write("/ipcp/address", address.parts)

    def bootstrap(self, region_hint: Optional[Sequence[int]] = None) -> Address:
        """Become the initial member of the DIF (§5.1): self-assign."""
        address = self.dif.assign_address(region_hint)
        self.set_address(address)
        self.dif.register_member(address, self)
        self.directory.announce_all()
        self.tracer.log(self.engine.now, "bootstrap",
                        ipcp=str(self.name), address=str(address))
        return address

    @property
    def enrolled(self) -> bool:
        """True once this IPCP holds an address in its DIF."""
        return self.address is not None

    def next_port_id(self) -> int:
        """Allocate a fresh port id at this system's layer boundary."""
        return next(self._port_ids)

    # ------------------------------------------------------------------
    # Local applications (the layer above)
    # ------------------------------------------------------------------
    def register_local_app(self, app: ApplicationName,
                           listener: InboundListener) -> None:
        """Register an application of this DIF at this member."""
        self._local_apps[app] = listener
        self.directory.register(app)

    def unregister_local_app(self, app: ApplicationName) -> None:
        """Remove a local application registration."""
        self._local_apps.pop(app, None)
        self.directory.unregister(app)

    def local_app_listener(self, app: ApplicationName) -> Optional[InboundListener]:
        """Listener for a locally registered application (or None)."""
        return self._local_apps.get(app)

    # ------------------------------------------------------------------
    # Lower flows (the (N-1) attachments)
    # ------------------------------------------------------------------
    def add_lower_flow(self, flow: Flow,
                       peer_addr: Optional[Address] = None) -> int:
        """Adopt an (N-1) flow as an RMT port; returns the port id."""
        port_id = flow.port_id.value
        nominal = flow.nominal_bps if self.dif.policies.pace_ports else None
        self.rmt.add_port(port_id, flow.send, nominal_bps=nominal,
                          peer_addr=peer_addr)
        flow.set_receiver(lambda pdu, size: self._on_lower_pdu(pdu, port_id))
        flow.on_deallocated = lambda _f: self.remove_lower_flow(port_id)
        self._lower_flows[port_id] = flow
        self._last_heard[port_id] = self.engine.now
        return port_id

    def remove_lower_flow(self, port_id: int) -> None:
        """Drop an (N-1) attachment (deallocated or lost)."""
        flow = self._lower_flows.pop(port_id, None)
        self._last_heard.pop(port_id, None)
        if flow is None:
            return
        peer = self.rmt.port(port_id).peer_addr if port_id in self.rmt._ports else None
        self.rmt.remove_port(port_id)
        if peer is not None and not self.rmt.ports_to(peer):
            self.routing.neighbor_down(peer)

    def bind_neighbor(self, port_id: int, peer_addr: Address) -> None:
        """Associate a port with the neighbor reached through it, and bring
        the adjacency into routing."""
        self.rmt.set_peer(port_id, peer_addr)
        self.rmt.set_alive(port_id, True)
        self._last_heard[port_id] = self.engine.now
        self.routing.neighbor_up(peer_addr)

    def drop_ports_to(self, neighbor: Address) -> None:
        """Remove all attachments to a departed neighbor."""
        for port in list(self.rmt.ports_to(neighbor)):
            flow = self._lower_flows.get(port.port_id)
            if flow is not None:
                flow.deallocate()
            self.remove_lower_flow(port.port_id)

    def first_alive_port_to(self, neighbor: Address) -> Optional[int]:
        """Port id of the first usable attachment to ``neighbor``."""
        for port in self.rmt.ports_to(neighbor):
            if port.alive:
                return port.port_id
        return None

    # ------------------------------------------------------------------
    # Management messaging
    # ------------------------------------------------------------------
    def send_mgmt_on_port(self, port_id: int, message: RiepMessage) -> bool:
        """Hop-scoped management send on a specific attachment."""
        pdu = ManagementPdu(self.address, None, message)
        return self.rmt.send_on_port(port_id, pdu)

    def send_mgmt_routed(self, dst_addr: Address, message: RiepMessage) -> None:
        """Management send routed through the DIF to another member."""
        self.rmt.submit(ManagementPdu(self.address, dst_addr, message))

    def send_mgmt_routed_reply(self, dst_addr: Optional[Address],
                               arrival_port: int, message: RiepMessage) -> None:
        """Reply to a management request: routed when the requester's
        address is known, else back out the arrival port."""
        if dst_addr is not None and self.routing.next_hop(dst_addr) is not None:
            self.send_mgmt_routed(dst_addr, message)
        elif arrival_port >= 0:
            self.send_mgmt_on_port(arrival_port, message)
        elif dst_addr is not None:
            self.send_mgmt_routed(dst_addr, message)

    def _flood(self, message: RiepMessage,
               exclude_neighbor: Optional[Address]) -> int:
        """Send a hop-scoped update to every adjacent member, reliably.

        Each per-neighbor copy is acknowledged by the receiving member and
        retransmitted up to ``flood_attempts`` times (the OSPF-LSAck
        mechanism), so flooding converges even over lossy media.
        """
        sent = 0
        for neighbor in self.rmt.neighbors():
            if exclude_neighbor is not None and neighbor == exclude_neighbor:
                continue
            if self._flood_to_neighbor(neighbor, message,
                                       self.dif.policies.flood_attempts):
                sent += 1
                self.tracer.count("mgmt.flooded")
        return sent

    def _flood_to_neighbor(self, neighbor: Address, template: RiepMessage,
                           attempts: int) -> bool:
        port_id = self.first_alive_port_to(neighbor)
        if port_id is None:
            return False
        copy = RiepMessage(template.opcode, obj=template.obj,
                           value=template.value)
        # the payload is shared, so the encoded-size estimate carries over
        # (re-walking a large LSA value per neighbor was a measured cost)
        copy._size_cache = template.estimate_size()

        def on_reply(reply: Optional[RiepMessage]) -> None:
            if reply is None and attempts > 1:
                self.tracer.count("mgmt.flood-retx")
                self._flood_to_neighbor(neighbor, template, attempts - 1)

        self.invoke_table.new_request(
            copy, on_reply, timeout=self.dif.policies.flood_ack_timeout)
        return self.send_mgmt_on_port(port_id, copy)

    # ------------------------------------------------------------------
    # Inbound demultiplexing
    # ------------------------------------------------------------------
    def _on_lower_pdu(self, pdu: Pdu, port_id: int) -> None:
        port = self.rmt._ports.get(port_id)
        if port is None:
            # a flow this IPCP no longer owns — e.g. the peer's half of an
            # attachment discarded by crash().  Nothing may enter the DIF
            # through a ghost port (it would bypass the gate below), and
            # it must not repopulate the liveness table either.
            self.tracer.count("security.ghost-port-pdu")
            return
        self._last_heard[port_id] = self.engine.now
        if not port.alive:
            self._revive_port(port_id)
        # Security gate (§6.1): an attachment whose peer has not completed
        # enrollment may only speak the enrollment protocol.  Everything
        # else — data injection, management spoofing, relaying attempts —
        # is dropped before it touches the DIF.
        if port.peer_addr is None:
            is_enrollment = (isinstance(pdu, ManagementPdu)
                             and pdu.dst_addr is None
                             and pdu.message.obj.startswith(ENROLL_OBJ))
            is_enroll_reply = (isinstance(pdu, ManagementPdu)
                               and pdu.dst_addr is None
                               and pdu.message.opcode.endswith("_R"))
            if not (is_enrollment or is_enroll_reply):
                self.tracer.count("security.unauthenticated-pdu")
                return
        self.rmt.receive(pdu, port_id)

    def _deliver_local(self, pdu: Pdu, port_id: int) -> None:
        if isinstance(pdu, DataPdu):
            self.flow_allocator.handle_data(pdu)
        elif isinstance(pdu, ControlPdu):
            if pdu.kind != KEEPALIVE:
                self.flow_allocator.handle_control(pdu)
        elif isinstance(pdu, ManagementPdu):
            self._on_mgmt(pdu, port_id)

    def _on_mgmt(self, pdu: ManagementPdu, port_id: int) -> None:
        message: RiepMessage = pdu.message
        if message.opcode.endswith("_R") and message.invoke_id:
            self.invoke_table.dispatch_response(message)
            return
        from_neighbor = None
        if port_id >= 0 and port_id in self.rmt._ports:
            from_neighbor = self.rmt._ports[port_id].peer_addr
        obj = message.obj
        if obj == LSA_OBJ and message.opcode != M_READ:
            self._ack_flood(message, port_id)
            self.routing.handle_lsa(message, from_neighbor)
        elif obj == DIRECTORY_OBJ and message.opcode != M_READ:
            self._ack_flood(message, port_id)
            self.directory.handle_update(message, from_neighbor)
        elif obj in (ENROLL_OBJ, AUTH_OBJ, DEPART_OBJ):
            self.enrollment.handle(message, port_id)
        elif obj == FLOW_OBJ:
            self.flow_allocator.handle_request(message, pdu.src_addr, port_id)
        elif message.opcode == M_READ:
            self._serve_rib_read(message, pdu.src_addr, port_id)

    # ------------------------------------------------------------------
    # Remote RIB access (management introspection over RIEP)
    # ------------------------------------------------------------------
    def remote_read(self, dst_addr: Address, obj: str,
                    callback: Callable[[Optional[RiepMessage]], None],
                    timeout: Optional[float] = None) -> None:
        """Read an object from another member's RIB (``M_READ`` routed).

        This is the management task set as the paper frames it: a network
        management application is just another application of the DIF,
        querying Resource Information Bases with RIEP — no SNMP bolted on
        the side.  ``callback`` receives the ``M_READ_R`` (or None on
        timeout).
        """
        message = RiepMessage(M_READ, obj=obj)
        self.invoke_table.new_request(message, callback, timeout=timeout)
        self.send_mgmt_routed(dst_addr, message)

    def _serve_rib_read(self, message: RiepMessage,
                        src_addr: Optional[Address], port_id: int) -> None:
        value = self.rib_snapshot_value(message.obj)
        if value is None:
            reply = message.reply(result=RESULT_NOT_FOUND)
        else:
            reply = message.reply(value=value, result=RESULT_OK)
        self.send_mgmt_routed_reply(src_addr, port_id, reply)

    def rib_snapshot_value(self, obj: str):
        """The value served for a RIB read of ``obj`` (None = not found).

        Live objects are computed on demand; anything else falls back to
        the literal RIB tree.
        """
        if obj == "/ipcp/address":
            return self.address.parts if self.address else None
        if obj == "/ipcp/name":
            return str(self.name)
        if obj == "/routing/table-size":
            return self.routing.table_size()
        if obj == "/routing/table":
            return {str(dst): str(hop)
                    for dst, hop in self.routing.table().items()}
        if obj == "/routing/lsdb-size":
            return self.routing.lsdb_size()
        if obj == "/directory/size":
            return self.directory.size()
        if obj == "/directory/names":
            return sorted(str(name) for name in self.directory.known_names())
        if obj == "/flows/count":
            return self.flow_allocator.active_flow_count()
        if obj == "/flows/committed-bandwidth":
            return self.flow_allocator.committed_bandwidth_bps()
        if obj == "/stats/rmt":
            return {"relayed": self.rmt.pdus_relayed,
                    "delivered": self.rmt.pdus_delivered,
                    "dropped": self.rmt.pdus_dropped}
        if obj == "/neighbors":
            return [str(addr) for addr in self.rmt.neighbors()]
        return self.rib.read_or(obj, None) if self._valid_rib_path(obj) else None

    @staticmethod
    def _valid_rib_path(obj: str) -> bool:
        return bool(obj) and obj.startswith("/") and obj.strip("/")

    def _ack_flood(self, message: RiepMessage, port_id: int) -> None:
        """Hop-by-hop acknowledgement of a flooded update (no value: the
        ack only stops the neighbor's retransmission)."""
        if message.invoke_id and port_id >= 0:
            reply = RiepMessage(message.opcode + "_R", obj=message.obj,
                                invoke_id=message.invoke_id)
            self.send_mgmt_on_port(port_id, reply)

    # ------------------------------------------------------------------
    # Neighbor liveness (keepalives)
    # ------------------------------------------------------------------
    def _keepalive_tick(self) -> None:
        policies = self.dif.policies
        dead_after = policies.keepalive_interval * policies.dead_factor
        now = self.engine.now
        for port_id, flow in list(self._lower_flows.items()):
            port = self.rmt._ports.get(port_id)
            if port is None or port.peer_addr is None:
                continue
            if self.address is not None:
                ka = ControlPdu(self.address, port.peer_addr, KEEPALIVE, 0, 0)
                self.rmt.send_on_port(port_id, ka)
            if port.alive and now - self._last_heard.get(port_id, now) > dead_after:
                self._declare_port_dead(port_id)

    def _refresh_tick(self) -> None:
        if self.address is None:
            return
        self.directory.announce_all()
        self.routing.refresh()

    def _declare_port_dead(self, port_id: int) -> None:
        port = self.rmt._ports.get(port_id)
        if port is None or port.peer_addr is None:
            return
        port.alive = False
        self.tracer.count("neighbor.port-dead")
        self.tracer.log(self.engine.now, "port-dead", ipcp=str(self.name),
                        port=port_id, peer=str(port.peer_addr))
        if not any(p.alive for p in self.rmt.ports_to(port.peer_addr)):
            self.routing.neighbor_down(port.peer_addr)
            self.tracer.log(self.engine.now, "neighbor-down",
                            ipcp=str(self.name), peer=str(port.peer_addr))

    def _revive_port(self, port_id: int) -> None:
        port = self.rmt._ports.get(port_id)
        if port is None:
            return
        had_alive = port.peer_addr is not None and any(
            p.alive for p in self.rmt.ports_to(port.peer_addr))
        port.alive = True
        if port.peer_addr is not None and not had_alive:
            self.routing.neighbor_up(port.peer_addr)
            self.tracer.log(self.engine.now, "neighbor-up",
                            ipcp=str(self.name), peer=str(port.peer_addr))

    # ------------------------------------------------------------------
    # Departure (mobility)
    # ------------------------------------------------------------------
    def leave(self) -> None:
        """Gracefully leave the DIF: announce, drop attachments, forget
        the address (Fig 5: a mobile 'drops its participation' in old DIFs)."""
        self.enrollment.announce_departure()
        if self.address is not None:
            self.dif.remove_member(self.address)
        for port_id in list(self._lower_flows):
            flow = self._lower_flows.get(port_id)
            if flow is not None:
                flow.deallocate()
            self.remove_lower_flow(port_id)
        self.address = None
        self._keepalive_task.stop()

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Abrupt failure: lose all DIF state *without* the graceful
        departure announcement of :meth:`leave`.  Neighbors find out the
        hard way — keepalive timeout — exactly as with a real power loss.
        """
        if self.address is not None:
            self.dif.remove_member(self.address)
        # identity and routing state go first: with no address, dropping
        # the attachments below cannot originate LSA withdrawals toward
        # still-reachable neighbors (that would be a graceful departure)
        self.address = None
        self.routing.reset()
        for port_id in list(self._lower_flows):
            self.remove_lower_flow(port_id)
        self._keepalive_task.stop()
        if self._refresh_task is not None:
            self._refresh_task.stop()
        self.tracer.count("ipcp.crash")
        self.tracer.log(self.engine.now, "ipcp-crash", ipcp=str(self.name))

    def restart(self) -> None:
        """Re-arm the periodic machinery after a :meth:`crash`.

        The IPCP comes back unenrolled (no address, empty LSDB); the owner
        must re-enroll it via :meth:`repro.core.system.System.enroll` once
        connectivity is restored.
        """
        policies = self.dif.policies
        if not self._keepalive_task.running:
            self._keepalive_task.start(
                initial_delay=policies.keepalive_interval / 2)
        if self._refresh_task is not None and not self._refresh_task.running:
            self._refresh_task.start()
        self.tracer.log(self.engine.now, "ipcp-restart", ipcp=str(self.name))

    # ------------------------------------------------------------------
    def _on_table_change(self, table: Dict[Address, Address]) -> None:
        self.tracer.sample(f"routing.table_size.{self.name}",
                           self.engine.now, len(table))

    def _on_rmt_drop(self, pdu: Pdu, reason: str) -> None:
        self.tracer.count(f"rmt.drop.{reason}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Ipcp {self.name} addr={self.address} ports={len(self._lower_flows)}>"
