"""The flow allocator — the paper's IAP (IPC Access Protocol).

Allocation is *not* a DNS lookup (§5.3): "once an address has been found,
the request continues to the identified IPC process to ensure that the
application is really there and that the requester has access to it."  The
requester learns a port id; the address stays inside the DIF.

Sequence for ``allocate(src → dst, qos)``:

1. resolve the requested QoS against the DIF's offered cubes;
2. look the destination application up in the replicated directory;
3. send ``M_CREATE /flowalloc`` *to the destination IPCP* (routed through
   the DIF by the RMTs along the way) carrying source app, QoS and the
   source connection-endpoint id;
4. the destination IPCP confirms the application is registered there,
   applies the access-control policy, creates its EFCP endpoint and an
   inbound :class:`~repro.core.flow.Flow` for the listening application;
5. the response binds the two EFCP endpoints; data may flow.

Directory misses are retried (dissemination may still be converging), then
reported as allocation failure — the paper's "if found" proviso.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, TYPE_CHECKING

from .efcp import EfcpConnection, EfcpPolicy
from .flow import MAX_SDU_BYTES, PENDING, Flow
from .names import Address, ApplicationName, PortId
from .pdu import ControlPdu, DataPdu
from .qos import QosCube, resolve_cube
from .riep import (M_CREATE, M_DELETE, RESULT_DENIED, RESULT_ERROR,
                   RESULT_NOT_FOUND, RiepMessage)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ipcp import Ipcp

FLOW_OBJ = "/flowalloc"


class FlowRecord:
    """State of one allocated flow endpoint inside the allocator."""

    __slots__ = ("flow", "local_cep", "remote_cep", "remote_addr", "efcp")

    def __init__(self, flow: Flow, local_cep: int) -> None:
        self.flow = flow
        self.local_cep = local_cep
        self.remote_cep: Optional[int] = None
        self.remote_addr: Optional[Address] = None
        self.efcp: Optional[EfcpConnection] = None


class FlowAllocator:
    """The flow-allocation task of one IPC process."""

    def __init__(self, ipcp: "Ipcp") -> None:
        self._ipcp = ipcp
        self._cep_ids = itertools.count(1)
        self._records: Dict[int, FlowRecord] = {}   # local cep -> record
        self.allocations_denied_admission = 0
        self.stray_pdus = 0
        # guaranteed-bandwidth admission state (policy: admission_capacity)
        self._committed_bps = 0.0
        self._demand_by_cep: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Outgoing allocation
    # ------------------------------------------------------------------
    def allocate(self, flow: Flow, retries_left: Optional[int] = None) -> None:
        """Drive allocation of ``flow`` (created by the system layer)."""
        ipcp = self._ipcp
        if flow.state != PENDING:
            return   # withdrawn while a retry waited
        if ipcp.address is None:
            flow.provider_failed("not-enrolled")
            return
        try:
            cube = resolve_cube(flow.qos, ipcp.dif.policies.qos_cubes)
        except LookupError as exc:
            flow.provider_failed(str(exc))
            return
        if retries_left is None:
            retries_left = ipcp.dif.policies.allocate_retries
        if not self._admit(cube):
            self.allocations_denied_admission += 1
            ipcp.tracer.count("flow.admission-denied")
            flow.provider_failed("admission-denied")
            return
        dst_addr = ipcp.directory.lookup(flow.remote_app)
        if dst_addr is None:
            self._retry_or_fail(flow, retries_left, "destination-unknown")
            return
        local_cep = next(self._cep_ids)
        # commit the bandwidth demand now so concurrent requests cannot
        # oversubscribe the budget while replies are in flight
        self._commit_admission(local_cep, cube)
        record = FlowRecord(flow, local_cep)
        record.remote_addr = dst_addr
        self._records[local_cep] = record
        value = {
            "src_app": str(flow.local_app),
            "dst_app": str(flow.remote_app),
            "qos": cube.name,
            "src_cep": local_cep,
            "src_addr": ipcp.address.parts,
        }
        message = RiepMessage(M_CREATE, obj=FLOW_OBJ, value=value)
        ipcp.invoke_table.new_request(
            message,
            lambda reply: self._on_allocate_reply(reply, record, cube,
                                                  retries_left))
        ipcp.send_mgmt_routed(dst_addr, message)

    def _retry_or_fail(self, flow: Flow, retries_left: int, reason: str) -> None:
        ipcp = self._ipcp
        if retries_left > 0:
            ipcp.engine.call_later(
                ipcp.dif.policies.allocate_retry_delay,
                self.allocate, flow, retries_left - 1,
                label="fa.retry")
            return
        flow.provider_failed(reason)

    def _on_allocate_reply(self, reply: Optional[RiepMessage],
                           record: FlowRecord, cube: QosCube,
                           retries_left: int) -> None:
        flow = record.flow
        if flow.state != PENDING:
            # withdrawn while the request was out: release the admission
            # here and the flow the far end made for it
            if reply is not None and reply.ok:
                record.remote_cep = int(reply.value["dst_cep"])
            self._deallocate(record)
            return
        if reply is None or not reply.ok:
            self._records.pop(record.local_cep, None)
            self._release_admission(record.local_cep)
            if reply is None:
                self._retry_or_fail(flow, retries_left, "timeout")
            elif reply.result == RESULT_NOT_FOUND:
                self._retry_or_fail(flow, retries_left, "destination-unknown")
            elif reply.result == RESULT_DENIED:
                why = (reply.value or {}).get("why")
                flow.provider_failed("admission-denied" if why == "admission"
                                     else "access-denied")
            else:
                flow.provider_failed("error")
            return
        record.remote_cep = int(reply.value["dst_cep"])
        self._bind(record, cube)
        flow.provider_allocated()

    # ------------------------------------------------------------------
    # Incoming allocation (destination side)
    # ------------------------------------------------------------------
    def handle_request(self, message: RiepMessage, src_addr: Optional[Address],
                       port_id: int) -> None:
        """Serve an inbound ``M_CREATE/M_DELETE /flowalloc``."""
        if message.opcode == M_CREATE:
            self._on_create(message, src_addr, port_id)
        elif message.opcode == M_DELETE:
            self._on_delete(message)

    def _on_create(self, message: RiepMessage, src_addr: Optional[Address],
                   port_id: int) -> None:
        ipcp = self._ipcp
        value = message.value
        dst_app = ApplicationName.parse(value["dst_app"])
        src_app = ApplicationName.parse(value["src_app"])
        listener = ipcp.local_app_listener(dst_app)
        if listener is None:
            ipcp.send_mgmt_routed_reply(src_addr, port_id,
                                        message.reply(result=RESULT_NOT_FOUND))
            return
        if not ipcp.dif.policies.access.allow(src_app, dst_app):
            ipcp.tracer.count("flow.denied")
            ipcp.tracer.log(ipcp.engine.now, "flow-denied",
                            src=str(src_app), dst=str(dst_app))
            ipcp.send_mgmt_routed_reply(src_addr, port_id,
                                        message.reply(result=RESULT_DENIED))
            return
        cube = ipcp.dif.policies.qos_cubes.get(value["qos"])
        if cube is None:
            ipcp.send_mgmt_routed_reply(src_addr, port_id,
                                        message.reply(result=RESULT_ERROR))
            return
        if not self._admit(cube):
            self.allocations_denied_admission += 1
            ipcp.tracer.count("flow.admission-denied")
            ipcp.send_mgmt_routed_reply(
                src_addr, port_id,
                message.reply(value={"why": "admission"},
                              result=RESULT_DENIED))
            return
        local_cep = next(self._cep_ids)
        flow = Flow(PortId(ipcp.next_port_id()), dst_app, src_app, cube,
                    ipcp.dif.name)
        record = FlowRecord(flow, local_cep)
        record.remote_cep = int(value["src_cep"])
        record.remote_addr = Address(*value["src_addr"])
        self._records[local_cep] = record
        self._bind(record, cube)
        flow.provider_allocated()
        reply = message.reply(value={"dst_cep": local_cep})
        ipcp.send_mgmt_routed_reply(record.remote_addr, port_id, reply)
        listener(flow)

    def _on_delete(self, message: RiepMessage) -> None:
        cep = int(message.value["cep"])
        record = self._records.pop(cep, None)
        if record is None:
            return
        self._release_admission(cep)
        if record.efcp is not None:
            record.efcp.close()
        record.flow.provider_released()

    # ------------------------------------------------------------------
    # Data path glue
    # ------------------------------------------------------------------
    def _admit(self, cube: Optional[QosCube]) -> bool:
        """Guaranteed-bandwidth admission check (§3.1, IntServ-style)."""
        capacity = self._ipcp.dif.policies.admission_capacity_bps
        if capacity is None or cube is None or cube.avg_bandwidth is None:
            return True
        return self._committed_bps + cube.avg_bandwidth <= capacity + 1e-9

    def _commit_admission(self, cep: int, cube: QosCube) -> None:
        demand = cube.avg_bandwidth or 0.0
        if demand > 0:
            self._committed_bps += demand
            self._demand_by_cep[cep] = demand

    def _release_admission(self, cep: int) -> None:
        demand = self._demand_by_cep.pop(cep, 0.0)
        self._committed_bps = max(0.0, self._committed_bps - demand)

    def committed_bandwidth_bps(self) -> float:
        """Sum of admitted guaranteed-bandwidth demands at this member."""
        return self._committed_bps

    def _bind(self, record: FlowRecord, cube: QosCube) -> None:
        ipcp = self._ipcp
        if record.local_cep not in self._demand_by_cep:
            self._commit_admission(record.local_cep, cube)
        assert record.remote_addr is not None and record.remote_cep is not None
        assert ipcp.address is not None
        policy = EfcpPolicy.for_cube(
            cube, **ipcp.dif.policies.efcp_overrides_for(cube.name))
        efcp = EfcpConnection(
            ipcp.engine, ipcp.address, record.remote_addr,
            record.local_cep, record.remote_cep, policy,
            output=ipcp.rmt.submit,
            deliver=record.flow.provider_deliver,
            priority=cube.priority, writable=record.flow.provider_writable)
        record.efcp = efcp
        record.flow.provider_bind(
            send_fn=efcp.send,
            dealloc_fn=lambda: self._deallocate(record), max_sdu=MAX_SDU_BYTES)

    def _deallocate(self, record: FlowRecord) -> None:
        ipcp = self._ipcp
        self._records.pop(record.local_cep, None)
        self._release_admission(record.local_cep)
        if record.efcp is not None:
            record.efcp.close()
        if record.remote_addr is not None and record.remote_cep is not None:
            message = RiepMessage(M_DELETE, obj=FLOW_OBJ,
                                  value={"cep": record.remote_cep})
            ipcp.send_mgmt_routed(record.remote_addr, message)

    def handle_data(self, pdu: DataPdu) -> None:
        """Demultiplex an inbound DTP PDU to its EFCP endpoint."""
        record = self._records.get(pdu.dst_cep)
        if record is None or record.efcp is None:
            self.stray_pdus += 1
            return
        record.efcp.handle_data(pdu)

    def handle_control(self, pdu: ControlPdu) -> None:
        """Demultiplex an inbound DTCP PDU to its EFCP endpoint."""
        record = self._records.get(pdu.dst_cep)
        if record is None or record.efcp is None:
            self.stray_pdus += 1
            return
        record.efcp.handle_control(pdu)

    # ------------------------------------------------------------------
    def active_flow_count(self) -> int:
        """Flows currently bound at this IPCP."""
        return len(self._records)

    def records(self) -> Dict[int, FlowRecord]:
        """Local CEP → record map (copy, for tests/metrics)."""
        return dict(self._records)
