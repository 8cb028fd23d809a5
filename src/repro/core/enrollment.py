"""Enrollment: how an IPC process joins a DIF (§5.2).

"For a new IPC process x to join an existing (N)-DIF, x has to be
connected to the (N)-DIF by an underlying (N-1)-DIF. [...] x attempts to
establish a connection to y.  Once this connection is established, y
authenticates x.  If the authentication is successful, y assigns x an
(N)-address, and x becomes a member of the (N)-DIF."

The exchange here, carried hop-scoped over the freshly allocated (N-1)
flow (no (N)-address exists yet):

====  =========  ==================================================
step  direction  message
====  =========  ==================================================
1     x → y      ``M_CONNECT /enrollment`` {name, dif, region}
2     y → x      ``M_CONNECT_R`` {challenge, address of y}
3     x → y      ``M_START /enrollment/auth`` {credentials, name, region}
4     y → x      ``M_START_R`` {assigned address, LSDB + directory sync}
====  =========  ==================================================

A member that already holds an address uses the shorter *adjacency*
handshake (``M_CONNECT`` carrying its address) to bring up an additional
attachment — this is what multihoming and handover use, and note that the
connection established here "is purely for purposes of enrollment. It has
no effect on the nature of forwarding decisions."
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from .dif import DifError
from .names import Address
from .riep import (M_CONNECT, M_START, RESULT_DENIED, RESULT_ERROR, RESULT_OK,
                   RiepMessage)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ipcp import Ipcp

ENROLL_OBJ = "/enrollment"
AUTH_OBJ = "/enrollment/auth"
DEPART_OBJ = "/enrollment/depart"

DoneFn = Callable[[bool, str], None]


class EnrollmentTask:
    """Both sides of the enrollment and adjacency protocols for one IPCP."""

    def __init__(self, ipcp: "Ipcp") -> None:
        self._ipcp = ipcp
        # authenticator side: port id -> (joiner name text, challenge, region)
        self._pending_auth: Dict[int, Tuple[str, Optional[str], Tuple[int, ...]]] = {}
        # authenticator side: completed enrollments, replayed on duplicate
        # M_START (the joiner retries when our reply is lost)
        self._completed: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Joiner side
    # ------------------------------------------------------------------
    def start_join(self, port_id: int,
                   region_hint: Optional[Sequence[int]] = None,
                   done: Optional[DoneFn] = None) -> None:
        """Begin enrollment through the (N-1) flow on ``port_id``."""
        ipcp = self._ipcp
        value = {
            "name": str(ipcp.name),
            "dif": str(ipcp.dif.name),
            "region": tuple(region_hint) if region_hint else None,
            "address": ipcp.address.parts if ipcp.address is not None else None,
        }
        sent = self._request_with_retry(
            port_id, lambda: RiepMessage(M_CONNECT, obj=ENROLL_OBJ, value=value),
            lambda reply: self._on_connect_reply(reply, port_id,
                                                 region_hint, done),
            self._ipcp.dif.policies.enroll_attempts)
        if not sent:
            self._fail(done, "no-port")

    def _request_with_retry(self, port_id: int,
                            make_message: "Callable[[], RiepMessage]",
                            handler: "Callable[[Optional[RiepMessage]], None]",
                            attempts: int) -> bool:
        """Send a hop-scoped RIEP request, retrying on timeout.

        Each attempt is a fresh message with a new invoke id (the medium
        below enrollment offers no delivery guarantees — §5.2's connection
        is built from scratch here).
        """
        ipcp = self._ipcp

        def on_reply(reply: Optional[RiepMessage]) -> None:
            if reply is None and attempts > 1:
                self._request_with_retry(port_id, make_message, handler,
                                         attempts - 1)
                return
            handler(reply)

        message = make_message()
        ipcp.invoke_table.new_request(message, on_reply)
        return ipcp.send_mgmt_on_port(port_id, message)

    def start_adjacency(self, port_id: int,
                        done: Optional[DoneFn] = None) -> None:
        """Bring up an extra attachment to a member; requires an address."""
        if self._ipcp.address is None:
            self._fail(done, "not-enrolled")
            return
        self.start_join(port_id, None, done)

    def _on_connect_reply(self, reply: Optional[RiepMessage], port_id: int,
                          region_hint: Optional[Sequence[int]],
                          done: Optional[DoneFn]) -> None:
        ipcp = self._ipcp
        if reply is None:
            self._fail(done, "timeout")
            return
        if not reply.ok:
            self._fail(done, "denied")
            return
        peer_parts = reply.value.get("address")
        peer_addr = Address(*peer_parts) if peer_parts else None
        if reply.value.get("adjacency"):
            # short handshake: both sides already members
            if peer_addr is not None:
                ipcp.bind_neighbor(port_id, peer_addr)
            if done is not None:
                done(True, "adjacency")
            return
        challenge = reply.value.get("challenge")
        credentials = ipcp.dif.policies.auth.credentials(challenge)
        value = {
            "name": str(ipcp.name),
            "credentials": credentials,
            "region": tuple(region_hint) if region_hint else None,
        }
        self._request_with_retry(
            port_id, lambda: RiepMessage(M_START, obj=AUTH_OBJ, value=value),
            lambda r: self._on_auth_reply(r, port_id, peer_addr, done),
            ipcp.dif.policies.enroll_attempts)

    def _on_auth_reply(self, reply: Optional[RiepMessage], port_id: int,
                       peer_addr: Optional[Address],
                       done: Optional[DoneFn]) -> None:
        ipcp = self._ipcp
        if reply is None:
            self._fail(done, "timeout")
            return
        if not reply.ok:
            self._fail(done, "auth-denied")
            return
        address = Address(*reply.value["address"])
        ipcp.set_address(address)
        ipcp.dif.register_member(address, ipcp)
        ipcp.routing.load_lsdb(reply.value.get("lsdb", []))
        ipcp.directory.load_snapshot(reply.value.get("dir", []))
        if peer_addr is not None:
            ipcp.bind_neighbor(port_id, peer_addr)
        ipcp.directory.announce_all()
        ipcp.tracer.log(ipcp.engine.now, "enrolled",
                        ipcp=str(ipcp.name), address=str(address))
        if done is not None:
            done(True, "enrolled")

    def _fail(self, done: Optional[DoneFn], reason: str) -> None:
        self._ipcp.tracer.count("enrollment.failed")
        if done is not None:
            done(False, reason)

    # ------------------------------------------------------------------
    # Authenticator (member) side
    # ------------------------------------------------------------------
    def handle(self, message: RiepMessage, port_id: int) -> None:
        """Dispatch an inbound enrollment-object message."""
        if message.opcode == M_CONNECT and message.obj == ENROLL_OBJ:
            self._on_connect(message, port_id)
        elif message.opcode == M_START and message.obj == AUTH_OBJ:
            self._on_auth(message, port_id)
        elif message.obj == DEPART_OBJ:
            self._on_depart(message, port_id)

    def _on_connect(self, message: RiepMessage, port_id: int) -> None:
        ipcp = self._ipcp
        if message.value.get("dif") != str(ipcp.dif.name):
            ipcp.send_mgmt_on_port(port_id, message.reply(result=RESULT_DENIED))
            return
        if ipcp.address is None:
            # cannot authenticate joiners before being enrolled ourselves
            ipcp.send_mgmt_on_port(port_id, message.reply(result=RESULT_ERROR))
            return
        joiner_addr_parts = message.value.get("address")
        if joiner_addr_parts:
            # adjacency handshake between two existing members
            peer = Address(*joiner_addr_parts)
            ipcp.bind_neighbor(port_id, peer)
            reply = message.reply(value={"address": ipcp.address.parts,
                                         "adjacency": True})
            ipcp.send_mgmt_on_port(port_id, reply)
            return
        challenge = ipcp.dif.policies.auth.make_challenge()
        region = tuple(message.value.get("region") or ())
        self._pending_auth[port_id] = (message.value.get("name", "?"),
                                       challenge, region)
        reply = message.reply(value={"challenge": challenge,
                                     "address": ipcp.address.parts})
        ipcp.send_mgmt_on_port(port_id, reply)

    def _on_auth(self, message: RiepMessage, port_id: int) -> None:
        ipcp = self._ipcp
        replay = self._completed.get(port_id)
        if replay is not None:
            ipcp.send_mgmt_on_port(port_id, message.reply(value=replay))
            return
        pending = self._pending_auth.pop(port_id, None)
        challenge = pending[1] if pending else None
        region = pending[2] if pending else ()
        presented = message.value.get("credentials")
        if not ipcp.dif.policies.auth.verify(presented, challenge):
            ipcp.dif.enrollments_denied += 1
            ipcp.tracer.count("enrollment.denied")
            ipcp.tracer.log(ipcp.engine.now, "enrollment-denied",
                            member=str(ipcp.name),
                            joiner=message.value.get("name", "?"))
            ipcp.send_mgmt_on_port(port_id, message.reply(result=RESULT_DENIED))
            return
        try:
            address = ipcp.dif.assign_address(region or None)
        except DifError as exc:
            ipcp.send_mgmt_on_port(
                port_id, message.reply(value={"error": str(exc)},
                                       result=RESULT_ERROR))
            return
        ipcp.dif.enrollments_accepted += 1
        value = {
            "address": address.parts,
            "lsdb": ipcp.routing.sync_lsdb(),
            "dir": ipcp.directory.sync_snapshot(),
        }
        self._completed[port_id] = value
        reply = message.reply(value=value)
        # the LSDB is most of the reply and its LSA values never change:
        # charge the empty list plus each LSA's cached size instead of
        # re-walking every one for every joiner (this must equal the full
        # walk — wire size sets the serialization time)
        reply._size_cache = (
            message.reply(value=dict(value, lsdb=[])).estimate_size()
            + ipcp.routing.sync_lsdb_size())
        ipcp.send_mgmt_on_port(port_id, reply)
        ipcp.bind_neighbor(port_id, address)
        ipcp.tracer.log(ipcp.engine.now, "enrollment-accepted",
                        member=str(ipcp.name),
                        joiner=message.value.get("name", "?"),
                        address=str(address))

    # ------------------------------------------------------------------
    # Departure
    # ------------------------------------------------------------------
    def announce_departure(self) -> None:
        """Tell every neighbor this member is leaving (graceful hand-off)."""
        ipcp = self._ipcp
        if ipcp.address is None:
            return
        message = RiepMessage(M_START, obj=DEPART_OBJ,
                              value={"address": ipcp.address.parts})
        for neighbor in ipcp.rmt.neighbors():
            port = ipcp.first_alive_port_to(neighbor)
            if port is not None:
                ipcp.send_mgmt_on_port(port, message)

    def _on_depart(self, message: RiepMessage, port_id: int) -> None:
        ipcp = self._ipcp
        departed = Address(*message.value["address"])
        ipcp.routing.neighbor_down(departed)
        ipcp.directory.forget_origin(departed)
        ipcp.drop_ports_to(departed)
