"""Socket-vs-simulated transcript conformance.

The gateway's correctness claim is not "echo works over TCP" — it is
that moving the stack onto real sockets changes *nothing above the shim
boundary*.  The receipt is a protocol transcript: every shim frame
delivered in each direction (kind, flow id, declared size, and the
codec-canonical encoding of the payload — DataPdus, ControlPdus, RIEP
exchanges, allocation handshakes), in delivery order.  One scripted
echo/RPC session is run twice from the same :class:`SessionSpec`:

* **simulated** — two systems joined by an ordinary simulated link, the
  DIF built by the usual orchestrated enrollment;
* **socket** — the same two systems in one process, joined by a real
  loopback TCP connection through :class:`SocketShim`, the engine
  driven by :class:`AsyncEngineDriver` in fast (deterministic replay)
  mode.

The transcripts must be *identical* — same frames, same order, same
bytes-level payload encodings — and their fingerprint is pinned by a
golden test exactly like ``tests/test_trace_golden.py`` pins the
scenario traces.  The one permitted difference is the clock: socket
hops take zero simulated time while the simulated link charges
serialization + propagation, so timestamps never enter the transcript.

Determinism requires quieting the stack's periodic background traffic
(keepalives, anti-entropy refresh) and lock-stepping the session: each
action waits for its observable effect before the next begins, so frame
order per direction is fixed by causality, not by timing.
"""

from __future__ import annotations

import asyncio
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps.echo import EchoClient, EchoServer
from ..apps.rpc import RpcClient, RpcServer
from ..core.codec import encode
from ..core.dif import Dif, DifPolicies
from ..core.directory import InterDifDirectory
from ..core.fabric import (Orchestrator, add_shims, build_dif_over,
                           make_systems, run_until)
from ..core.system import System
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.node import Node
from ..sim.trace import Tracer
from .driver import AsyncEngineDriver
from .shim import GATEWAY_CAPACITY_BPS, SocketShim
from .transport import open_tcp_channel, start_tcp_server

_DIF = "gw"
_SHIM = "shim:gw-wire"


class GatewayConformanceError(RuntimeError):
    """A conformance session failed to reach a scripted milestone."""


class SessionSpec:
    """The scripted echo/RPC session both runs execute."""

    __slots__ = ("pings", "rpc_calls", "payload", "settle")

    def __init__(self, pings: int = 3, rpc_calls: int = 2,
                 payload: int = 48, settle: float = 0.5) -> None:
        self.pings = pings
        self.rpc_calls = rpc_calls
        self.payload = payload
        self.settle = settle


def _quiet_policies() -> DifPolicies:
    """DIF policies with all periodic background traffic pushed beyond
    the session horizon, so the transcript is pure causal traffic."""
    return DifPolicies(keepalive_interval=3600.0, refresh_interval=None)


def _rpc_sum(params: dict) -> dict:
    return {"sum": sum(params.get("values", []))}


# ----------------------------------------------------------------------
# Transcript capture
# ----------------------------------------------------------------------
def _normalize(frame: Tuple[str, int, Any, int]) -> Tuple[Any, ...]:
    kind, flow_id, payload, size = frame
    return (kind, flow_id, size, encode(payload))


def _tap_end(end: Any, out: List[Tuple[Any, ...]]) -> None:
    """Wrap a link end's receiver so every delivered frame is recorded
    (normalized) before the shim sees it."""
    inner = end._receiver

    def tapped(frame: Any, size: int) -> None:
        out.append(_normalize(frame))
        if inner is not None:
            inner(frame, size)
    end.attach(tapped)


def transcript_fingerprint(transcript: Dict[str, Any]) -> str:
    """SHA-256 over the canonical repr of a transcript.  ``repr`` of
    the frame tuples (str, int, the payload's encoded bytes) is
    deterministic across runs and platforms; the codec's canonical
    encodings make the payloads byte-stable."""
    body = repr((sorted(transcript),
                 [transcript[key] for key in sorted(transcript)]))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The scripted session (shared by both runners)
# ----------------------------------------------------------------------
class _Step:
    __slots__ = ("label", "action", "until", "timeout", "settle")

    def __init__(self, label: str,
                 action: Optional[Callable[[], None]] = None,
                 until: Optional[Callable[[], bool]] = None,
                 timeout: float = 15.0,
                 settle: Optional[float] = None) -> None:
        self.label = label
        self.action = action
        self.until = until
        self.timeout = timeout
        self.settle = settle


def _session_steps(spec: SessionSpec, sys_client: System, sys_server: System,
                   state: Dict[str, Any]) -> List[_Step]:
    """The lock-step session script over two already-enrolled systems."""
    steps: List[_Step] = []

    def register_apps() -> None:
        state["echo_server"] = EchoServer(sys_server, dif_names=[_DIF])
        rpc = RpcServer(sys_server, dif_names=[_DIF])
        rpc.register_method("add", _rpc_sum)
        state["rpc_server"] = rpc
    steps.append(_Step("register server apps", action=register_apps))
    steps.append(_Step(f"settle {spec.settle}s", settle=spec.settle))

    def alloc_echo() -> None:
        state["echo"] = EchoClient(sys_client, dif_name=_DIF)
    steps.append(_Step("allocate echo flow", action=alloc_echo,
                       until=lambda: state["echo"].ready))

    for index in range(spec.pings):
        steps.append(_Step(
            f"ping {index + 1}/{spec.pings}",
            action=lambda: state["echo"].ping(spec.payload),
            until=lambda want=index + 1: state["echo"].replies >= want))

    def alloc_rpc() -> None:
        state["rpc"] = RpcClient(sys_client, dif_name=_DIF)
    steps.append(_Step("allocate rpc flow", action=alloc_rpc,
                       until=lambda: state["rpc"].ready))

    for index in range(spec.rpc_calls):
        def call(index: int = index) -> None:
            state["rpc"].call("add", {"values": [index, index + 1]},
                              lambda reply: None)
        steps.append(_Step(
            f"rpc call {index + 1}/{spec.rpc_calls}", action=call,
            until=lambda want=index + 1: state["rpc"].responses >= want))

    def teardown() -> None:
        state["echo"].flow.deallocate()
        state["rpc"].flow.deallocate()
    steps.append(_Step("deallocate flows", action=teardown))
    steps.append(_Step("drain teardown", settle=0.2))
    return steps


# ----------------------------------------------------------------------
# Runner 1: the simulated reference
# ----------------------------------------------------------------------
def run_simulated_session(spec: Optional[SessionSpec] = None
                          ) -> Dict[str, Any]:
    """Run the session over a simulated link; returns the transcript."""
    spec = spec or SessionSpec()
    network = Network(seed=0)
    network.add_node("client")
    network.add_node("server")
    network.connect("client", "server", capacity_bps=GATEWAY_CAPACITY_BPS,
                    delay=0.001, name="gw-wire")
    systems = make_systems(network)
    add_shims(systems, network)

    records: Dict[str, List[Tuple[Any, ...]]] = {"c2s": [], "s2c": []}
    link = network.links["gw-wire"]
    _tap_end(link.ends[0], records["s2c"])   # delivered at the client end
    _tap_end(link.ends[1], records["c2s"])   # delivered at the server end

    orchestrator = Orchestrator(network)
    dif = Dif(_DIF, policies=_quiet_policies())
    build_dif_over(orchestrator, dif, systems,
                   [("server", "client", _SHIM)], bootstrap="server",
                   settle=spec.settle)
    orchestrator.run(timeout=60.0)

    state: Dict[str, Any] = {}
    for step in _session_steps(spec, systems["client"], systems["server"],
                               state):
        if step.settle is not None:
            network.run(until=network.engine.now + step.settle)
            continue
        if step.action is not None:
            step.action()
        if step.until is not None:
            if not run_until(network, step.until, timeout=step.timeout):
                raise GatewayConformanceError(
                    f"simulated session stalled at: {step.label}")
    return {"c2s": records["c2s"], "s2c": records["s2c"]}


# ----------------------------------------------------------------------
# Runner 2: the socket run
# ----------------------------------------------------------------------
def run_socket_session(spec: Optional[SessionSpec] = None
                       ) -> Dict[str, Any]:
    """Run the identical session over a real loopback TCP connection;
    returns the transcript (plus the driver's replay journal length
    under ``_journal_len`` — stripped before fingerprinting)."""
    return asyncio.run(_socket_session(spec or SessionSpec()))


async def _socket_session(spec: SessionSpec) -> Dict[str, Any]:
    engine = Engine()
    driver = AsyncEngineDriver(engine, mode="fast", record=True)
    idd = InterDifDirectory()
    tracer = Tracer()
    sys_client = System(Node(engine, "client"), idd=idd, tracer=tracer)
    sys_server = System(Node(engine, "server"), idd=idd, tracer=tracer)

    accepted: List[Any] = []
    tcp_server = await start_tcp_server(
        "127.0.0.1", 0, lambda channel, peer: accepted.append(channel))
    port = tcp_server.sockets[0].getsockname()[1]
    client_channel = await open_tcp_channel("127.0.0.1", port)
    for _ in range(400):
        if accepted:
            break
        await asyncio.sleep(0.005)
    if not accepted:
        raise GatewayConformanceError("loopback accept timed out")

    # same sides as the simulated link: client drives ends[0] (even
    # flow ids), server drives ends[1]
    shim_client = SocketShim(engine, _SHIM, "client", client_channel,
                             side=0, driver=driver,
                             port_ids=sys_client.port_id_counter,
                             tracked=True)
    shim_server = SocketShim(engine, _SHIM, "server", accepted[0],
                             side=1, driver=driver,
                             port_ids=sys_server.port_id_counter,
                             tracked=True)
    sys_client.attach_provider(shim_client)
    sys_server.attach_provider(shim_server)

    records: Dict[str, List[Tuple[Any, ...]]] = {"c2s": [], "s2c": []}
    _tap_end(shim_client.link.ends[0], records["s2c"])
    _tap_end(shim_server.link.ends[1], records["c2s"])

    try:
        orchestrator = Orchestrator(engine)
        dif = Dif(_DIF, policies=_quiet_policies())
        build_dif_over(orchestrator, dif,
                       {"client": sys_client, "server": sys_server},
                       [("server", "client", _SHIM)], bootstrap="server",
                       settle=spec.settle)
        is_done = orchestrator.start()
        orchestrator.check(await driver.run_until(is_done, timeout=60.0))

        state: Dict[str, Any] = {}
        for step in _session_steps(spec, sys_client, sys_server, state):
            if step.settle is not None:
                await driver.settle(step.settle)
                continue
            if step.action is not None:
                step.action()
            if step.until is not None:
                if not await driver.run_until(step.until,
                                              timeout=step.timeout):
                    raise GatewayConformanceError(
                        f"socket session stalled at: {step.label} "
                        f"(inflight={driver.inflight}, "
                        f"wire_errors={shim_server.wire_errors + shim_client.wire_errors})")
    finally:
        tcp_server.close()
        await tcp_server.wait_closed()
        client_channel.close()
        await asyncio.sleep(0)

    journal = driver.journal or []
    return {"c2s": records["c2s"], "s2c": records["s2c"],
            "_journal_len": len(journal)}


def strip_private(transcript: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``_``-prefixed diagnostic keys before comparison."""
    return {key: value for key, value in transcript.items()
            if not key.startswith("_")}
