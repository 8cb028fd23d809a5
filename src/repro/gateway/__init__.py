"""Live-traffic gateway: the core stack over real sockets.

The paper's central claim is that a DIF runs unchanged over any lower
medium via shim DIFs (§4).  This package cashes that claim in for real
operating-system sockets: a :class:`SocketShim` presents one UDP peer or
one length-prefixed TCP connection through the exact provider interface
the simulated :class:`~repro.core.shim.ShimIpcp` presents, an
:class:`AsyncEngineDriver` maps the discrete-event engine onto an
asyncio event loop, and a :class:`GatewayServer` fronts the existing
``apps/`` services (echo, RPC, pubsub) behind flow allocation by name —
the stack above the shim never learns which medium it is on.

The conformance harness (:mod:`repro.gateway.conformance`) is the
receipt: a socket-run echo/RPC session produces a protocol transcript
(shim frame kinds, flow-allocation sequence, RIEP exchanges) identical
to the simulated run of the same spec, pinned by a golden fingerprint.
"""

from .conformance import (GatewayConformanceError, SessionSpec,
                          run_simulated_session, run_socket_session,
                          transcript_fingerprint)
from .driver import AsyncEngineDriver
from .load import run_load
from .server import GatewayServer
from .shim import GATEWAY_CAPACITY_BPS, SocketLink, SocketShim
from .wire import (MAX_FRAME_BYTES, StreamFramingError, StreamUnframer,
                   decode_shim_frame, frame_to_wire)

__all__ = [
    "AsyncEngineDriver",
    "GATEWAY_CAPACITY_BPS",
    "GatewayConformanceError",
    "GatewayServer",
    "MAX_FRAME_BYTES",
    "SessionSpec",
    "SocketLink",
    "SocketShim",
    "StreamFramingError",
    "StreamUnframer",
    "decode_shim_frame",
    "frame_to_wire",
    "run_load",
    "run_simulated_session",
    "run_socket_session",
    "transcript_fingerprint",
]
