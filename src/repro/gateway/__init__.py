"""Live-traffic gateway: the core stack over real sockets.

The paper's central claim is that a DIF runs unchanged over any lower
medium via shim DIFs (§4).  This package cashes that claim in for real
operating-system sockets: a :class:`~repro.gateway.shim.SocketShim`
presents one UDP peer or one length-prefixed TCP connection through the
exact provider interface the simulated :class:`~repro.core.shim.ShimIpcp`
presents, an :class:`~repro.gateway.driver.AsyncEngineDriver` maps the
discrete-event engine onto an asyncio event loop, and a
:class:`~repro.gateway.server.GatewayServer` fronts the existing
``apps/`` services (echo, RPC, pubsub) behind flow allocation by name —
the stack above the shim never learns which medium it is on.

The conformance harness (:mod:`repro.gateway.conformance`) is the
receipt: a socket-run echo/RPC session produces a protocol transcript
(shim frame kinds, flow-allocation sequence, RIEP exchanges) identical
to the simulated run of the same spec, pinned by a golden fingerprint.

The package imports none of its modules: ``gateway serve`` loads the
server's, never the conformance harness or the load client.
"""
