"""The system: a host or router participating in IPC facilities.

A :class:`System` owns the IPC manager role of §3.1 for one chassis:

* it holds one :class:`~repro.core.shim.ShimIpcp` per physical interface
  (rank-0 facilities tailored to each medium);
* it holds one :class:`~repro.core.ipcp.Ipcp` per DIF the system is a
  member of — "any system that has multiple interfaces would have a
  separate IPC process for each interface [...] and a higher-level IPC
  process that performs not only multiplexing but also a relaying
  function" (§3.2);
* it exposes the application API: ``register_app`` and ``allocate_flow``
  by destination application *name* — applications never see addresses.

The system also orchestrates the recursion: enrolling an IPCP means
allocating a flow *from a lower provider* to an existing member's IPCP
name, then running the enrollment protocol over it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..sim.engine import Engine
from ..sim.node import Interface, Node
from ..sim.trace import Tracer
from .dif import Dif
from .directory import InterDifDirectory
from .flow import Flow
from .ipcp import Ipcp
from .names import ApplicationName, DifName, PortId
from .qos import QosCube
from .shim import ShimIpcp

InboundListener = Callable[[Flow], None]
Provider = Union[ShimIpcp, "_IpcpProvider"]


class SystemError_(RuntimeError):
    """Raised for system-level misconfiguration (name chosen to avoid
    shadowing the builtin ``SystemError``)."""


class _IpcpProvider:
    """Adapter presenting an :class:`Ipcp` through the provider interface
    (register/allocate), so DIFs stack on DIFs exactly as on shims."""

    def __init__(self, ipcp: Ipcp, port_ids: itertools.count) -> None:
        self._ipcp = ipcp
        self._port_ids = port_ids

    @property
    def name(self) -> DifName:
        return self._ipcp.dif.name

    def register_app(self, app: ApplicationName, listener: InboundListener) -> None:
        self._ipcp.register_local_app(app, listener)

    def unregister_app(self, app: ApplicationName) -> None:
        self._ipcp.unregister_local_app(app)

    def allocate_flow(self, src_app: ApplicationName, dst_app: ApplicationName,
                      qos: Optional[QosCube] = None) -> Flow:
        flow = Flow(PortId(next(self._port_ids)), src_app, dst_app,
                    qos or self._ipcp.dif.policies.qos_cubes.get("best-effort"),
                    self._ipcp.dif.name)
        # allocation proceeds asynchronously through the flow allocator
        self._ipcp.engine.call_soon(self._ipcp.flow_allocator.allocate, flow,
                                    label="fa.allocate")
        return flow


class System:
    """One participating system (host or router)."""

    def __init__(self, node: Node, idd: Optional[InterDifDirectory] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.node = node
        self.engine: Engine = node.engine
        self.name = node.name
        self.idd = idd if idd is not None else InterDifDirectory()
        self.tracer = tracer if tracer is not None else Tracer()
        self._port_ids = itertools.count(1)
        self._providers: Dict[DifName, Provider] = {}
        self._ipcps: Dict[DifName, Ipcp] = {}
        self._app_listeners: Dict[ApplicationName, InboundListener] = {}

    # ------------------------------------------------------------------
    # Facilities
    # ------------------------------------------------------------------
    def add_shim(self, interface: Interface,
                 dif_name: Optional[str] = None) -> ShimIpcp:
        """Create the rank-0 shim facility over one physical interface."""
        if dif_name is None:
            dif_name = f"shim:{interface.link.name}"
        name = DifName(dif_name)
        if name in self._providers:
            raise SystemError_(f"{self.name} already joined {name}")
        shim = ShimIpcp(self.engine, name, self.name, interface.end,
                        port_ids=self._port_ids)
        self._providers[name] = shim
        return shim

    def attach_provider(self, provider: Provider) -> None:
        """Adopt an externally built flow provider (e.g. a live-traffic
        socket shim) as one of this system's facilities.

        Anything already registered through :meth:`register_app` is
        re-registered on the new provider, so an application serving the
        simulated stack serves a freshly accepted socket connection with
        no extra wiring — the gateway's per-connection registration seam.
        """
        name = provider.name
        if name in self._providers:
            raise SystemError_(f"{self.name} already joined {name}")
        self._providers[name] = provider
        for app, listener in self._app_listeners.items():
            provider.register_app(app, listener)

    def detach_provider(self, dif_name: str) -> None:
        """Forget a facility attached via :meth:`attach_provider` (e.g.
        when its socket connection closes).  Unknown names are ignored —
        teardown must be idempotent."""
        self._providers.pop(DifName(dif_name), None)

    @property
    def port_id_counter(self) -> itertools.count:
        """The system-wide port-id allocator, for externally built
        providers that must share this system's port-id space."""
        return self._port_ids

    def create_ipcp(self, dif: Dif) -> Ipcp:
        """Instantiate this system's IPC process for ``dif`` (not yet
        enrolled) and expose it as a provider for higher layers."""
        if dif.name in self._providers:
            raise SystemError_(f"{self.name} already has an IPCP in {dif.name}")
        ipcp = Ipcp(self.engine, self.name, dif, tracer=self.tracer,
                    port_ids=self._port_ids)
        self._ipcps[dif.name] = ipcp
        self._providers[dif.name] = _IpcpProvider(ipcp, self._port_ids)
        return ipcp

    def ipcp(self, dif_name: str) -> Ipcp:
        """This system's IPCP in the named DIF."""
        return self._ipcps[DifName(dif_name)]

    def provider(self, dif_name: str) -> Provider:
        """The flow provider (shim or IPCP) for the named facility."""
        return self._providers[DifName(dif_name)]

    def provider_names(self) -> List[DifName]:
        """Facilities this system can allocate flows from."""
        return sorted(self._providers, key=str)

    # ------------------------------------------------------------------
    # Recursion plumbing: enrollment and adjacency over lower facilities
    # ------------------------------------------------------------------
    def publish_ipcp(self, dif_name: str, lower_dif: str) -> None:
        """Register the IPCP of ``dif_name`` as an application of
        ``lower_dif`` so peers can reach it to enroll or attach."""
        ipcp = self.ipcp(dif_name)
        lower = self._providers[DifName(lower_dif)]
        lower.register_app(
            ipcp.name,
            lambda flow: self._accept_lower_flow(ipcp, flow))

    def _accept_lower_flow(self, ipcp: Ipcp, flow: Flow) -> None:
        """Destination-side: adopt an inbound (N-1) flow as an RMT port."""
        ipcp.add_lower_flow(flow)

    def enroll(self, dif_name: str, member_app: ApplicationName,
               lower_dif: str, region_hint: Optional[Sequence[int]] = None,
               done: Optional[Callable[[bool, str], None]] = None) -> None:
        """Join ``dif_name`` via ``member_app`` reachable over ``lower_dif``.

        Allocates the (N-1) flow, then runs the §5.2 enrollment exchange.
        Completion is signalled through ``done(ok, reason)``.
        """
        ipcp = self.ipcp(dif_name)
        lower = self._providers[DifName(lower_dif)]
        flow = lower.allocate_flow(ipcp.name, member_app,
                                   qos=ipcp.dif.policies.lower_flow_cube)

        def on_allocated(f: Flow) -> None:
            port_id = ipcp.add_lower_flow(f)
            ipcp.enrollment.start_join(port_id, region_hint, done)

        def on_failed(_f: Flow, reason: str) -> None:
            if done is not None:
                done(False, f"lower-flow: {reason}")

        flow.on_allocated = on_allocated
        flow.on_failed = on_failed

    def connect_neighbor(self, dif_name: str, member_app: ApplicationName,
                         lower_dif: str,
                         done: Optional[Callable[[bool, str], None]] = None) -> None:
        """Bring up an additional attachment (multihoming/handover path)
        from this system's enrolled IPCP to another member."""
        ipcp = self.ipcp(dif_name)
        lower = self._providers[DifName(lower_dif)]
        flow = lower.allocate_flow(ipcp.name, member_app,
                                   qos=ipcp.dif.policies.lower_flow_cube)

        def on_allocated(f: Flow) -> None:
            port_id = ipcp.add_lower_flow(f)
            ipcp.enrollment.start_adjacency(port_id, done)

        def on_failed(_f: Flow, reason: str) -> None:
            if done is not None:
                done(False, f"lower-flow: {reason}")

        flow.on_allocated = on_allocated
        flow.on_failed = on_failed

    # ------------------------------------------------------------------
    # Application API (§3.1): names in, port ids out
    # ------------------------------------------------------------------
    def register_app(self, app: ApplicationName, listener: InboundListener,
                     dif_names: Optional[Sequence[str]] = None) -> None:
        """Register an application on this system.

        The application becomes reachable through the named DIFs (default:
        every non-shim DIF this system is a member of) and is recorded in
        the inter-DIF directory.
        """
        self._app_listeners[app] = listener
        targets = ([DifName(n) for n in dif_names] if dif_names is not None
                   else list(self._ipcps))
        for dif_name in targets:
            provider = self._providers[dif_name]
            provider.register_app(app, listener)
            self.idd.register(app, dif_name)

    def unregister_app(self, app: ApplicationName,
                       dif_names: Optional[Sequence[str]] = None) -> None:
        """Withdraw an application registration."""
        self._app_listeners.pop(app, None)
        targets = ([DifName(n) for n in dif_names] if dif_names is not None
                   else list(self._ipcps))
        for dif_name in targets:
            provider = self._providers.get(dif_name)
            if provider is not None:
                provider.unregister_app(app)
            self.idd.unregister(app, dif_name)

    def allocate_flow(self, src_app: ApplicationName, dst_app: ApplicationName,
                      qos: Optional[QosCube] = None,
                      dif_name: Optional[str] = None) -> Flow:
        """Allocate a flow to ``dst_app`` by name (§3.1).

        The IPC manager chooses the facility: an explicit ``dif_name``, or
        the first inter-DIF-directory candidate this system is a member of.
        """
        if dif_name is not None:
            provider = self._providers.get(DifName(dif_name))
            if provider is None:
                raise SystemError_(f"{self.name} is not in DIF {dif_name!r}")
            return provider.allocate_flow(src_app, dst_app, qos)
        for candidate in self.idd.candidates(dst_app):
            provider = self._providers.get(candidate)
            if provider is not None:
                return provider.allocate_flow(src_app, dst_app, qos)
        # no known facility: fail the flow synchronously but uniformly
        flow = Flow(PortId(next(self._port_ids)), src_app, dst_app,
                    qos or QosCube("best-effort"), DifName("unknown"))
        self.engine.call_soon(flow.provider_failed, "no-common-dif",
                              label="fa.fail")
        return flow

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<System {self.name} difs={sorted(str(n) for n in self._ipcps)} "
                f"shims={len(self._providers) - len(self._ipcps)}>")
