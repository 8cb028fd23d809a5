"""Pluggable fault injectors.

Each injector is an engine-scheduled actor: :meth:`FaultInjector.arm`
schedules its phases on the simulation engine, and the phases drive the
*existing* machinery — :meth:`~repro.sim.link.Link.fail`/``repair`` for
outages, loss/delay/capacity knobs for degradation,
:attr:`~repro.sim.link.Link.conditions` swaps for the network-condition
windows (jitter storm, bandwidth squeeze, corruption storm, reorder
burst), and :meth:`~repro.core.ipcp.Ipcp.crash`/``restart`` plus §5.2
re-enrollment for node failures.  Every phase is recorded in the network tracer's event
log so runs can be fingerprinted byte-for-byte (determinism tests) and
assertions can be made about the fault timeline.

Injectors are stack-agnostic: a :class:`FaultContext` adapts them to the
recursive-IPC stack, the IP baseline, or a bare :class:`Network` (the
``examples/fault_storm.py`` usage).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.link import (BandwidthShaper, CorruptionModel, Link,
                        LinkConditions, NormalJitter, ReorderModel,
                        UniformJitter, UniformLoss)
from ..sim.network import Network
from .spec import FaultSpec, SpecError


class FaultContext:
    """What an injector may touch: the network, plus stack-specific hooks.

    Parameters
    ----------
    network:
        The simulated plant (links, engine, tracer).
    built:
        A :class:`~repro.scenarios.runner.RinaStack` when injecting into
        the recursive-IPC stack (enables crash/re-enrollment); None for
        the IP baseline or bare networks.
    on_topology_change:
        Called after every administrative link up/down — the IP runner
        hooks routing reconvergence here; the IPC stack needs nothing
        (keepalives and link-state flooding notice on their own).
    """

    def __init__(self, network: Network, built: Optional[Any] = None,
                 on_topology_change: Optional[Callable[[], None]] = None) -> None:
        self.network = network
        self.engine = network.engine
        self.tracer = network.tracer
        self.built = built
        self._on_topology_change = on_topology_change
        self._holds: Dict[str, int] = {}   # link name → injector down-holds

    # -- plumbing ------------------------------------------------------
    def log(self, kind: str, **fields: Any) -> None:
        self.tracer.log(self.engine.now, kind, **fields)

    def topology_changed(self) -> None:
        if self._on_topology_change is not None:
            self._on_topology_change()

    # -- shared link down-state ----------------------------------------
    def fail_link(self, link: Link) -> None:
        """Take a link down on behalf of one injector (refcounted: with
        overlapping fault windows, the link stays down until *every*
        injector holding it has released it)."""
        self._holds[link.name] = self._holds.get(link.name, 0) + 1
        if self._holds[link.name] == 1:
            link.fail()

    def repair_link(self, link: Link) -> None:
        """Release one injector's hold; repairs only when no other fault
        is still holding the link down."""
        remaining = self._holds.get(link.name, 0) - 1
        self._holds[link.name] = max(0, remaining)
        if self._holds[link.name] == 0:
            link.repair()

    # -- target resolution ---------------------------------------------
    def resolve_link(self, target: str) -> Link:
        """A link by exact name, or by an ``a--b`` node pair."""
        link = self.network.links.get(target)
        if link is not None:
            return link
        if "--" in target:
            a, b = target.split("--", 1)
            try:
                return self.network.link_between(a, b)
            except KeyError:
                pass
        raise SpecError(f"no such link {target!r}")

    def links_of_node(self, name: str) -> List[Link]:
        """Every physical link attached to ``name``."""
        if name not in self.network.nodes:
            raise SpecError(f"no such node {name!r}")
        return [iface.link for iface in self.network.node(name).interfaces()]

    def cut_links(self, group: Sequence[str]) -> List[Link]:
        """Links crossing the bipartition (``group`` vs the rest).

        Iterates the links themselves, not the (simple) topology graph —
        parallel links between one node pair (the multihoming case) must
        all be cut or the partition never partitions.
        """
        inside = set(group)
        unknown = inside - set(self.network.nodes)
        if unknown:
            raise SpecError(f"partition group references unknown nodes "
                            f"{sorted(unknown)}")
        crossing = []
        for link in self.network.links.values():
            a, b = self.network.endpoints_of(link)
            if (a in inside) != (b in inside):
                crossing.append(link)
        return crossing

    # -- stack-specific: node crash / restart --------------------------
    def crash_node(self, name: str) -> None:
        """Lose the node's IPC state (recursive stack only; the IP
        baseline keeps no per-node protocol state worth crashing)."""
        if self.built is None:
            return
        system = self.built.systems.get(name)
        if system is None:
            return
        for layer in self.built.layer_order:
            if name in self.built.layer_members[layer]:
                system.ipcp(layer).crash()

    def restart_node(self, name: str,
                     done: Optional[Callable[[bool, str], None]] = None) -> None:
        """Bring the node's IPCPs back and re-enroll them bottom-up.

        Per layer (lowest first, since a higher layer's adjacencies may
        ride the one below): re-enroll through the first spec adjacency
        attaching this node to a partner, then bring the node's remaining
        spec adjacencies back up with the shorter §5.2 adjacency handshake
        — exactly the sequence the original stack build used.
        """
        if self.built is None:
            if done is not None:
                done(True, "ip-stateless")
            return
        system = self.built.systems.get(name)
        if system is None:
            if done is not None:
                done(False, "no-system")
            return
        layers = [layer for layer in self.built.layer_order
                  if name in self.built.layer_members[layer]]
        for layer in layers:
            system.ipcp(layer).restart()

        # (kind, layer, member_app, lower): one enroll then the connects,
        # per layer, in stack order
        steps: List[Tuple[str, str, Any, str]] = []
        for layer in layers:
            edges = self._node_edges(layer, name)
            if not edges:
                continue
            steps.append(("enroll", layer) + edges[0])
            for edge in edges[1:]:
                steps.append(("connect", layer) + edge)

        def run_step(index: int, ok: bool, reason: str) -> None:
            if not ok:
                self.log("fault.reenroll-failed", node=name,
                         step=steps[index - 1][:2] if index else (),
                         reason=reason)
                if done is not None:
                    done(False, reason)
                return
            if index >= len(steps):
                self.log("fault.reenrolled", node=name)
                if done is not None:
                    done(True, "reenrolled")
                return
            kind, layer, member_app, lower = steps[index]
            advance = lambda ok2, why: run_step(index + 1, ok2, why)
            if kind == "enroll":
                system.enroll(layer, member_app, lower, done=advance)
            else:
                system.connect_neighbor(layer, member_app, lower,
                                        done=advance)

        run_step(0, True, "start")

    def _node_edges(self, layer: str, name: str) -> List[Tuple[Any, str]]:
        """(partner member-app, lower) for each spec adjacency of ``name``."""
        dif = self.built.layers[layer]
        edges = []
        for a, b, lower in self.built.resolved_adjacencies[layer]:
            partner = b if a == name else (a if b == name else None)
            if partner is not None:
                edges.append((dif.name.ipcp_name(partner), lower))
        return edges


class FaultInjector:
    """Base class: schedule phases at absolute engine times from ``t0``."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def arm(self, ctx: FaultContext, t0: float) -> None:
        raise NotImplementedError

    def _log(self, ctx: FaultContext, phase: str, **fields: Any) -> None:
        ctx.log("fault", fault=self.spec.kind, phase=phase,
                target=self.spec.label(), **fields)


class LinkFlap(FaultInjector):
    """Administrative down/up cycles on one link.

    ``duration=None`` makes the first flap a permanent failure — the plain
    link-kill of the multihoming experiments is the degenerate case.
    """

    def arm(self, ctx: FaultContext, t0: float) -> None:
        spec = self.spec
        link = ctx.resolve_link(str(spec.target))

        def down() -> None:
            ctx.fail_link(link)
            self._log(ctx, "down")
            ctx.topology_changed()

        def up() -> None:
            ctx.repair_link(link)
            self._log(ctx, "up")
            ctx.topology_changed()

        for index in range(max(1, spec.flaps)):
            start = t0 + spec.at + index * spec.period
            ctx.engine.call_at(start, down, label="fault.flap.down")
            if spec.duration is not None:
                ctx.engine.call_at(start + spec.duration, up,
                                   label="fault.flap.up")


class LinkDegrade(FaultInjector):
    """Loss/delay ramp on one link: up over the first half of ``duration``,
    back down over the second, originals restored exactly at the end.

    Degradation is sub-detection-threshold trouble — no carrier event, so
    no ``topology_changed`` — precisely the regime where a scoped layer's
    local recovery shines and a wide-scope one pays end-to-end RTTs.
    """

    def arm(self, ctx: FaultContext, t0: float) -> None:
        spec = self.spec
        link = ctx.resolve_link(str(spec.target))
        saved: Dict[str, Any] = {}
        steps = max(1, spec.steps)
        duration = spec.duration if spec.duration is not None else 0.0
        half = duration / 2.0 if duration else 0.0

        def set_level(fraction: float) -> None:
            if not saved:
                saved["loss"] = link.loss
                saved["delay"] = link.delay
            link.loss = UniformLoss(spec.peak_loss * fraction)
            link.delay = saved["delay"] * (
                1.0 + (spec.delay_factor - 1.0) * fraction)
            self._log(ctx, "level", fraction=round(fraction, 6))

        def restore() -> None:
            link.loss = saved["loss"]
            link.delay = saved["delay"]
            self._log(ctx, "restored")

        start = t0 + spec.at
        for index in range(1, steps + 1):
            ctx.engine.call_at(start + half * index / steps,
                               set_level, index / steps,
                               label="fault.degrade.up")
        if spec.duration is not None:
            for index in range(1, steps):
                ctx.engine.call_at(start + half + half * index / steps,
                                   set_level, 1.0 - index / steps,
                                   label="fault.degrade.down")
            ctx.engine.call_at(start + duration, restore,
                               label="fault.degrade.restore")


class NodeCrash(FaultInjector):
    """Power-loss of a whole system: every attached link dies and (on the
    recursive stack) each of its IPCPs loses all DIF state without a
    departure announcement.  Restart repairs the links and re-enrolls the
    IPCPs bottom-up through the §5.2 join — recovery as an ordinary layer
    operation, not a special case."""

    def arm(self, ctx: FaultContext, t0: float) -> None:
        spec = self.spec
        name = str(spec.target)
        links = ctx.links_of_node(name)

        def crash() -> None:
            for link in links:
                ctx.fail_link(link)
            ctx.crash_node(name)
            self._log(ctx, "crash")
            ctx.topology_changed()

        def restart() -> None:
            for link in links:
                ctx.repair_link(link)
            self._log(ctx, "restart")
            ctx.topology_changed()
            ctx.restart_node(name)

        ctx.engine.call_at(t0 + spec.at, crash, label="fault.crash")
        if spec.duration is not None:
            ctx.engine.call_at(t0 + spec.at + spec.duration, restart,
                               label="fault.restart")


class Partition(FaultInjector):
    """Fail every link crossing a node-group boundary, then heal."""

    def arm(self, ctx: FaultContext, t0: float) -> None:
        spec = self.spec
        group = list(spec.target)
        links = ctx.cut_links(group)

        def split() -> None:
            for link in links:
                ctx.fail_link(link)
            self._log(ctx, "split", cut=len(links))
            ctx.topology_changed()

        def heal() -> None:
            for link in links:
                ctx.repair_link(link)
            self._log(ctx, "heal")
            ctx.topology_changed()

        ctx.engine.call_at(t0 + spec.at, split, label="fault.partition")
        if spec.duration is not None:
            ctx.engine.call_at(t0 + spec.at + spec.duration, heal,
                               label="fault.heal")


class CongestionBurst(FaultInjector):
    """Background burst eats most of a link's capacity for a while.

    Modeled as a serialization-rate cut by ``capacity_factor`` — the
    deterministic equivalent of cross traffic occupying the medium, with
    queues, pacing, and EFCP backpressure reacting exactly as they would
    to real competing load."""

    def arm(self, ctx: FaultContext, t0: float) -> None:
        spec = self.spec
        link = ctx.resolve_link(str(spec.target))
        saved: Dict[str, float] = {}

        def burst() -> None:
            saved["capacity"] = link.capacity_bps
            link.capacity_bps = link.capacity_bps / max(1.0,
                                                        spec.capacity_factor)
            self._log(ctx, "burst", capacity_bps=link.capacity_bps)

        def relent() -> None:
            link.capacity_bps = saved["capacity"]
            self._log(ctx, "relent")

        ctx.engine.call_at(t0 + spec.at, burst, label="fault.congestion")
        if spec.duration is not None:
            ctx.engine.call_at(t0 + spec.at + spec.duration, relent,
                               label="fault.relent")


class ConditionWindow(FaultInjector):
    """Shared shape of the four network-condition injectors.

    At ``t0 + at`` the link's current :class:`LinkConditions` reference
    is saved and a copy with this injector's slot replaced is installed;
    at ``t0 + at + duration`` the saved reference is restored — so
    conditions compose with whatever was configured statically, and
    overlapping windows on *different* slots merge cleanly (same-slot
    overlaps are last-writer-wins, like stacked ``link-degrade`` ramps).
    ``duration=None`` leaves the condition in place for good.
    """

    slot = ""    # which LinkConditions slot this injector drives

    def _model(self, spec: FaultSpec) -> Any:
        raise NotImplementedError

    def arm(self, ctx: FaultContext, t0: float) -> None:
        spec = self.spec
        link = ctx.resolve_link(str(spec.target))
        saved: Dict[str, Any] = {}

        def on() -> None:
            saved["conditions"] = link.conditions
            base = (link.conditions if link.conditions is not None
                    else LinkConditions())
            link.conditions = base.replace(**{self.slot: self._model(spec)})
            self._log(ctx, "on")

        def off() -> None:
            link.conditions = saved["conditions"]
            self._log(ctx, "off")

        ctx.engine.call_at(t0 + spec.at, on, label=f"fault.{self.slot}.on")
        if spec.duration is not None:
            ctx.engine.call_at(t0 + spec.at + spec.duration, off,
                               label=f"fault.{self.slot}.off")


class JitterStorm(ConditionWindow):
    """Delay variance on one link for a window — no loss, no carrier
    event, just a jittery path; stresses latency-sensitive policy and
    (with ``preserve_order=False``) EFCP sequencing."""

    slot = "jitter"

    def _model(self, spec: FaultSpec) -> Any:
        if spec.jitter_model == "normal":
            return NormalJitter(mean=spec.jitter_s,
                                stddev=spec.jitter_s / 2.0,
                                preserve_order=spec.preserve_order)
        return UniformJitter(spec.jitter_s,
                             preserve_order=spec.preserve_order)


class BandwidthSqueeze(ConditionWindow):
    """Token-bucket shaping caps one link's effective rate for a window —
    the policer/flash-crowd analogue of :class:`CongestionBurst`, but
    bursty (a bucket refills) instead of a flat serialization cut."""

    slot = "shaper"

    def _model(self, spec: FaultSpec) -> Any:
        return BandwidthShaper(spec.rate_bps, spec.burst_bytes)


class CorruptionStorm(ConditionWindow):
    """Per-frame payload corruption on one link for a window: frames
    still arrive, but damaged — the receiving stack must detect and
    count them, never deliver them."""

    slot = "corruption"

    def _model(self, spec: FaultSpec) -> Any:
        return CorruptionModel(spec.corrupt_prob, spec.max_flips)


class ReorderBurst(ConditionWindow):
    """Bounded-displacement reordering on one link for a window,
    stressing EFCP's sequencing (delivery order must survive)."""

    slot = "reorder"

    def _model(self, spec: FaultSpec) -> Any:
        return ReorderModel(spec.reorder_prob, spec.reorder_depth,
                            spec.reorder_hold)


INJECTORS: Dict[str, Callable[[FaultSpec], FaultInjector]] = {
    "link-flap": LinkFlap,
    "link-degrade": LinkDegrade,
    "node-crash": NodeCrash,
    "partition": Partition,
    "congestion": CongestionBurst,
    "jitter-storm": JitterStorm,
    "bandwidth-squeeze": BandwidthSqueeze,
    "corruption-storm": CorruptionStorm,
    "reorder-burst": ReorderBurst,
}


def make_injector(spec: FaultSpec) -> FaultInjector:
    """Instantiate the injector for one fault spec."""
    spec.validate()
    return INJECTORS[spec.kind](spec)
