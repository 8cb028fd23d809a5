"""Execute a :class:`~repro.scenarios.spec.Scenario` on either stack.

The runner is the counterpart of the hand-written experiment scripts: it
turns a declarative spec into (1) a topology, (2) a recursive-IPC layer
stack *or* the IP baseline, (3) workload actors drawn from
:mod:`repro.apps` (or their sockets-API equivalents), and (4) armed fault
injectors — then runs the engine for the scenario duration and reports the
standard metric dict (goodput, delivery gaps, recovery) plus a canonical
**trace**: a byte-stable fingerprint of everything observable in the run.
Two runs of the same spec with the same seed must produce identical traces
— the determinism contract the test suite enforces.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..apps.echo import EchoClient, EchoServer
from ..apps.filetransfer import FileSender, FileSink
from ..apps.streaming import CbrSource, LatencySink
from ..core.dif import Dif, DifPolicies
from ..core.fabric import (Orchestrator, add_shims, build_dif_over,
                           make_systems, shim_between, shim_name_for)
from ..core.flow import ALLOCATED
from ..core.qos import DEFAULT_CUBES, RELIABLE
from ..experiments.common import delivery_gap, goodput_bps, percentile
from ..sim.link import LinkConditions, UniformLoss
from ..sim.network import Network
from .faults import FaultContext, make_injector
from .spec import (SHIM, LayerSpec, Scenario, SpecError, TopologySpec,
                   auto_layers)

# the IP baseline is imported by the run that builds it: a rina-only
# process never loads it
if TYPE_CHECKING:
    from ..baselines.sockets import IpFabric

STACKS = ("rina", "ip")
IP_RECONVERGE_DELAY = 0.3   # carrier change → routing daemon reconvergence


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
def _link_conditions(jitter: Any = None, shaper: Any = None,
                     corruption: Any = None,
                     reorder: Any = None) -> Optional[LinkConditions]:
    """Build a :class:`LinkConditions` from spec-form dicts (or None)."""
    if (jitter is None and shaper is None and corruption is None
            and reorder is None):
        return None
    try:
        return LinkConditions.from_dict({"jitter": jitter, "shaper": shaper,
                                         "corruption": corruption,
                                         "reorder": reorder})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad link conditions: {exc}")


def build_topology(topology: TopologySpec, network: Network) -> List[str]:
    """Instantiate the topology spec into ``network``; returns node names."""
    topology.validate()
    link_kwargs = dict(topology.link)
    loss = link_kwargs.pop("loss", None)
    if loss is not None:
        link_kwargs["loss"] = UniformLoss(float(loss))
    conditions = _link_conditions(link_kwargs.pop("jitter", None),
                                  link_kwargs.pop("shaper", None),
                                  link_kwargs.pop("corruption", None),
                                  link_kwargs.pop("reorder", None))
    if conditions is not None:
        link_kwargs["conditions"] = conditions
    family = topology.family
    if family == "explicit":
        for name in topology.nodes:
            network.add_node(name)
        for spec in topology.links:
            network.connect(
                spec.a, spec.b, name=spec.name,
                capacity_bps=spec.capacity_bps, delay=spec.delay,
                loss=None if spec.loss is None else UniformLoss(spec.loss),
                queue_limit=spec.queue_limit,
                conditions=_link_conditions(spec.jitter, spec.shaper,
                                            spec.corruption, spec.reorder))
        return list(topology.nodes)
    params = dict(topology.params)
    if family == "chain":
        return network.build_chain(params.get("count", 3), **link_kwargs)
    if family == "star":
        hub, leaves = network.build_star(params.get("leaves", 3),
                                         **link_kwargs)
        return [hub] + leaves
    if family == "tree":
        return network.build_tree(params.get("depth", 2),
                                  params.get("arity", 2), **link_kwargs)
    if family == "grid":
        matrix = network.build_grid(params.get("rows", 2),
                                    params.get("cols", 2), **link_kwargs)
        return [name for row in matrix for name in row]
    if family == "random":
        return network.build_random(params.get("count", 5),
                                    params.get("edge_factor", 1.5),
                                    **link_kwargs)
    if family == "ring_of_stars":
        return network.build_ring_of_stars(params.get("regions", 3),
                                           params.get("hosts", 2),
                                           **link_kwargs)
    raise SpecError(f"unknown topology family {family!r}")


def physical_edges(network: Network) -> List[Tuple[str, str, str]]:
    """(a, b, link_name) per link, in creation order.

    Resolved from the links' actual attachment points, not their names —
    custom-named links (``uplink#a``, ``radio:bs1``) count too, so
    ``dif_depth``-derived layers span every link of an explicit topology.
    """
    return [network.endpoints_of(link) + (name,)
            for name, link in network.links.items()]


# ----------------------------------------------------------------------
# The recursive-IPC stack
# ----------------------------------------------------------------------
class RinaStack:
    """Everything built for the IPC side of one scenario run."""

    def __init__(self, network: Network, systems: Dict[str, Any],
                 layers: Dict[str, Dif], layer_order: List[str],
                 layer_members: Dict[str, List[str]],
                 resolved_adjacencies: Dict[str, List[Tuple[str, str, str]]]
                 ) -> None:
        self.network = network
        self.systems = systems
        self.layers = layers
        self.layer_order = layer_order
        self.layer_members = layer_members
        self.resolved_adjacencies = resolved_adjacencies

    @property
    def top_layer(self) -> str:
        return self.layer_order[-1]


def make_policies(values: Dict[str, Any]) -> DifPolicies:
    """Build :class:`DifPolicies` from the JSON-safe policy dict of a
    :class:`LayerSpec` (named QoS cube references resolved)."""
    kwargs = dict(values)
    cube = kwargs.get("lower_flow_cube")
    if isinstance(cube, str):
        try:
            kwargs["lower_flow_cube"] = DEFAULT_CUBES[cube]
        except KeyError:
            raise SpecError(f"unknown QoS cube {cube!r}")
    return DifPolicies(**kwargs)


def resolve_layers(scenario: Scenario, network: Network) -> List[LayerSpec]:
    """The scenario's layer stack (explicit, or derived from dif_depth)."""
    if scenario.layers:
        return scenario.layers
    return auto_layers(physical_edges(network), scenario.dif_depth)


def build_rina_stack(scenario: Scenario, seed: int = 0,
                     network: Optional[Network] = None) -> RinaStack:
    """Build topology + systems + shims + the spec's DIF stack.

    Also usable standalone: the refactored E3/E4/E5 experiments express
    their stacks as scenario specs and call this, then keep their own
    measurement logic.
    """
    if network is None:
        network = Network(seed=seed)
        build_topology(scenario.topology, network)
    systems = make_systems(network)
    add_shims(systems, network)
    orchestrator = Orchestrator(network)
    layers: Dict[str, Dif] = {}
    layer_order: List[str] = []
    layer_members: Dict[str, List[str]] = {}
    resolved: Dict[str, List[Tuple[str, str, str]]] = {}
    for layer in resolve_layers(scenario, network):
        if layer.name in layers:
            raise SpecError(f"duplicate layer name {layer.name!r}")
        adjacencies = []
        for a, b, lower in layer.adjacencies:
            adjacencies.append((a, b, _resolve_lower(lower, a, b, network,
                                                     layers)))
        dif = Dif(layer.name, make_policies(layer.policies),
                  rank=len(layer_order) + 1)
        build_dif_over(orchestrator, dif, systems, adjacencies=adjacencies,
                       bootstrap=layer.bootstrap)
        layers[layer.name] = dif
        layer_order.append(layer.name)
        layer_members[layer.name] = LayerSpec(
            name=layer.name, adjacencies=adjacencies).members()
        resolved[layer.name] = adjacencies
    orchestrator.run(timeout=scenario.build_timeout)
    return RinaStack(network, systems, layers, layer_order, layer_members,
                     resolved)


def _resolve_lower(lower: str, a: str, b: str, network: Network,
                   layers: Dict[str, Dif]) -> str:
    if lower == SHIM:
        return shim_between(network, a, b)
    if lower.startswith("link:"):
        return shim_name_for(lower[len("link:"):])
    if lower in layers:
        return lower
    raise SpecError(f"adjacency {a!r}--{b!r}: unknown lower facility "
                    f"{lower!r} (not a built layer, 'shim', or 'link:...')")


# ----------------------------------------------------------------------
# Workload adapters (both stacks record the same observables)
# ----------------------------------------------------------------------
class WorkloadStats:
    """What one workload contributes to metrics and the trace."""

    def __init__(self, index: int, kind: str) -> None:
        self.index = index
        self.kind = kind
        self.delivery_times: List[float] = []
        self.sent = 0
        self.delivered = 0
        self.expected = 0
        self.bytes_delivered = 0
        self.completed = False
        self.delays: List[float] = []


class _RinaWorkloads:
    """Instantiate app-layer actors from :mod:`repro.apps` over the top
    (or named) layer of a built stack."""

    def __init__(self, built: RinaStack, scenario: Scenario) -> None:
        self.built = built
        self.engine = built.network.engine
        self.stats: List[WorkloadStats] = []
        self._keep = []   # actors must outlive this scope
        self._finishers: List[Callable[[], None]] = []
        self._stream_sinks: List[Tuple[WorkloadStats, LatencySink]] = []
        for index, spec in enumerate(scenario.workloads):
            stats = WorkloadStats(index, spec.kind)
            self.stats.append(stats)
            dif = spec.dif or built.top_layer
            qos = DEFAULT_CUBES.get(spec.qos, RELIABLE)
            if spec.kind == "echo":
                self._setup_echo(index, spec, stats, dif, qos)
            elif spec.kind == "transfer":
                self._setup_transfer(index, spec, stats, dif, qos)
            elif spec.kind == "stream":
                self._setup_stream(index, spec, stats, dif, qos)
            else:
                raise SpecError(f"unknown workload kind {spec.kind!r}")

    def _setup_echo(self, index, spec, stats, dif, qos) -> None:
        built = self.built
        server = EchoServer(built.systems[spec.server],
                            name=f"echo-srv-{index}", dif_names=[dif])
        stats.expected = spec.count

        def start() -> None:
            client = EchoClient(
                built.systems[spec.client], server_name=f"echo-srv-{index}",
                client_name=f"echo-cli-{index}", qos=qos, dif_name=dif,
                on_reply=lambda _data: self._delivered(stats))

            def pump(_flow: Any = None) -> None:
                if stats.sent < spec.count:
                    client.ping(spec.size)
                    stats.sent += 1
                    self.engine.call_later(spec.period, pump,
                                           label="wl.echo.pump")
            client.flow.when(ALLOCATED, pump)
            self._keep.append(client)

        self.engine.call_later(spec.start, start, label="wl.echo.start")
        self._keep.append(server)

    def _setup_transfer(self, index, spec, stats, dif, qos) -> None:
        built = self.built

        def on_chunk(now: float, size: int) -> None:
            stats.delivery_times.append(now)
            stats.delivered += 1
            stats.bytes_delivered += size

        sink = FileSink(built.systems[spec.server], name=f"sink-{index}",
                        dif_names=[dif], on_chunk=on_chunk)
        stats.expected = spec.bytes

        def completed() -> None:
            stats.completed = sink.transfers_completed >= 1

        def start() -> None:
            sender = FileSender(built.systems[spec.client], spec.bytes,
                                sink_name=f"sink-{index}",
                                sender_name=f"sender-{index}",
                                qos=qos, dif_name=dif)
            self._keep.append(sender)
        self.engine.call_later(spec.start, start, label="wl.xfer.start")
        self._keep.append(sink)
        self._finishers.append(completed)

    def _setup_stream(self, index, spec, stats, dif, qos) -> None:
        built = self.built
        sink = LatencySink(built.systems[spec.server], name=f"lat-{index}",
                           dif_names=[dif])
        stats.expected = spec.count

        def start() -> None:
            source = CbrSource(built.systems[spec.client], f"cbr-{index}",
                               f"lat-{index}", qos, spec.size, spec.period,
                               dif_name=dif)
            source.start()
            self._keep.append(source)
        self.engine.call_later(spec.start, start, label="wl.cbr.start")
        self._keep.append(sink)
        self._stream_sinks.append((stats, sink))

    def _delivered(self, stats: WorkloadStats) -> None:
        stats.delivered += 1
        stats.delivery_times.append(self.engine.now)

    def finish(self) -> None:
        """Fold end-of-run actor state into the stats."""
        for completed in self._finishers:
            completed()
        for stats, sink in self._stream_sinks:
            stats.delivered = sink.received
            for delays in sink.delays.values():
                stats.delays.extend(delays)


class _IpWorkloads:
    """The same workload mix through the sockets API on the IP baseline."""

    def __init__(self, fabric: IpFabric, scenario: Scenario) -> None:
        self.fabric = fabric
        self.engine = fabric.network.engine
        self.stats: List[WorkloadStats] = []
        self._keep = []
        for index, spec in enumerate(scenario.workloads):
            stats = WorkloadStats(index, spec.kind)
            self.stats.append(stats)
            if spec.kind == "echo":
                self._setup_echo(index, spec, stats)
            elif spec.kind == "transfer":
                self._setup_transfer(index, spec, stats)
            elif spec.kind == "stream":
                self._setup_stream(index, spec, stats)
            else:
                raise SpecError(f"unknown workload kind {spec.kind!r}")

    def _setup_echo(self, index, spec, stats) -> None:
        server = self.fabric.host(spec.server)
        client = self.fabric.host(spec.client)
        port = 7000 + index
        stats.expected = spec.count

        def echo_handler(payload, size, src_ip, src_port) -> None:
            server.udp.sendto(server.addr(), port, src_ip, src_port,
                              payload, size)
        server.udp.bind(port, echo_handler)

        def reply_handler(payload, size, src_ip, src_port) -> None:
            stats.delivered += 1
            stats.delivery_times.append(self.engine.now)
        client_port = client.udp.bind(6000 + index, reply_handler)

        def pump() -> None:
            if stats.sent < spec.count:
                client.udp.sendto(client.addr(), client_port, server.addr(),
                                  port, b"ping", spec.size)
                stats.sent += 1
                self.engine.call_later(spec.period, pump,
                                       label="wl.echo.pump")
        self.engine.call_later(spec.start, pump, label="wl.echo.start")

    def _setup_transfer(self, index, spec, stats) -> None:
        server = self.fabric.host(spec.server)
        client = self.fabric.host(spec.client)
        port = 5000 + index
        stats.expected = spec.bytes

        def on_accept(conn) -> None:
            def on_data(length: int) -> None:
                stats.bytes_delivered += length
                stats.delivered += 1
                stats.delivery_times.append(self.engine.now)
                stats.completed = stats.bytes_delivered >= spec.bytes
            conn.on_data = on_data
            self._keep.append(conn)
        server.tcp.listen(port, on_accept)

        def start() -> None:
            conn = client.tcp.connect(client.addr(), server.addr(), port)
            self._keep.append(conn)

            def push() -> None:
                if conn.established and stats.sent < spec.bytes:
                    chunk = min(16 * 1024, spec.bytes - stats.sent)
                    conn.send(chunk)
                    stats.sent += chunk
                if stats.sent < spec.bytes:
                    self.engine.call_later(0.05, push, label="wl.xfer.push")
            push()
        self.engine.call_later(spec.start, start, label="wl.xfer.start")

    def _setup_stream(self, index, spec, stats) -> None:
        server = self.fabric.host(spec.server)
        client = self.fabric.host(spec.client)
        port = 8000 + index
        stats.expected = spec.count

        def sink_handler(payload, size, src_ip, src_port) -> None:
            stats.delivered += 1
            stats.delays.append(self.engine.now - payload)
        server.udp.bind(port, sink_handler)
        client_port = client.udp.bind(9000 + index, lambda *a: None)

        def pump() -> None:
            client.udp.sendto(client.addr(), client_port, server.addr(),
                              port, self.engine.now, spec.size)
            stats.sent += 1
            self.engine.call_later(spec.period, pump, label="wl.cbr.pump")
        self.engine.call_later(spec.start, pump, label="wl.cbr.start")

    def finish(self) -> None:
        pass


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ScenarioRunner:
    """Execute one scenario spec on one stack and report metrics + trace."""

    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        scenario.validate()
        self.scenario = scenario
        self.seed = seed
        self.trace: str = ""
        self.network: Optional[Network] = None   # last run's plant

    def run(self, stack: str = "rina") -> Dict[str, Any]:
        """Build, inject, run, measure.  Returns the standard metric dict;
        the canonical trace of the run is left in :attr:`trace`."""
        if stack not in STACKS:
            raise SpecError(f"unknown stack {stack!r}")
        scenario = self.scenario
        network = Network(seed=self.seed)
        nodes = build_topology(scenario.topology, network)
        scenario.validate(nodes)

        if stack == "rina":
            built = build_rina_stack(scenario, seed=self.seed,
                                     network=network)
            ctx = FaultContext(network, built=built)
        else:
            from ..baselines.sockets import IpFabric
            fabric = IpFabric(network, routers=nodes)
            reconverge = _Reconverger(network, fabric)
            ctx = FaultContext(network, built=None,
                               on_topology_change=reconverge)

        network.run(until=network.engine.now + scenario.settle)
        # t0 is the epoch every workload start and fault time is relative
        # to: servers register now, clients/faults fire at t0 + offset.
        t0 = network.engine.now
        workloads: Any = (_RinaWorkloads(built, scenario) if stack == "rina"
                          else _IpWorkloads(fabric, scenario))
        for fault in scenario.faults:
            make_injector(fault).arm(ctx, t0)
        network.run(until=t0 + scenario.duration)

        workloads.finish()
        metrics = self._metrics(stack, t0, workloads.stats,
                                network.engine.events_processed)
        self.trace = self._trace_text(network, metrics, workloads.stats)
        self.network = network
        return metrics

    # -- measurement ---------------------------------------------------
    def _metrics(self, stack: str, t0: float,
                 stats: List[WorkloadStats], events: int) -> Dict[str, Any]:
        scenario = self.scenario
        outages: Dict[str, float] = {}
        for fault in scenario.faults:
            outages[fault.label()] = self._outage_at(stats, t0 + fault.at)
        finite = [gap for gap in outages.values() if math.isfinite(gap)]
        transfer_bytes = sum(s.bytes_delivered for s in stats
                             if s.kind == "transfer")
        delays = [d for s in stats for d in s.delays]
        return {
            "scenario": scenario.name,
            "stack": stack,
            "seed": self.seed,
            "duration_s": scenario.duration,
            "echo_sent": sum(s.sent for s in stats if s.kind == "echo"),
            "echo_delivered": sum(s.delivered for s in stats
                                  if s.kind == "echo"),
            "transfer_bytes": transfer_bytes,
            "transfers_completed": sum(1 for s in stats
                                       if s.kind == "transfer" and s.completed),
            "goodput_mbps": (goodput_bps(transfer_bytes, scenario.duration)
                             / 1e6 if transfer_bytes else 0.0),
            "stream_received": sum(s.delivered for s in stats
                                   if s.kind == "stream"),
            "stream_delay_p95_ms": (percentile(delays, 95) * 1e3
                                    if delays else None),
            "outages": outages,
            "worst_outage_s": max(finite) if finite else math.inf,
            "events": events,
        }

    @staticmethod
    def _outage_at(stats: List[WorkloadStats], at: float) -> float:
        """Worst delivery gap at/after ``at`` across probe workloads.

        Computed per workload, then maxed — merging all delivery times
        into one list would let an unaffected workload's steady traffic
        mask a real outage on another workload's path.  A workload with
        no delivery after ``at`` contributes infinity only if it had not
        already finished its work by then (a completed transfer going
        quiet is not evidence of an outage).
        """
        gaps = []
        for s in stats:
            if s.kind not in ("echo", "transfer") or not s.delivery_times:
                continue
            gap = delivery_gap(s.delivery_times, at)
            if math.isinf(gap):
                finished = (s.completed if s.kind == "transfer"
                            else s.delivered >= s.expected)
                if finished:
                    continue
            gaps.append(gap)
        return max(gaps) if gaps else math.inf

    # -- trace fingerprint ---------------------------------------------
    def _trace_text(self, network: Network, metrics: Dict[str, Any],
                    stats: List[WorkloadStats]) -> str:
        lines = [f"scenario={self.scenario.name} seed={self.seed} "
                 f"stack={metrics['stack']}"]
        for name, value in network.tracer.counters().items():
            lines.append(f"counter {name}={value}")
        for time, kind, fields in network.tracer.events():
            rendered = ",".join(f"{key}={fields[key]!r}"
                                for key in sorted(fields))
            lines.append(f"event {time!r} {kind} {rendered}")
        for s in stats:
            for time in s.delivery_times:
                lines.append(f"delivery w{s.index} {time!r}")
        lines.append("metrics " + json.dumps(metrics, sort_keys=True,
                                             default=repr))
        return "\n".join(lines) + "\n"


class _Reconverger:
    """Schedules one routing reconvergence per carrier change, a fixed
    detection delay after the event (what an IGP's hold-down would do)."""

    def __init__(self, network: Network, fabric: IpFabric) -> None:
        self._network = network
        self._fabric = fabric

    def __call__(self) -> None:
        self._network.engine.call_later(
            IP_RECONVERGE_DELAY, self._fabric.daemon.converge,
            label="ip.reconverge")


# ----------------------------------------------------------------------
# Sweep-job targets (picklable pure-data entry points)
# ----------------------------------------------------------------------
def run_determinism_row(spec: Dict[str, Any], seed: int = 0,
                        stack: str = "rina") -> Dict[str, Any]:
    """One (spec, stack) cell of the ``scenarios run`` table.

    Takes the scenario in its :meth:`Scenario.to_dict` form so a sweep
    :class:`~repro.sweeps.Job` can carry it across a ``spawn`` process
    boundary as pure data.  Executes the spec **twice** and compares the
    traces — the determinism contract — and reports the trace digest so
    callers can additionally compare across processes.
    """
    scenario = Scenario.from_dict(spec)
    first = ScenarioRunner(scenario, seed=seed)
    metrics = first.run(stack)
    second = ScenarioRunner(scenario, seed=seed)
    second.run(stack)
    return {
        "scenario": metrics["scenario"],
        "stack": stack,
        "echo": f"{metrics['echo_delivered']}/{metrics['echo_sent']}",
        "goodput_mbps": metrics["goodput_mbps"],
        "worst_outage_s": metrics["worst_outage_s"],
        "faults": len(scenario.faults),
        "deterministic": first.trace == second.trace,
        "trace_sha256": hashlib.sha256(first.trace.encode()).hexdigest(),
    }


def determinism_jobs(scenarios: List[Scenario], seed: int = 0,
                     stacks: Tuple[str, ...] = STACKS) -> List["Job"]:
    """The :func:`run_determinism_row` job list for a scenario batch:
    one job per (spec, stack), specs serialized to pure data.  The
    single source of this construction for the CLI and the tests."""
    from ..sweeps import Job
    return [Job("repro.scenarios.runner:run_determinism_row",
                kwargs={"spec": scenario.to_dict(), "seed": seed,
                        "stack": stack},
                group="scenarios", label=f"{scenario.name}/{stack}")
            for scenario in scenarios for stack in stacks]


def canned_trace_digest(name: str, seed: int = 0,
                        stack: str = "rina") -> Dict[str, Any]:
    """Row: the SHA-256 of one canned spec's trace.

    Job target for the golden-fingerprint worker checks: a trace
    produced inside a pool worker (under any start method) must match
    the pinned in-process digest.
    """
    from .canned import canned
    runner = ScenarioRunner(canned(name), seed=seed)
    runner.run(stack)
    return {
        "name": name,
        "seed": seed,
        "stack": stack,
        "sha256": hashlib.sha256(runner.trace.encode()).hexdigest(),
    }
