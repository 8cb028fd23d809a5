"""RMT — the relaying and multiplexing task (§3.2, §4).

Every IPC process has an RMT.  In an end host it multiplexes the flows of
the layer above onto the (N-1) flows below; in a dedicated system (router)
it additionally *relays*: PDUs whose destination address is not this IPCP
are forwarded toward it.  The paper's Fig 4 two-step routing happens here:

1. the forwarding function (installed by routing) maps a destination
   address to a **next-hop node address**;
2. a :class:`PathSelector` policy picks among the (N-1) ports — the
   points of attachment — that reach that next hop.

Multiplexing is policy-driven: each (N-1) port drains its queue through a
pluggable :class:`Scheduler` (FIFO, strict priority, or deficit round
robin), paced at the port's nominal rate so scheduling decisions are
meaningful (experiments E8/A3).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.engine import Engine
from .names import Address
from .pdu import Pdu

ForwardingFn = Callable[[Address], Optional[Address]]
DeliverFn = Callable[[Pdu, int], None]   # (pdu, arrival port id)
DropFn = Callable[[Pdu, str], None]      # (pdu, reason)


# ----------------------------------------------------------------------
# Schedulers (multiplexing policies)
# ----------------------------------------------------------------------
class Scheduler:
    """Queue discipline for one outbound (N-1) port."""

    __slots__ = ()

    def push(self, pdu: Pdu) -> Optional[Pdu]:
        """Enqueue; returns a displaced PDU if one had to be dropped."""
        raise NotImplementedError

    def pop(self) -> Optional[Pdu]:
        """Next PDU to transmit, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Single drop-tail FIFO — the baseline best-effort discipline."""

    __slots__ = ("_queue", "_limit")

    def __init__(self, limit: int = 256) -> None:
        self._queue: Deque[Pdu] = deque()
        self._limit = limit

    def push(self, pdu: Pdu) -> Optional[Pdu]:
        if len(self._queue) >= self._limit:
            return pdu  # tail drop the newcomer
        self._queue.append(pdu)
        return None

    def pop(self) -> Optional[Pdu]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class PriorityScheduler(Scheduler):
    """Strict priority by ``pdu.priority`` (lower value served first).

    When full, the lowest-priority resident PDU is displaced in favour of a
    higher-priority newcomer.
    """

    __slots__ = ("_queues", "_limit", "_count")

    def __init__(self, limit: int = 256) -> None:
        self._queues: Dict[int, Deque[Pdu]] = {}
        self._limit = limit
        self._count = 0

    def push(self, pdu: Pdu) -> Optional[Pdu]:
        if self._count >= self._limit:
            worst = max(self._queues)
            if pdu.priority >= worst:
                return pdu
            victim = self._queues[worst].pop()
            if not self._queues[worst]:
                del self._queues[worst]
            self._queues.setdefault(pdu.priority, deque()).append(pdu)
            return victim
        self._queues.setdefault(pdu.priority, deque()).append(pdu)
        self._count += 1
        return None

    def pop(self) -> Optional[Pdu]:
        if not self._queues:
            return None
        best = min(self._queues)
        pdu = self._queues[best].popleft()
        if not self._queues[best]:
            del self._queues[best]
        self._count -= 1
        return pdu

    def __len__(self) -> int:
        return self._count


class DrrScheduler(Scheduler):
    """Deficit round robin over priority classes.

    Classes are ``pdu.priority`` values; each gets a quantum proportional to
    its weight (default: equal).  DRR gives bounded unfairness without the
    starvation strict priority can inflict — the trade the A3 ablation
    measures.
    """

    __slots__ = ("_limit", "_quantum", "_weights", "_queues", "_deficits",
                 "_active", "_count")

    def __init__(self, limit: int = 256, quantum: int = 1500,
                 weights: Optional[Dict[int, float]] = None) -> None:
        self._limit = limit
        self._quantum = quantum
        self._weights = weights or {}
        self._queues: Dict[int, Deque[Pdu]] = {}
        self._deficits: Dict[int, float] = {}
        self._active: Deque[int] = deque()   # round-robin order of classes
        self._count = 0

    def push(self, pdu: Pdu) -> Optional[Pdu]:
        if self._count >= self._limit:
            return pdu
        cls = pdu.priority
        if cls not in self._queues:
            self._queues[cls] = deque()
            self._deficits[cls] = 0.0
            self._active.append(cls)
        self._queues[cls].append(pdu)
        self._count += 1
        return None

    def pop(self) -> Optional[Pdu]:
        if self._count == 0:
            return None
        # scan classes round-robin, topping up deficits until one can send
        for _ in range(2 * len(self._active) + 1):
            cls = self._active[0]
            queue = self._queues[cls]
            if not queue:
                self._rotate_out(cls)
                continue
            head = queue[0]
            if self._deficits[cls] >= head.wire_size():
                self._deficits[cls] -= head.wire_size()
                queue.popleft()
                self._count -= 1
                if not queue:
                    self._rotate_out(cls)
                return head
            weight = self._weights.get(cls, 1.0)
            self._deficits[cls] += self._quantum * weight
            self._active.rotate(-1)  # next class's turn
        return None  # pragma: no cover - defensive; quantum always progresses

    def _rotate_out(self, cls: int) -> None:
        self._active.remove(cls)
        del self._queues[cls]
        del self._deficits[cls]

    def __len__(self) -> int:
        return self._count


SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    "fifo": FifoScheduler,
    "priority": PriorityScheduler,
    "drr": DrrScheduler,
}


# ----------------------------------------------------------------------
# Path selection (step 2 of two-step routing)
# ----------------------------------------------------------------------
class PathSelector:
    """Chooses one (N-1) port among those reaching the next-hop node."""

    __slots__ = ()

    def select(self, ports: List["RmtPort"], pdu: Pdu) -> Optional["RmtPort"]:
        """The port to use, or None when none is usable."""
        raise NotImplementedError


class PreferFirstAlive(PathSelector):
    """Deterministic primary/backup: first port marked alive wins."""

    __slots__ = ()

    def select(self, ports: List["RmtPort"], pdu: Pdu) -> Optional["RmtPort"]:
        for port in ports:
            if port.alive:
                return port
        return None


class RoundRobinPaths(PathSelector):
    """Spread PDUs across all alive ports in rotation."""

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index = 0

    def select(self, ports: List["RmtPort"], pdu: Pdu) -> Optional["RmtPort"]:
        alive = [p for p in ports if p.alive]
        if not alive:
            return None
        port = alive[self._index % len(alive)]
        self._index += 1
        return port


class HashedPaths(PathSelector):
    """Pin each connection to one path (hash of the CEP pair), keeping
    per-flow ordering while balancing flows across paths."""

    __slots__ = ()

    def select(self, ports: List["RmtPort"], pdu: Pdu) -> Optional["RmtPort"]:
        alive = [p for p in ports if p.alive]
        if not alive:
            return None
        src_cep = getattr(pdu, "src_cep", 0)
        dst_cep = getattr(pdu, "dst_cep", 0)
        return alive[hash((src_cep, dst_cep)) % len(alive)]


PATH_SELECTORS: Dict[str, Callable[[], PathSelector]] = {
    "first-alive": PreferFirstAlive,
    "round-robin": RoundRobinPaths,
    "hashed": HashedPaths,
}


# ----------------------------------------------------------------------
# Ports and the RMT proper
# ----------------------------------------------------------------------
class RmtPort:
    """An (N-1) flow as seen by the RMT: a send function, a scheduler, and a
    liveness flag maintained by neighbor monitoring."""

    __slots__ = ("port_id", "send_fn", "scheduler", "nominal_bps",
                 "peer_addr", "alive", "busy", "pdus_out", "pdus_dropped",
                 "bytes_out")

    def __init__(self, port_id: int, send_fn: Callable[[Any, int], bool],
                 scheduler: Scheduler, nominal_bps: Optional[float] = None,
                 peer_addr: Optional[Address] = None) -> None:
        self.port_id = port_id
        self.send_fn = send_fn
        self.scheduler = scheduler
        self.nominal_bps = nominal_bps
        self.peer_addr = peer_addr
        self.alive = True
        self.busy = False
        self.pdus_out = 0
        self.pdus_dropped = 0
        self.bytes_out = 0

    def queue_depth(self) -> int:
        """PDUs waiting in this port's scheduler."""
        return len(self.scheduler)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<RmtPort {self.port_id} peer={self.peer_addr} {state}>"


class Rmt:
    """The relaying-and-multiplexing task of one IPC process."""

    __slots__ = ("_engine", "_local_addr_fn", "_deliver_local",
                 "_scheduler_factory", "_path_selector", "_on_drop",
                 "_forwarding", "_ports", "_neighbor_ports", "pdus_relayed",
                 "pdus_delivered", "pdus_dropped")

    def __init__(self, engine: Engine, local_addr_fn: Callable[[], Optional[Address]],
                 deliver_local: DeliverFn,
                 scheduler_factory: Callable[[], Scheduler] = FifoScheduler,
                 path_selector: Optional[PathSelector] = None,
                 on_drop: Optional[DropFn] = None) -> None:
        self._engine = engine
        self._local_addr_fn = local_addr_fn
        self._deliver_local = deliver_local
        self._scheduler_factory = scheduler_factory
        self._path_selector = path_selector or PreferFirstAlive()
        self._on_drop = on_drop
        self._forwarding: ForwardingFn = lambda addr: None
        self._ports: Dict[int, RmtPort] = {}
        self._neighbor_ports: Dict[Address, List[int]] = {}
        self.pdus_relayed = 0
        self.pdus_delivered = 0
        self.pdus_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_forwarding(self, fn: ForwardingFn) -> None:
        """Install the next-hop function (routing's output)."""
        self._forwarding = fn

    def add_port(self, port_id: int, send_fn: Callable[[Any, int], bool],
                 nominal_bps: Optional[float] = None,
                 peer_addr: Optional[Address] = None) -> RmtPort:
        """Register an (N-1) flow the RMT may transmit on."""
        if port_id in self._ports:
            raise ValueError(f"RMT already has port {port_id}")
        port = RmtPort(port_id, send_fn, self._scheduler_factory(),
                       nominal_bps=nominal_bps, peer_addr=peer_addr)
        self._ports[port_id] = port
        if peer_addr is not None:
            self._neighbor_ports.setdefault(peer_addr, []).append(port_id)
        return port

    def remove_port(self, port_id: int) -> None:
        """Forget an (N-1) flow (deallocated or lost)."""
        port = self._ports.pop(port_id, None)
        if port is None:
            return
        if port.peer_addr is not None:
            ids = self._neighbor_ports.get(port.peer_addr, [])
            if port_id in ids:
                ids.remove(port_id)
            if not ids:
                self._neighbor_ports.pop(port.peer_addr, None)

    def port(self, port_id: int) -> RmtPort:
        """Look up a registered port."""
        return self._ports[port_id]

    def ports_to(self, neighbor: Address) -> List[RmtPort]:
        """All ports attaching to ``neighbor`` (the PoA candidates)."""
        return [self._ports[pid] for pid in self._neighbor_ports.get(neighbor, [])]

    def neighbors(self) -> List[Address]:
        """Neighbor IPCP addresses with at least one registered port."""
        return sorted(self._neighbor_ports)

    def set_peer(self, port_id: int, peer_addr: Address) -> None:
        """Bind a port to its neighbor's address (learned at enrollment)."""
        port = self._ports[port_id]
        if port.peer_addr is not None:
            old = self._neighbor_ports.get(port.peer_addr, [])
            if port_id in old:
                old.remove(port_id)
            if not old:
                self._neighbor_ports.pop(port.peer_addr, None)
        port.peer_addr = peer_addr
        if port_id not in self._neighbor_ports.setdefault(peer_addr, []):
            self._neighbor_ports[peer_addr].append(port_id)

    def set_alive(self, port_id: int, alive: bool) -> None:
        """Neighbor-monitoring verdict for one port."""
        if port_id in self._ports:
            self._ports[port_id].alive = alive

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def submit(self, pdu: Pdu) -> None:
        """Entry point for PDUs, both locally generated and relayed."""
        local = self._local_addr_fn()
        if pdu.dst_addr is None or (local is not None and pdu.dst_addr == local):
            self.pdus_delivered += 1
            self._deliver_local(pdu, -1)
            return
        self._relay(pdu)

    def receive(self, pdu: Pdu, port_id: int) -> None:
        """Entry point for PDUs arriving on an (N-1) port."""
        local = self._local_addr_fn()
        if pdu.dst_addr is None or (local is not None and pdu.dst_addr == local):
            self.pdus_delivered += 1
            self._deliver_local(pdu, port_id)
            return
        pdu.ttl -= 1
        if pdu.ttl <= 0:
            self._drop(pdu, "ttl-expired")
            return
        self.pdus_relayed += 1
        self._relay(pdu)

    def send_on_port(self, port_id: int, pdu: Pdu) -> bool:
        """Transmit on a specific (N-1) port, bypassing forwarding.

        Hop-scoped management traffic (enrollment, flooding, keepalives)
        must reach the adjacent IPCP on a chosen attachment, not be routed.
        """
        port = self._ports.get(port_id)
        if port is None:
            return False
        self._enqueue(port, pdu)
        return True

    def _relay(self, pdu: Pdu) -> None:
        assert pdu.dst_addr is not None
        next_hop = self._forwarding(pdu.dst_addr)
        if next_hop is None:
            self._drop(pdu, "no-route")
            return
        candidates = self.ports_to(next_hop)
        if not candidates:
            self._drop(pdu, "no-port")
            return
        port = self._path_selector.select(candidates, pdu)
        if port is None:
            self._drop(pdu, "all-paths-dead")
            return
        self._enqueue(port, pdu)

    def _enqueue(self, port: RmtPort, pdu: Pdu) -> None:
        if port.nominal_bps is None:
            # unpaced port: hand straight to the (N-1) flow
            size = pdu.wire_size()
            if not port.send_fn(pdu, size):
                port.pdus_dropped += 1
                self._drop(pdu, "lower-layer-refused")
            else:
                port.pdus_out += 1
                port.bytes_out += size
            return
        displaced = port.scheduler.push(pdu)
        if displaced is not None:
            port.pdus_dropped += 1
            self._drop(displaced, "queue-full")
        if not port.busy:
            self._serve(port)

    def _serve(self, port: RmtPort) -> None:
        pdu = port.scheduler.pop()
        if pdu is None:
            port.busy = False
            return
        port.busy = True
        size = pdu.wire_size()
        if port.send_fn(pdu, size):
            port.pdus_out += 1
            port.bytes_out += size
        else:
            port.pdus_dropped += 1
            self._drop(pdu, "lower-layer-refused")
        service_time = size * 8.0 / port.nominal_bps
        self._engine.call_later(service_time, self._serve, port,
                                label="rmt.serve")

    def _drop(self, pdu: Pdu, reason: str) -> None:
        self.pdus_dropped += 1
        if self._on_drop is not None:
            self._on_drop(pdu, reason)

    def queue_depths(self) -> Dict[int, int]:
        """Per-port scheduler occupancy (for congestion experiments)."""
        return {pid: port.queue_depth() for pid, port in self._ports.items()}
