"""RMT — the relaying and multiplexing task (§3.2, §4).

Every IPC process has an RMT.  In an end host it multiplexes the flows of
the layer above onto the (N-1) flows below; in a dedicated system (router)
it additionally *relays*: PDUs whose destination address is not this IPCP
are forwarded toward it.  The paper's Fig 4 two-step routing happens here:

1. the forwarding function (installed by routing) maps a destination
   address to a **next-hop node address**;
2. a :class:`PathSelector` policy picks among the (N-1) ports — the
   points of attachment — that reach that next hop.

Multiplexing is policy-driven: a strict-priority or deficit-round-robin
port drains its :class:`Scheduler` paced at the port's nominal rate, so the
order is the RMT's (experiments E8/A3); a FIFO port orders nothing the
(N-1) medium's own queue would not, so it hands every PDU straight down.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

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

    paced = True   # a port waits in the RMT at its nominal rate

    def push(self, pdu: Pdu) -> Optional[Pdu]:
        """Enqueue; returns a displaced PDU if one had to be dropped."""
        raise NotImplementedError

    def pop(self) -> Optional[Pdu]:
        """Next PDU to transmit, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Single drop-tail FIFO — the best-effort discipline; never paced."""

    __slots__ = ("_queue", "_limit")
    paced = False

    def __init__(self, limit: int = 256) -> None:
        # made when a PDU first has to wait: most ports never queue
        self._queue: Optional[Deque[Pdu]] = None
        self._limit = limit

    def push(self, pdu: Pdu) -> Optional[Pdu]:
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
        if len(queue) >= self._limit:
            return pdu  # tail drop the newcomer
        queue.append(pdu)
        return None

    def pop(self) -> Optional[Pdu]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue) if self._queue else 0


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
        # pop tops deficits up until a head fits, which a share <= 0
        # would never do
        if quantum <= 0 or min((weights or {}).values(), default=1) <= 0:
            raise ValueError(f"DRR quantum and weights must be positive, "
                             f"got {quantum} and {weights}")
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
        # scan classes round-robin, topping up deficits until one can
        # send: a head larger than the quantum takes several rounds
        while True:
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
    liveness flag maintained by neighbor monitoring.

    A paced port (a ``nominal_bps`` and a paced scheduler) is free again
    at ``free_at``; ``serving`` is True exactly while PDUs wait in the
    scheduler.  Any other port hands each PDU straight down."""

    __slots__ = ("port_id", "send_fn", "scheduler", "nominal_bps",
                 "peer_addr", "alive", "free_at", "serving")

    def __init__(self, port_id: int, send_fn: Callable[[Any, int], bool],
                 scheduler: Scheduler, nominal_bps: Optional[float] = None,
                 peer_addr: Optional[Address] = None) -> None:
        self.port_id = port_id
        self.send_fn = send_fn
        self.scheduler = scheduler
        self.nominal_bps = nominal_bps
        self.peer_addr = peer_addr
        self.alive = True
        self.free_at = 0.0
        self.serving = False

    def queue_depth(self) -> int:
        """PDUs waiting in this port's scheduler."""
        return len(self.scheduler)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"<RmtPort {self.port_id} peer={self.peer_addr} {state}>"


class Rmt:
    """The relaying-and-multiplexing task of one IPC process; whether a
    port is paced is settled once, when it is added."""

    __slots__ = ("_engine", "local_addr", "_deliver_local",
                 "_scheduler_factory", "_path_selector", "_on_drop",
                 "_forwarding", "_ports", "_neighbor_ports", "_neighbors",
                 "pdus_relayed", "pdus_delivered", "pdus_dropped")

    def __init__(self, engine: Engine, deliver_local: DeliverFn,
                 scheduler_factory: Callable[[], Scheduler] = FifoScheduler,
                 path_selector: Optional[PathSelector] = None,
                 on_drop: Optional[DropFn] = None) -> None:
        self._engine = engine
        #: this IPCP's address (None before enrollment); the owning IPCP
        #: writes it whenever its own address changes
        self.local_addr: Optional[Address] = None
        self._deliver_local = deliver_local
        self._scheduler_factory = scheduler_factory
        self._path_selector = path_selector or PreferFirstAlive()
        self._on_drop = on_drop
        self._forwarding: ForwardingFn = lambda addr: None
        self._ports: Dict[int, RmtPort] = {}
        # neighbor -> its ports, in attachment order; _relay reads these
        # lists as they are, so they hold the port objects themselves
        self._neighbor_ports: Dict[Address, List[RmtPort]] = {}
        # their sorted addresses, replaced (never edited): None after a change
        self._neighbors: Optional[List[Address]] = []
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
        scheduler = self._scheduler_factory()
        port = RmtPort(port_id, send_fn, scheduler,
                       nominal_bps=nominal_bps if scheduler.paced else None,
                       peer_addr=peer_addr)
        self._ports[port_id] = port
        if peer_addr is not None:
            self._neighbor_ports.setdefault(peer_addr, []).append(port)
            self._neighbors = None
        return port

    def remove_port(self, port_id: int) -> None:
        """Forget an (N-1) flow (deallocated or lost).

        PDUs still waiting in a paced port's scheduler are dropped
        (``port-removed``), so a pending serve event sends nothing; what
        a port already handed down stays with the (N-1) medium.
        """
        port = self._ports.pop(port_id, None)
        if port is None:
            return
        self._unlink_neighbor(port)
        scheduler = port.scheduler
        while len(scheduler):
            self._drop(scheduler.pop(), "port-removed")

    def port(self, port_id: int) -> RmtPort:
        """Look up a registered port."""
        return self._ports[port_id]

    def ports_to(self, neighbor: Address) -> List[RmtPort]:
        """All ports attaching to ``neighbor`` (the PoA candidates), as a
        new list."""
        return list(self._neighbor_ports.get(neighbor, ()))

    def neighbors(self) -> List[Address]:
        """Neighbor addresses with a registered port, sorted; do not edit."""
        if self._neighbors is None:
            self._neighbors = sorted(self._neighbor_ports)
        return self._neighbors

    def set_peer(self, port_id: int, peer_addr: Address) -> None:
        """Bind a port to its neighbor's address (learned at enrollment)."""
        port = self._ports[port_id]
        self._unlink_neighbor(port)
        port.peer_addr = peer_addr
        ports = self._neighbor_ports.setdefault(peer_addr, [])
        if port not in ports:
            ports.append(port)
        self._neighbors = None

    def _unlink_neighbor(self, port: RmtPort) -> None:
        """Take ``port`` out of its neighbor's list (and drop the list
        once empty)."""
        ports = self._neighbor_ports.get(port.peer_addr)
        if ports is not None and port in ports:
            ports.remove(port)
            if not ports:
                del self._neighbor_ports[port.peer_addr]
                self._neighbors = None

    def set_alive(self, port_id: int, alive: bool) -> None:
        """Neighbor-monitoring verdict for one port."""
        if port_id in self._ports:
            self._ports[port_id].alive = alive

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def submit(self, pdu: Pdu) -> None:
        """Entry point for PDUs, both locally generated and relayed."""
        dst = pdu.dst_addr
        local = self.local_addr
        # addresses are interned: identity settles the common case
        if dst is None or dst is local or (local is not None and dst == local):
            self.pdus_delivered += 1
            self._deliver_local(pdu, -1)
            return
        self._relay(pdu)

    def receive(self, pdu: Pdu, port_id: int) -> None:
        """Entry point for PDUs arriving on an (N-1) port."""
        dst = pdu.dst_addr
        local = self.local_addr
        if dst is None or dst is local or (local is not None and dst == local):
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
        candidates = self._neighbor_ports.get(next_hop)
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
            # unpaced or FIFO port: hand straight to the (N-1) flow
            if not port.send_fn(pdu, pdu.wire_size()):
                self._drop(pdu, "lower-layer-refused")
            return
        if not port.serving:
            now = self._engine.now
            if now >= port.free_at:
                # an idle port sends at once: no event, no queue trip
                self._send(port, pdu, now)
                return
        displaced = port.scheduler.push(pdu)
        if displaced is not None:
            self._drop(displaced, "queue-full")
        if not port.serving:
            port.serving = True
            self._engine.call_at(port.free_at, self._serve, port,
                                 label="rmt.serve")

    def _serve(self, port: RmtPort) -> None:
        """Send the scheduler's next PDU; serve again only while PDUs
        still wait.  A removed port's scheduler was emptied, so its last
        serve event sends nothing."""
        pdu = port.scheduler.pop()
        if pdu is not None:
            self._send(port, pdu, self._engine.now)
        if pdu is not None and len(port.scheduler):
            self._engine.call_at(port.free_at, self._serve, port,
                                 label="rmt.serve")
        else:
            port.serving = False

    def _send(self, port: RmtPort, pdu: Pdu, now: float) -> None:
        size = pdu.wire_size()
        # the port is busy for the PDU's time at the nominal rate (set
        # before send_fn, so a PDU enqueued from inside it waits)
        port.free_at = now + size * 8.0 / port.nominal_bps
        if not port.send_fn(pdu, size):
            self._drop(pdu, "lower-layer-refused")

    def _drop(self, pdu: Pdu, reason: str) -> None:
        self.pdus_dropped += 1
        if self._on_drop is not None:
            self._on_drop(pdu, reason)

    def queue_depths(self) -> Dict[int, int]:
        """Per-port scheduler occupancy (for congestion experiments)."""
        return {pid: port.queue_depth() for pid, port in self._ports.items()}
