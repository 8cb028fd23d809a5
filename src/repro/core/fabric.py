"""Fabric: composing systems, shims, and DIF stacks over a topology.

Everything in the architecture is asynchronous — lower flows allocate via
callbacks, enrollment is a message exchange, directories flood — so
building a multi-level stack is a *sequence* of dependent steps.  The
:class:`Orchestrator` runs such steps inside the simulation: each step
starts when the previous one completed, with optional settle time for
floods and SPF runs to quiesce.

:func:`build_dif_over` wires the common case used throughout the
experiments: one DIF whose members sit on a set of systems, with a given
adjacency graph, each adjacency riding a named lower facility (a shim or
another DIF).  Bootstrap member first, then BFS enrollment, then the extra
adjacencies — exactly the §5.1/§5.2 procedure.
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.engine import Engine
from ..sim.network import Network
from .dif import Dif
from .directory import InterDifDirectory
from .names import ApplicationName
from .system import System


class FabricError(RuntimeError):
    """Raised when stack construction fails (enrollment denied, timeout...)."""


def run_until(network: Network, predicate: Callable[[], bool],
              timeout: float = 30.0, step: float = 0.05) -> bool:
    """Advance the simulation until ``predicate()`` holds or ``timeout``
    simulated seconds elapse.  Returns whether the predicate held.  The
    cyclic collector stays paused between the runs, as :meth:`Engine.run`
    pauses it inside each: its passes there freed nothing."""
    deadline = network.engine.now + timeout
    collecting = gc.isenabled()
    gc.disable()
    try:
        while network.engine.now < deadline:
            if predicate():
                return True
            network.run(until=min(deadline, network.engine.now + step))
        return predicate()
    finally:
        if collecting:
            gc.enable()


class Orchestrator:
    """Sequential step runner living inside the simulation.

    Constructed over a :class:`Network` (the usual case) or a bare
    :class:`Engine` — the live-traffic gateway drives an engine with no
    network around it.  :meth:`run` (which blocks by stepping the
    simulation itself) needs the network; :meth:`start` works on either,
    leaving the event loop in the caller's hands.
    """

    __slots__ = ("_network", "_engine", "_steps", "failures", "_done")

    def __init__(self, network: "Network | Engine") -> None:
        if isinstance(network, Engine):
            self._network: Optional[Network] = None
            self._engine: Engine = network
        else:
            self._network = network
            self._engine = network.engine
        self._steps: List[Tuple[str, Callable[[Callable[[bool, str], None]], None]]] = []
        self.failures: List[str] = []
        self._done = False

    # ------------------------------------------------------------------
    # Step vocabulary
    # ------------------------------------------------------------------
    def add_step(self, label: str,
                 fn: Callable[[Callable[[bool, str], None]], None]) -> None:
        """Append a raw step: ``fn`` must call its argument when finished."""
        self._steps.append((label, fn))

    def enroll(self, system: System, dif_name: str, member_app: ApplicationName,
               lower_dif: str, region_hint: Optional[Sequence[int]] = None) -> None:
        """Step: enroll ``system``'s IPCP into ``dif_name`` (§5.2)."""
        label = f"enroll {system.name} in {dif_name} via {lower_dif}"

        def step(done: Callable[[bool, str], None]) -> None:
            system.enroll(dif_name, member_app, lower_dif, region_hint, done)
        self.add_step(label, step)

    def connect(self, system: System, dif_name: str,
                member_app: ApplicationName, lower_dif: str) -> None:
        """Step: extra adjacency from an enrolled member to another."""
        label = f"connect {system.name} to {member_app} in {dif_name}"

        def step(done: Callable[[bool, str], None]) -> None:
            system.connect_neighbor(dif_name, member_app, lower_dif, done)
        self.add_step(label, step)

    def settle(self, duration: float) -> None:
        """Step: let floods/SPF quiesce for ``duration`` simulated seconds."""
        def step(done: Callable[[bool, str], None]) -> None:
            self._engine.call_later(duration, done, True, "settled")
        self.add_step(f"settle {duration}s", step)

    def call(self, label: str, fn: Callable[[], None]) -> None:
        """Step: run a synchronous action."""
        def step(done: Callable[[bool, str], None]) -> None:
            fn()
            done(True, "called")
        self.add_step(label, step)

    # ------------------------------------------------------------------
    def start(self) -> Callable[[], bool]:
        """Begin executing the queued steps inside the engine.

        Returns an is-done predicate; completed-step failures accumulate
        in :attr:`failures`.  :meth:`run` wraps this with the blocking
        :func:`run_until` loop — external event loops (the gateway's
        async driver) call ``start()`` and poll the predicate themselves.
        """
        self._done = False
        self.failures = []
        steps = list(self._steps)
        self._steps = []

        def run_next(index: int) -> None:
            if index >= len(steps):
                self._done = True
                return
            label, fn = steps[index]

            def done(ok: bool, reason: str) -> None:
                if not ok:
                    self.failures.append(f"{label}: {reason}")
                run_next(index + 1)
            fn(done)

        self._engine.call_soon(run_next, 0, label="fabric.start")
        return lambda: self._done

    def check(self, finished: bool, strict: bool = True) -> bool:
        """Shared post-run verdict: raise on timeout (or, with
        ``strict``, on any step failure); else report success."""
        if not finished:
            raise FabricError(f"orchestration timed out; completed steps ok, "
                              f"failures so far: {self.failures}")
        if strict and self.failures:
            raise FabricError("; ".join(self.failures))
        return not self.failures

    def run(self, timeout: float = 120.0, strict: bool = True) -> bool:
        """Execute all steps inside the simulation.

        Returns True when every step reported success.  With ``strict`` a
        failed step raises :class:`FabricError` immediately.
        """
        if self._network is None:
            raise FabricError("run() needs a Network; engine-only "
                              "orchestrators use start() with an external "
                              "event loop")
        is_done = self.start()
        finished = run_until(self._network, is_done, timeout=timeout)
        return self.check(finished, strict=strict)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def make_systems(network: Network,
                 names: Optional[Iterable[str]] = None,
                 idd: Optional[InterDifDirectory] = None) -> Dict[str, System]:
    """Create a :class:`System` per node (default: all nodes), sharing one
    inter-DIF directory and the network's tracer."""
    idd = idd if idd is not None else InterDifDirectory()
    systems = {}
    for name in (names if names is not None else network.nodes):
        systems[name] = System(network.node(name), idd=idd,
                               tracer=network.tracer)
    return systems


def shim_name_for(link_name: str) -> str:
    """Canonical shim DIF name for a physical link."""
    return f"shim:{link_name}"


def add_shims(systems: Dict[str, System], network: Network) -> None:
    """Create the rank-0 shim facility on both ends of every link whose
    endpoints both have systems."""
    for node_name, system in systems.items():
        for interface in network.node(node_name).interfaces():
            system.add_shim(interface, shim_name_for(interface.link.name))


def shim_between(network: Network, a: str, b: str) -> str:
    """Shim DIF name of the (first) link between systems ``a`` and ``b``."""
    return shim_name_for(network.link_between(a, b).name)


def build_dif_over(orchestrator: Orchestrator, dif: Dif,
                   systems: Dict[str, System],
                   adjacencies: Sequence[Tuple[str, str, str]],
                   bootstrap: Optional[str] = None,
                   region_hints: Optional[Dict[str, Sequence[int]]] = None,
                   settle: float = 0.5) -> None:
    """Queue the steps creating one DIF across ``systems``.

    Parameters
    ----------
    adjacencies:
        Triples ``(system_a, system_b, lower_dif_name)`` — the (N-1)
        facility each adjacency rides on.
    bootstrap:
        The initial member (§5.1); defaults to the first adjacency's
        first endpoint.
    region_hints:
        Optional per-system region paths for topological addressing.
    """
    if not adjacencies:
        raise FabricError("a DIF needs at least one adjacency")
    region_hints = region_hints or {}
    members = []
    for a, b, _lower in adjacencies:
        for name in (a, b):
            if name not in members:
                members.append(name)
    if bootstrap is None:
        bootstrap = members[0]
    if bootstrap not in members:
        raise FabricError(f"bootstrap {bootstrap!r} not in adjacency graph")

    # every member gets an IPCP, published into the lower facilities its
    # adjacencies use, so peers can allocate enrollment flows to it.
    lowers_of: Dict[str, List[str]] = {name: [] for name in members}
    for a, b, lower in adjacencies:
        for name in (a, b):
            if lower not in lowers_of[name]:
                lowers_of[name].append(lower)

    def create_all() -> None:
        for name in members:
            system = systems[name]
            system.create_ipcp(dif)
            for lower in lowers_of[name]:
                system.publish_ipcp(str(dif.name), lower)
        systems[bootstrap].ipcp(str(dif.name)).bootstrap(
            region_hints.get(bootstrap))

    orchestrator.call(f"create {dif.name} ipcps", create_all)

    # BFS from the bootstrap member over the adjacency graph: each new
    # member enrolls via an already enrolled neighbor; every remaining edge
    # (including parallel edges between the same pair — extra points of
    # attachment) becomes an adjacency handshake.
    neighbor_edges: Dict[str, List[Tuple[str, str, int]]] = {n: [] for n in members}
    for index, (a, b, lower) in enumerate(adjacencies):
        neighbor_edges[a].append((b, lower, index))
        neighbor_edges[b].append((a, lower, index))

    enrolled = {bootstrap}
    used_edges = set()
    frontier = deque([bootstrap])
    while frontier:
        current = frontier.popleft()
        for peer, lower, index in neighbor_edges[current]:
            if peer in enrolled:
                continue
            member_app = dif.name.ipcp_name(current)
            orchestrator.enroll(systems[peer], str(dif.name), member_app,
                                lower, region_hints.get(peer))
            used_edges.add(index)
            enrolled.add(peer)
            frontier.append(peer)
    # remaining adjacencies (between enrolled members, or parallel paths)
    for index, (a, b, lower) in enumerate(adjacencies):
        if index in used_edges:
            continue
        member_app = dif.name.ipcp_name(b)
        orchestrator.connect(systems[a], str(dif.name), member_app, lower)
    if settle > 0:
        orchestrator.settle(settle)
