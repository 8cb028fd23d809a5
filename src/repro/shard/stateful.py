"""The stateful control-plane workload: a real DIF, region-sharded.

PR 4's flood workload proved the frame-exchange protocol on primitive
tuples.  This module puts the actual architecture across the cut: each
engine builds :class:`~repro.core.system.System`\\ s, shims, and one
IPCP per system for a shared DIF, then runs **enrollment, RIEP
exchange, LSA flooding, and routing** — with every adjacency that
crosses a region boundary riding a codec-encoded
:class:`~repro.shard.engine.BoundaryHalf`.  The enrollment handshake,
the LSDB fast-sync, the hop-by-hop flood acks, and the keepalives all
cross worker processes as the codec's bytes.

Three design rules make the sharded build *equal* to the unsharded one
(same enrollments, same addresses, same RIB rows, bit-identical
timestamps), not merely similar:

1. **Fixed-time orchestration.**  The unsharded builders chain steps on
   completion callbacks inside one engine — a global sequencing no
   conservative-lookahead protocol can see.  Here every enrollment is
   scheduled at an absolute simulated time carried in the workload
   dict, so causality flows only through messages on links, which the
   lookahead rule accounts for exactly.  The schedule staggers starts
   (odd spacings, co-prime with hop delays) so no two causal chains
   collide on a float instant — the tie-freeness precondition of
   docs/ARCHITECTURE.md.  Tie-freeness is also what keeps the round
   rule exact: a frame arriving exactly on a region's granted horizon
   is injected into its next step, which is only order-identical to
   the unsharded run when no local event shares that float instant.

2. **Replicated addressing authority without shared state.**  Each
   engine holds its own :class:`~repro.core.dif.Dif` replica, so the
   address assignment a member performs must not depend on assignments
   performed elsewhere.  The workload gives every system a *unique*
   topological region hint; :class:`TopologicalAddressing` then assigns
   ``(*hint, 1)`` — a pure function of the joiner, identical whichever
   replica's authenticator computes it, in whatever order.

3. **Pure-data workload.**  The dict built by
   :func:`stateful_workload` is the whole description — DIF name,
   bootstrap member, hints, enrollment schedule, policy scalars, run
   cap — so one description drives the unsharded reference run, every
   in-process shard, and every ``spawn``-ed worker identically.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.dif import Dif, DifPolicies
from ..core.addressing import TopologicalAddressing
from ..core.directory import InterDifDirectory
from ..core.system import System
from ..sim.network import Network

STATEFUL_KIND = "stateful"

#: Control-plane policy scalars.  Deliberately *odd* values (co-prime
#: with the plants' 1/2 ms hop delays and with each other) so periodic
#: ticks never land on the same float instant as an enrollment causal
#: chain — the tie-freeness precondition for bit-identical sharding.
DEFAULT_POLICIES: Dict[str, float] = {
    "keepalive_interval": 0.5113,
    "dead_factor": 4.0,
    "spf_delay": 0.0213,
    "mgmt_timeout": 5.0,
}


def stateful_workload(dif: str, bootstrap: str,
                      enrollments: Sequence[Tuple[str, str, str, float]],
                      hints: Dict[str, Sequence[int]],
                      policies: Optional[Dict[str, float]] = None,
                      until: Optional[float] = None) -> Dict[str, Any]:
    """The pure-data workload description carried to every shard.

    ``enrollments`` rows are ``(system, via_system, lower_dif, at)``:
    at simulated time ``at``, ``system`` allocates a flow over
    ``lower_dif`` (a shim name) to ``via_system``'s member IPCP and
    runs the §5.2 join.  ``hints`` must give every system a unique
    region path (see rule 2 in the module docstring); ``until`` is the
    recommended run cap (the control plane keeps heartbeating forever,
    so a stateful run never quiesces on its own).
    """
    merged = dict(DEFAULT_POLICIES)
    merged.update(policies or {})
    return {
        "kind": STATEFUL_KIND,
        "dif": str(dif),
        "bootstrap": str(bootstrap),
        "enrollments": [[str(system), str(via), str(lower), float(at)]
                        for system, via, lower, at in enrollments],
        "hints": {str(system): [int(part) for part in hint]
                  for system, hint in hints.items()},
        "policies": merged,
        "until": until,
    }


class StatefulControlPlane:
    """One engine's slice of the DIF: systems + shims + member IPCPs
    for the local nodes, with the workload's enrollment schedule
    installed at fixed simulated times.

    Implements the common workload surface
    (:func:`repro.shard.engine.attach_workload`): delivery rows are
    enrollment completions, node stats carry the per-member routing
    state and a RIB fingerprint.
    """

    def __init__(self, network: Network, workload: Dict[str, Any],
                 local_nodes: Optional[Tuple[str, ...]] = None) -> None:
        if workload.get("kind") != STATEFUL_KIND:
            raise ValueError(f"unknown workload kind "
                             f"{workload.get('kind')!r}")
        self.network = network
        self.dif_name = str(workload["dif"])
        scalars = dict(DEFAULT_POLICIES)
        scalars.update(workload.get("policies") or {})
        self.dif = Dif(self.dif_name, DifPolicies(
            addressing=TopologicalAddressing(),
            keepalive_interval=scalars["keepalive_interval"],
            dead_factor=scalars["dead_factor"],
            spf_delay=scalars["spf_delay"],
            mgmt_timeout=scalars["mgmt_timeout"],
            refresh_interval=None))
        hints = {name: tuple(hint)
                 for name, hint in (workload.get("hints") or {}).items()}
        self._hints = hints
        self.idd = InterDifDirectory()
        self.systems: Dict[str, System] = {}
        self._enroll_rows: List[Dict[str, Any]] = []
        self._enroll_seq: Dict[str, int] = {}
        self._stat_cache: Optional[Tuple[int, List[Dict[str, Any]]]] = None
        names = tuple(local_nodes) if local_nodes is not None \
            else tuple(network.nodes)
        for name in names:
            node = network.node(name)
            system = System(node, idd=self.idd, tracer=network.tracer)
            self.systems[name] = system
            shim_names = []
            for interface in node.interfaces():
                shim = system.add_shim(interface,
                                       f"shim:{interface.link.name}")
                shim_names.append(str(shim.name))
            system.create_ipcp(self.dif)
            for shim_name in shim_names:
                system.publish_ipcp(self.dif_name, shim_name)
        bootstrap = str(workload["bootstrap"])
        if bootstrap in self.systems:
            address = self.systems[bootstrap].ipcp(self.dif_name).bootstrap(
                hints.get(bootstrap))
            self._record(bootstrap, 0.0, True, "bootstrap", str(address))
        for system, via, lower, at in workload["enrollments"]:
            if str(system) in self.systems:
                network.engine.call_at(
                    float(at), self._start_enroll, str(system), str(via),
                    str(lower), label="stateful.enroll")

    # ------------------------------------------------------------------
    def _start_enroll(self, name: str, via: str, lower: str) -> None:
        system = self.systems[name]
        member_app = self.dif.name.ipcp_name(via)

        def done(ok: bool, reason: str) -> None:
            ipcp = system.ipcp(self.dif_name)
            self._record(name, self.network.engine.now, ok, reason,
                         str(ipcp.address) if ipcp.address else "")

        system.enroll(self.dif_name, member_app, lower,
                      self._hints.get(name), done)

    def _record(self, name: str, time: float, ok: bool, how: str,
                address: str) -> None:
        seq = self._enroll_seq.get(name, 0)
        self._enroll_seq[name] = seq + 1
        self._enroll_rows.append({
            "node": name, "origin": "enroll", "seq": seq, "time": time,
            "ok": ok, "how": how, "address": address})

    # ------------------------------------------------------------------
    # Workload surface
    # ------------------------------------------------------------------
    def delivery_rows(self) -> List[Dict[str, Any]]:
        """Enrollment completions, sorted by the common merge key."""
        return sorted(self._enroll_rows,
                      key=lambda row: (row["node"], row["origin"],
                                       row["seq"]))

    def node_stat_rows(self) -> List[Dict[str, Any]]:
        """Per-member control-plane state, RIB fingerprint included.

        The members' fingerprints share one :class:`_LsaLines`, so each
        LSA is rendered once per call, not once per member holding it.
        Cached per engine position: hashing every member's table + LSDB
        is still O(members²), and a shard's ``finish`` reads the rows
        twice (stat rows and trace lines).  State only changes by
        processing events, so the event counter is a sound cache key.
        """
        stamp = self.network.engine.events_processed
        if self._stat_cache is not None and self._stat_cache[0] == stamp:
            return self._stat_cache[1]
        rows = []
        lsa_lines = _LsaLines()
        for name in sorted(self.systems):
            ipcp = self.systems[name].ipcp(self.dif_name)
            rows.append({
                "node": name,
                "address": str(ipcp.address) if ipcp.address else "",
                "table_size": ipcp.routing.table_size(),
                "lsdb_size": ipcp.routing.lsdb_size(),
                "lsas_received": ipcp.routing.lsas_received,
                "lsas_reflooded": ipcp.routing.lsas_reflooded,
                "rib_sha256": rib_fingerprint(ipcp, lsa_lines),
            })
        self._stat_cache = (stamp, rows)
        return rows

    def summary_extra(self) -> Dict[str, Any]:
        enrolled = sum(1 for row in self._enroll_rows if row["ok"])
        return {
            "enrolled": enrolled,
            "table_rows": sum(
                self.systems[name].ipcp(self.dif_name).routing.table_size()
                for name in self.systems),
        }

    def trace_lines(self) -> List[str]:
        lines = []
        for row in self.delivery_rows():
            lines.append(f"enroll {row['node']} seq={row['seq']} "
                         f"t={row['time']!r} ok={row['ok']} "
                         f"addr={row['address']} how={row['how']}")
        for stats in self.node_stat_rows():
            lines.append("node {node} addr={address} table={table_size} "
                         "lsdb={lsdb_size} lsas_rx={lsas_received} "
                         "lsas_fl={lsas_reflooded} "
                         "rib={rib_sha256}".format(**stats))
        return lines


class _AddressTexts(dict):
    """``str(address)`` for every address asked for, rendered once."""

    __slots__ = ()

    def __missing__(self, address) -> str:
        text = self[address] = str(address)
        return text


class _LsaLines(dict):
    """The fingerprint line of every :class:`~repro.core.routing.Lsa`
    asked for, rendered once.  Keyed by the LSA object itself: the
    members of a process share one object per LSA (link-state is the
    same in every member of a DIF), so one cache serves them all."""

    __slots__ = ("texts",)

    def __init__(self) -> None:
        super().__init__()
        self.texts = _AddressTexts()

    def __missing__(self, lsa) -> str:
        texts = self.texts
        neighbors = ",".join(f"{texts[addr]}:{cost!r}"
                             for addr, cost in sorted(lsa.neighbors.items()))
        line = self[lsa] = (f"lsa {texts[lsa.origin]} seq={lsa.seq} "
                            f"nbrs=[{neighbors}]")
        return line


def rib_fingerprint(ipcp, lsa_lines: Optional[_LsaLines] = None) -> str:
    """SHA-256 of one member's canonical RIB/routing rendering: address,
    next-hop table, LSDB (origin/seq/neighbor sets), adjacency list.

    This is the "RIB-row" identity the sharded acceptance pins: a
    sharded member must end with exactly the state its unsharded twin
    holds, down to every table row and LSA sequence number.  Callers
    that fingerprint many members pass one ``lsa_lines`` cache to all
    of them, so each shared LSA and address is rendered once.
    """
    if lsa_lines is None:
        lsa_lines = _LsaLines()
    texts = lsa_lines.texts
    lines = [f"address={ipcp.address}"]
    lines += [f"route {texts[dst]}->{texts[hop]}"
              for dst, hop in sorted(ipcp.routing.table().items())]
    lines += [lsa_lines[lsa] for lsa in ipcp.routing.lsas()]
    lines += [f"neighbor {texts[neighbor]}"
              for neighbor in ipcp.rmt.neighbors()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
