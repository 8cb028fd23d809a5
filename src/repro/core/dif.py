"""The DIF: configuration, policy bundle, and membership authority.

A Distributed IPC Facility is "a coordinated set of functions" (§3.1) whose
*mechanisms* are identical at every rank and whose *policies* are tuned to
the facility's scope.  :class:`DifPolicies` is that tuning surface — every
knob the experiments sweep lives here.

The :class:`Dif` object itself plays the role of the facility's shared
configuration and address-assignment authority.  In a physical deployment
this state is replicated among members by management protocols; holding it
in one Python object is a simulation simplification that does not bypass
any protocol under test — enrollment, flooding, routing, and flow
allocation still happen message-by-message over the simulated wires.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from .addressing import AddressingPolicy, FlatAddressing
from .auth import AllowAll, AuthPolicy, FlowAccessPolicy, NoAuth
from .names import Address, DifName
from .qos import BEST_EFFORT, DEFAULT_CUBES, QosCube
from .rmt import PATH_SELECTORS, SCHEDULERS, PathSelector, Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ipcp import Ipcp


class DifError(RuntimeError):
    """Raised for DIF-level configuration/membership failures."""


class DifPolicies:
    """Every policy choice of one DIF, with defaults for a mid-range scope.

    Attributes
    ----------
    addressing:
        How enrollment assigns addresses (flat vs topological, ablation A1).
    auth:
        Enrollment authentication (security range, experiment E7).
    access:
        Destination-side flow access control (§5.3).
    qos_cubes:
        The service classes this facility offers.
    efcp_overrides:
        Keyword overrides applied to every EFCP policy derived from a cube
        (e.g. ``{"rto_initial": 0.05}`` for a narrow-scope wireless DIF).
    efcp_cube_overrides:
        Per-cube-name overrides layered on top of ``efcp_overrides``
        (e.g. ``{"bulk": {"congestion": "aimd"}}``).
    scheduler / scheduler_kwargs:
        RMT multiplexing discipline per (N-1) port (ablation A3).
    path_selector:
        Step-two PoA selection among ports to the same next hop (Fig 4).
    keepalive_interval / dead_factor:
        Neighbor liveness: a port is dead after ``dead_factor`` silent
        intervals.  Narrow-scope DIFs use short intervals — exactly the
        "policies tuned to the range" argument of §4.
    spf_delay:
        Routing hold-down between LSDB change and SPF.
    mgmt_timeout:
        RIEP request timeout (enrollment, flow allocation).
    allocate_retries / allocate_retry_delay:
        Flow-allocation retries while directory dissemination converges.
    lower_flow_cube:
        QoS requested from (N-1) DIFs for this DIF's adjacencies.
    max_members:
        Membership bound ("management policies that constrain the
        membership size of each IPC facility", §6.5); None = unbounded.
    refresh_interval:
        Anti-entropy period: each member periodically re-floods its LSA and
        directory record (sequence numbers bumped) so state lost to a lossy
        medium converges anyway; None disables.
    enroll_attempts:
        Retries for each enrollment request message before giving up.
    flood_attempts / flood_ack_timeout:
        Hop-by-hop reliable flooding (the OSPF-LSAck mechanism): each
        flooded update is acknowledged by the adjacent member and resent up
        to ``flood_attempts`` times at ``flood_ack_timeout`` spacing.
    pace_ports:
        Whether RMT ports are paced at the lower flow's nominal rate
        (required for scheduler policies to have effect).
    admission_capacity_bps:
        Guaranteed-bandwidth admission control (§3.1's "allocate resources
        required to meet the desired properties", IntServ-style): each
        member admits flows with an ``avg_bandwidth`` demand only while the
        sum of admitted demands stays within this budget.  None disables
        admission control (pure best-effort sharing).
    """

    __slots__ = ("addressing", "auth", "access", "qos_cubes",
                 "efcp_overrides", "efcp_cube_overrides", "scheduler",
                 "scheduler_kwargs", "path_selector", "keepalive_interval",
                 "dead_factor", "spf_delay", "mgmt_timeout",
                 "allocate_retries", "allocate_retry_delay",
                 "lower_flow_cube", "max_members", "refresh_interval",
                 "enroll_attempts", "flood_attempts", "flood_ack_timeout",
                 "pace_ports", "admission_capacity_bps")

    def __init__(self,
                 addressing: Optional[AddressingPolicy] = None,
                 auth: Optional[AuthPolicy] = None,
                 access: Optional[FlowAccessPolicy] = None,
                 qos_cubes: Optional[Dict[str, QosCube]] = None,
                 efcp_overrides: Optional[Dict[str, Any]] = None,
                 efcp_cube_overrides: Optional[Dict[str, Dict[str, Any]]] = None,
                 scheduler: str = "fifo",
                 scheduler_kwargs: Optional[Dict[str, Any]] = None,
                 path_selector: str = "first-alive",
                 keepalive_interval: float = 1.0,
                 dead_factor: float = 3.0,
                 spf_delay: float = 0.02,
                 mgmt_timeout: float = 5.0,
                 allocate_retries: int = 5,
                 allocate_retry_delay: float = 0.25,
                 lower_flow_cube: Optional[QosCube] = None,
                 max_members: Optional[int] = None,
                 refresh_interval: Optional[float] = 10.0,
                 enroll_attempts: int = 3,
                 flood_attempts: int = 4,
                 flood_ack_timeout: float = 0.4,
                 pace_ports: bool = True,
                 admission_capacity_bps: Optional[float] = None) -> None:
        if scheduler not in SCHEDULERS:
            raise DifError(f"unknown scheduler policy {scheduler!r}")
        if path_selector not in PATH_SELECTORS:
            raise DifError(f"unknown path selector policy {path_selector!r}")
        if keepalive_interval <= 0 or dead_factor < 1:
            raise DifError("keepalive_interval must be >0 and dead_factor >=1")
        self.addressing = addressing or FlatAddressing()
        self.auth = auth or NoAuth()
        self.access = access or AllowAll()
        self.qos_cubes = dict(qos_cubes) if qos_cubes is not None else dict(DEFAULT_CUBES)
        self.efcp_overrides = dict(efcp_overrides or {})
        self.efcp_cube_overrides = {
            name: dict(overrides)
            for name, overrides in (efcp_cube_overrides or {}).items()}
        self.scheduler = scheduler
        self.scheduler_kwargs = dict(scheduler_kwargs or {})
        self.path_selector = path_selector
        self.keepalive_interval = keepalive_interval
        self.dead_factor = dead_factor
        self.spf_delay = spf_delay
        self.mgmt_timeout = mgmt_timeout
        self.allocate_retries = allocate_retries
        self.allocate_retry_delay = allocate_retry_delay
        self.lower_flow_cube = lower_flow_cube or BEST_EFFORT
        self.max_members = max_members
        self.refresh_interval = refresh_interval
        self.enroll_attempts = max(1, enroll_attempts)
        self.flood_attempts = max(1, flood_attempts)
        self.flood_ack_timeout = flood_ack_timeout
        self.pace_ports = pace_ports
        if admission_capacity_bps is not None and admission_capacity_bps <= 0:
            raise DifError("admission capacity must be positive or None")
        self.admission_capacity_bps = admission_capacity_bps

    def efcp_overrides_for(self, cube_name: str) -> Dict[str, Any]:
        """Merged EFCP overrides for one QoS cube."""
        merged = dict(self.efcp_overrides)
        merged.update(self.efcp_cube_overrides.get(cube_name, {}))
        return merged

    def make_scheduler(self) -> Scheduler:
        """Instantiate one RMT port scheduler per current policy."""
        return SCHEDULERS[self.scheduler](**self.scheduler_kwargs)

    def make_path_selector(self) -> PathSelector:
        """Instantiate the PoA selection policy."""
        return PATH_SELECTORS[self.path_selector]()


class Dif:
    """One distributed IPC facility.

    ``rank`` is the facility's position in the stack (shims are rank 0);
    ``scope`` is simply its current membership (§4: "a scope (the
    collection of IPC processes that make up the IPC facility)").
    """

    __slots__ = ("name", "policies", "rank", "_members",
                 "enrollments_accepted", "enrollments_denied")

    def __init__(self, name: str, policies: Optional[DifPolicies] = None,
                 rank: int = 1) -> None:
        self.name = DifName(name)
        self.policies = policies or DifPolicies()
        self.rank = rank
        self._members: Dict[Address, "Ipcp"] = {}
        self.enrollments_accepted = 0
        self.enrollments_denied = 0

    # ------------------------------------------------------------------
    # Membership / addressing authority
    # ------------------------------------------------------------------
    def assign_address(self, region_hint: Optional[Sequence[int]] = None) -> Address:
        """Allocate a fresh member address, enforcing the membership bound."""
        if (self.policies.max_members is not None
                and len(self._members) >= self.policies.max_members):
            raise DifError(f"{self.name} is full "
                           f"({self.policies.max_members} members)")
        return self.policies.addressing.assign(region_hint)

    def register_member(self, address: Address, ipcp: "Ipcp") -> None:
        """Record a member holding ``address``."""
        if address in self._members:
            raise DifError(f"address {address} already held in {self.name}")
        self._members[address] = ipcp

    def remove_member(self, address: Address) -> None:
        """Forget a departed member and recycle its address."""
        if self._members.pop(address, None) is not None:
            self.policies.addressing.release(address)

    def members(self) -> Dict[Address, "Ipcp"]:
        """Address → IPCP map (copy)."""
        return dict(self._members)

    def member_count(self) -> int:
        """Current scope size."""
        return len(self._members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Dif {self.name} rank={self.rank} members={len(self._members)}>"
