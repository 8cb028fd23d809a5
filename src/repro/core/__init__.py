"""The paper's contribution: a recursive distributed-IPC network architecture.

Public surface of the core package.  The typical call sequence a user (or
our own experiments) follows:

1. build a :class:`~repro.sim.network.Network` topology;
2. wrap nodes in :class:`System` objects and add shims over links
   (:mod:`repro.core.fabric` helpers);
3. declare :class:`Dif` facilities with :class:`DifPolicies`;
4. enroll members (:class:`Orchestrator`), stack DIFs as needed;
5. register applications by :class:`ApplicationName` and allocate flows
   with QoS cubes — then run the engine.
"""

from .addressing import (AddressingPolicy, FlatAddressing, TopologicalAddressing,
                         aggregate_forwarding_table, lookup_aggregated)
from .api import MessageFlow
from .auth import (AllowAll, AllowList, AuthPolicy, ChallengeResponse, DenyAll,
                   FlowAccessPolicy, NoAuth, PresharedKey)
from .codec import WireError, decode, encode
from .delimiting import Delimiter, Fragment, Reassembler
from .dif import Dif, DifError, DifPolicies
from .directory import DifDirectory, InterDifDirectory
from .efcp import EfcpConnection, EfcpPolicy
from .enrollment import EnrollmentTask
from .fabric import (FabricError, Orchestrator, add_shims, build_dif_over,
                     make_systems, run_until, shim_between, shim_name_for)
from .flow import PENDING, Flow, FlowError
from .flow_allocator import FlowAllocator
from .ipcp import Ipcp
from .names import Address, ApplicationName, DifName, PortId
from .pdu import ControlPdu, DataPdu, ManagementPdu, Pdu
from .qos import (BEST_EFFORT, BULK, DEFAULT_CUBES, LOW_LATENCY, RELIABLE,
                  QosCube, resolve_cube)
from .rib import Rib, RibError
from .riep import InvokeTable, RiepMessage
from .rmt import (DrrScheduler, FifoScheduler, HashedPaths, PathSelector,
                  PreferFirstAlive, PriorityScheduler, Rmt, RoundRobinPaths,
                  Scheduler)
from .routing import LinkStateRouting, Lsa
from .shim import ShimIpcp
from .system import System

__all__ = [
    "Address", "ApplicationName", "DifName", "PortId",
    "QosCube", "BEST_EFFORT", "RELIABLE", "LOW_LATENCY", "BULK",
    "DEFAULT_CUBES", "resolve_cube",
    "Pdu", "DataPdu", "ControlPdu", "ManagementPdu",
    "WireError", "encode", "decode",
    "EfcpConnection", "EfcpPolicy",
    "Delimiter", "Reassembler", "Fragment",
    "Rib", "RibError", "RiepMessage", "InvokeTable",
    "AuthPolicy", "NoAuth", "PresharedKey", "ChallengeResponse",
    "FlowAccessPolicy", "AllowAll", "DenyAll", "AllowList",
    "AddressingPolicy", "FlatAddressing", "TopologicalAddressing",
    "aggregate_forwarding_table", "lookup_aggregated",
    "Rmt", "Scheduler", "FifoScheduler", "PriorityScheduler", "DrrScheduler",
    "PathSelector", "PreferFirstAlive", "RoundRobinPaths", "HashedPaths",
    "LinkStateRouting", "Lsa",
    "DifDirectory", "InterDifDirectory",
    "Dif", "DifPolicies", "DifError",
    "EnrollmentTask", "FlowAllocator", "Flow", "FlowError", "PENDING",
    "Ipcp", "ShimIpcp", "System",
    "MessageFlow",
    "Orchestrator", "FabricError", "make_systems", "add_shims",
    "build_dif_over", "run_until", "shim_between", "shim_name_for",
]
