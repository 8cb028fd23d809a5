"""repro — executable reproduction of "Networking is IPC" (Day, Matta,
Mattar; BUCS-TR-2008-019, 2008).

Packages
--------
``repro.sim``
    Deterministic discrete-event substrate (links, nodes, topologies).
``repro.core``
    The paper's architecture: recursive DIFs, EFCP, RIEP, enrollment,
    two-step routing, flow allocation.
``repro.baselines``
    A "current Internet" stack (IP/TCP/UDP/RIP/NAT/Mobile-IP/SCTP) built on
    the same substrate, for the §6 comparisons.
``repro.apps``
    Applications written against the IPC API (and the sockets foil).
``repro.experiments``
    Scenario builders and metric harnesses, one module per figure or
    claim: ``python -m repro`` prints their tables.
"""

__version__ = "1.0.0"
