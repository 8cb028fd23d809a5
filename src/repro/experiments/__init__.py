"""Experiment harnesses — one module per figure/claim of the paper.

Each module exposes ``run_*`` functions returning plain dict rows, plus
an ``iter_jobs()`` that renders its default configuration sweep as a
list of picklable :class:`repro.sweeps.Job` data — the form the
multi-process sweep runner (CLI ``--jobs N``, bench ``REPRO_JOBS``)
dispatches over a worker pool.  The ``benchmarks/`` suite times the
sweeps and prints the paper-style tables, and
``tests/test_experiments.py`` asserts the qualitative shapes.

* ``e1_two_system``         — Fig 1: one IPC layer between two hosts
* ``e2_relay``              — Fig 2: relaying through dedicated systems
* ``e3_scoped_recovery``    — Fig 3/§6.2: narrow-scope DIF over wireless
* ``e4_multihoming``        — Fig 4/§6.3: PoA failover vs TCP vs SCTP
* ``e5_mobility``           — Fig 5/§6.4: handover locality vs Mobile-IP
* ``e6_scalability``        — §6.5: flat vs recursive routing state
* ``e7_security``           — §6.1: enrollment, PDU gate, ACLs vs IP scan
* ``e8_utilization``        — §6.6: utilization before QoS violation
* ``e9_private_addresses``  — §6.5/§6.7: address reuse without NAT
* ``a1_addressing``         — ablation: topological vs flat addresses
* ``a2_efcp_policies``      — ablation: EFCP retransmission/congestion
* (A3, schedulers, reuses the ``e8_utilization`` harness)
"""

from . import common

__all__ = ["common"]
