"""E3 — Figure 3 / §6.2: repeating the IPC layer over a lossy wireless scope.

What the figure shows: a host-to-host DIF riding DIFs "tailored to the
wireless component"; the claim (§6.2) is that an extra narrow-scope layer,
with policies tuned to that range, manages the underlying channel better
than one wide-scope layer can — today's kludge being performance-enhancing
proxies.

Setup: ``sender — (wired) — border — (lossy wireless) — mobile``.

* **e2e** configuration: one internet-wide DIF over both links.  Its EFCP
  policies must suit a wide operating range, so its retransmission floor
  is conservative (``rto_min = 0.2 s``, like practical TCP); every wireless
  loss costs an end-to-end recovery.
* **scoped** configuration: the same internet DIF, plus a 2-member wireless
  DIF over the lossy hop with aggressive local recovery
  (``rto_min = 5 ms``).  The internet DIF's border–mobile adjacency rides a
  *reliable* flow of the wireless DIF, so losses are repaired locally and
  the wide-scope layer almost never notices.

The wired segment has a wide-area delay (default 60 ms one way): the whole
point of §4's "closed-loop control is more effective/stable for shorter
feedback loops" is that an end-to-end recovery costs at least one long RTT
while a local recovery costs one short one.  With a LAN-scale wired delay
both configurations recover cheaply and the layering overhead dominates —
scoping is a *policy for a range*, not a free win, which is itself a §4
claim worth demonstrating (see the table's loss-free row).

Expected shape: goodput of **scoped** degrades slowly with loss; **e2e**
collapses — and the gap widens with loss rate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Union

from ..apps.filetransfer import FileSender, FileSink
from ..core import PENDING, RELIABLE, run_until
from ..scenarios.canned import e3_scenario
from ..scenarios.runner import build_rina_stack
from ..sim.link import GilbertElliott
from ..sweeps import Job
from .common import goodput_bps


def build_scenario(config: str, seed: int = 1, wired_delay: float = 0.06):
    """Build the stack; returns (network, systems, loss_knob).

    The topology and DIF stack are the declarative scenario spec
    :func:`repro.scenarios.canned.e3_scenario`; this experiment keeps only
    the loss knob and the measurement logic.
    """
    spec = e3_scenario(config, wired_delay=wired_delay)
    built = build_rina_stack(spec, seed=seed)
    network, systems = built.network, built.systems
    # loss injected after the stack settles, through the radio's loss model
    loss_model = network.link_between("border", "mobile").loss
    return network, systems, loss_model


#: The ``loss`` of a bursty row: a Gilbert–Elliott radio in place of
#: uniform loss.
BURSTY = "bursty(GE)"


def run_transfer(config: str, loss: Union[float, str],
                 total_bytes: int = 150_000,
                 seed: int = 1, wired_delay: float = 0.06) -> Dict[str, Any]:
    """One row: transfer ``total_bytes`` under the given wireless loss,
    a uniform drop probability or :data:`BURSTY`, installed once the
    stack has settled.  A scoped row under uniform loss also counts the
    wireless layer's retransmissions."""
    network, systems, loss_model = build_scenario(config, seed=seed,
                                                  wired_delay=wired_delay)
    sink = FileSink(systems["mobile"])
    network.run(until=network.engine.now + 0.5)
    if loss == BURSTY:
        network.link_between("border", "mobile").loss = GilbertElliott(
            p_good_to_bad=0.02, p_bad_to_good=0.3, loss_good=0.01,
            loss_bad=0.8)
    else:
        loss_model.probability = loss
    sender = FileSender(systems["sender"], total_bytes, qos=RELIABLE)
    run_until(network, lambda: sender.flow.state != PENDING, timeout=15)
    start = (sender.started_at if sender.started_at is not None
             else network.engine.now)
    finished = run_until(network,
                         lambda: sink.transfers_completed >= 1, timeout=600)
    elapsed = (sink.completion_times[0] - start) if finished else float("inf")
    row = {
        "config": config,
        "loss": loss,
        "seed": seed,
        "bytes": total_bytes,
        "completed": finished,
        "elapsed_s": elapsed,
        "goodput_mbps": goodput_bps(total_bytes, elapsed) / 1e6,
        "top_layer_retx": _efcp_retransmissions(systems["sender"], "internet"),
    }
    if config == "scoped" and loss != BURSTY:
        row["wireless_layer_retx"] = _efcp_retransmissions(systems["border"],
                                                           "wifi")
    return row


def run_bursty(config: str, total_bytes: int = 100_000, seed: int = 1,
               wired_delay: float = 0.06) -> Dict[str, Any]:
    """Companion row: bursty (Gilbert–Elliott) radio instead of uniform loss.

    Deep fades are where local recovery matters most: an end-to-end layer
    pays a WAN round trip per burst, the scoped layer replays the burst
    locally at radio timescales.
    """
    return run_transfer(config, BURSTY, total_bytes, seed, wired_delay)


def iter_jobs(losses: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
              total_bytes: int = 120_000, seed: int = 1,
              bursty: bool = True) -> List[Job]:
    """The E3 table as data: one transfer point per (loss, config),
    loss-major, then the bursty companion rows at seeds 1, 2 and 3."""
    jobs = [Job("repro.experiments.e3_scoped_recovery:run_transfer",
                kwargs={"config": config, "loss": loss,
                        "total_bytes": total_bytes, "seed": seed},
                group="e3", label=f"e3 {config} loss={loss}")
            for loss in losses for config in ("e2e", "scoped")]
    if bursty:
        jobs += [Job("repro.experiments.e3_scoped_recovery:run_bursty",
                     kwargs={"config": config, "seed": panel},
                     group="e3", label=f"e3 {config} bursty seed={panel}")
                 for panel in (1, 2, 3) for config in ("e2e", "scoped")]
    return jobs


def _efcp_retransmissions(system, dif_name: str) -> int:
    total = 0
    for record in system.ipcp(dif_name).flow_allocator.records().values():
        if record.efcp is not None:
            total += record.efcp.stats.retransmissions
    return total
