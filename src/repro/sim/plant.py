"""A physical plant as data: :class:`LinkSpec` rows and their one builder.

Scenario specs (``explicit`` topologies and the family defaults alike)
and the shard plan state a plant in the same rows, and
:func:`build_plant` is the only place a row becomes a
:class:`~repro.sim.link.Link`: its loss probability a
:class:`~repro.sim.link.UniformLoss`, its condition dicts a
:class:`~repro.sim.link.LinkConditions`.  A row is pure data, so it
pickles across a ``spawn`` boundary and round-trips through JSON.

:mod:`repro.sim` does not import this module: the gateway server loads
that package, and this one pulls in :mod:`dataclasses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from .link import LinkConditions, UniformLoss
from .network import Network


@dataclass(frozen=True)
class LinkSpec:
    """One physical link.

    ``name`` None lets :meth:`~repro.sim.network.Network.connect` name
    the link ``a--b#<seq>``.  The four condition fields are JSON-safe
    model-spec dicts following the
    :meth:`~repro.sim.link.LinkConditions.from_dict` grammar (e.g.
    ``jitter={"model": "uniform", "amplitude": 0.005}``); None leaves
    that impairment off.  The models are built fresh for every link, and
    their RNG streams are named by link, so a link behaves the same
    whichever engine builds it.
    """

    a: str
    b: str
    name: Optional[str] = None
    capacity_bps: float = 1e8
    delay: float = 0.001
    loss: Optional[float] = None      # None → perfect medium
    queue_limit: int = 256
    jitter: Optional[Dict[str, Any]] = None
    shaper: Optional[Dict[str, Any]] = None
    corruption: Optional[Dict[str, Any]] = None
    reorder: Optional[Dict[str, Any]] = None


def build_plant(network: Network, nodes: Iterable[str],
                links: Iterable[LinkSpec]) -> None:
    """Add ``nodes``, then one link per row, to ``network``.

    Raises ValueError (or TypeError) for a malformed row, as
    :meth:`~repro.sim.network.Network.connect` and
    :meth:`~repro.sim.link.LinkConditions.from_dict` do.
    """
    for node in nodes:
        network.add_node(node)
    for link in links:
        if (link.jitter is None and link.shaper is None
                and link.corruption is None and link.reorder is None):
            conditions = None
        else:
            conditions = LinkConditions.from_dict({
                "jitter": link.jitter, "shaper": link.shaper,
                "corruption": link.corruption, "reorder": link.reorder})
        network.connect(
            link.a, link.b, name=link.name,
            capacity_bps=link.capacity_bps, delay=link.delay,
            loss=(None if link.loss is None
                  else UniformLoss(float(link.loss))),
            queue_limit=link.queue_limit, conditions=conditions)
