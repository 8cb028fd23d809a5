"""Deterministic discrete-event simulation substrate.

This package replaces the physical testbed the paper's authors left to
future work: point-to-point links with capacity/delay/loss and
composable impairments, nodes with interfaces, topology builders, seeded
randomness, and a tracer for experiment metrics.
"""

from .engine import Engine, Event, PeriodicTask, SimulationError, Timer
from .link import GilbertElliott, Link, LinkEnd, LossModel, NoLoss, UniformLoss
from .network import Network
from .node import Interface, Node
from .rng import RandomStreams
from .trace import Counter, TimeSeries, Tracer

__all__ = [
    "Engine", "Event", "PeriodicTask", "SimulationError", "Timer",
    "Link", "LinkEnd", "LossModel", "NoLoss", "UniformLoss", "GilbertElliott",
    "Network", "Node", "Interface", "RandomStreams",
    "Counter", "TimeSeries", "Tracer",
]
