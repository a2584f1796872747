"""Asynchronous network simulation: discrete-event scheduler, message
fabric with metrics, party abstraction, and adversary strategies."""

from .adversary import corrupt_weight_fraction, heaviest_under, most_tickets_under
from .events import Simulator
from .network import DelayModel, Network, NetworkMetrics, TargetedDelay, UniformDelay
from .process import Party
from .runner import SimHost, World, build_world

__all__ = [
    "Simulator",
    "Network",
    "NetworkMetrics",
    "DelayModel",
    "UniformDelay",
    "TargetedDelay",
    "Party",
    "World",
    "build_world",
    "SimHost",
    "heaviest_under",
    "most_tickets_under",
    "corrupt_weight_fraction",
]
