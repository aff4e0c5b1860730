"""Pastry overlay substrate: prefix routing, leaf sets, proximity model."""

from repro.pastry.network import PastryNetwork, oblivious_policy, optimal_policy
from repro.pastry.node import PastryNode
from repro.pastry.proximity import ProximityModel
from repro.pastry.routing import circular_distance, next_hop

__all__ = [
    "PastryNetwork",
    "PastryNode",
    "ProximityModel",
    "circular_distance",
    "next_hop",
    "oblivious_policy",
    "optimal_policy",
]
