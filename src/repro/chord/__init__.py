"""Chord overlay substrate: ring, nodes, routing, stabilization."""

from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing, oblivious_policy, optimal_policy
from repro.chord.routing import RingTable, next_hop

__all__ = [
    "ChordNode",
    "ChordRing",
    "RingTable",
    "next_hop",
    "oblivious_policy",
    "optimal_policy",
]
