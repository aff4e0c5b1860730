"""Kademlia overlay: k-bucket tables, XOR routing, auxiliary pointers.

The third overlay backend (after :mod:`repro.chord` and
:mod:`repro.pastry`), implementing the same overlay protocol the
simulation, fault, observability, verification and telemetry planes
consume. XOR distance classes are common prefix lengths, so the paper's
eq.-1 machinery transfers verbatim — see
:mod:`repro.core.kademlia_selection`.
"""

from repro.kademlia.network import (
    KADEMLIA_BITS,
    KademliaNetwork,
    oblivious_policy,
    optimal_policy,
)
from repro.kademlia.node import KademliaNode, KBucket, RoutingTable
from repro.kademlia.routing import FindNodeResult, iterative_find_node, next_hop

__all__ = [
    "KADEMLIA_BITS",
    "FindNodeResult",
    "KBucket",
    "KademliaNetwork",
    "KademliaNode",
    "RoutingTable",
    "iterative_find_node",
    "next_hop",
    "oblivious_policy",
    "optimal_policy",
]
