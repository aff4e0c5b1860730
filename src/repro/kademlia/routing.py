"""Kademlia XOR routing: the greedy forwarding rule plus FIND_NODE.

Kademlia's metric is ``d(u, v) = u XOR v``; its *distance class* is
``bitlength(u XOR v)``. Two lookup styles are implemented:

* :func:`next_hop` — the greedy forwarding rule that
  :func:`repro.routing.route` wraps with the same hop accounting,
  retry/fault handling and trace hooks as the Chord and Pastry rules:
  each hop forwards to the known contact strictly XOR-closest to the
  key; the lookup terminates when the current node has no strictly
  closer contact. On a stabilized table that terminal node *is* the
  global XOR minimizer: if any node ``m`` were closer, the highest
  differing bit ``q`` of ``m XOR key`` vs ``current XOR key`` puts ``m``
  in the current node's prefix class ``b - 1 - q``, every member of
  which is strictly closer — and core maintenance keeps at least one
  contact in every non-empty class (non-owner buckets evict only past
  ``bucket_size`` entries of the *same* class; the owner-range bucket
  splits instead of evicting).

  The rule reads one distance class per step, not every contact. Let
  ``own = node XOR key``; a contact whose highest bit differing from
  the node is ``h`` is strictly closer to the key iff bit ``h`` of
  ``own`` is set, and then it beats every closer contact of a finer
  class ``h' < h`` too: it agrees with ``own`` above ``h`` and clears
  bit ``h``, which the finer contact keeps set. So the rule walks the
  node's non-empty classes whose bit is set in ``own``, coarsest first,
  and returns the XOR-closest eligible member of the first class that
  has one.

* :func:`iterative_find_node` — the protocol's α-parallel node lookup
  (Maymounkov & Mazières §2.3): keep a shortlist of the ``count``
  XOR-closest contacts heard of, query up to ``alpha`` of the closest
  unqueried ones per round, merge each reply, stop when the whole
  shortlist has been queried. Fully deterministic given the network
  state (XOR injectivity leaves no ties to break), which the
  seeded-replay tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.errors import NodeAbsentError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.kademlia.network import KademliaNetwork
    from repro.kademlia.node import KademliaNode

__all__ = ["FindNodeResult", "iterative_find_node", "next_hop"]


@dataclass(frozen=True)
class FindNodeResult:
    """Outcome of one iterative α-parallel FIND_NODE."""

    key: int
    source: int
    #: The ``count`` XOR-closest nodes discovered, closest first.
    found: tuple[int, ...]
    #: Every node queried, in query order (seeded-replay fingerprint).
    queried: tuple[int, ...]
    rounds: int
    messages: int
    timeouts: int


def next_hop(
    network: "KademliaNetwork",
    node: "KademliaNode",
    key: int,
    auxiliary: bool = True,
    skip_dead: bool = False,
) -> tuple[int, None] | None:
    """Kademlia's forwarding rule: the known contact strictly XOR-closer
    to ``key`` than the node itself, or ``None`` when no contact
    improves. XOR is injective for a fixed key, so the minimizer is
    unique — no tie-break needed. Walks the node's distance classes as
    the module docstring derives, so a step costs one class, not the
    whole table.

    ``auxiliary=False`` considers the k-bucket contacts only;
    ``skip_dead`` passes over contacts whose node is down. The hop's
    pointer class follows from plane membership (label ``None``).
    """
    closer = (node.node_id ^ key) & node.class_mask
    top = node.space.bits - 1
    while closer:
        h = closer.bit_length() - 1
        closer ^= 1 << h
        members = node.classes[top - h]
        if not auxiliary:
            members = members & node.core
        if skip_dead:
            members = [member for member in members if network.node(member).alive]
        if members:
            return min(members, key=key.__xor__), None
    return None


def iterative_find_node(
    network: "KademliaNetwork",
    source: int,
    key: int,
    alpha: int = 3,
    count: int | None = None,
) -> FindNodeResult:
    """The protocol's iterative node lookup: the ``count`` XOR-closest
    nodes to ``key`` the querier can discover.

    Each round queries the ``alpha`` closest not-yet-queried shortlist
    members in parallel; a live contact replies with the ``count``
    XOR-closest entries of its own tables, a dead one costs a timeout and
    drops off the shortlist. The search converges when every member of
    the current ``count``-closest shortlist has been queried.
    """
    node = network.node(source)
    if not node.alive:
        raise NodeAbsentError(f"source node {source} is not alive")
    if count is None:
        count = network.bucket_size
    known: set[int] = {source}
    known.update(node.neighbor_ids())
    queried: set[int] = {source}
    dead: set[int] = set()
    order: list[int] = []
    rounds = 0
    messages = 0
    timeouts = 0
    while True:
        shortlist = sorted(known, key=key.__xor__)[:count]
        targets = [nid for nid in shortlist if nid not in queried][:alpha]
        if not targets:
            break
        rounds += 1
        for target in targets:
            queried.add(target)
            order.append(target)
            messages += 1
            peer = network.node(target)
            if not peer.alive:
                timeouts += 1
                dead.add(target)
                known.discard(target)
                continue
            reply = sorted(peer.neighbor_ids() | {target}, key=key.__xor__)[:count]
            # A peer may still advertise a contact this search already saw
            # time out; never let a known-dead node back onto the shortlist.
            known.update(set(reply) - dead)
    found = tuple(sorted(known, key=key.__xor__)[:count])
    return FindNodeResult(
        key=key,
        source=source,
        found=found,
        queried=tuple(order),
        rounds=rounds,
        messages=messages,
        timeouts=timeouts,
    )
