"""The one overlay skeleton Chord, Pastry and Kademlia are built on.

The paper gives every structured overlay the same maintenance model.
Nodes crash abruptly and later rejoin under the same id with fresh
state (Section VI-C). Others keep stale pointers to a crashed node until
a lookup times out on it or their next stabilization round, in which
each node "pings its core neighbors at regular intervals and also
periodically re-initializes all the entries" (Section III). Auxiliary
pointers ride the unmodified routing (Section II). Only the table rule,
the ownership rule and the forwarding rule differ by overlay, so each
overlay class states those — its node type (``_new_node``), how a
node's core tables are rebuilt from the live ids (``_rebuild_tables``),
which live node owns a key (``_owner``), its forwarding rule and its
protocol join (``_join``) — and :class:`Overlay` owns everything around
them:

* the live-id bookkeeping (``nodes`` and the sorted ``_alive`` ids) and
  the telemetry handle;
* :meth:`Overlay.responsible`, which memoizes ``_owner`` per key until
  the next membership change;
* :meth:`Overlay.populate` (the stabilized overlay every ``build``
  returns) and :meth:`Overlay.add_node`;
* the checks every :meth:`Overlay.join_via` starts with;
* :meth:`Overlay.crash`, :meth:`Overlay.rejoin`, one
  :meth:`Overlay.stabilize` with its ``maintenance.stabilize`` span and
  work counters, and :meth:`Overlay.stabilize_all`;
* the entry points into the selection plane (:mod:`repro.selection`)
  and the lookup loop (:mod:`repro.routing`).

:class:`OverlayNode` is the matching node base: identity, liveness, the
core and auxiliary pointer sets and the frequency tracker of Section III.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from repro import selection
from repro.core.frequency import ExactFrequencyTable
from repro.core.types import SelectionProblem, SelectionResult
from repro.routing import ForwardingRule, LookupResult, route
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace
from repro.util.validation import require_positive_int

__all__ = ["ENTRY_POINTS", "Overlay", "OverlayNode"]

#: The shared entry points each concrete overlay class holds in its own
#: ``__dict__`` (``build`` is per class: its options differ).
ENTRY_POINTS = (
    "seed_frequencies",
    "recompute_auxiliary",
    "recompute_all_auxiliary",
    "lookup",
    "stabilize",
    "crash",
    "rejoin",
)


class OverlayNode:
    """State every overlay's peer keeps besides its own tables."""

    __slots__ = ("node_id", "space", "alive", "core", "auxiliary", "tracker")

    def __init__(self, node_id: int, space: IdSpace) -> None:
        self.node_id = space.validate(node_id, "node id")
        self.space = space
        self.alive = True
        self.core: set[int] = set()
        self.auxiliary: set[int] = set()
        self.tracker = ExactFrequencyTable()

    def record_access(self, destination: int) -> None:
        """Note the node that held a queried item (Section III)."""
        if destination != self.node_id:
            self.tracker.observe(destination)

    def frequency_snapshot(self, limit: int | None = None) -> dict[int, float]:
        """Observed per-peer frequencies, optionally top-``limit`` only."""
        snapshot = self.tracker.snapshot(limit)
        snapshot.pop(self.node_id, None)
        return snapshot


class Overlay:
    """Membership, churn, stabilization and entry points of one overlay."""

    def __init__(self, space: IdSpace) -> None:
        self.space = space
        self.nodes: dict[int, OverlayNode] = {}
        self._alive: list[int] = []  # sorted ids of live nodes
        # key -> owner among the current ``_alive``; emptied right after
        # every change to ``_alive`` (add_node, join_via, crash, rejoin).
        self._owners: dict[int, int] = {}
        self._telemetry = None  # set via attach_telemetry

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Tracers wrap these methods on each concrete class, one class at
        # a time, so every class needs its own reference to each.
        for name in ENTRY_POINTS:
            setattr(cls, name, getattr(cls, name))

    def attach_telemetry(self, telemetry):
        """Attach (or detach with ``None``) a telemetry runtime and return
        what was attached: ``telemetry`` when it is enabled, else ``None``.

        That return value is the one handle a cell gives every other
        instrumented layer. The overlay feeds its maintenance spans —
        selection recomputes, pointer updates, stale evictions during
        stabilization. Observe-only: attaching telemetry never changes
        routing state or consumes randomness.
        """
        self._telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        return self._telemetry

    # ------------------------------------------------------------------
    # The overlay's own rules
    # ------------------------------------------------------------------
    def _new_node(self, node_id: int) -> OverlayNode:
        """A fresh node object with this overlay's table options."""
        raise NotImplementedError

    def _rebuild_tables(self, node) -> None:
        """Re-initialize ``node``'s core tables from the live ids."""
        raise NotImplementedError

    def _join(self, node, bootstrap: int) -> None:
        """Build the unroutable ``node``'s tables by routing from
        ``bootstrap`` (the overlay's protocol join)."""
        raise NotImplementedError

    def _forwarding_rule(self) -> ForwardingRule:
        """The ``next_hop`` rule :meth:`lookup` routes with, read when a
        lookup starts."""
        raise NotImplementedError

    def _owner(self, key: int) -> int:
        """The live node that owns ``key``; ``_alive`` is non-empty."""
        raise NotImplementedError

    def _drop_auxiliary(self, node, stale: set[int]) -> None:
        """Drop the auxiliaries stabilization found dead; the core
        rebuild follows."""
        node.set_auxiliary(node.auxiliary - stale)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def populate(self, n: int, seed: int):
        """Add ``n`` nodes with distinct random ids drawn from ``seed``
        and stabilize them all; returns the overlay."""
        require_positive_int(n, "n")
        if n > self.space.size:
            raise ConfigurationError(f"cannot place {n} nodes in a {self.space.bits}-bit space")
        for node_id in self.space.sample(random.Random(seed), n):
            self.add_node(node_id)
        self.stabilize_all()
        return self

    def add_node(self, node_id: int):
        """Add a brand-new node with tables built from the live ids; the
        others learn of it at their next stabilization."""
        self.space.validate(node_id, "node id")
        if node_id in self.nodes:
            raise ConfigurationError(f"node {node_id} already exists")
        node = self._new_node(node_id)
        self.nodes[node_id] = node
        insort(self._alive, node_id)
        self._owners.clear()
        self._rebuild_tables(node)
        return node

    def join_via(self, node_id: int, bootstrap: int):
        """Protocol-faithful join: a new or crashed ``node_id`` builds its
        tables by routing through the overlay from the live ``bootstrap``
        (see each overlay's ``_join``). Other nodes learn of it only
        through their own later stabilization rounds."""
        self.space.validate(node_id, "node id")
        node = self.nodes.get(node_id)
        if node is not None and node.alive:
            raise ConfigurationError(f"node {node_id} already exists")
        boot = self.nodes.get(bootstrap)
        if boot is None or not boot.alive:
            raise NodeAbsentError(f"bootstrap node {bootstrap} is not alive")
        if node is None:
            node = self.nodes[node_id] = self._new_node(node_id)
        # Keep the node unroutable until its tables exist: a stale pointer
        # reaching a half-built node would otherwise strand join lookups.
        node.alive = False
        self._join(node, bootstrap)
        node.alive = True
        insort(self._alive, node_id)
        # After the insort: ``_join`` may have routed (and memoized owners)
        # while the node was still outside ``_alive``.
        self._owners.clear()
        return node

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def node(self, node_id: int):
        """Fetch a node object by id (KeyError when unknown)."""
        return self.nodes[node_id]

    def alive_ids(self) -> list[int]:
        """Sorted ids of live nodes (a copy)."""
        return list(self._alive)

    def alive_count(self) -> int:
        return len(self._alive)

    def responsible(self, key: int) -> int:
        """The live node that owns ``key`` under the overlay's own rule,
        memoized until the live set next changes."""
        owner = self._owners.get(key)
        if owner is None:
            if not self._alive:
                raise NodeAbsentError("overlay has no live nodes")
            owner = self._owners[key] = self._owner(key)
        return owner

    # ------------------------------------------------------------------
    # Churn and maintenance
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        """Abruptly fail a node; others keep stale pointers to it."""
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"node {node_id} is already down")
        node.crash()
        del self._alive[bisect_left(self._alive, node_id)]
        self._owners.clear()

    def rejoin(self, node_id: int) -> None:
        """Bring a crashed node back with fresh state and rebuilt tables."""
        node = self.nodes[node_id]
        if node.alive:
            raise NodeAbsentError(f"node {node_id} is already up")
        node.alive = True
        insort(self._alive, node_id)
        self._owners.clear()
        self._rebuild_tables(node)

    def stabilize(self, node_id: int) -> None:
        """One node's stabilization round: drop the auxiliary entries
        known dead and re-initialize the core tables from the live ids
        (the ping process of Section III extended to auxiliaries)."""
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"cannot stabilize dead node {node_id}")
        tel = self._telemetry
        if tel is None:
            self._refresh(node)
            return
        with tel.span("maintenance.stabilize"):
            stale = self._refresh(node)
        # One ping per auxiliary pointer plus the core re-init sweep.
        tel.add_work("maintenance.stabilize_messages", len(node.auxiliary) + len(stale))
        tel.add_work("maintenance.stale_evictions", len(stale))

    def _refresh(self, node) -> set[int]:
        """The body of :meth:`stabilize`; returns the dropped auxiliaries."""
        nodes = self.nodes
        stale = {aux for aux in node.auxiliary if not nodes[aux].alive}
        self._drop_auxiliary(node, stale)
        self._rebuild_tables(node)
        return stale

    def stabilize_all(self) -> None:
        """Stabilize every live node (used to reach a steady state)."""
        for node_id in self._alive:
            self.stabilize(node_id)

    # ------------------------------------------------------------------
    # Entry points into the selection plane and the lookup loop
    # ------------------------------------------------------------------
    def seed_frequencies(
        self, node_id: int, frequencies: dict[int, float], order: list[int] | None = None
    ) -> None:
        """Pre-load a node's tracker (stable-mode experiments hand each
        node its long-run destination distribution directly; the node's
        own entry is skipped). ``order`` is the distribution's
        :func:`repro.core.frequency.snapshot_order`, when the caller
        ranked it once for many nodes."""
        self.nodes[node_id].tracker = ExactFrequencyTable.seeded(frequencies, node_id, order)

    def recompute_auxiliary(
        self,
        node_id: int,
        k: int,
        policy: selection.AuxiliaryPolicy,
        rng: random.Random,
        frequency_limit: int | None = None,
        problem: SelectionProblem | None = None,
    ) -> SelectionResult:
        """Run ``policy`` at one node and install the result; see
        :func:`repro.selection.recompute`."""
        return selection.recompute(
            self, node_id, k, policy, rng, frequency_limit, self._telemetry, problem
        )

    def recompute_all_auxiliary(
        self,
        k: int,
        policy: selection.AuxiliaryPolicy,
        rng: random.Random,
        frequency_limit: int | None = None,
    ) -> None:
        """Recompute auxiliary sets at every live node, in ascending id order."""
        selection.install(self, k, policy, rng, frequency_limit)

    def lookup(
        self,
        source: int,
        key: int,
        record_access: bool = True,
        retry=None,
        faults=None,
        trace=None,
    ) -> LookupResult:
        """Route a query for ``key`` from ``source`` with the overlay's
        forwarding rule; see :func:`repro.routing.route` for the knobs."""
        return route(
            self,
            source,
            key,
            self._forwarding_rule(),
            record_access=record_access,
            retry=retry,
            faults=faults,
            trace=trace,
        )
