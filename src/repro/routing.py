"""The one lookup loop all three overlays route through.

Each overlay's routing module supplies only its *forwarding rule*: a
function ``next_hop(overlay, node, key)`` returning ``(target, label)``
for the next forward, or ``None`` when ``node`` believes it owns
``key``. ``label`` is the pointer class a recorder sees for the hop; a
rule returns ``None`` there when the class follows from plane membership
alone, and the loop asks ``node.pointer_class(target)`` only when a
recorder is attached (Pastry labels its leaf-set and fallback stages
itself). Every rule also accepts ``auxiliary=False`` (mask the auxiliary
plane) and ``skip_dead=True`` (pass over targets already down); the
attribution plane's oblivious walk is the same rule called that way.

:func:`route` owns everything around the rule: the hop limit, feeding
the source's frequency tracker, fault-plane delivery, retry with
backoff-as-hop-penalty, eviction of a target that exhausts its attempts
(the next call to the rule then fails over to the next-best entry),
:class:`~repro.obs.recorder.HopEvent` emission and the
:class:`LookupResult`. The defaults (single attempt, no fault plane, no
recorder) take a fast path that delivers to a live target without
entering the retry loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.faults.retry import RetryPolicy
from repro.obs.recorder import HopEvent
from repro.util.errors import NodeAbsentError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.plane import FaultPlane
    from repro.obs.recorder import TraceRecorder

__all__ = ["ForwardingRule", "LookupResult", "hop_limit", "route"]

#: ``(overlay, node, key) -> (target, label) | None``; see the module doc.
ForwardingRule = Callable[..., tuple[int, str | None] | None]

#: Default policy: one attempt, unit timeout penalty.
_SINGLE_ATTEMPT = RetryPolicy.single()


def hop_limit(space) -> int:
    """Forwards plus timeouts a lookup may spend before it is abandoned."""
    return 4 * space.bits


@dataclass
class LookupResult:
    """Outcome of one lookup on any overlay.

    ``hops`` counts successful forwards; ``timeouts`` counts attempts that
    failed (dead neighbor, dropped or partition-blocked message).
    ``latency`` — the metric the paper plots — treats a timeout like a
    wasted hop; ``penalty`` holds any *extra* backoff latency beyond the
    one-hop-per-timeout baseline (0 under the single-attempt policy).
    """

    key: int
    source: int
    destination: int | None
    hops: int
    timeouts: int = 0
    succeeded: bool = True
    path: list[int] = field(default_factory=list)
    penalty: float = 0.0

    @property
    def latency(self) -> int | float:
        """Hop-count latency proxy: forwards plus timeout penalties."""
        base = self.hops + self.timeouts
        return base + self.penalty if self.penalty else base


def route(
    overlay,
    source: int,
    key: int,
    next_hop: ForwardingRule,
    max_hops: int | None = None,
    record_access: bool = True,
    retry: RetryPolicy | None = None,
    faults: "FaultPlane | None" = None,
    trace: "TraceRecorder | None" = None,
) -> LookupResult:
    """Route a query for ``key`` from node ``source`` with ``next_hop``.

    The lookup ends where the rule returns ``None`` and succeeds when
    that node is the overlay's ground-truth owner of ``key``; under
    churn, stale tables can strand a query early, which is reported as
    a failure. It is abandoned, unsucceeded, once ``hops + timeouts``
    passes ``max_hops`` (default :func:`hop_limit`).

    ``record_access`` feeds the source's frequency tracker the true
    destination (the paper's "note the node containing the queried item
    for every query", Section III). ``retry`` bounds delivery attempts
    per target (default: one attempt, evict on first timeout) and
    ``faults`` lets a fault plane drop or block individual forwards.
    ``trace`` attaches an observe-only recorder (see
    :mod:`repro.obs.recorder`): one :class:`HopEvent` per attempted
    target, delivered with the finished result. Disabled recorders are
    normalized to ``None`` up front, so the default path pays only inert
    branch checks.
    """
    node = overlay.node(source)
    if not node.alive:
        raise NodeAbsentError(f"source node {source} is not alive")
    rec = trace if trace is not None and trace.enabled else None
    events: list[HopEvent] | None = [] if rec is not None else None
    policy = retry if retry is not None else _SINGLE_ATTEMPT
    limit = max_hops if max_hops is not None else hop_limit(overlay.space)
    true_destination = overlay.responsible(key)
    if record_access and true_destination != source:
        node.record_access(true_destination)

    current = node
    hops = 0
    timeouts = 0
    penalty = 0.0
    path = [source]
    destination = None
    succeeded = False
    while hops + timeouts <= limit:
        step = next_hop(overlay, current, key)
        if step is None:
            succeeded = current.node_id == true_destination
            destination = current.node_id if succeeded else None
            break
        target_id, label = step
        target = overlay.node(target_id)
        if rec is None and faults is None and target.alive:
            # Fault-free fast path: with a live target, no fault plane and
            # no recorder, the first attempt always delivers.
            delivered = True
        else:
            delivered = False
            timeouts_before = timeouts
            penalty_before = penalty
            verdicts: list[str] = []
            for attempt in range(policy.max_attempts):
                if hops + timeouts > limit:
                    break
                if target.alive and (faults is None or faults.deliver(current.node_id, target_id)):
                    delivered = True
                    break
                if rec is not None:
                    verdicts.append("dead" if not target.alive else faults.last_verdict)
                timeouts += 1
                penalty += policy.attempt_penalty(attempt) - 1.0
            if rec is not None:
                failed = timeouts - timeouts_before
                events.append(
                    HopEvent(
                        forwarder=current.node_id,
                        target=target_id,
                        pointer_class=label or current.pointer_class(target_id),
                        delivered=delivered,
                        attempts=failed + (1 if delivered else 0),
                        timeouts=failed,
                        penalty=penalty - penalty_before,
                        verdicts=tuple(verdicts),
                    )
                )
        if not delivered:
            current.evict(target_id)
            continue
        hops += 1
        path.append(target_id)
        current = target
    result = LookupResult(
        key=key,
        source=source,
        destination=destination,
        hops=hops,
        timeouts=timeouts,
        succeeded=succeeded,
        path=path,
        penalty=penalty,
    )
    if rec is not None:
        rec.record_lookup(result, events)
    return result
