"""Host-speed normalized timing for the benchmark.

On a shared virtual machine the same pure-Python loop can take 60% longer
from one second to the next, so raw wall time says more about the
neighbours than about the program. :class:`HostClock` samples the host's
speed *inside* every timed interval: an interval timer fires about every
30 ms and runs a ~2 ms probe shaped like the simulator's hot loop (a walk
over a dict of slotted objects with ``bisect``, a keyed ``min`` and
counter updates). A segment's normalized time is its wall time minus the
probes' own time, scaled by ``REFERENCE_PROBE_S`` over the probes' mean
time during that segment. The probe runs in the signal handler on the
main thread, so no thread or process is started.

This module imports nothing from ``repro``: the probe must not change
when the program does.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from bisect import bisect_right
from dataclasses import dataclass

__all__ = ["HostClock", "Segment", "REFERENCE_PROBE_S", "PROBE_INTERVAL_S"]

#: Fixed scale of normalized time: a segment measured while the probe
#: takes exactly this long reads its raw (probe-free) wall time.
REFERENCE_PROBE_S = 0.002
#: Interval-timer period.
PROBE_INTERVAL_S = 0.03
#: Walk steps per probe (~2 ms on a 2-vCPU x86 VM).
PROBE_STEPS = 997
#: A segment with fewer probes than this borrows the latest ones before
#: its end, so a short segment still gets a speed estimate.
MIN_PROBES = 3


class _Peer:
    __slots__ = ("ident", "fingers", "table", "visits")

    def __init__(self, ident: int, fingers: list[int]) -> None:
        self.ident = ident
        self.fingers = fingers
        self.table = frozenset(fingers)
        self.visits = 0


def _probe_graph(size: int = 64, width: int = 6, space: int = 1 << 24):
    rng = random.Random(1)
    idents = sorted(rng.sample(range(space), size))
    peers = {}
    for index, ident in enumerate(idents):
        fingers = sorted({idents[(index + (1 << bit)) % size] for bit in range(width)})
        peers[ident] = _Peer(ident, fingers)
    keys = [rng.randrange(space) for _ in range(PROBE_STEPS)]
    return peers, keys, idents[0]


def _probe(peers: dict, keys: list[int], start: int, counts: dict) -> None:
    """One probe: a greedy walk that per step bisects the finger list and
    takes the XOR-closest table entry through a key function, like the
    overlays' routers; the call-heavy step tracks the program's slowdowns
    better than a bisect-only loop."""
    current = start
    for key in keys:
        peer = peers[current]
        peer.visits += 1
        fingers = peer.fingers
        index = bisect_right(fingers, key)
        preceding = fingers[index - 1] if index else fingers[-1]
        current = min(peer.table, key=lambda p: (p ^ key) + (p == preceding))
        counts[current] = counts.get(current, 0) + 1


@dataclass(frozen=True)
class Segment:
    """One timed interval: raw wall time, the probes inside it, and the
    host-normalized time."""

    wall_s: float
    probe_s: float
    mean_probe_s: float

    @property
    def raw_s(self) -> float:
        """Wall time with the probes' own time taken out."""
        return self.wall_s - self.probe_s

    @property
    def factor(self) -> float:
        """Multiplier from raw to normalized seconds."""
        return REFERENCE_PROBE_S / self.mean_probe_s

    @property
    def normalized_s(self) -> float:
        return self.raw_s * self.factor


class HostClock:
    """Interval-timer host-speed sampler; use as a context manager.

    ``listener``, when set, is called with each probe's ``(start, end)``
    so a tracer can file probe time under the span it interrupted.
    """

    def __init__(self) -> None:
        self._peers, self._keys, self._start = _probe_graph()
        self._counts: dict[int, int] = {}
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.listener = None
        self._previous_handler = None

    def __enter__(self) -> "HostClock":
        for _ in range(3):  # warm the probe before its times count
            _probe(self._peers, self._keys, self._start, self._counts)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        # A collection triggered by the program's garbage would land in
        # the probe and read as a slow host.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe(self._peers, self._keys, self._start, self._counts)
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        if self.listener is not None:
            self.listener(start, end)

    def mark(self) -> tuple[float, int]:
        """Start of a segment; pass it to :meth:`measure`."""
        return time.perf_counter(), len(self.starts)

    def measure(self, mark: tuple[float, int]) -> Segment:
        """The segment from ``mark`` to now."""
        begin, first = mark
        end = time.perf_counter()
        durations = [
            self.ends[i] - self.starts[i]
            for i in range(max(0, first - 1), len(self.starts))
            if self.starts[i] >= begin and self.ends[i] <= end
        ]
        if len(durations) < MIN_PROBES:
            recent = [
                self.ends[i] - self.starts[i]
                for i in range(len(self.starts))
                if self.ends[i] <= end
            ][-MIN_PROBES:]
            if not recent:
                raise RuntimeError("no host-speed probe has fired yet")
            mean = statistics.fmean(recent)
        else:
            mean = statistics.fmean(durations)
        return Segment(end - begin, sum(durations), mean)
