"""Disabled-observer overhead benchmark: the disabled paths must be free.

The observability planes share one contract — *zero cost when
disabled*: the lookup loop normalizes a disabled recorder to ``None`` at
entry, and every instrumented layer is handed ``None`` for a disabled
telemetry runtime (what ``Overlay.attach_telemetry`` returns). This
bench certifies the claim the CI gate enforces. The BENCH_v1 document
is its three sections, one per disabled observer, each held to < 2% on
the shared lookup loop of all three overlays:

* ``obs_overhead`` — lookups with ``trace=NullRecorder()``;
* ``telemetry_overhead`` — lookups on an overlay with a disabled
  :class:`~repro.telemetry.runtime.RoundTelemetry` attached and passed
  as the recorder, as a churn cell routes;
* ``cachestats_overhead`` — lookups with a disabled
  :class:`~repro.obs.attribution.AttributionRecorder`.

Methodology — a 2% bar needs care on shared hardware:

* Comparing against a *committed* baseline file would measure the
  machine difference, not the code difference, so both variants are
  measured in the same process on the same overlay and the same
  (source, key) stream (fault-free lookups with ``record_access=False``
  mutate nothing, so sharing the overlay is exact).
* The dominant noise is **multiplicative CPU-speed drift** over
  ~10–100 ms windows (steal time, frequency scaling), which neither
  minima nor whole-pass pairing survive. The lookup stream is therefore
  split into sub-millisecond **chunks**, and each chunk is timed under
  both variants back to back (alternating order), so every bare/observed
  pair shares one speed regime and the drift divides out of the
  per-trial total ratio.
* GC is paused during measurement, several independent trials are run,
  and the **median trial ratio** per overlay is the gated number. An
  overlay over the bar is re-measured up to twice and the cleanest run
  kept: a true regression fails every pass, a noise spike almost never
  does.

:func:`disabled_telemetry` is a deliberate seam: the mutation test in
``tests/telemetry`` monkeypatches it to return an *enabled* runtime and
asserts the telemetry gate then fails — proving a leaky disabled path
cannot slip past CI silently.
"""

from __future__ import annotations

import gc
import math
import time

from repro.chord.ring import ChordRing
from repro.kademlia.network import KademliaNetwork
from repro.obs.attribution import AttributionRecorder
from repro.obs.recorder import NullRecorder
from repro.pastry.network import PastryNetwork
from repro.telemetry.runtime import RoundTelemetry
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.rng import SeedSequenceRegistry

__all__ = [
    "OVERHEAD_THRESHOLD",
    "SECTIONS",
    "disabled_telemetry",
    "overhead_benchmark",
    "percentile",
]

_BENCH_SEED = 20_240_701

#: Acceptance bar: a disabled observer may cost at most 2% extra.
OVERHEAD_THRESHOLD = 1.02

#: The BENCH_v1 sections this harness fills, one per disabled observer.
SECTIONS = ("obs_overhead", "telemetry_overhead", "cachestats_overhead")

_OVERLAYS = {"chord": ChordRing, "pastry": PastryNetwork, "kademlia": KademliaNetwork}

#: Trials and chunk-interleaved rounds per overlay. Chord lookups are
#: ~5x cheaper than Pastry's or Kademlia's, so a chord trial sees less
#: work and proportionally more timing noise; it gets more of both.
_PLANS = {
    "chord": {"trials": 15, "chunk": 5, "rounds": 12},
    "pastry": {"trials": 11, "chunk": 5, "rounds": 8},
    "kademlia": {"trials": 11, "chunk": 5, "rounds": 8},
}


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of pre-sorted samples."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
    if not sorted_samples:
        return float("nan")
    rank = min(len(sorted_samples) - 1, max(0, math.ceil(q * len(sorted_samples)) - 1))
    return sorted_samples[rank]


def disabled_telemetry() -> RoundTelemetry:
    """The disabled runtime the telemetry gate measures (monkeypatch seam
    for the leaky-registry mutation test)."""
    return RoundTelemetry.disabled()


def _build_workload(overlay_name: str, n: int, lookups: int, bits: int = 24):
    """One overlay plus its fixed (source, key) lookup stream."""
    overlay = _OVERLAYS[overlay_name].build(n, space=IdSpace(bits), seed=_BENCH_SEED)
    rng = SeedSequenceRegistry(_BENCH_SEED).stream(f"{overlay_name}-lookups")
    ids = overlay.alive_ids()
    pairs = [(rng.choice(ids), rng.randrange(1 << bits)) for _ in range(lookups)]
    return overlay, pairs


def _observers(section: str, overlay_name: str, overlay) -> tuple:
    """``(trace, telemetry)`` the observed variant routes with."""
    if section == "obs_overhead":
        return NullRecorder(), None
    if section == "telemetry_overhead":
        telemetry = disabled_telemetry()
        return telemetry, telemetry
    if section == "cachestats_overhead":
        return AttributionRecorder(overlay_name, overlay, enabled=False), None
    raise ConfigurationError(f"unknown overhead section {section!r}; expected one of {SECTIONS}")


def _trial_ratio(overlay, pairs, chunk: int, rounds: int, trace=None, telemetry=None) -> float:
    """One trial: observed time / bare time over chunk-interleaved
    passes. The observed variant routes with ``trace`` and, when given,
    ``telemetry`` attached to the overlay (attached and detached off the
    clock)."""
    chunks = [pairs[index : index + chunk] for index in range(0, len(pairs), chunk)]
    bare_total = 0.0
    observed_total = 0.0
    for round_index in range(rounds):
        for chunk_index, piece in enumerate(chunks):
            # Alternate which variant leads per (round, chunk) so ordering
            # effects cancel over the trial.
            observed_first = (round_index + chunk_index) % 2 == 1
            for observed in ((True, False) if observed_first else (False, True)):
                if observed and telemetry is not None:
                    overlay.attach_telemetry(telemetry)
                started = time.perf_counter()
                if observed:
                    for source, key in piece:
                        overlay.lookup(source, key, record_access=False, trace=trace)
                else:
                    for source, key in piece:
                        overlay.lookup(source, key, record_access=False)
                elapsed = time.perf_counter() - started
                if observed:
                    if telemetry is not None:
                        overlay.attach_telemetry(None)
                    observed_total += elapsed
                else:
                    bare_total += elapsed
    return observed_total / bare_total


def _measure_overlay(
    section: str,
    overlay_name: str,
    n: int,
    lookups: int,
    trials: int,
    chunk: int,
    rounds: int,
) -> dict:
    overlay, pairs = _build_workload(overlay_name, n, lookups)
    trace, telemetry = _observers(section, overlay_name, overlay)
    # Warm both code paths (allocator pools, branch caches) off the clock.
    for source, key in pairs:
        overlay.lookup(source, key, record_access=False)
        overlay.lookup(source, key, record_access=False, trace=trace)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = [
            _trial_ratio(overlay, pairs, chunk, rounds, trace, telemetry) for _ in range(trials)
        ]
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios.sort()
    return {
        "trials": trials,
        "chunk": chunk,
        "rounds": rounds,
        "ratios": [round(ratio, 5) for ratio in ratios],
        "min_ratio": ratios[0],
        "median_ratio": percentile(ratios, 0.5),
        "max_ratio": ratios[-1],
    }


def overhead_benchmark(section: str, smoke: bool = False) -> dict:
    """Measure one disabled observer (a :data:`SECTIONS` name) on every
    overlay.

    Returns that section of the bench document: per-overlay trial
    summaries, the worst median trial ratio, the threshold, and the
    pass/fail verdict the CLI gate enforces.
    """
    n = 128 if smoke else 256
    lookups = 300 if smoke else 600
    results = {}
    for name, plan in _PLANS.items():
        entry = _measure_overlay(section, name, n, lookups, **plan)
        for _retry in range(2):
            if entry["median_ratio"] < OVERHEAD_THRESHOLD:
                break
            retry_entry = _measure_overlay(section, name, n, lookups, **plan)
            if retry_entry["median_ratio"] < entry["median_ratio"]:
                entry = retry_entry
            entry["remeasured"] = True
        results[name] = entry
    worst = max(entry["median_ratio"] for entry in results.values())
    return {
        "n": n,
        "lookups": lookups,
        "overlays": results,
        "worst_ratio": worst,
        "threshold": OVERHEAD_THRESHOLD,
        "passed": worst < OVERHEAD_THRESHOLD,
    }
