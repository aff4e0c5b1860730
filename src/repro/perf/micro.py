"""Kernel and routing-loop microbenchmarks.

Workloads are generated from fixed :class:`~repro.util.rng.
SeedSequenceRegistry` substreams so every bench run times the exact same
instances; only the hardware and the code under test vary between runs.

The kernel benches time the scalar reference against the NumPy kernel on
the *same* instance — their ratio is the speedup recorded in the bench
document (the acceptance bar for the vectorization work is >= 5x at
n=1024 on both overlays).
"""

from __future__ import annotations

from functools import partial

from repro.chord.ring import ChordRing
from repro.core.cost import (
    chord_cost_scalar,
    chord_cost_vectorized,
    pastry_cost_scalar,
    pastry_cost_vectorized,
)
from repro.core.chord_selection import select_chord_fast
from repro.core.pastry_selection import select_pastry_greedy
from repro.core.types import SelectionProblem
from repro.pastry.network import PastryNetwork
from repro.perf.harness import BenchTiming, measure
from repro.util.ids import IdSpace
from repro.util.rng import SeedSequenceRegistry

__all__ = ["kernel_instance", "micro_benchmarks", "KERNEL_PAIRS"]

_BENCH_SEED = 20_240_701

#: (speedup key, scalar bench name, vectorized bench name) triples the
#: runner turns into the document's ``speedups`` section.
KERNEL_PAIRS = (
    ("pastry_cost_n1024", "pastry_cost_scalar_n1024", "pastry_cost_vectorized_n1024"),
    ("chord_cost_n1024", "chord_cost_scalar_n1024", "chord_cost_vectorized_n1024"),
    ("pastry_cost_n4096", "pastry_cost_scalar_n4096", "pastry_cost_vectorized_n4096"),
    ("chord_cost_n4096", "chord_cost_scalar_n4096", "chord_cost_vectorized_n4096"),
)


def kernel_instance(n: int, bits: int = 32, pointer_count: int = 30):
    """A reproducible eq.-1 evaluation instance with ``n`` observed peers."""
    rng = SeedSequenceRegistry(_BENCH_SEED).stream(f"kernel-{n}-{bits}")
    space = IdSpace(bits)
    population = rng.sample(range(space.size), n + pointer_count + 1)
    peers = population[:n]
    source = population[n]
    core = population[n + 1 : n + 1 + pointer_count * 2 // 3]
    auxiliary = population[n + 1 + pointer_count * 2 // 3 : n + 1 + pointer_count]
    frequencies = {peer: rng.random() * 100.0 + 1.0 for peer in peers}
    return space, source, frequencies, core, auxiliary


def _selection_problem(n: int, bits: int, k: int) -> SelectionProblem:
    space, source, frequencies, core, _ = kernel_instance(n, bits, pointer_count=2 * k)
    return SelectionProblem(
        space=space,
        source=source,
        frequencies=frequencies,
        core_neighbors=frozenset(core),
        k=k,
    )


def _chord_lookup_loop(n: int, lookups: int, bits: int = 24):
    ring = ChordRing.build(n, space=IdSpace(bits), seed=_BENCH_SEED)
    rng = SeedSequenceRegistry(_BENCH_SEED).stream("chord-lookups")
    ids = ring.alive_ids()
    pairs = [(rng.choice(ids), rng.randrange(1 << bits)) for _ in range(lookups)]

    def run() -> None:
        for source, key in pairs:
            ring.lookup(source, key, record_access=False)

    return run


def _pastry_lookup_loop(n: int, lookups: int, bits: int = 24):
    network = PastryNetwork.build(n, space=IdSpace(bits), seed=_BENCH_SEED)
    rng = SeedSequenceRegistry(_BENCH_SEED).stream("pastry-lookups")
    ids = network.alive_ids()
    pairs = [(rng.choice(ids), rng.randrange(1 << bits)) for _ in range(lookups)]

    def run() -> None:
        for source, key in pairs:
            network.lookup(source, key, record_access=False)

    return run


def micro_benchmarks(smoke: bool = False) -> dict[str, BenchTiming]:
    """Run every microbenchmark; ``smoke`` trims repeats, drops the
    n=4096 kernels and shrinks the lookup loops (kernel entries at n=1024
    and every solver entry are the same in both modes so CI smoke runs
    stay comparable to the committed full document)."""
    kernel_repeats = 5 if smoke else 15
    timings: dict[str, BenchTiming] = {}

    kernel_sizes = (1024,) if smoke else (1024, 4096)
    for n in kernel_sizes:
        space, source, frequencies, core, auxiliary = kernel_instance(n)
        timings[f"pastry_cost_scalar_n{n}"] = measure(
            f"pastry_cost_scalar_n{n}",
            lambda: pastry_cost_scalar(space, frequencies, core, auxiliary),
            repeats=kernel_repeats,
        )
        timings[f"pastry_cost_vectorized_n{n}"] = measure(
            f"pastry_cost_vectorized_n{n}",
            lambda: pastry_cost_vectorized(space, frequencies, core, auxiliary),
            repeats=kernel_repeats,
        )
        timings[f"chord_cost_scalar_n{n}"] = measure(
            f"chord_cost_scalar_n{n}",
            lambda: chord_cost_scalar(space, source, frequencies, core, auxiliary),
            repeats=kernel_repeats,
        )
        timings[f"chord_cost_vectorized_n{n}"] = measure(
            f"chord_cost_vectorized_n{n}",
            lambda: chord_cost_vectorized(space, source, frequencies, core, auxiliary),
            repeats=kernel_repeats,
        )

    # Solver sizes are the same in both modes, so the smoke check gates
    # them against the full baseline: n=256 takes the dense Chord layer
    # solve, n=512 (above its cap) divide and conquer.
    solver_repeats = 3 if smoke else 7
    solvers = (
        ("select_chord_fast", select_chord_fast, 256),
        ("select_chord_fast", select_chord_fast, 512),
        ("select_pastry_greedy", select_pastry_greedy, 512),
    )
    for name, solver, solver_n in solvers:
        timings[f"{name}_n{solver_n}"] = measure(
            f"{name}_n{solver_n}",
            partial(solver, _selection_problem(solver_n, bits=32, k=9)),
            repeats=solver_repeats,
            warmup=1,
        )

    loop_n = 128 if smoke else 256
    loop_lookups = 200 if smoke else 1000
    loop_repeats = 3 if smoke else 5
    timings[f"chord_lookup_loop_n{loop_n}"] = measure(
        f"chord_lookup_loop_n{loop_n}",
        _chord_lookup_loop(loop_n, loop_lookups),
        repeats=loop_repeats,
        warmup=1,
    )
    timings[f"pastry_lookup_loop_n{loop_n}"] = measure(
        f"pastry_lookup_loop_n{loop_n}",
        _pastry_lookup_loop(loop_n, loop_lookups),
        repeats=loop_repeats,
        warmup=1,
    )
    return timings
