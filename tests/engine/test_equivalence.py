"""Property tests: batched columnar routing == the object routers.

The object-graph overlays are the ground-truth oracle; every lane of a
batch must reproduce its lookup exactly — hop count, success flag,
destination, the full visited-id path, and the per-forward pointer-class
attribution — over random overlays with and without installed
auxiliaries.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.ring import ChordRing
from repro.engine.columnar import snapshot_chord, snapshot_pastry
from repro.engine.router import batch_route_chord, batch_route_pastry
from repro.obs.recorder import LookupTracer
from repro.pastry.network import PastryNetwork

LOOKUPS = 25


def install_auxiliaries(overlay, rng, per_node=4):
    alive = overlay.alive_ids()
    for node_id in alive:
        aux = set(rng.sample(alive, min(per_node, len(alive))))
        overlay.node(node_id).set_auxiliary(aux - {node_id})


def object_traces(overlay, sources, keys):
    tracer = LookupTracer()
    for source, key in zip(sources, keys):
        overlay.lookup(source, key, record_access=False, trace=tracer)
    return tracer


def assert_lanes_match(result, tracer, overlay_name):
    for lane, trace in enumerate(tracer.traces):
        assert int(result.hops[lane]) == trace.hops
        assert bool(result.succeeded[lane]) == trace.succeeded
        expected = -1 if trace.destination is None else trace.destination
        assert int(result.destinations[lane]) == expected
        assert result.lane_path(lane) == trace.path
        assert result.lane_classes(lane, overlay_name) == [
            event.pointer_class for event in trace.events if event.delivered
        ]
    assert result.hops_by_class == {
        name: count
        for name, count in tracer.counters.hops_by_class.items()
        if count
    }


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 48), st.booleans())
def test_chord_batch_matches_object_lookups(seed, n, with_aux):
    ring = ChordRing.build(n, seed=seed)
    rng = random.Random(seed ^ 0xC0FFEE)
    if with_aux:
        install_auxiliaries(ring, rng)
    alive = ring.alive_ids()
    sources = [rng.choice(alive) for __ in range(LOOKUPS)]
    keys = [rng.randrange(ring.space.size) for __ in range(LOOKUPS)]
    result = batch_route_chord(snapshot_chord(ring), sources, keys, record_paths=True)
    assert_lanes_match(result, object_traces(ring, sources, keys), "chord")


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(3, 48),
    st.booleans(),
    st.sampled_from(["proximity", "greedy"]),
)
def test_pastry_batch_matches_object_lookups(seed, n, with_aux, mode):
    network = PastryNetwork.build(n, seed=seed, mode=mode)
    rng = random.Random(seed ^ 0xBEEF)
    if with_aux:
        install_auxiliaries(network, rng)
    alive = network.alive_ids()
    sources = [rng.choice(alive) for __ in range(LOOKUPS)]
    keys = [rng.randrange(network.space.size) for __ in range(LOOKUPS)]
    # Exercise the exact-node leaf-delivery short-circuit too.
    keys[:5] = [rng.choice(alive) for __ in range(5)]
    result = batch_route_pastry(
        snapshot_pastry(network), sources, keys, mode=mode, record_paths=True
    )
    assert_lanes_match(result, object_traces(network, sources, keys), "pastry")


def test_chord_dense_and_csr_fallback_agree():
    """Rings whose dense hop tables are disabled (here: forced off) must
    route identically through the CSR bisect path."""
    ring = ChordRing.build(64, seed=9)
    rng = random.Random(9)
    install_auxiliaries(ring, rng)
    alive = ring.alive_ids()
    sources = [rng.choice(alive) for __ in range(200)]
    keys = [rng.randrange(ring.space.size) for __ in range(200)]
    dense = snapshot_chord(ring)
    assert dense.hop_gaps is not None
    fallback = snapshot_chord(ring)
    fallback.hop_gaps = fallback.hop_pos = fallback.hop_class = None
    a = batch_route_chord(dense, sources, keys, record_paths=True)
    b = batch_route_chord(fallback, sources, keys, record_paths=True)
    assert np.array_equal(a.hops, b.hops)
    assert np.array_equal(a.destinations, b.destinations)
    assert np.array_equal(a.paths, b.paths)
    assert a.hops_by_class == b.hops_by_class
