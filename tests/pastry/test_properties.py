"""Pastry-specific property tests.

The cross-overlay behavioural contract — termination at the linear-scan
responsible node, strict per-hop progress, hop bounds, crash/rejoin
idempotence — lives in ``tests/conformance/test_overlay_battery.py``;
only what is Pastry-specific remains here: the greedy routing *mode*
(the battery exercises the default proximity mode) holds the contract on
randomly sized networks.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.network import PastryNetwork
from repro.util.ids import IdSpace


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 48))
def test_greedy_mode_lookup_correct_and_bounded(seed, n):
    """Greedy (non-default) mode reaches the numerically closest node
    within the id-length hop bound, with no timeouts, at any size."""
    network = PastryNetwork.build(n, space=IdSpace(14), seed=seed, mode="greedy")
    rng = random.Random(seed)
    ids = network.alive_ids()
    for __ in range(12):
        source = ids[rng.randrange(len(ids))]
        key = rng.randrange(2**14)
        result = network.lookup(source, key, record_access=False)
        assert result.succeeded
        assert result.destination == network.responsible(key)
        assert result.timeouts == 0
        assert result.hops <= 14
