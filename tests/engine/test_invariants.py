"""The engine invariants catch what they claim to catch.

Green-path coverage lives in the scenario engine (tests/verify); here
the checkers run against deliberately broken snapshots and routers —
the repo's monkeypatch-a-broken-solver idiom — to prove the oracles
actually fire.
"""

import random

from repro.chord.ring import ChordRing
from repro.engine import columnar, router
from repro.pastry.network import PastryNetwork
from repro.verify.invariants import (
    REGISTRY,
    check_engine_coherence,
    check_engine_routing,
    invariants_for,
)


def lookup_stream(overlay, count=10, seed=0):
    rng = random.Random(seed)
    alive = overlay.alive_ids()
    sources = [rng.choice(alive) for __ in range(count)]
    keys = [rng.randrange(overlay.space.size) for __ in range(count)]
    return sources, keys


class TestGreenPath:
    def test_stabilized_overlays_are_coherent_and_clean(self):
        for kind, overlay in (
            ("chord", ChordRing.build(40, seed=6)),
            ("pastry", PastryNetwork.build(40, seed=6)),
        ):
            assert check_engine_coherence(kind, overlay) == []
            progress, termination = check_engine_routing(
                kind, overlay, *lookup_stream(overlay)
            )
            assert progress == [] and termination == []

    def test_registry_lists_engine_invariants_for_both_overlays(self):
        for overlay in ("chord", "pastry"):
            names = invariants_for("engine", overlay)
            assert names == [
                "engine.routing_progress",
                "engine.routing_termination",
                "engine.table_coherence",
            ]
        for name in invariants_for("engine", "chord"):
            assert REGISTRY[name].scope == "engine"


class TestCoherenceFires:
    def test_misclassified_pointer_is_caught(self, monkeypatch):
        real = columnar.snapshot_chord

        def corrupted(ring):
            snapshot = real(ring)
            snapshot.table_class[0] = 3  # "unknown": no stabilized entry is
            return snapshot

        monkeypatch.setattr(columnar, "snapshot_chord", corrupted)
        messages = check_engine_coherence("chord", ChordRing.build(24, seed=1))
        assert messages and "classed" in messages[0]

    def test_broken_dense_row_is_caught(self, monkeypatch):
        real = columnar.snapshot_chord

        def corrupted(ring):
            snapshot = real(ring)
            # Swap the first two gap-sorted slots of row 0: the CSR image
            # stays intact, only the dense re-layout lies.
            snapshot.hop_gaps[[0, 1]] = snapshot.hop_gaps[[1, 0]]
            return snapshot

        monkeypatch.setattr(columnar, "snapshot_chord", corrupted)
        messages = check_engine_coherence("chord", ChordRing.build(24, seed=1))
        assert messages and "dense" in messages[0]

    def test_wrong_pastry_leaf_row_is_caught(self, monkeypatch):
        real = columnar.snapshot_pastry

        def corrupted(network):
            snapshot = real(network)
            snapshot.leaf_mat[0, 0] = int(snapshot.ids[0])  # own id too early
            return snapshot

        monkeypatch.setattr(columnar, "snapshot_pastry", corrupted)
        messages = check_engine_coherence("pastry", PastryNetwork.build(24, seed=1))
        assert messages and "leaf" in messages[0]


class TestRoutingFires:
    def test_inflated_hop_count_is_caught(self, monkeypatch):
        real = router.batch_route_chord

        def inflated(*args, **kwargs):
            result = real(*args, **kwargs)
            result.hops[0] += 1
            return result

        monkeypatch.setattr(router, "batch_route_chord", inflated)
        overlay = ChordRing.build(24, seed=2)
        __, termination = check_engine_routing(
            "chord", overlay, *lookup_stream(overlay)
        )
        assert any("lane 0" in message for message in termination)

    def test_false_failure_is_caught_under_clean(self, monkeypatch):
        real = router.batch_route_pastry

        def failing(*args, **kwargs):
            result = real(*args, **kwargs)
            result.succeeded[0] = False
            result.destinations[0] = -1
            return result

        monkeypatch.setattr(router, "batch_route_pastry", failing)
        overlay = PastryNetwork.build(24, seed=2)
        __, termination = check_engine_routing(
            "pastry", overlay, *lookup_stream(overlay), clean=True
        )
        assert any("lane 0" in message for message in termination)
