"""Unit tests for the Chord ring table and routing primitives."""

import pytest

from repro.chord.ring import ChordRing
from repro.chord.routing import RingTable
from repro.util.errors import NodeAbsentError
from repro.util.ids import IdSpace


class TestRingTable:
    def test_add_remove_contains(self):
        table = RingTable(owner=0, space=IdSpace(8))
        table.fill({5, 9})
        assert len(table) == 2
        assert 5 in table and 9 in table
        table.remove(5)
        assert 5 not in table
        table.remove(5)  # idempotent

    def test_owner_never_added(self):
        table = RingTable(owner=7, space=IdSpace(8))
        table.fill({7, 9})
        assert table.entries() == [9]
        table.fill({7})
        assert len(table) == 0

    def test_next_hop_is_closest_preceding(self):
        table = RingTable(owner=0, space=IdSpace(8))
        table.fill({4, 64, 128})
        assert table.next_hop(100) == 64
        assert table.next_hop(64) == 64
        assert table.next_hop(3) is None  # nothing in (0, 3]
        assert table.next_hop(200) == 128

    def test_next_hop_wraparound(self):
        table = RingTable(owner=200, space=IdSpace(8))
        table.fill({250, 10})
        # Key 5 (gap 61 from owner): entry 250 (gap 50) precedes it.
        assert table.next_hop(5) == 250
        # Key 30 (gap 86): entry 10 (gap 66) is closest preceding.
        assert table.next_hop(30) == 10

    def test_next_hop_empty(self):
        assert RingTable(0, IdSpace(8)).next_hop(5) is None


class TestStableLookups:
    @pytest.fixture(scope="class")
    def ring(self):
        return ChordRing.build(64, space=IdSpace(16), seed=3)

    def test_every_lookup_succeeds_and_is_correct(self, ring):
        ids = ring.alive_ids()
        for key in range(0, 2**16, 1371):
            result = ring.lookup(ids[0], key)
            assert result.succeeded
            assert result.destination == ring.responsible(key)
            assert result.timeouts == 0

    def test_hop_bound(self, ring):
        """Steady-state Chord lookups take at most ~log2(space) hops."""
        ids = ring.alive_ids()
        for source in ids[:10]:
            for key in range(0, 2**16, 4093):
                result = ring.lookup(source, key)
                assert result.hops <= ring.space.bits

    def test_lookup_own_key_is_zero_hops(self, ring):
        source = ring.alive_ids()[0]
        result = ring.lookup(source, source)
        assert result.succeeded
        assert result.hops == 0

    def test_path_starts_at_source(self, ring):
        source = ring.alive_ids()[5]
        result = ring.lookup(source, 12345)
        assert result.path[0] == source
        assert result.latency == result.hops + result.timeouts

    def test_lookup_from_dead_node_raises(self):
        ring = ChordRing.build(8, space=IdSpace(12), seed=4)
        victim = ring.alive_ids()[0]
        ring.crash(victim)
        with pytest.raises(NodeAbsentError):
            ring.lookup(victim, 5)

    def test_record_access_feeds_tracker(self):
        ring = ChordRing.build(16, space=IdSpace(12), seed=5)
        source = ring.alive_ids()[0]
        key = (source + 1000) % 2**12
        destination = ring.responsible(key)
        ring.lookup(source, key)
        if destination != source:
            assert ring.node(source).tracker.frequency(destination) == 1.0


class TestChurnLookups:
    def test_timeouts_then_recovery(self):
        ring = ChordRing.build(64, space=IdSpace(16), seed=6)
        ids = ring.alive_ids()
        # Crash a quarter of the ring without stabilizing anyone.
        for victim in ids[::4]:
            ring.crash(victim)
        survivors = ring.alive_ids()
        outcomes = [ring.lookup(survivors[i % len(survivors)], key)
                    for i, key in enumerate(range(0, 2**16, 911))]
        # Lookups may time out against stale entries but the ring
        # self-heals by evicting them; most queries must still succeed.
        success_rate = sum(r.succeeded for r in outcomes) / len(outcomes)
        assert success_rate > 0.8
        # After global stabilization everything works again.
        ring.stabilize_all()
        for key in range(0, 2**16, 911):
            result = ring.lookup(survivors[0], key)
            assert result.succeeded
            assert result.timeouts == 0

    def test_eviction_learns_from_timeouts(self):
        ring = ChordRing.build(32, space=IdSpace(16), seed=7)
        ids = ring.alive_ids()
        source = ids[0]
        victim = ring.node(source).successors[0]
        ring.crash(victim)
        key = victim  # route straight at the dead successor
        first = ring.lookup(source, key)
        assert first.timeouts >= 1
        assert victim not in ring.node(source).neighbor_ids()
