"""Tests for the Beehive-style replication comparator."""

import pytest

from repro.chord.ring import ChordRing
from repro.extensions.replication import ReplicaDirectory, simulate_replication
from repro.faults.schedule import FaultSchedule
from repro.util.ids import IdSpace


class TestReplicaDirectory:
    @pytest.fixture()
    def ring(self):
        return ChordRing.build(16, space=IdSpace(14), seed=2)

    def test_level_zero_is_home_only(self, ring):
        directory = ReplicaDirectory(ring)
        item = 12345
        holders = directory.replicate(item, level=0)
        assert holders == {ring.responsible(item)}
        assert directory.update_cost(item) == 0

    def test_level_doubles_holders(self, ring):
        directory = ReplicaDirectory(ring)
        item = 999
        assert len(directory.replicate(item, level=1)) == 2
        assert len(directory.replicate(item, level=2)) == 4
        assert directory.update_cost(item) == 3

    def test_holders_are_predecessors(self, ring):
        directory = ReplicaDirectory(ring)
        item = 31
        holders = directory.replicate(item, level=2)
        home = ring.responsible(item)
        assert home in holders
        alive = ring.alive_ids()
        index = alive.index(home)
        expected = {alive[(index - offset) % len(alive)] for offset in range(4)}
        assert holders == expected

    def test_unreplicated_item_held_by_home(self, ring):
        directory = ReplicaDirectory(ring)
        assert directory.holders(7) == {ring.responsible(7)}

    def test_replica_count(self, ring):
        directory = ReplicaDirectory(ring)
        directory.replicate(1, level=2)
        directory.replicate(2, level=1)
        assert directory.replica_count() == 3 + 1


class TestSimulation:
    @pytest.fixture(scope="class")
    def reports(self):
        return simulate_replication(
            n=32, bits=16, queries=1200, replicated_fraction=0.1, replication_level=3, seed=3
        )

    def test_all_strategies_reported(self, reports):
        assert set(reports) == {"pointer", "replication", "none"}

    def test_both_schemes_beat_plain_chord(self, reports):
        assert reports["pointer"].mean_hops < reports["none"].mean_hops
        assert reports["replication"].mean_hops < reports["none"].mean_hops

    def test_replication_pays_update_traffic(self, reports):
        assert reports["replication"].update_messages_per_update > 0.0
        assert reports["replication"].replicas > 0
        # Pointer caching needs no replica refreshes at all.
        assert reports["pointer"].update_messages_per_update == 0.0
        assert reports["pointer"].replicas == 0

    def test_summary_text(self, reports):
        assert "msgs/update" in reports["replication"].summary()


class TestPinnedReport:
    """One small report per path, pinned hop for hop: the measured query
    stream, the replica placement and the routing must all stay put."""

    @pytest.mark.parametrize(
        "workload, faults, total_hops",
        [
            ("static-zipf", None, {"pointer": 661, "replication": 949, "none": 1254}),
            (
                "drifting-zipf:5",
                FaultSchedule(loss_rate=0.05, crash_burst_size=3, stale_rate=0.01),
                {"pointer": 737, "replication": 970, "none": 1404},
            ),
        ],
        ids=["static", "drifting-faulted"],
    )
    def test_report(self, workload, faults, total_hops):
        reports = simulate_replication(
            n=24,
            bits=16,
            queries=600,
            replicated_fraction=0.1,
            replication_level=2,
            seed=3,
            faults=faults,
            workload=workload,
        )
        assert {name: report.mean_hops for name, report in reports.items()} == {
            name: hops / 600 for name, hops in total_hops.items()
        }
        assert [(report.replicas, report.update_messages_per_update) for report in reports.values()] == [
            (0, 0.0),
            (27, 3.0),
            (0, 0.0),
        ]
