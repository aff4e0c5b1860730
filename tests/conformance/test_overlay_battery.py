"""Cross-overlay conformance battery.

One parametrized suite runs every overlay backend — Chord, Pastry,
Kademlia — through the same behavioural contract, replacing the
copy-pasted per-overlay property tests that used to live in
``tests/chord`` and ``tests/pastry``:

* stable lookups terminate at the responsible node, validated against a
  *linear-scan* oracle re-deriving responsibility from the overlay's own
  distance metric (no bisect, no routing);
* every delivered hop makes strict progress under that metric;
* hop counts respect the O(log n) bound (and never exceed the id length);
* the skeleton's memoized ``responsible`` never outlives a membership
  change: after every ``add_node``, ``join_via``, ``crash`` and
  ``rejoin`` it equals the oracle for keys asked before and after;
* crash half / stabilize / rejoin / stabilize is idempotent: the live set,
  responsibility and full lookup correctness all come back;
* the membership contract of the shared skeleton (:mod:`repro.overlay`):
  repeated crashes and rejoins, stabilizing or joining through a dead node
  and duplicate ids are rejected, a crash loses the tracker and the
  auxiliaries, stabilization drops dead auxiliaries, and every class holds
  its own copy of the entry points tracers wrap;
* figure-cell JSON is byte-identical at ``--jobs 1`` vs ``--jobs 4`` once
  volatile manifest keys are stripped.

Adding a fourth overlay means adding one entry to :data:`OVERLAYS` plus
its two metric lambdas — the battery itself does not change.
"""

import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pastry.routing import circular_distance
from repro.util.errors import ConfigurationError, NodeAbsentError

OVERLAYS = ("chord", "pastry", "kademlia")

_N = 32
_BITS = 14


def _oracle_responsible(overlay_kind, space, alive, key):
    """Linear-scan responsibility under the overlay's own metric."""
    if overlay_kind == "chord":
        return min(alive, key=lambda nid: space.gap(nid, key))
    if overlay_kind == "kademlia":
        return min(alive, key=lambda nid: nid ^ key)
    return min(alive, key=lambda nid: (circular_distance(space, nid, key), nid))


def _assert_strict_progress(overlay_kind, space, path, key):
    """Every delivered hop strictly improves the overlay's metric."""
    if overlay_kind == "chord":
        gaps = [space.gap(node, key) for node in path]
        assert gaps == sorted(gaps, reverse=True)
        assert len(set(gaps)) == len(gaps), f"stalled hop in {path}"
        return
    if overlay_kind == "kademlia":
        distances = [node ^ key for node in path]
        assert distances == sorted(distances, reverse=True)
        assert len(set(distances)) == len(distances), f"stalled hop in {path}"
        return
    for cur, nxt in zip(path, path[1:]):
        lcp_cur = space.common_prefix_length(cur, key)
        lcp_next = space.common_prefix_length(nxt, key)
        dist_cur = circular_distance(space, cur, key)
        dist_next = circular_distance(space, nxt, key)
        assert (
            lcp_next > lcp_cur
            or dist_next < dist_cur
            or (dist_next == dist_cur and nxt < cur)
        ), f"hop {cur} -> {nxt} made no progress toward {key}"


@pytest.fixture(params=OVERLAYS)
def overlay_kind(request):
    return request.param


class TestStableLookups:
    def test_terminates_at_linear_scan_responsible(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=_N, bits=_BITS, seed=5)
        rng = random.Random(5)
        ids = overlay.alive_ids()
        for __ in range(40):
            source = ids[rng.randrange(len(ids))]
            key = rng.randrange(overlay.space.size)
            result = overlay.lookup(source, key, record_access=False)
            assert result.succeeded
            assert result.timeouts == 0
            assert result.destination == _oracle_responsible(
                overlay_kind, overlay.space, ids, key
            )
            assert result.path[0] == source
            assert result.path[-1] == result.destination

    def test_every_hop_makes_strict_progress(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=_N, bits=_BITS, seed=6)
        rng = random.Random(6)
        ids = overlay.alive_ids()
        for __ in range(40):
            source = ids[rng.randrange(len(ids))]
            key = rng.randrange(overlay.space.size)
            result = overlay.lookup(source, key, record_access=False)
            assert len(set(result.path)) == len(result.path)  # no revisits
            _assert_strict_progress(overlay_kind, overlay.space, result.path, key)

    def test_hop_counts_are_logarithmic(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=_N, bits=_BITS, seed=7)
        rng = random.Random(7)
        ids = overlay.alive_ids()
        hops = []
        for __ in range(60):
            source = ids[rng.randrange(len(ids))]
            key = rng.randrange(overlay.space.size)
            result = overlay.lookup(source, key, record_access=False)
            assert result.hops <= _BITS  # hard per-lookup ceiling
            hops.append(result.hops)
        # The O(log n) claim, with slack for the constant factor.
        assert sum(hops) / len(hops) <= math.log2(_N) + 1


class TestResponsibility:
    def test_responsible_matches_linear_scan(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=24, bits=12, seed=8)
        rng = random.Random(8)
        ids = overlay.alive_ids()
        for __ in range(50):
            key = rng.randrange(overlay.space.size)
            assert overlay.responsible(key) == _oracle_responsible(
                overlay_kind, overlay.space, ids, key
            )


class TestResponsibilityMemo:
    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    # ``small_universe`` is a stateless factory, safe to share across examples.
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.sampled_from(["add", "join", "crash", "rejoin"]), max_size=12),
    )
    def test_memo_follows_every_membership_change(self, small_universe, overlay_kind, seed, steps):
        overlay = small_universe(overlay_kind, n=6, bits=10, seed=seed)
        space = overlay.space
        rng = random.Random(seed)
        asked = [rng.randrange(space.size) for __ in range(12)]

        def assert_oracle(keys):
            alive = overlay.alive_ids()
            for key in keys:
                assert overlay.responsible(key) == _oracle_responsible(
                    overlay_kind, space, alive, key
                ), (key, alive)

        assert_oracle(asked)
        for step in steps:
            alive = overlay.alive_ids()
            down = [nid for nid in overlay.nodes if nid not in set(alive)]
            fresh = rng.randrange(space.size)
            while fresh in overlay.nodes:
                fresh = rng.randrange(space.size)
            if step == "add":
                touched = fresh
                overlay.add_node(fresh)
            elif step == "join":
                touched = rng.choice(down) if down and rng.random() < 0.5 else fresh
                overlay.join_via(touched, rng.choice(alive))
            elif step == "crash" and len(alive) > 1:
                touched = rng.choice(alive)
                overlay.crash(touched)
            elif step == "rejoin" and down:
                touched = rng.choice(down)
                overlay.rejoin(touched)
            else:
                continue
            # Keys asked before the change, the changed id itself (a join
            # routes it while the joiner is still down) and new ones.
            assert_oracle([*asked, touched, space.add(touched, 1)])
            asked.append(rng.randrange(space.size))
            assert_oracle(asked)


class TestCrashRejoinIdempotence:
    def test_crash_half_then_rejoin_restores_everything(
        self, small_universe, overlay_kind
    ):
        overlay = small_universe(overlay_kind, n=24, bits=_BITS, seed=9)
        before = list(overlay.alive_ids())
        victims = before[::2]
        for victim in victims:
            overlay.crash(victim)
        overlay.stabilize_all()
        survivors = overlay.alive_ids()
        assert survivors == [nid for nid in before if nid not in set(victims)]
        # Survivors still serve correct lookups among themselves.
        rng = random.Random(9)
        for __ in range(10):
            source = survivors[rng.randrange(len(survivors))]
            key = rng.randrange(overlay.space.size)
            result = overlay.lookup(source, key, record_access=False)
            assert result.succeeded
            assert result.destination == _oracle_responsible(
                overlay_kind, overlay.space, survivors, key
            )
        for victim in victims:
            overlay.rejoin(victim)
        overlay.stabilize_all()
        assert overlay.alive_ids() == before
        for __ in range(20):
            source = before[rng.randrange(len(before))]
            key = rng.randrange(overlay.space.size)
            result = overlay.lookup(source, key, record_access=False)
            assert result.succeeded
            assert result.timeouts == 0
            assert result.destination == _oracle_responsible(
                overlay_kind, overlay.space, before, key
            )


class TestLifecycle:
    def test_crash_rejoin_stabilize_checks(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=16, bits=12, seed=1)
        victim = overlay.alive_ids()[3]
        overlay.crash(victim)
        assert not overlay.node(victim).alive
        assert victim not in overlay.alive_ids()
        with pytest.raises(NodeAbsentError):
            overlay.crash(victim)
        with pytest.raises(NodeAbsentError):
            overlay.stabilize(victim)
        overlay.rejoin(victim)
        assert overlay.node(victim).alive
        assert victim in overlay.alive_ids()
        with pytest.raises(NodeAbsentError):
            overlay.rejoin(victim)

    def test_crash_drops_tracker_and_aux(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=16, bits=12, seed=2)
        ids = overlay.alive_ids()
        node = overlay.node(ids[0])
        node.record_access(ids[1])
        node.set_auxiliary({ids[2]})
        overlay.crash(ids[0])
        overlay.rejoin(ids[0])
        assert node.auxiliary == set()
        assert node.frequency_snapshot() == {}

    def test_stabilize_drops_dead_aux(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=16, bits=12, seed=3)
        ids = overlay.alive_ids()
        holder, target = ids[0], ids[5]
        overlay.node(holder).set_auxiliary({target})
        overlay.crash(target)
        overlay.stabilize(holder)
        assert target not in overlay.node(holder).auxiliary

    def test_duplicate_ids_rejected(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=16, bits=12, seed=4)
        ids = overlay.alive_ids()
        with pytest.raises(ConfigurationError):
            overlay.add_node(ids[0])
        with pytest.raises(ConfigurationError):
            overlay.join_via(ids[0], ids[1])

    def test_join_needs_live_bootstrap(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=16, bits=12, seed=5)
        newcomer, unknown = [i for i in range(overlay.space.size) if i not in overlay.nodes][:2]
        dead = overlay.alive_ids()[3]
        overlay.crash(dead)
        for bootstrap in (dead, unknown):
            with pytest.raises(NodeAbsentError):
                overlay.join_via(newcomer, bootstrap)
        assert newcomer not in overlay.nodes

    def test_disabled_telemetry_detaches(self, small_universe, overlay_kind):
        from repro.telemetry.runtime import RoundTelemetry

        overlay = small_universe(overlay_kind, n=8, bits=10)
        overlay.attach_telemetry(RoundTelemetry.disabled())
        assert overlay._telemetry is None
        overlay.attach_telemetry(None)
        assert overlay._telemetry is None

    def test_entry_points_on_each_class(self, small_universe, overlay_kind):
        """``perfbench/tracing.py`` wraps these names in each overlay
        class's own ``__dict__``."""
        cls = type(small_universe(overlay_kind, n=4, bits=8))
        for name in (
            "build", "seed_frequencies", "recompute_auxiliary", "recompute_all_auxiliary",
            "lookup", "stabilize", "crash", "rejoin",
        ):
            assert name in vars(cls), name


class TestFigureDeterminism:
    def test_figure_cell_json_identical_across_jobs(self):
        """The three-overlay figure-7 document is byte-identical at one
        worker and four, after stripping volatile manifest keys."""
        from repro.experiments.driver import document
        from repro.experiments.figures import EXPERIMENT, FigurePreset, run_figure
        from repro.obs.manifest import strip_volatile

        preset = FigurePreset(
            name="conformance-tiny",
            bits=_BITS,
            queries=300,
            pastry_sizes=(16,),
            pastry_k_base=16,
            chord_sizes=(16,),
            chord_k_base=16,
            churn_duration=60.0,
            churn_warmup=20.0,
            seed=0,
            kademlia_sizes=(24,),
            kademlia_k_base=24,
        )
        documents = []
        for jobs in (1, 4):
            result = run_figure("7", preset, jobs=jobs)
            payload = document(EXPERIMENT, result, preset)
            documents.append(
                json.dumps(strip_volatile(payload), sort_keys=True, indent=2)
            )
        assert documents[0] == documents[1]
        parsed = json.loads(documents[0])
        assert {series["label"] for series in parsed["series"]} == set(OVERLAYS)
