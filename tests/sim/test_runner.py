"""Integration tests: the stable and churn experiment runners end-to-end.

These run miniature versions of the paper's experiments and assert the
*direction* of every headline result: the frequency-aware scheme beats the
frequency-oblivious baseline in both overlays, stable and churning.
"""

import pytest

from repro.sim.metrics import percent_reduction
from repro.sim.runner import OVERLAYS, ChurnConfig, ExperimentConfig, run_churn, run_stable
from repro.util.errors import ConfigurationError


class TestConfig:
    def test_effective_k_defaults_to_log_n(self):
        assert ExperimentConfig(overlay="chord", n=1024).effective_k == 10
        assert ExperimentConfig(overlay="chord", n=1024, k=30).effective_k == 30

    def test_effective_rankings_per_overlay(self):
        assert ExperimentConfig(overlay="chord").effective_rankings == 5
        assert ExperimentConfig(overlay="pastry").effective_rankings == 1
        assert ExperimentConfig(overlay="chord", num_rankings=2).effective_rankings == 2

    def test_effective_items_default(self):
        assert ExperimentConfig(overlay="chord", n=100).effective_items == 400

    def test_rejects_unknown_overlay(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="tapestry")

    @pytest.mark.parametrize("overlay", OVERLAYS)
    def test_rejects_unknown_pastry_mode(self, overlay):
        # Checked for every overlay when the config is built, so a bad
        # value fails before any cell runs.
        with pytest.raises(ConfigurationError, match="unknown pastry_mode 'bogus'"):
            ExperimentConfig(overlay=overlay, pastry_mode="bogus")

    def test_churn_rejects_learned_frequencies(self):
        # A churn cell always seeds converged frequencies; accepting the
        # flag would run the default cell under another name.
        with pytest.raises(ConfigurationError, match="learned_frequencies=True"):
            ChurnConfig(overlay="chord", learned_frequencies=True, warmup_queries=5)

    def test_accepts_kademlia(self):
        assert ExperimentConfig(overlay="kademlia").effective_rankings == 1

    def test_rejects_non_positive_bits(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", bits=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", bits=-4)

    def test_rejects_population_exceeding_id_space(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", n=300, bits=8)
        # Exactly filling the space is legal.
        assert ExperimentConfig(overlay="chord", n=256, bits=8).n == 256

    def test_rejects_non_positive_queries(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", queries=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", queries=-5)

    def test_rejects_non_positive_alpha(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", alpha=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="pastry", alpha=-1.2)

    def test_rejects_k_at_or_above_n(self):
        # k >= n used to slip through and silently degenerate selection
        # (every candidate fits the budget); it is always a typo.
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", n=16, bits=8, k=16)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="pastry", n=16, bits=8, k=40)
        # The largest meaningful budget, n - 1, stays legal.
        assert ExperimentConfig(overlay="chord", n=16, bits=8, k=15).effective_k == 15

    def test_rejects_negative_k(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", k=-1)
        # k = 0 (no auxiliary pointers) and k = None (log2 n) stay legal.
        ExperimentConfig(overlay="chord", k=0)
        ExperimentConfig(overlay="chord", k=None)

    def test_churn_rejects_long_warmup(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(overlay="chord", duration=100.0, warmup=200.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration": float("nan")},
            {"duration": float("inf")},
            {"warmup": -1.0},
            {"warmup": float("nan")},
            {"queries_per_second": 0.0},
            {"stabilize_interval": float("nan")},
            {"recompute_interval": float("inf")},
            {"mean_uptime": -5.0},
            {"mean_downtime": float("nan")},
        ],
    )
    def test_churn_rejects_non_finite_times(self, overrides):
        # A NaN duration passed the warmup check and never ended the run.
        with pytest.raises(ConfigurationError):
            ChurnConfig(overlay="chord", **overrides)

    def test_budget_mode_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", budget_mode="clever")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(overlay="chord", budget_total=-1)
        with pytest.raises(ConfigurationError):
            ChurnConfig(overlay="chord", rebalance_interval=0.0)

    def test_budget_defaults_and_labels(self):
        legacy = ExperimentConfig(overlay="chord", n=64)
        assert not legacy.budget_plan_active
        assert legacy.budget_label == ""
        assert legacy.effective_budget == 64 * legacy.effective_k

    def test_budget_total_alone_activates_the_plan(self):
        config = ExperimentConfig(overlay="chord", n=64, budget_total=100)
        assert config.budget_plan_active
        assert config.effective_budget == 100
        assert config.budget_label == " budget=uniform:100"
        allocated = ExperimentConfig(overlay="chord", n=64, budget_mode="allocated")
        assert allocated.budget_plan_active
        assert allocated.effective_budget == 64 * allocated.effective_k
        assert allocated.budget_label.startswith(" budget=allocated:")


class TestBudgetedRuns:
    def test_uniform_plan_at_full_budget_matches_legacy(self, stable_config):
        # The explicit uniform plan at K = n * k installs the same quotas
        # through the same recompute walk, so the numbers are identical.
        legacy = run_stable(stable_config("chord", n=48, bits=16, queries=800))
        k = ExperimentConfig(overlay="chord", n=48).effective_k
        planned = run_stable(
            stable_config(
                "chord",
                n=48,
                bits=16,
                queries=800,
                budget_mode="uniform",
                budget_total=48 * k,
            )
        )
        assert planned.optimized.mean_hops == legacy.optimized.mean_hops
        assert planned.baseline.mean_hops == legacy.baseline.mean_hops

    def test_allocated_stable_run_wins_and_labels(self, stable_config):
        result = run_stable(
            stable_config(
                "chord",
                n=48,
                bits=16,
                queries=800,
                num_rankings=4,
                budget_mode="allocated",
                budget_total=120,
            )
        )
        assert "budget=allocated:120" in result.label
        assert result.improvement > 0.0

    def test_allocated_churn_run_completes(self):
        result = run_churn(
            ChurnConfig(
                overlay="chord",
                n=32,
                bits=16,
                queries=400,
                seed=2,
                duration=250.0,
                warmup=50.0,
                budget_mode="allocated",
                rebalance_interval=60.0,
            )
        )
        assert "budget=allocated:" in result.label
        assert result.optimized.mean_hops > 0.0


class TestStableRunner:
    @pytest.mark.parametrize("overlay", ["chord", "pastry"])
    def test_optimal_beats_oblivious(self, overlay, stable_config):
        result = run_stable(stable_config(overlay))
        assert result.optimized.failures == 0
        assert result.baseline.failures == 0
        assert result.improvement > 5.0

    def test_reproducible(self, stable_config):
        first = run_stable(stable_config("chord"))
        second = run_stable(stable_config("chord"))
        assert first.optimized.mean_hops == second.optimized.mean_hops
        assert first.baseline.mean_hops == second.baseline.mean_hops

    def test_seed_changes_outcome_slightly(self, stable_config):
        a = run_stable(stable_config("chord", seed=2))
        b = run_stable(stable_config("chord", seed=3))
        # Different universes: identical values would suggest seed plumbing
        # is broken.
        assert a.optimized.mean_hops != b.optimized.mean_hops

    def test_more_pointers_help_more(self, stable_config):
        low = run_stable(stable_config("chord", k=2))
        high = run_stable(stable_config("chord", k=12))
        assert high.optimized.mean_hops <= low.optimized.mean_hops

    def test_higher_alpha_bigger_improvement(self, stable_config):
        mild = run_stable(stable_config("chord", alpha=0.91, seed=5))
        steep = run_stable(stable_config("chord", alpha=1.4, seed=5))
        assert steep.improvement > mild.improvement

    def test_pastry_greedy_mode_runs(self, stable_config):
        result = run_stable(stable_config("pastry", pastry_mode="greedy"))
        assert result.improvement > 0.0

    def test_workload_parameter_threads_through(self, stable_config):
        static = run_stable(stable_config("chord", queries=800))
        moving = run_stable(
            stable_config("chord", queries=800, workload="drifting-zipf:20")
        )
        assert "workload=" not in static.label
        assert "workload=drifting-zipf:20" in moving.label
        assert moving.baseline.mean_hops != static.baseline.mean_hops


class TestChurnRunner:
    def test_chord_churn_end_to_end(self):
        config = ChurnConfig(
            overlay="chord",
            n=48,
            bits=18,
            seed=4,
            duration=400.0,
            warmup=100.0,
        )
        result = run_churn(config)
        # Lookups happened during and after churn events.
        assert result.optimized.lookups > 500
        assert result.baseline.lookups > 500
        # The frequency-aware scheme still wins under churn.
        assert result.improvement > 0.0
        # Failure rates stay small thanks to stabilization + eviction.
        assert result.optimized.failure_rate < 0.1
        assert result.baseline.failure_rate < 0.1

    def test_pastry_churn_end_to_end(self):
        config = ChurnConfig(
            overlay="pastry",
            n=48,
            bits=18,
            seed=5,
            duration=300.0,
            warmup=75.0,
        )
        result = run_churn(config)
        assert result.optimized.lookups > 400
        assert result.improvement > 0.0
        assert result.optimized.failure_rate < 0.1

    def test_churn_reduces_benefit_versus_stable(self, stable_config):
        """Figure 5's qualitative claim: high churn shrinks (but does not
        erase) the improvement."""
        stable = run_stable(stable_config("chord", seed=6, queries=2500))
        churn = run_churn(
            ChurnConfig(
                overlay="chord",
                n=64,
                bits=18,
                seed=6,
                duration=500.0,
                warmup=100.0,
                mean_uptime=200.0,  # much harsher than the paper's 900 s
                mean_downtime=200.0,
            )
        )
        assert churn.improvement < stable.improvement


class TestLearnedFrequencies:
    def test_learned_mode_runs_and_wins(self, stable_config):
        config = stable_config("chord", learned_frequencies=True, warmup_queries=1500, seed=8)
        result = run_stable(config)
        assert result.improvement > 0.0

    def test_default_warmup_scales_with_n(self, stable_config):
        config = stable_config("chord", learned_frequencies=True)
        assert config.effective_warmup_queries == 40 * config.n
        explicit = stable_config("chord", learned_frequencies=True, warmup_queries=123)
        assert explicit.effective_warmup_queries == 123

    def test_learned_knows_less_than_converged(self, stable_config):
        """Finite observation gives the optimal scheme less to work with,
        so its hop count cannot beat the converged-knowledge run."""
        converged = run_stable(stable_config("chord", seed=9))
        learned = run_stable(
            stable_config("chord", seed=9, learned_frequencies=True, warmup_queries=600)
        )
        assert learned.optimized.mean_hops >= converged.optimized.mean_hops - 0.05


class TestFaultInjection:
    def test_stable_faults_deterministic_and_still_winning(self, stable_config):
        from repro.faults import FaultSchedule

        config = stable_config(
            "chord",
            seed=12,
            faults=FaultSchedule(loss_rate=0.05, crash_burst_size=4, stale_rate=0.01),
        )
        first = run_stable(config)
        second = run_stable(config)
        assert first.optimized.per_lookup == second.optimized.per_lookup
        assert first.baseline.per_lookup == second.baseline.per_lookup
        assert first.improvement > 0.0
        assert first.optimized.timeout_rate > 0.0
        assert "faults" in first.label

    def test_stable_fault_percentiles_available(self, stable_config):
        from repro.faults import FaultSchedule

        result = run_stable(stable_config("pastry", seed=4, faults=FaultSchedule(loss_rate=0.05)))
        percentiles = result.optimized.latency_percentiles()
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_inactive_schedule_matches_no_schedule_bit_for_bit(self, stable_config):
        """An attached-but-empty FaultSchedule must take the shared-bench
        fast path and reproduce the fault-free numbers exactly."""
        from repro.faults import FaultSchedule

        plain = run_stable(stable_config("chord", seed=5))
        empty = run_stable(stable_config("chord", seed=5, faults=FaultSchedule()))
        assert plain.optimized.mean_hops == empty.optimized.mean_hops
        assert plain.baseline.mean_hops == empty.baseline.mean_hops

    def test_churn_with_fault_bursts_runs_and_wins(self):
        from repro.faults import FaultSchedule

        config = ChurnConfig(
            overlay="chord",
            n=32,
            bits=16,
            seed=10,
            duration=200.0,
            warmup=50.0,
            faults=FaultSchedule(
                loss_rate=0.02,
                crash_burst_size=3,
                crash_burst_interval=60.0,
                crash_burst_downtime=30.0,
                partition_fraction=0.1,
                partition_start=80.0,
                partition_duration=40.0,
                stale_rate=0.02,
            ),
        )
        first = run_churn(config)
        second = run_churn(config)
        assert first.optimized.per_lookup == second.optimized.per_lookup
        assert first.improvement > 0.0
