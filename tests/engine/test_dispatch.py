"""Engine resolution: oracle dispatch, explicit demands, support gating."""

import pytest

from repro.engine.dispatch import (
    COLUMNAR_AUTO_THRESHOLD,
    COLUMNAR_MAX_BITS,
    columnar_support,
    resolve_engine,
)
from repro.faults import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.sim.runner import ChurnConfig, ExperimentConfig
from repro.util.errors import ConfigurationError


def config(**overrides):
    fields = dict(overlay="chord", n=1024, bits=32, queries=100, seed=0)
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestResolveEngine:
    def test_objects_always_resolves_to_objects(self):
        assert resolve_engine(config(engine="objects")) == "objects"
        assert resolve_engine(config(engine="objects"), telemetry_active=True) == "objects"

    def test_auto_dispatches_on_size(self):
        """The oracle-dispatch pattern: small cells stay on the
        transparent path, large supported cells go vectorized."""
        assert resolve_engine(config(n=COLUMNAR_AUTO_THRESHOLD - 1)) == "objects"
        assert resolve_engine(config(n=COLUMNAR_AUTO_THRESHOLD)) == "columnar"

    def test_auto_falls_back_when_unsupported(self):
        assert resolve_engine(config(faults=FaultSchedule(loss_rate=0.1))) == "objects"
        assert resolve_engine(config(retry=RetryPolicy.robust())) == "objects"
        assert resolve_engine(config(bits=COLUMNAR_MAX_BITS + 1, n=600)) == "objects"

    def test_auto_telemetry_forces_objects(self):
        assert resolve_engine(config(), telemetry_active=True) == "objects"

    def test_explicit_columnar_resolves_when_supported(self):
        assert resolve_engine(config(engine="columnar")) == "columnar"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"faults": FaultSchedule(loss_rate=0.1)},
            {"retry": RetryPolicy.robust()},
            {"bits": COLUMNAR_MAX_BITS + 1, "n": 600},
        ],
    )
    def test_explicit_columnar_raises_with_reason(self, overrides):
        cfg = config(engine="columnar", **overrides)
        with pytest.raises(ConfigurationError, match="unsupported"):
            resolve_engine(cfg)

    def test_explicit_columnar_refuses_telemetry(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            resolve_engine(config(engine="columnar"), telemetry_active=True)

    def test_unknown_engine_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="engine"):
            config(engine="simd")

    def test_churn_config_rejects_columnar(self):
        with pytest.raises(ConfigurationError, match="stable-mode only"):
            ChurnConfig(
                overlay="chord", n=600, bits=32, seed=0,
                duration=60.0, warmup=10.0, engine="columnar",
            )


class TestColumnarSupport:
    def test_supported_cell_has_empty_reason(self):
        supported, reason = columnar_support(config())
        assert supported and reason == ""

    @pytest.mark.parametrize("budget", [{"budget_mode": "allocated"}, {"budget_total": 500}])
    def test_budget_plans_are_supported(self, budget):
        assert columnar_support(config(**budget)) == (True, "")
        assert resolve_engine(config(**budget)) == "columnar"

    def test_reasons_name_the_blocking_rule(self):
        __, reason = columnar_support(config(faults=FaultSchedule(loss_rate=0.1)))
        assert "fault" in reason
        __, reason = columnar_support(config(retry=RetryPolicy.robust()))
        assert "retry" in reason
        __, reason = columnar_support(config(bits=COLUMNAR_MAX_BITS + 1, n=600))
        assert str(COLUMNAR_MAX_BITS) in reason
