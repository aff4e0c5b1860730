"""The hostile config space: every combination of overlay, engine, fault
plane, budget, workload scenario, churn and learned frequencies either
runs or is refused with a ``ConfigurationError`` that names its cause.

A sweep of all 1,440 combinations (3 overlays × 3 engines × faults on or
off × 2 budget modes × totals 0 and 10 × 5 synthetic scenarios × stable or
churn × learned or converged frequencies) at n = 12 ran 800 cells and
refused 640 configs, with no other exception; the property samples that
space as a regression guard.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import FaultSchedule
from repro.sim.runner import ENGINES, OVERLAYS, ChurnConfig, ExperimentConfig, run_churn, run_stable
from repro.util.errors import ConfigurationError

#: Loss, a setup crash burst (periodic under churn), table corruption and
#: a partition: every fault kind at once.
FAULTS = FaultSchedule(loss_rate=0.05, crash_burst_size=2, stale_rate=0.01, partition_fraction=0.2)
SCENARIOS = ("static-zipf", "drifting-zipf", "flash-crowd", "diurnal", "hotspot-rotation")


@settings(max_examples=150, deadline=None)
@given(
    overlay=st.sampled_from(OVERLAYS),
    engine=st.sampled_from(ENGINES),
    faults=st.sampled_from([None, FAULTS]),
    budget_mode=st.sampled_from(["uniform", "allocated"]),
    budget_total=st.sampled_from([0, 10]),
    workload=st.sampled_from(SCENARIOS),
    churn=st.booleans(),
    learned_frequencies=st.booleans(),
)
def test_config_runs_or_names_its_cause(churn, **options):
    common = dict(n=12, bits=12, seed=1, **options)
    try:
        if churn:
            result = run_churn(ChurnConfig(duration=60.0, warmup=10.0, **common))
        else:
            result = run_stable(ExperimentConfig(queries=200, **common))
    except ConfigurationError as error:
        named = [f"{name}={value!r}" for name, value in options.items() if f"{name}={value!r}" in str(error)]
        assert named, f"{error!r} names none of the drawn options {options}"
    else:
        assert result.optimized.lookups == result.baseline.lookups > 0
