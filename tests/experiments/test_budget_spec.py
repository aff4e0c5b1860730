"""Hostile ``--budget MODE[:K]`` specs on ``repro compare``.

Every spec either runs (exit 0) or is refused with exactly one
``repro: error:`` line on stderr (exit 2); none may escape as a
traceback. Modes are drawn from the two valid ones, their case variants,
the empty string and junk; totals from negative, zero, small and huge
integers, float and non-finite text, padded digits, extra colons and
words. Stable, churn and columnar cells of all three overlays are drawn.
"""

import io
import string
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.sim.runner import OVERLAYS

#: The valid modes get a branch of their own, so about a fifth of the
#: draws run a cell (the rest are refused).
MODES = (
    st.sampled_from(["uniform", "allocated"])
    | st.sampled_from(["", "Uniform", "UNIFORM", "Allocated", "ALLOCATED", " allocated",
                       "uniform ", "alloc", "none", "uniform,allocated"])
    | st.text(alphabet=string.ascii_letters + string.digits + " _.=", max_size=8)
)

TOTALS = st.sampled_from(
    ["-3", "-1", "0", "1", "5", "40", "999999999999999999999", "1e3", "nan", "inf",
     " 7", "7 ", "3:4", ":", "", "abc", "0x10", "1_000", "+5"]
) | st.integers(-10, 10**6).map(str)


@settings(max_examples=200, deadline=None)
@given(
    overlay=st.sampled_from(OVERLAYS),
    mode=MODES,
    total=st.none() | TOTALS,
    churn=st.booleans(),
    columnar=st.booleans(),
)
def test_budget_spec_runs_or_fails_with_one_line(overlay, mode, total, churn, columnar):
    spec = mode if total is None else f"{mode}:{total}"
    argv = ["compare", overlay, "--n", "12", "--bits", "12", "--queries", "40", "--budget", spec]
    if churn:
        argv += ["--churn", "--duration", "60"]
    if columnar:
        argv += ["--engine", "columnar"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    event(f"exit {code}")
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert not lines, lines
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("repro: error: "), lines
