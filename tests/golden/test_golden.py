"""Golden stripped smoke documents for every schema the lookup loop feeds.

Each case reruns one CLI command in-process, strips the ``volatile``
manifest blocks plus the checkout- and interpreter-dependent ``git_rev``
and ``env`` manifest keys, and compares the canonical JSON byte for byte
with the committed document beside this file. CI's jobs-1-vs-N diffs
cannot catch a refactor that moves results the same way at every worker
count; these documents can.

After a change that is *meant* to move results, regenerate with::

    PYTHONPATH=src python -m tests.golden.test_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.manifest import dump_document, strip_host

GOLDEN_DIR = Path(__file__).resolve().parent

#: Retries, ``dead`` verdicts, evictions and every pointer class.
TRACE_ARGS = ["--sample", "32", "--n", "64", "--bits", "18", "--queries", "1000",
              "--loss", "0.02", "--burst", "4"]

CASES: dict[str, list[str]] = {
    "trace_chord": ["trace", "chord", *TRACE_ARGS],
    "trace_pastry": ["trace", "pastry", *TRACE_ARGS],
    "trace_kademlia": ["trace", "kademlia", *TRACE_ARGS],
    "cachestats": ["cachestats", "--smoke", "--jobs", "1"],
    "robustness": ["faults", "--smoke", "--jobs", "1"],
    "workload": ["workload", "--smoke", "--jobs", "1"],
    "allocation": ["allocate", "--smoke", "--jobs", "1"],
    "allocation_measured": ["allocate", "--smoke", "--jobs", "1", "--workload", "diurnal",
                            "--loads", "measured"],
    "metrics": ["metrics", "--smoke", "--jobs", "1"],
    # Retries, evictions, ``dead``/``dropped`` verdicts and backoff
    # penalty under churn.
    "metrics_churn": ["metrics", "--smoke", "--churn", "--loss", "0.05", "--burst", "3",
                      "--jobs", "1"],
    "check": ["check", "--smoke", "--seed", "0"],
    "figure6": ["figure", "6", "--jobs", "1"],
    "figure7": ["figure", "7", "--jobs", "1"],
    "sweep": ["sweep", "chord", "alpha", "0.8", "1.2", "--n", "64", "--bits", "16",
              "--queries", "1000", "--jobs", "1"],
}


def render(argv: list[str], workdir: Path) -> str:
    """Run one command and return its canonical stripped document."""
    path = workdir / "document.json"
    extra = ["--repro", str(workdir / "verify_failure.json")] if argv[0] == "check" else []
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--json", str(path), *extra])
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return dump_document(strip_host(json.loads(path.read_text())))


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert render(CASES[name], tmp_path) == expected


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    for name in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            text = render(CASES[name], Path(workdir))
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")
