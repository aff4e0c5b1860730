"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure {3,4,5,6}``
    Regenerate one of the paper's evaluation figures and print the series
    as a table (``--detail`` adds raw hop counts; ``--paper`` runs the
    full-size configuration, which takes minutes).
``compare``
    Run a single comparison cell with explicit parameters.
``sweep``
    Sweep one configuration parameter and print a table or CSV.
``bench``
    Run the three disabled-observer overhead gates (tracing, telemetry,
    cache attribution) and emit a BENCH_v1 document; fails when any
    gate does not hold. Whole cells are timed by ``perfbench/``.
``faults``
    Run the fault-injection robustness grid (%-reduction vs message-loss
    rate and vs crash-burst size) and fail if the frequency-aware policy
    stops winning under >= 5% message loss.
``workload``
    Run the workload-plane grid (every synthetic scenario × overlay ×
    selection mode, plus the §II-C item-cache discipline grid) and fail
    if frequency-aware selection stops winning on skewed scenarios or
    adaptive refresh stops winning anywhere. ``figure``, ``compare``,
    ``sweep``, ``faults`` and ``metrics`` accept ``--workload
    NAME[:PARAM]`` to swap the query scenario on any cell.
``cachestats``
    Run the per-pointer cache attribution grid (:mod:`repro.obs.attribution`):
    hits/uses per (node, pointer class), staleness-at-use under a churn
    probe, quota utilization vs the budget allocator's ``k_i``, and
    per-lookup hop-savings attribution with the conservation law
    Σ(credits) == oblivious − observed hops machine-checked on every
    lookup. Prints utilization/load sparklines and a top-N hot-pointer
    table; ``--json`` writes the CACHESTATS_v1 document. ``repro
    allocate --loads measured`` threads the same recorder's measured
    per-node query rates into ``CostCurve(load=...)`` and gates on a
    strict predicted win; ``repro allocate --workload NAME[:PARAM]``
    swaps the query scenario on the whole allocation grid.
``trace``
    Run one traced cell (:mod:`repro.obs`): per-lookup hop paths with
    pointer-class attribution, a hop-class/verdict breakdown table, and
    optionally the full TRACE_v1 document as JSON. ``--sample N`` keeps
    a seeded reservoir of N lookup traces instead of all of them.
``check``
    Run the invariant-checking scenario search (:mod:`repro.verify`):
    seeded scenarios driven through all three overlays with every applicable
    invariant evaluated per step. Failing scenarios are shrunk to a
    replayable VERIFY_REPRO_v1 JSON (``--repro PATH``); ``--replay PATH``
    re-runs such a document deterministically.
``metrics``
    Run one instrumented comparison cell (:mod:`repro.telemetry`) on the
    deterministic round clock and render an ASCII dashboard of the
    per-round series (sparklines + span profile). ``--json PATH`` writes
    the METRICS_v1 document, ``--openmetrics PATH`` the Prometheus-style
    text exposition (round index as sample timestamp).
``report``
    Regenerate the EXPERIMENTS.md measurement tables at report scale and
    write ``results/report.json`` (REPORT_v1, with manifest) and
    ``results/report.md``.
``demo``
    A 30-second end-to-end tour (used by the quickstart).

The six grid commands (``figure``, ``sweep``, ``faults``, ``workload``,
``allocate``, ``cachestats``) share one handler: each module's
``EXPERIMENT`` record runs through :func:`repro.experiments.driver.run`,
which picks the preset, times the run, writes ``--json``, prints the
render and footer, and exits 1 with one ``FAIL:`` line per broken gate.
``--jobs`` fans cells over worker processes (default: ``REPRO_JOBS`` or
the CPU count); outputs are bit-identical at any worker count. Every
``--json`` document embeds a MANIFEST_v1 provenance block (config
digest, seed, git revision, environment) and is written by
:func:`repro.experiments.driver.write`, which stores the elapsed wall
time only under the manifest's ``volatile`` part. Bad input exits 2 with
one ``repro: error:`` line.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.experiments.figures import FIGURES
from repro.experiments.report import REPORT_FIGURES
from repro.sim.runner import OVERLAYS
from repro.util.errors import ConfigurationError
from repro.util.timer import Stopwatch

__all__ = ["main", "build_parser"]

#: Flags several commands take, declared once and added by name.
SHARED_FLAGS: dict[str, dict] = {
    "seed": dict(type=int, default=0, help="master random seed"),
    "jobs": dict(
        type=int,
        default=None,
        help="worker processes for the cells (default: REPRO_JOBS or CPU count)",
    ),
    "json": dict(
        default=None, metavar="PATH", help="write the result document (with manifest) here"
    ),
    "smoke": dict(action="store_true", help="CI scale (seconds)"),
    "workload": dict(
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for every cell (e.g. drifting-zipf:30, "
        "flash-crowd:3, trace:/path/to/trace.jsonl; default: static-zipf)",
    ),
    "engine": dict(
        choices=["auto", "objects", "columnar"],
        default="auto",
        help="routing engine for stable cells (columnar = vectorized "
        "struct-of-arrays; churn always uses objects)",
    ),
    "k": dict(type=int, default=None, help="auxiliary pointers (default log2 n)"),
    "alpha": dict(type=float, default=1.2, help="Zipf exponent"),
    "churn": dict(action="store_true", help="churn-mode cell"),
    "duration": dict(type=float, default=600.0, help="churn sim duration (s)"),
    "loss": dict(type=float, default=0.0, help="per-message drop probability (fault plane)"),
    "burst": dict(type=int, default=0, help="correlated crash-burst size (fault plane)"),
}

#: The grid commands: each module's ``EXPERIMENT`` record runs through
#: :func:`repro.experiments.driver.run`.
GRID_COMMANDS = {
    "figure": "repro.experiments.figures",
    "sweep": "repro.experiments.sweep",
    "faults": "repro.experiments.robustness",
    "workload": "repro.experiments.workload",
    "allocate": "repro.experiments.allocation",
    "cachestats": "repro.experiments.cachestats",
}


def _shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **SHARED_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accelerating Lookups in P2P Systems using Peer "
            "Caching' (Deb et al., ICDE 2008)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one evaluation figure")
    figure.add_argument(
        "figure_id",
        nargs="?",
        choices=sorted(FIGURES),
        default="7",
        help="figure number (default: 7, the three-overlay comparison)",
    )
    figure.add_argument(
        "--overlay",
        choices=OVERLAYS,
        default=None,
        help="pin figure 7's cross-overlay grid to one overlay",
    )
    figure.add_argument("--paper", action="store_true", help="full paper-scale parameters (slow)")
    figure.add_argument("--detail", action="store_true", help="print raw hop counts too")
    figure.add_argument("--markdown", action="store_true", help="emit a markdown table")
    figure.add_argument("--chart", action="store_true", help="render an ASCII chart")
    _shared(figure, "seed", "jobs", "json", "engine", "workload")

    compare = sub.add_parser("compare", help="run a single comparison cell")
    compare.add_argument("overlay", choices=OVERLAYS)
    compare.add_argument("--n", type=int, default=256)
    compare.add_argument("--bits", type=int, default=24)
    compare.add_argument("--queries", type=int, default=5000)
    compare.add_argument(
        "--budget",
        default=None,
        metavar="MODE[:K]",
        help="budget policy: 'uniform' or 'allocated', optionally with a "
        "total pointer budget K (e.g. 'allocated:256'; default K = n*k). "
        "Omit for the legacy per-node-k path",
    )
    _shared(compare, "k", "alpha", "seed", "churn", "duration", "engine", "workload")

    sw = sub.add_parser("sweep", help="sweep one config parameter")
    sw.add_argument("overlay", choices=OVERLAYS)
    sw.add_argument("parameter", help="ExperimentConfig field to vary (e.g. alpha, k, n)")
    sw.add_argument("values", nargs="+", help="values to sweep over")
    sw.add_argument("--n", type=int, default=128)
    sw.add_argument("--bits", type=int, default=20)
    sw.add_argument("--queries", type=int, default=3000)
    sw.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    _shared(sw, "seed", "jobs", "json", "engine", "workload")

    bench = sub.add_parser("bench", help="disabled-observer overhead gates, emit BENCH_v1 JSON")
    bench.add_argument("--output", default=None, help="write the BENCH_v1 document here")
    _shared(bench, "smoke")

    faults = sub.add_parser("faults", help="fault-injection robustness grid")
    _shared(faults, "smoke", "seed", "json", "jobs", "workload")

    workload = sub.add_parser(
        "workload", help="scenario × overlay × selection comparison grid"
    )
    _shared(workload, "smoke", "seed", "json", "jobs")

    allocate = sub.add_parser(
        "allocate", help="uniform-k vs allocated-k at equal total budget"
    )
    allocate.add_argument(
        "--loads",
        choices=["uniform", "measured"],
        default="uniform",
        help="'measured' probes per-node query rates via the attribution "
        "recorder and plans load-aware CostCurves (gated on a strict "
        "predicted win over the uniform-load plan)",
    )
    _shared(allocate, "smoke", "seed", "json", "jobs", "workload")

    cachestats = sub.add_parser(
        "cachestats", help="per-pointer cache attribution grid (repro.obs)"
    )
    cachestats.add_argument(
        "--top", type=int, default=5, help="hot pointers to print per overlay (default 5)"
    )
    _shared(cachestats, "smoke", "seed", "json", "jobs", "workload")

    trace = sub.add_parser("trace", help="trace per-lookup hop paths for one cell")
    trace.add_argument(
        "overlay", nargs="?", choices=OVERLAYS, default="chord",
        help="overlay to trace (default: chord)",
    )
    trace.add_argument("--n", type=int, default=128)
    trace.add_argument("--bits", type=int, default=20)
    trace.add_argument("--queries", type=int, default=2000)
    trace.add_argument(
        "--policy",
        choices=["optimal", "oblivious"],
        default="optimal",
        help="which auxiliary-selection policy to trace",
    )
    trace.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="keep a seeded reservoir of N lookup traces (default: keep all)",
    )
    trace.add_argument(
        "--paths", type=int, default=5, help="print the first N kept lookup paths (default 5)"
    )
    _shared(trace, "k", "alpha", "seed", "loss", "burst", "json")

    check = sub.add_parser(
        "check", help="invariant-checking scenario search (repro.verify)"
    )
    check.add_argument(
        "--scenarios", type=int, default=200, help="number of generated scenarios"
    )
    check.add_argument(
        "--overlay",
        choices=OVERLAYS,
        default=None,
        help="pin one overlay (default: cycle through all three)",
    )
    check.add_argument(
        "--repro",
        default="verify_failure.json",
        metavar="PATH",
        help="where to write the shrunk VERIFY_REPRO_v1 on failure",
    )
    check.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-run a shrunk VERIFY_REPRO_v1 failure document instead of searching",
    )
    _shared(check, "seed", "smoke", "json")

    metrics = sub.add_parser(
        "metrics", help="round-clocked telemetry dashboard for one cell"
    )
    metrics.add_argument(
        "overlay", nargs="?", choices=OVERLAYS, default="chord",
        help="overlay to instrument (default: chord)",
    )
    metrics.add_argument("--n", type=int, default=128)
    metrics.add_argument("--bits", type=int, default=20)
    metrics.add_argument("--queries", type=int, default=4000)
    metrics.add_argument(
        "--rounds", type=int, default=12, help="round-clock samples (default 12)"
    )
    metrics.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help="write the OpenMetrics text exposition here",
    )
    _shared(
        metrics, "k", "alpha", "seed", "churn", "duration", "loss", "burst",
        "smoke", "jobs", "json", "workload",
    )

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md tables (results/report.*)"
    )
    report.add_argument(
        "--figures",
        nargs="+",
        default=REPORT_FIGURES,
        choices=tuple(FIGURES),
        help=f"subset of figures to regenerate (default: {' '.join(REPORT_FIGURES)})",
    )
    report.add_argument(
        "--out-dir", default="results", help="output directory (default: results)"
    )
    _shared(report, "jobs")

    sub.add_parser("demo", help="30-second end-to-end tour")
    return parser


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.experiments import driver

    experiment = importlib.import_module(GRID_COMMANDS[args.command]).EXPERIMENT
    return driver.run(experiment, args)


def _parse_budget(text: str | None) -> dict:
    """``--budget MODE[:K]`` -> ExperimentConfig budget kwargs; the config
    rejects an unknown mode."""
    if text is None:
        return {}
    mode, sep, total = text.partition(":")
    kwargs: dict = {"budget_mode": mode}
    if sep:
        try:
            kwargs["budget_total"] = int(total)
        except ValueError:
            raise ConfigurationError(f"--budget total must be an integer, got {total!r}")
    elif mode == "allocated":
        # Bare 'allocated' still plans: K defaults to n * effective_k.
        kwargs["budget_total"] = None
    return kwargs


def _cell_config(
    args: argparse.Namespace,
    churn: bool = False,
    *,
    n: int | None = None,
    queries: int | None = None,
    duration: float | None = None,
    engine: str = "auto",
    **fields,
):
    """The one cell a command's overlay, n, k, alpha, bits and seed flags
    describe, plus the command's own ``fields``: a churn cell, warmed up
    for a quarter of its ``duration`` (at most 300 s), or a stable cell of
    ``queries`` lookups on ``engine``. ``n``, ``queries`` and ``duration``
    override the flags (``--smoke`` sizes)."""
    from repro.sim.runner import ChurnConfig, ExperimentConfig

    fields.update(
        overlay=args.overlay,
        n=args.n if n is None else n,
        k=args.k,
        alpha=args.alpha,
        bits=args.bits,
        seed=args.seed,
    )
    if churn:
        duration = args.duration if duration is None else duration
        return ChurnConfig(duration=duration, warmup=min(duration / 4, 300.0), **fields)
    queries = args.queries if queries is None else queries
    return ExperimentConfig(queries=queries, engine=engine, **fields)


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_churn, run_stable

    config = _cell_config(
        args,
        args.churn,
        engine=args.engine,
        workload=args.workload,
        **_parse_budget(args.budget),
    )
    result = (run_churn if args.churn else run_stable)(config)
    print(result.summary())
    print(
        f"  failure rates: ours {result.optimized.failure_rate:.4f}, "
        f"oblivious {result.baseline.failure_rate:.4f}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.runner import failures, print_summary, run_bench, write_bench

    document = run_bench(smoke=args.smoke)
    print_summary(document)
    if args.output:
        path = write_bench(document, args.output)
        print(f"\nbench document written to {path}")
    broken = failures(document)
    for message in broken:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if broken else 0


def _fault_schedule(args: argparse.Namespace):
    """``--loss`` and ``--burst`` as a fault schedule, or ``None`` at their
    defaults. Any other value builds one, so the schedule checks it."""
    from repro.faults.schedule import FaultSchedule

    if args.loss == 0.0 and args.burst == 0:
        return None
    return FaultSchedule(loss_rate=args.loss, crash_burst_size=args.burst)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.driver import write
    from repro.obs.driver import trace_cell

    config = _cell_config(args, faults=_fault_schedule(args))
    watch = Stopwatch()
    document = trace_cell(config, policy=args.policy, sample=args.sample)
    stats = document["stats"]
    print(
        f"traced {stats['lookups']} {args.overlay} lookups "
        f"(policy={args.policy}, n={args.n}, seed={args.seed}): "
        f"mean hops {stats['mean_hops']:.3f}, "
        f"failure rate {stats['failure_rate']:.4f}, "
        f"timeout rate {stats['timeout_rate']:.4f}"
    )
    print(_render_hop_classes(document["counters"]))
    if document["counters"]["timeouts_by_verdict"]:
        verdicts = ", ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(document["counters"]["timeouts_by_verdict"].items())
        )
        print(f"timeout verdicts: {verdicts}")
    kept = document["traces"]
    shown = kept[: max(0, args.paths)]
    if shown:
        print(
            f"\nper-lookup paths ({len(shown)} of {document['kept']} kept, "
            f"{document['seen']} seen):"
        )
        for trace in shown:
            print(_render_trace(trace))
    if args.json:
        write(args.json, document, watch)
        print(f"\ntrace document written to {args.json}")
    print(f"\n[{watch}]")
    return 0


def _render_hop_classes(counters: dict) -> str:
    """Aligned pointer-class breakdown of every forward in the cell."""
    hops = counters["hops_by_class"]
    total = sum(hops.values()) or 1
    lines = ["hop breakdown by pointer class:"]
    for name, count in sorted(hops.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {name:<10} {count:>8}  {100.0 * count / total:5.1f}%")
    return "\n".join(lines)


def _render_trace(trace: dict) -> str:
    """One kept lookup as an indented per-hop path dump."""
    status = "ok" if trace["succeeded"] else "FAILED"
    header = (
        f"  key={trace['key']} source={trace['source']} dest={trace['destination']} "
        f"hops={trace['hops']} timeouts={trace['timeouts']} {status}"
    )
    lines = [header]
    for index, event in enumerate(trace["events"], start=1):
        if event["delivered"]:
            outcome = "delivered"
        else:
            verdicts = ",".join(event["verdicts"]) or "timeout"
            outcome = f"EVICTED ({verdicts})"
        retry = f" attempts={event['attempts']}" if event["attempts"] > 1 else ""
        penalty = f" penalty=+{event['penalty']:g}" if event["penalty"] else ""
        lines.append(
            f"    hop {index}: {event['forwarder']} -> {event['target']} "
            f"[{event['pointer_class']}] {outcome}{retry}{penalty}"
        )
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.experiments.driver import write
    from repro.verify import check_scenarios, replay_failure

    watch = Stopwatch()
    if args.replay:
        report = replay_failure(args.replay)
        scenario = report.scenario
        print(
            f"replayed {scenario.overlay} scenario "
            f"(n={scenario.n}, bits={scenario.bits}, k={scenario.k}, "
            f"seed={scenario.seed}, {len(scenario.steps)} steps)"
        )
        if report.passed:
            print("replay PASSED: the recorded violation no longer reproduces")
            return 0
        for violation in report.violations:
            print(
                f"  step {violation.step}: {violation.invariant}: {violation.message}",
                file=sys.stderr,
            )
        print(
            f"replay FAILED: {len(report.violations)} violation(s) reproduced",
            file=sys.stderr,
        )
        return 1

    count = 25 if args.smoke else args.scenarios
    document = check_scenarios(count, args.seed, args.overlay)
    print(
        f"checked {document['scenarios']} scenarios "
        f"({document['overlay']} overlays, seed {document['seed']}): "
        f"{document['lookups']} lookups verified"
    )
    print("invariant evaluations:")
    for name, evaluations in document["checks"].items():
        print(f"  {name:<24} {evaluations:>8}")
    if args.json:
        write(args.json, document, watch)
        print(f"\ncheck document written to {args.json}")
    print(f"\n[{watch}]")
    if document["passed"]:
        print("all invariants held")
        return 0
    failures = document["failures"]
    for failure in failures:
        violation = failure["violation"]
        print(
            f"FAIL (scenario {failure['scenario_index']}): "
            f"{violation['invariant']}: {violation['message']}",
            file=sys.stderr,
        )
    shrunk = [failure for failure in failures if failure.get("schema")]
    if shrunk and args.repro:
        write(args.repro, shrunk[0], watch)
        print(
            f"shrunk repro written to {args.repro} "
            f"(replay with: repro check --replay {args.repro})",
            file=sys.stderr,
        )
    print(
        f"{document['scenarios_failed']} of {document['scenarios']} scenarios failed",
        file=sys.stderr,
    )
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.driver import write
    from repro.telemetry.driver import metrics_document
    from repro.telemetry.export import to_openmetrics

    # --smoke shrinks the cell to CI scale; it is still a fixed (config,
    # seed), so smoke documents are byte-identical across runs and jobs.
    smoke = dict(n=64, queries=1500, duration=240.0) if args.smoke else {}
    rounds = min(args.rounds, 6) if args.smoke else args.rounds
    watch = Stopwatch()
    config = _cell_config(
        args, args.churn, faults=_fault_schedule(args), workload=args.workload, **smoke
    )
    document = metrics_document(config, rounds=rounds, jobs=args.jobs)
    print(_render_metrics_dashboard(document))
    if args.json:
        write(args.json, document, watch)
        print(f"\nmetrics document written to {args.json}")
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as handle:
            handle.write(to_openmetrics(document))
        print(f"openmetrics exposition written to {args.openmetrics}")
    print(f"\n[{watch}]")
    return 0


def _render_metrics_dashboard(document: dict) -> str:
    """One-screen ASCII dashboard of a METRICS_v1 document: per-round
    sparkline table per policy, latency histogram, span profile."""
    clock = document["round_clock"]
    lines = [
        f"METRICS_v1: {document['overlay']} {document['mode']} cell, "
        f"round clock = {clock['rounds']} "
        + (
            f"virtual-time intervals of {clock['interval_s']:g}s"
            if document["mode"] == "churn"
            else f"query chunks of ~{clock['queries'] // clock['rounds']}"
        )
    ]
    for cell in document["cells"].values():
        lines.append("")
        lines.extend(_render_metrics_cell(cell))
    return "\n".join(lines)


def _render_metrics_cell(cell: dict) -> list[str]:
    from repro.analysis.ascii_chart import render_series_table, render_sparkline

    entries: dict[str, dict] = {}
    extra_totals: list[tuple[str, object]] = []
    for entry in cell["metrics"]:
        labels = {
            key: value
            for key, value in entry["labels"].items()
            if key not in ("overlay", "policy")
        }
        if labels:
            suffix = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
            entries[f"{entry['name']}{{{suffix}}}"] = entry
        else:
            entries[entry["name"]] = entry
    stats = cell["stats"]
    mean = stats["mean_hops"]
    lines = [
        f"policy {cell['policy']}: {stats['lookups']} lookups, "
        f"mean hops {mean if mean is None else format(mean, '.3f')}, "
        f"failure rate {stats['failure_rate']:.4f}, "
        f"timeout rate {stats['timeout_rate']:.4f}"
    ]
    rows = []
    for label, name in (
        ("cost/lookup", "repro_round_cost"),
        ("timeout rate", "repro_round_timeout_rate"),
        ("failure rate", "repro_round_failure_rate"),
        ("lookups/round", "repro_round_lookups"),
        ("alive nodes", "repro_alive_nodes"),
    ):
        entry = entries.get(name)
        if entry is not None and entry["series"]:
            rows.append((label, [value for __, value in entry["series"]]))
    if rows:
        lines.extend("  " + line for line in render_series_table(rows).splitlines())
    hist = entries.get("repro_lookup_cost")
    if hist is not None and hist["series"]:
        __, cumulative, total, count = hist["series"][-1]
        deltas = [cumulative[0]] + [
            cumulative[index] - cumulative[index - 1]
            for index in range(1, len(cumulative))
        ]
        lines.append(
            f"  cost histogram {render_sparkline(deltas)} "
            f"(count={count}, sum={total}, edges {hist['edges'][0]:g}..{hist['edges'][-1]:g},+Inf)"
        )
    for prefix, title in (
        ("repro_faults_injected_total{", "faults injected"),
        ("repro_churn_transitions_total{", "churn transitions"),
    ):
        totals = [
            (key[key.index("=") + 1 : -1], entry["value"])
            for key, entry in sorted(entries.items())
            if key.startswith(prefix)
        ]
        if totals:
            lines.append(
                f"  {title}: "
                + ", ".join(f"{kind}={value}" for kind, value in totals)
            )
    spans = cell["spans"]
    if spans["counts"]:
        lines.append(
            "  spans: "
            + ", ".join(f"{name} x{count}" for name, count in spans["counts"].items())
        )
    if spans["work"]:
        lines.append(
            "  work:  "
            + ", ".join(f"{name}={value:g}" for name, value in spans["work"].items())
        )
    return lines


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_report
    from repro.util.parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    print(f"running figures {', '.join(args.figures)} with {jobs} worker(s)", flush=True)
    watch = Stopwatch()
    run_report(figures=args.figures, jobs=jobs, out_dir=args.out_dir, echo=print)
    print(f"report written to {args.out_dir}/ [{watch}]")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.sim.runner import ExperimentConfig, run_stable

    config = ExperimentConfig(overlay="chord", n=128, bits=20, queries=3000, seed=1)
    # The banner derives from the actual config — alpha and workload were
    # once hardcoded here and silently went stale when defaults moved.
    print(
        f"Building a {config.n}-node Chord ring, "
        f"{_describe_workload(config)} workload, k = log n ..."
    )
    result = run_stable(config)
    print(result.summary())
    print("Now the same on Pastry with locality-aware routing ...")
    result = run_stable(
        ExperimentConfig(overlay="pastry", n=128, bits=20, queries=3000, seed=1)
    )
    print(result.summary())
    print("Run `python -m repro figure 5` to regenerate a full evaluation figure.")
    return 0


def _describe_workload(config) -> str:
    """Human-readable workload description for banners, derived from the
    config's parsed :class:`~repro.workload.spec.WorkloadSpec`."""
    spec = config.workload_spec
    if spec.is_static:
        return f"zipf({config.alpha:g})"
    return spec.describe()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        **dict.fromkeys(GRID_COMMANDS, _cmd_grid),
        "compare": _cmd_compare,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "check": _cmd_check,
        "metrics": _cmd_metrics,
        "report": _cmd_report,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as error:
        # Bad input (flag values, NAME:PARAM specs, trace files, config
        # combinations) gets one diagnostic line, argparse-style.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
