"""One experiment driver: every grid command runs, writes, renders and
gates through :func:`run`.

Section VI repeats one recipe: plan a grid of cells, run the
frequency-aware and frequency-oblivious policies in each, tabulate the %
hop reduction and check the claimed trend. ``figure``, ``sweep``,
``faults``, ``workload``, ``allocate`` and ``cachestats`` each state only
their own parts in one :class:`Experiment` record — how a preset is
chosen, how the grid runs (its ``run_tasks`` fan-out), the document's own
keys, the render and the gates. The driver owns the rest, once:

* the preset choice (:func:`presets`): quick by default, ``--smoke`` or
  ``--paper``, called with ``--seed`` and any flag the factory takes;
* the single wall-time measurement (one :class:`Stopwatch` per run);
* the document envelope and its one canonical write (:func:`document`,
  :func:`write`): ``schema``, ``build_manifest(echo)`` with
  ``wall_time_s`` stamped into its volatile block, and the payload,
  through :func:`~repro.obs.manifest.dump_document`;
* printing the render, the ``written to`` line and the footer;
* the gate contract: each broken claim is one ``FAIL: …`` line on stderr
  and the exit code is 1; otherwise 0.

``trace``, ``check`` and ``metrics`` build their own documents but write
them through :func:`write` too.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.manifest import build_manifest, dump_document
from repro.util.timer import Stopwatch

__all__ = ["Experiment", "document", "presets", "run", "write"]


def _no_gates(result: Any) -> list[str]:
    return []


@dataclass(frozen=True)
class Experiment:
    """One grid command's own parts."""

    schema: str
    #: ``args -> echo``: the frozen preset (or base config) the run uses
    #: and the manifest echoes.
    preset: Callable[[argparse.Namespace], Any]
    #: ``(echo, args) -> result``.
    run: Callable[[Any, argparse.Namespace], Any]
    #: ``(result, echo) -> dict``: the document's keys besides ``schema``
    #: and ``manifest``.
    payload: Callable[[Any, Any], dict]
    #: ``(result, args) -> str``: what the command prints.
    render: Callable[[Any, argparse.Namespace], str]
    #: ``result -> [message]``: the claims that broke; empty when all hold.
    gates: Callable[[Any], list[str]] = _no_gates
    #: What the ``--json`` confirmation line calls the document.
    noun: str = "document"
    #: Print the ``[preset, time]`` footer (a preset has a name).
    footer: bool = True


def presets(cls: type, *flags: str) -> Callable[[argparse.Namespace], Any]:
    """The preset choice of a grid command: ``cls.smoke`` under
    ``--smoke``, ``cls.paper`` under ``--paper``, ``cls.quick`` otherwise,
    called with ``--seed`` and the named flags the factory takes."""

    def choose(args: argparse.Namespace) -> Any:
        if getattr(args, "smoke", False):
            factory = cls.smoke
        elif getattr(args, "paper", False):
            factory = cls.paper
        else:
            factory = cls.quick
        return factory(args.seed, **{flag: getattr(args, flag) for flag in flags})

    return choose


def document(experiment: Experiment, result: Any, echo: Any) -> dict:
    """The experiment's document: schema, manifest of ``echo``, payload."""
    return {
        "schema": experiment.schema,
        "manifest": build_manifest(echo),
        **experiment.payload(result, echo),
    }


def write(path: str | Path, document: dict, watch: Stopwatch) -> None:
    """Stamp ``wall_time_s`` into the manifest's volatile block and write
    the canonical text. A value JSON cannot represent is written as its
    ``str`` (a swept value of any type, say)."""
    document["manifest"]["volatile"]["wall_time_s"] = round(watch.elapsed, 3)
    Path(path).write_text(dump_document(document, default=str), encoding="utf-8")


def run(experiment: Experiment, args: argparse.Namespace) -> int:
    """Choose the preset, run, print, write ``--json`` and gate."""
    echo = experiment.preset(args)
    watch = Stopwatch()
    result = experiment.run(echo, args)
    print(experiment.render(result, args))
    if args.json:
        write(args.json, document(experiment, result, echo), watch)
        print(f"\n{experiment.noun} written to {args.json}")
    if experiment.footer:
        print(f"\n[{echo.name} preset, {watch}]")
    failures = experiment.gates(result)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0
