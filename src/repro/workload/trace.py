"""Query-trace recording and replay.

Research workflows often want the *same* query sequence replayed across
code versions, parameter sweeps, or against another implementation. A
trace is a plain JSON-lines file — one ``{"t": time, "src": node,
"item": key}`` object per line, with a one-line header carrying metadata —
so traces are diffable, greppable and creatable by external tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.util.errors import ConfigurationError
from repro.workload.queries import Query

__all__ = ["TimedQuery", "QueryTrace"]

_FORMAT = "repro-query-trace-v1"


@dataclass(frozen=True)
class TimedQuery:
    """A query with its (virtual) issue time."""

    time: float
    source: int
    item: int

    def query(self) -> Query:
        return Query(self.source, self.item)


@dataclass
class QueryTrace:
    """An in-memory query trace with JSONL persistence.

    Example
    -------
    >>> trace = QueryTrace(metadata={"workload": "zipf-1.2"})
    >>> trace.record(0.5, source=3, item=77)
    >>> [q.item for q in trace]
    [77]
    """

    metadata: dict = field(default_factory=dict)
    entries: list[TimedQuery] = field(default_factory=list)

    def record(self, time: float, source: int, item: int) -> None:
        """Append one query; times must be non-decreasing."""
        if self.entries and time < self.entries[-1].time:
            raise ConfigurationError("trace times must be non-decreasing")
        self.entries.append(TimedQuery(time, source, item))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TimedQuery]:
        return iter(self.entries)

    def sources(self) -> set[int]:
        """All distinct querying nodes in the trace."""
        return {entry.source for entry in self.entries}

    def between(self, start: float, end: float) -> list[TimedQuery]:
        """Entries with ``start <= time < end`` (times are sorted)."""
        return [entry for entry in self.entries if start <= entry.time < end]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace as JSONL (header line + one line per query)."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            header = {"format": _FORMAT, "metadata": self.metadata, "count": len(self.entries)}
            handle.write(json.dumps(header) + "\n")
            for entry in self.entries:
                handle.write(
                    json.dumps({"t": entry.time, "src": entry.source, "item": entry.item}) + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> "QueryTrace":
        """Read a trace written by :meth:`save` (validating the format)."""
        source = Path(path)
        try:
            handle = source.open("r", encoding="utf-8")
        except (OSError, ValueError) as error:  # ValueError: a NUL in the path
            raise ConfigurationError(
                f"cannot read trace {source}: {getattr(error, 'strerror', None) or error}"
            ) from error
        with handle:
            header_line = handle.readline()
            if not header_line:
                raise ConfigurationError(f"{source} is empty, not a trace")
            try:
                header = json.loads(header_line)
            except ValueError as error:
                raise ConfigurationError(
                    f"{source}:1: malformed trace header ({error})"
                ) from error
            if not isinstance(header, dict):
                raise ConfigurationError(
                    f"{source}:1: trace header must be a JSON object, "
                    f"got {type(header).__name__}"
                )
            if header.get("format") != _FORMAT:
                raise ConfigurationError(
                    f"{source}:1: not a {_FORMAT} file (format={header.get('format')!r})"
                )
            trace = cls(metadata=header.get("metadata", {}))
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                    trace.record(payload["t"], payload["src"], payload["item"])
                except (KeyError, TypeError, ValueError) as error:
                    raise ConfigurationError(
                        f"{source}:{line_number}: malformed trace entry ({error})"
                    ) from error
        if len(trace) != header.get("count", len(trace)):
            raise ConfigurationError(
                f"{source}: header promises {header['count']} entries, found {len(trace)}"
            )
        return trace

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_queries(cls, queries: Iterable[Query], rate: float = 4.0, metadata: dict | None = None) -> "QueryTrace":
        """Wrap untimed queries with evenly spaced timestamps at ``rate``/s."""
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        trace = cls(metadata=metadata or {})
        for index, query in enumerate(queries):
            trace.record(index / rate, query.source, query.item)
        return trace

    def replay_onto(self, overlay, record_access: bool = False, **lookup_kwargs) -> list:
        """Route every trace entry on ``overlay`` (Chord ring or Pastry
        network); returns the lookup results in trace order. Entries whose
        source is not alive at replay time are skipped."""
        results = []
        for entry in self.entries:
            node = overlay.nodes.get(entry.source)
            if node is None or not node.alive:
                continue
            results.append(
                overlay.lookup(entry.source, entry.item, record_access=record_access, **lookup_kwargs)
            )
        return results
