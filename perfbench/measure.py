"""Benchmark-side spans, the run context, and the statistics workloads report.

The benchmark wraps every call it makes into a layer's public API in a
span named ``<layer>.<call>``.  A traced span also carries the
``repro.obs.registry()`` counter deltas of its call (columns decoded,
bytes read, blocks read, ...).  Spans stay in memory while a run measures
and are written out once, when the run ends.  A layer's self time is the
wall time its spans cover minus the part their child spans cover; the wall
time no span covers is reported as its own line, so an untraced gap shows
instead of hiding inside some layer's share.

With tracing off, :meth:`Tracer.span` returns one shared no-op context, so
the untraced run pays one method call per public call and nothing else.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.obs import diff_snapshots, registry

#: Layers in report order; every span name starts with one of them.
LAYERS = ("pipeline", "store", "query", "serve")


class CheckFailed(Exception):
    """A correctness check failed: the run is wrong, not slow."""


@dataclass
class Context:
    """What one benchmark run was asked for, plus its scratch directory."""

    seed: int
    seconds: float
    work: Path
    root: Path
    _dirs: Iterator[int] = field(default_factory=itertools.count)

    def fresh_dir(self, stem: str) -> Path:
        """A new, empty directory name under the run's work directory."""
        return self.work / f"{stem}-{next(self._dirs)}"


@dataclass
class Phase:
    """The outcome of one measured phase of a workload.

    ``metrics`` holds the end-to-end values under the names
    ``BENCHMARK.json`` lists; ``named`` holds the same measurements under
    the workload's own metric names, for the printed report; ``layer``
    holds the per-layer counts the workload measures itself (span shares
    are added from the tracer).  ``op_seconds`` is every timed operation's
    latency, the basis of the tracing-overhead figure.
    """

    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    op_seconds: List[float] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    named: List[Tuple[str, float, str, str]] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)

    def record(self, metric: str, value: float, unit: str, note: str = "") -> float:
        """Report ``metric`` under the workload's own name; returns ``value``."""
        self.named.append((metric, float(value), unit, note))
        return float(value)


_NO_SPAN = nullcontext()


class Tracer:
    """In-memory span recorder, one per measured phase.

    ``trace_id`` groups the spans of one iteration (one cold open and its
    mix, one ingested fleet, one HTTP request) the way a request id groups
    a distributed trace.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._registry = registry()
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, trace_id: int = 0):
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, trace_id)

    @contextmanager
    def _span(self, name: str, trace_id: int) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        before = self._registry.snapshot()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": span_id, "parent": parent, "trace": trace_id,
                      "name": name, "start": start, "end": end,
                      "counters": counter_deltas(self._registry.snapshot(),
                                                 before)}
            with self._lock:
                self.spans.append(record)

    def write(self, path: Path) -> None:
        """Dump the recorded spans as JSON lines (once, at run end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record) + "\n")


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict], wall: float) -> Dict[str, float]:
    """Seconds of self time per span name and per layer, plus ``uncovered``.

    Self time of a span is its duration minus the union of its children's
    intervals; spans of one name or layer that overlap (concurrent sender
    threads) count their covered wall time once.  ``uncovered`` is the part
    of the phase's ``wall`` time that no span covers.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record["parent"]:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    pieces: Dict[str, List[Tuple[float, float]]] = {}
    for record in spans:
        own = _subtract(
            (record["start"], record["end"]), children.get(record["id"], [])
        )
        name = record["name"]
        pieces.setdefault(name, []).extend(own)
        pieces.setdefault(name.split(".", 1)[0], []).extend(own)
    out = {name: _union_length(parts) for name, parts in pieces.items()}
    covered = _union_length([(r["start"], r["end"]) for r in spans])
    out["uncovered"] = max(0.0, wall - covered)
    return out


def _subtract(span: Tuple[float, float],
              holes: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``span`` minus the union of ``holes``, as disjoint intervals."""
    out = []
    cursor = span[0]
    for start, end in sorted(holes):
        if start > cursor:
            out.append((cursor, min(start, span[1])))
        cursor = max(cursor, end)
        if cursor >= span[1]:
            break
    if cursor < span[1]:
        out.append((cursor, span[1]))
    return out


# -- sample statistics -------------------------------------------------------------


def another_iteration(started: float, seconds: float, done: int) -> bool:
    """Whether a closed loop should start another iteration.

    The first always runs; a later one only when, at the mean iteration
    time so far, it would end within half an iteration of ``seconds``.
    Iterations last seconds, so stopping at the first one past the
    deadline would overrun it by up to a whole iteration and make the
    sample count depend on where the deadline fell.
    """
    if done == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / done <= seconds


def failed(phase: "Phase", what: str, exc: BaseException) -> None:
    """Count one failed operation and say why on standard error."""
    phase.failed += 1
    print(f"{what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample.  Returns ``(value, label)``; the label
    names the percentile and the sample count (``"p96 of 240"``).  Below 20
    samples that percentile would sit under the median, so the maximum is
    reported instead, labelled ``"max of n"``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}"


def counter_deltas(after: Dict, before: Dict) -> Dict[str, int]:
    """Counter deltas between two ``repro.obs.registry()`` snapshots,
    summed over labels."""
    out: Dict[str, int] = {}
    for key, delta in diff_snapshots(after, before)["counters"].items():
        name = key.split("|", 1)[0]
        out[name] = out.get(name, 0) + delta
    return out


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path`` (a store directory)."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
