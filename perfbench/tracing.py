"""Span trees of traced units, and self time.

The traced run changes nothing under ``src/``.  Each traced unit runs
with a live :class:`~repro.obs.Telemetry` bundle, so the program's own
tracer records its stage spans (``topology``, ``scan``, ``ping_campaign``,
``clustering``, ``<label>.fanout``, ``timeline.epoch`` ...).  Entry points
the program records no span for -- the store reads, writes and keys, and
the timeline engine's per-ISP campaign, filter and clustering calls --
are replaced for the unit's duration by wrappers that open a span in the
same tracer, so every span lands in one tree.

When the unit ends, its tree is flattened into :class:`Span` records
(name, start, end, parent, unit) named by layer, and written out with the
run.  A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Spans that pool workers recorded (the
program adopts them under the parent's fan-out span) are left out: work
in workers is measured at the parent-side fan-out call, and its
queue-wait and execute times come from the program's flight recorder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs import Telemetry, global_metrics

#: Unit id of spans recorded during set-up (before the first timed unit).
SETUP_UNIT = 0

#: Program span name -> the layer it is reported under.  A span whose name
#: is neither here nor a layer itself (``population``, ``ptr``) belongs to
#: its parent's layer.
PROGRAM_LAYERS = {
    "topology": "topology.generate",
    "deployment": "deployment.history",
    "scan": "scan.scan",
    "scan.epoch": "scan.scan",
    "detect": "scan.detect",
    "detect.epoch": "scan.detect",
    "timeline.detect": "scan.detect",
    "ping_campaign": "mlab.campaign",
    "campaign.fanout": "mlab.fanout",
    "campaign.shard": "mlab.fanout",
    "filters": "mlab.filters",
    "clustering": "clustering.fanout",
    "clustering.fanout": "clustering.fanout",
    "clustering.shard": "clustering.fanout",
    "cluster.isp": "clustering.cluster",
    "sweep": "sweep.run",
    "timeline": "timeline.run",
    "timeline.colocate": "timeline.epoch",
}

#: Span names that each stand for one clustered (ISP, xi) cell.
CELL_SPANS = ("cluster.isp", "clustering.cluster")


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``"module:attribute"`` or ``"module:Class.method"``."""

    target: str
    layer: str


@dataclass
class Span:
    """One recorded call, named by its layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "unit": self.unit,
            "attrs": self.attrs,
        }


def layer_of(name: str, attrs: dict[str, Any], parent_layer: str | None, layers: set[str]) -> str:
    """The layer a program span named ``name`` is reported under.

    A ``study`` span is a cold run or a rehydration, inside a sweep (a
    cell, or a store read) or on its own.
    """
    if name == "study":
        in_sweep = parent_layer in ("sweep.run", "store.get")
        if attrs.get("rehydrated"):
            return "sweep.rehydrate" if in_sweep else "study.rehydrate"
        return "sweep.cell" if in_sweep else "study.run"
    if name in layers:
        return name
    return PROGRAM_LAYERS.get(name, parent_layer or name)


def store_counts(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Store hits, misses and bytes written between two counter snapshots.

    ``StudyStore`` counts ``store.*``; ``StageStore`` counts
    ``stage.<kind>.*`` per stage kind, and no bytes (see
    :meth:`~perfbench.workloads.Workload.stage_bytes`).
    """
    delta = {name: value - before.get(name, 0.0) for name, value in after.items()}

    def total(event: str) -> float:
        return delta.get(f"store.{event}", 0.0) + sum(
            value for name, value in delta.items()
            if name.startswith("stage.") and name.endswith(f".{event}")
        )

    return {
        "store.hits": total("hits"),
        "store.misses": total("misses"),
        "store.bytes_written": delta.get("store.bytes_written", 0.0),
    }


class SpanRecorder:
    """Runs traced units and keeps their flattened spans, counts and flights.

    ``hooks`` are installed only while a traced unit runs; untraced units
    run the program unmodified.  ``layers`` are the span names reported
    under their own name (see :func:`layer_of`).
    """

    def __init__(self, hooks: list[Hook], layers: set[str]) -> None:
        self.hooks = hooks
        self.layers = layers | {hook.layer for hook in hooks} | set(PROGRAM_LAYERS.values())
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        #: ``(unit, label, queue_wait_s, execute_s)`` per shard a pool ran.
        self.flights: list[tuple[int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._telemetry: Telemetry | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def count(self, unit: int, name: str, value: float = 1.0) -> None:
        self.counts[(unit, name)] += value

    @contextlib.contextmanager
    def unit(self, index: int) -> Iterator[Telemetry]:
        """A live telemetry bundle for unit ``index``, with the hooks installed."""
        telemetry = Telemetry.capture(log_level="warning", profile=True)
        before = dict(global_metrics().counters)
        self._telemetry = telemetry
        try:
            self._install()
            yield telemetry
        finally:
            self._restore()
            self._telemetry = None
            telemetry.restore()
            self._collect(index, telemetry, before)

    def _collect(self, index: int, telemetry: Telemetry, before: dict[str, float]) -> None:
        self.adopt(telemetry.tracer.roots, index)
        for name, value in store_counts(before, dict(global_metrics().counters)).items():
            self.count(index, name, value)
        metrics = telemetry.metrics
        self.count(index, "scan.records", metrics.counter("scan.records"))
        self.count(index, "mlab.measurements", metrics.counter("campaign.measurements"))
        self.count(index, "timeline.epochs", metrics.counter("timeline.epochs_computed"))
        self.flights.extend(
            (index, f.label, f.queue_wait_s, f.execute_s) for f in telemetry.flight.records
        )

    def adopt(self, roots: Any, unit: int) -> None:
        """Flatten program span trees (``repro.obs.trace.Span``) into layer spans."""

        def walk(span: Any, parent: Span | None) -> None:
            if "worker" in span.attributes:
                # Recorded in a pool worker: only its clustered cells count.
                self.count(unit, "clustering.cells", sum(s.name in CELL_SPANS for s in span.walk()))
                return
            if span.name in CELL_SPANS:
                self.count(unit, "clustering.cells")
            name = layer_of(span.name, span.attributes, parent.name if parent else None, self.layers)
            flat = Span(
                next(self._ids),
                name,
                span.start_s,
                span.start_s + span.duration_s,
                parent.span_id if parent else None,
                unit,
                {"span": span.name, **span.attributes},
            )
            self.spans.append(flat)
            for child in span.children:
                walk(child, flat)

        for root in roots:
            walk(root, None)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self._telemetry.span(layer):
                return fn(*args, **kwargs)

        return traced

    def _install(self) -> None:
        for hook in self.hooks:
            module_name, _, path = hook.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, hook.layer))

    def _restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# -- self-time arithmetic --------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children are clipped to their parent's interval, and overlapping
    children count once, so self time is never negative.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.span_id: span.duration
        - _union_length(
            [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.span_id]]
        )
        for span in spans
    }


@dataclass
class NameTotals:
    """One span name's calls, summed self time and inclusive time."""

    calls: int = 0
    self_s: float = 0.0
    #: Inclusive time of the outermost spans of this name (a span nested
    #: inside another of the same name is not counted twice).
    total_s: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    totals: dict[str, NameTotals] = defaultdict(NameTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.self_s += own[span.span_id]
        if not any(ancestor.name == span.name for ancestor in ancestors(span, by_id)):
            entry.total_s += span.duration
    return dict(totals)


def ancestors(span: Span, by_id: dict[int, Span]) -> Iterator[Span]:
    parent = span.parent
    while parent is not None and parent in by_id:
        span = by_id[parent]
        yield span
        parent = span.parent


def root_of(span: Span, by_id: dict[int, Span]) -> Span:
    root = span
    for root in ancestors(span, by_id):
        pass
    return root
