"""Which entry points the traced run wraps, and the per-layer metrics.

The program's own spans cover most layers (see
:data:`perfbench.tracing.PROGRAM_LAYERS`); each :class:`Hook` below names
an entry point the program records no span for, as its callers look it
up.  Layer names are the metric stems: ``mlab.filters`` becomes
``mlab.filters_s``, its self time.  See ``perfbench/README.md`` for the
layer -> metric -> end-to-end map.
"""

from __future__ import annotations

from perfbench.tracing import (
    SETUP_UNIT,
    Hook,
    NameTotals,
    Span,
    ancestors,
    root_of,
    self_times,
    totals_by_name,
)

#: Entry points with no program span of their own.
HOOKS = [
    Hook("repro.store.store:StudyStore.get", "store.get"),
    Hook("repro.store.store:StudyStore.put", "store.put"),
    Hook("repro.store.stages:StageStore.get", "store.get"),
    Hook("repro.store.stages:StageStore.put", "store.put"),
    Hook("repro.store.store:study_key", "store.key"),
    Hook("repro.timeline.engine:stage_key", "store.key"),
    # The timeline engine calls these per ISP, outside the study's stage spans.
    Hook("repro.timeline.engine:generate_internet", "topology.generate"),
    Hook("repro.timeline.engine:measure_offnets", "mlab.campaign"),
    Hook("repro.timeline.engine:apply_quality_filters", "mlab.filters"),
    Hook("repro.timeline.engine:cluster_isp_offnets", "clustering.cluster"),
]

#: Root span names of set-up and of a unit's two legs.
SETUP, COLD_LEG, WARM_LEG = "setup", "cold", "warm"

#: Layers reported as ``<name>_s`` self time.  ``core.tables`` is the
#: benchmark's own span around the Table 2 / Figure 2 calls.
SELF_TIME_LAYERS = (
    "topology.generate",
    "deployment.history",
    "scan.scan",
    "scan.detect",
    "mlab.campaign",
    "mlab.fanout",
    "mlab.filters",
    "clustering.fanout",
    "clustering.cluster",
    "store.get",
    "store.put",
    "store.key",
    "timeline.substrate",
    "timeline.epoch",
    "timeline.run",
    "sweep.cell",
    "sweep.rehydrate",
    "sweep.run",
    "study.run",
    "study.rehydrate",
    "core.tables",
)

#: Span names reported under their own name.
LAYERS = {*SELF_TIME_LAYERS, SETUP, COLD_LEG, WARM_LEG}

COUNTS = (
    "scan.records",
    "mlab.measurements",
    "clustering.cells",
    "store.hits",
    "store.misses",
    "store.bytes_written",
    "timeline.epochs",
)

#: Layers whose share of the cold leg's wall time is reported.
SHARE_LAYERS = ("mlab", "clustering")


def _split(spans: list[Span]) -> tuple[dict[str, NameTotals], dict[str, NameTotals]]:
    setup = totals_by_name([span for span in spans if span.unit == SETUP_UNIT])
    units = totals_by_name([span for span in spans if span.unit != SETUP_UNIT])
    return setup, units


def layer_metrics(
    spans: list[Span],
    counts: dict[tuple[int, str], float],
    flights: list[tuple[int, str, float, float]],
    n_units: int,
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Set-up work counts once; work inside units is averaged over the
    ``n_units`` traced units, so each value is "per unit, set-up included".
    ``flights`` are ``(unit, label, queue_wait_s, execute_s)`` per shard.
    """
    n = max(n_units, 1)
    setup, units = _split(spans)
    empty = NameTotals()

    def per_unit(name: str, attribute: str) -> float:
        return getattr(setup.get(name, empty), attribute) + getattr(units.get(name, empty), attribute) / n

    def counted(name: str) -> float:
        in_units = sum(v for (unit, key), v in counts.items() if key == name and unit != SETUP_UNIT)
        return counts.get((SETUP_UNIT, name), 0.0) + in_units / n

    metrics: dict[str, float] = {f"{name}_s": per_unit(name, "self_s") for name in SELF_TIME_LAYERS}
    metrics.update({name: counted(name) for name in COUNTS})

    campaign_s = per_unit("mlab.campaign", "total_s")
    metrics["mlab.measurements_per_s"] = metrics["mlab.measurements"] / campaign_s if campaign_s else 0.0
    # The profiler's high-water RSS rise across each filter call, in KiB.
    metrics["mlab.filters_rss_mb"] = max(
        (span.attrs.get("rss_delta_kb", 0.0) / 1024.0 for span in spans if span.name == "mlab.filters"),
        default=0.0,
    )
    lookups = metrics["store.hits"] + metrics["store.misses"]
    metrics["store.hit_ratio"] = metrics["store.hits"] / lookups if lookups else 0.0

    by_id = {span.span_id: span for span in spans}
    top_fanouts = [
        span
        for span in spans
        if span.unit != SETUP_UNIT
        and span.attrs.get("span", "").endswith(".fanout")
        and not any(a.attrs.get("span", "").endswith(".fanout") for a in ancestors(span, by_id))
    ]
    top_labels = {(span.unit, span.attrs.get("span", "").removesuffix(".fanout")) for span in top_fanouts}
    top_flights = [flight for flight in flights if flight[:2] in top_labels]
    execute_s = sum(flight[3] for flight in top_flights)
    capacity_s = sum(span.attrs.get("workers", 1) * span.duration for span in top_fanouts)
    metrics["parallel.fanouts"] = len(top_fanouts) / n
    metrics["parallel.shards"] = sum(span.attrs.get("n_shards", 0) for span in top_fanouts) / n
    metrics["parallel.queue_wait_s"] = sum(flight[2] for flight in top_flights) / n
    metrics["parallel.exec_s"] = execute_s / n
    metrics["parallel.efficiency"] = execute_s / capacity_s if capacity_s else 0.0

    own = self_times(spans)
    cold_wall = sum(s.duration for s in spans if s.unit != SETUP_UNIT and s.name == COLD_LEG)
    for layer in SHARE_LAYERS:
        layer_s = sum(
            own[span.span_id]
            for span in spans
            if span.unit != SETUP_UNIT
            and span.name.startswith(f"{layer}.")
            and root_of(span, by_id).name == COLD_LEG
        )
        metrics[f"{layer}.share_of_wall"] = layer_s / cold_wall if cold_wall else 0.0
    return metrics
