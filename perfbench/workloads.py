"""The benchmark's two workloads and the sweep and timeline they are built from.

Load is a closed loop from a single client: the runner calls
:meth:`Workload.run_unit` back to back, each unit starting only when the
previous one has finished.  A unit has a cold leg (``wall_s``) and a
store-served warm leg (``warm_s``); both are timed here, and the output
checks run between and after them, outside the timed legs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from multiprocessing import resource_tracker
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

import repro.core.pipeline as pipeline
import repro.timeline as timeline
from repro.core.colocation import ColocationBucket
from repro.core.pipeline import PrecomputedArtifacts, Study, StudyConfig
from repro.experiments.scenarios import LARGE_SCENARIO
from repro.faults import FaultPlan
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig, get_pool, preferred_start_method, usable_cpu_count
from repro.resilience import ResilienceConfig
from repro.store import StageStore, StudyStore
from repro.sweep import MetricSpec, ParameterGrid, run_campaign
from repro.timeline import TimelineConfig, TimelineSpec
from repro.topology.generator import InternetConfig

from perfbench import hostspeed
from perfbench.layers import COLD_LEG, WARM_LEG
from perfbench.loop import Tally, UnitResult
from perfbench.probes import cpu_delta, cpu_seconds


def study_tally(study: Study) -> Tally:
    """Quarantined campaign and clustering shards, from the study's coverage."""
    coverage = study.coverage
    return Tally(
        coverage.shards_lost,
        coverage.total("campaign.shards") + coverage.total("clustering.shards"),
    )


def sweep_tally(report: Any) -> Tally:
    """Failed cells of a :class:`~repro.sweep.CampaignReport`."""
    return Tally(report.n_failed, len(report.cells))


def timeline_tally(report: Any) -> Tally:
    """Lost epochs of a :class:`~repro.timeline.TimelineReport`."""
    return Tally(report.n_lost, len(report.epochs))


class Leg:
    """Wall and CPU seconds of one timed leg (parent plus pool workers)."""

    wall_s = 0.0
    cpu_s = 0.0


@contextmanager
def timed_leg(telemetry: Telemetry | None, name: str) -> Iterator[Leg]:
    """Time one leg; garbage left by earlier legs and checks is collected first.

    The leg's interval goes to the run's host-speed sampler, if one runs.
    """
    gc.collect()
    leg = Leg()
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    with ensure_telemetry(telemetry).span(name):
        yield leg
    ended = time.perf_counter()
    leg.wall_s = ended - started
    leg.cpu_s = cpu_delta(cpu_before, cpu_seconds())
    hostspeed.note_leg(started, ended)


class Workload:
    """One workload: set-up, the unit the closed loop repeats, and accuracy."""

    name = ""
    default_seed = 0
    #: Pool workers the unit uses (1 = serial, no pool).
    workers = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def start_pool(self) -> None:
        """Start and warm the worker pool (before any tracing wrapper exists)."""

    def setup(self, telemetry: Telemetry | None = None) -> None:
        """Remaining set-up before the first timed unit."""

    def run_unit(self, telemetry: Telemetry | None) -> UnitResult:
        """One unit; ``telemetry`` is the traced unit's live bundle, else ``None``."""
        raise NotImplementedError

    def stage_bytes(self) -> float:
        """Bytes the last unit wrote to a stage store (which counts no bytes itself)."""
        return 0.0

    def accuracy(self) -> float:
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        """Output checks that need every unit's result, run after the loop."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- study-large -------------------------------------------------------------------


def artifact_digest(study: Study, tables: dict[float, Any]) -> str:
    """SHA-256 over the latency matrix, detections, clusterings and Table 2 / Figure 2 inputs."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(study.matrix.rtt_ms).tobytes())
    digest.update(np.asarray(study.matrix.ips, dtype=np.int64).tobytes())
    for detection in study.latest_inventory.detections:
        digest.update(f"{detection.ip}:{detection.hypergiant}:{detection.isp_asn};".encode())
    digest.update(json.dumps(sorted(study.campaign.analyzable_isp_asns)).encode())
    for xi in sorted(study.clusterings):
        for asn, clustering in sorted(study.clusterings[xi].items()):
            digest.update(f"{xi}:{asn}:".encode())
            digest.update(np.asarray(clustering.ips, dtype=np.int64).tobytes())
            digest.update(np.asarray(clustering.labels, dtype=np.int64).tobytes())
    for xi, (table, concentration) in sorted(tables.items()):
        digest.update(table.render().encode())
        digest.update(repr(sorted(concentration.best_facility_share.items())).encode())
        digest.update(repr(sorted(concentration.best_facility_hypergiants.items())).encode())
    return digest.hexdigest()


class StudyLarge(Workload):
    """The ``large`` scenario at ``backend=pool``, one cold study per unit.

    The warm leg rehydrates the same study from its own latency matrix and
    clusterings (the path a study-store hit takes, without the disk read).
    """

    name = "study-large"
    default_seed = LARGE_SCENARIO.config.seed

    def __init__(
        self,
        seed: int,
        scratch: Path,
        base: StudyConfig = LARGE_SCENARIO.config,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        super().__init__(seed, scratch)
        self.workers = min(2, usable_cpu_count())
        self.config = replace(
            base,
            seed=seed,
            parallel=ParallelConfig(backend="pool", workers=self.workers),
            faults=faults,
            resilience=resilience,
        )
        self._digest: str | None = None
        self._accuracy: float | None = None
        self.last_coverage: Any = None

    def start_pool(self) -> None:
        # Workers forked after the tracker starts share it, as they do when
        # the program starts its pool lazily; otherwise each worker would
        # start a tracker of its own for the shared-memory segments it maps.
        resource_tracker.ensure_running()
        pool = get_pool(self.workers, preferred_start_method())
        for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
            future.result(timeout=120)

    def _tables(self, telemetry: Telemetry | None, study: Study) -> dict[float, Any]:
        with ensure_telemetry(telemetry).span("core.tables"):
            return {xi: (study.colocation_table(xi), study.concentration(xi)) for xi in self.config.xis}

    def run_unit(self, telemetry: Telemetry | None) -> UnitResult:
        with timed_leg(telemetry, COLD_LEG) as cold:
            study = pipeline.run_study(self.config, telemetry=telemetry)
            tables = self._tables(telemetry, study)
        problems = []
        digest = artifact_digest(study, tables)
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            problems.append("artifact digest differs from the first unit's")
        if not study.coverage.complete:
            problems.append(f"coverage incomplete: {study.coverage.to_json()}")
        for xi, (table, _concentration) in tables.items():
            # Sole-hypergiant rows need no clustering; the latency buckets do.
            clustered = sum(
                count
                for row in table.counts.values()
                for bucket, count in row.items()
                if bucket is not ColocationBucket.SOLE
            )
            if not clustered:
                problems.append(f"Table 2 panel at xi={xi} has no clustered ISP")

        tally = study_tally(study)
        self.last_coverage = study.coverage
        precomputed = PrecomputedArtifacts(
            rtt_ms=study.matrix.rtt_ms,
            target_ips=tuple(study.matrix.ips),
            clusterings=study.clusterings,
        )
        # Like a store hit in a fresh process, the warm leg starts from the
        # persisted artifacts alone, not beside the cold study's object graph.
        del study, tables
        with timed_leg(telemetry, WARM_LEG) as warm:
            rehydrated = pipeline.run_study(self.config, telemetry=telemetry, precomputed=precomputed)
            warm_tables = self._tables(telemetry, rehydrated)
        if artifact_digest(rehydrated, warm_tables) != digest:
            problems.append("rehydrated study's artifacts differ from the cold study's")
        if self._accuracy is None:
            # Deterministic, so scored once.  No study outlives its unit: the
            # garbage collector would walk its objects in every later leg.
            self._accuracy = rehydrated.scorecard().aggregate
        return UnitResult(cold.wall_s, cold.cpu_s, [warm.wall_s], tally, problems)

    def accuracy(self) -> float:
        return self._accuracy


# -- sweep-small (the first half of serial-stores) -----------------------------------


def _n_detections(study: Study) -> float:
    return float(len(study.latest_inventory))


def _n_analyzable(study: Study) -> float:
    return float(len(study.campaign.analyzable_isp_asns))


SWEEP_METRICS = (
    MetricSpec("detections", _n_detections, 1.0, 1e9, "n/a"),
    MetricSpec("analyzable ISPs", _n_analyzable, 1.0, 1e9, "n/a"),
)

SWEEP_CELLS = 4


def _report_bytes(report: Any) -> bytes:
    return (json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n" + report.render()).encode()


class SweepSmall(Workload):
    """A 4-cell seed sweep (60 access ISPs, 32 VPs), serial.

    The cold leg fills a fresh study store; the warm leg replays the same
    grid from it.
    """

    name = "sweep-small"
    default_seed = 3

    def __init__(
        self,
        seed: int,
        scratch: Path,
        n_cells: int = SWEEP_CELLS,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        super().__init__(seed, scratch)
        base = StudyConfig(
            internet=InternetConfig(seed=seed, n_access_isps=60, n_ixps=22),
            n_vantage_points=32,
            seed=seed,
        )
        self.grid = ParameterGrid.of(base, {"seed,internet.seed": list(range(seed, seed + n_cells))})
        self.faults = faults
        self.resilience = resilience
        self._units = 0
        self._store: StudyStore | None = None

    def _campaign(self, telemetry: Telemetry | None) -> Any:
        return run_campaign(
            self.grid,
            SWEEP_METRICS,
            store=self._store,
            telemetry=telemetry,
            faults=self.faults,
            resilience=self.resilience,
        )

    def run_unit(self, telemetry: Telemetry | None) -> UnitResult:
        # Earlier stores stay on disk until close(): deleting hundreds of
        # entries between legs would put file-system work next to the timing.
        self._units += 1
        self._store = StudyStore(self.scratch / f"store-{self._units}")
        with timed_leg(telemetry, COLD_LEG) as cold:
            cold_report = self._campaign(telemetry)
        with timed_leg(telemetry, WARM_LEG) as warm:
            warm_report = self._campaign(telemetry)
        problems = []
        if _report_bytes(warm_report) != _report_bytes(cold_report):
            problems.append("warm sweep report bytes differ from the cold report's")
        served = warm_report.cache_hits + warm_report.n_failed
        if served != len(warm_report.cells):
            problems.append(f"warm leg recomputed {len(warm_report.cells) - served} cells")
        tally = sweep_tally(cold_report) + sweep_tally(warm_report)
        return UnitResult(cold.wall_s, cold.cpu_s, [warm.wall_s], tally, problems)

    def accuracy(self) -> float:
        """Mean scorecard aggregate of the cells, rehydrated from the last store."""
        return statistics.fmean(
            self._store.get(cell.config).scorecard().aggregate for cell in self.grid.cells()
        )


# -- timeline-quarters (the second half of serial-stores) ----------------------------

#: Warm-leg repetitions per unit (the warm leg reads six rows, a few ms).
TIMELINE_WARM_REPEATS = 10


class TimelineQuarters(Workload):
    """A 6-quarter (2022Q1-2023Q2) monotone timeline on a compact Internet, serial.

    The cold leg runs into a fresh stage store; the warm leg reruns the
    timeline against the filled store.
    """

    name = "timeline-quarters"
    default_seed = 7

    def __init__(
        self,
        seed: int,
        scratch: Path,
        end: str = "2023Q2",
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        super().__init__(seed, scratch)
        # The Internet and the event stream stay pinned so every seed measures
        # the same deployments; the seed drives detection, VPs and pings.
        self.config = TimelineConfig(
            internet=InternetConfig(seed=5, n_access_isps=40, n_ixps=16),
            spec=TimelineSpec(start="2022Q1", end=end, seed=3),
            n_vantage_points=24,
            seed=seed,
            faults=faults,
            resilience=resilience,
        )
        self._units = 0
        self._store: StageStore | None = None
        self._newest_rows: set[str] = set()

    def setup(self, telemetry: Telemetry | None = None) -> None:
        timeline.build_substrate(self.config, telemetry=telemetry)

    def _run(self, telemetry: Telemetry | None) -> Any:
        return timeline.run_timeline(self.config, store=self._store, telemetry=telemetry)

    def run_unit(self, telemetry: Telemetry | None) -> UnitResult:
        # Earlier stores stay on disk until close(): deleting hundreds of
        # entries between legs would put file-system work next to the timing.
        self._units += 1
        self._store = StageStore(self.scratch / f"stages-{self._units}")
        with timed_leg(telemetry, COLD_LEG) as cold:
            cold_report = self._run(telemetry)
        warm_s = []
        tally = timeline_tally(cold_report)
        problems = []
        cold_rows = json.dumps([epoch.row for epoch in cold_report.epochs], sort_keys=True)
        for _ in range(TIMELINE_WARM_REPEATS):
            with timed_leg(telemetry, WARM_LEG) as warm:
                warm_report = self._run(telemetry)
            warm_s.append(warm.wall_s)
            tally = tally + timeline_tally(warm_report)
            if json.dumps([epoch.row for epoch in warm_report.epochs], sort_keys=True) != cold_rows:
                problems.append("warm timeline rows differ from the cold rows")
        newest = cold_report.epochs[-1]
        if newest.status == "ok":
            self._newest_rows.add(json.dumps(newest.row, sort_keys=True))
        return UnitResult(cold.wall_s, cold.cpu_s, warm_s, tally, sorted(set(problems)))

    def stage_bytes(self) -> float:
        return float(self._store.stats()["total_bytes"])

    def final_problems(self) -> list[str]:
        """Every unit's newest row must equal an uncached ``compute_epoch``."""
        quarter = self.config.spec.quarters[-1]
        substrate = timeline.build_substrate(self.config)
        uncached = json.dumps(timeline.compute_epoch(substrate, quarter, None), sort_keys=True)
        if self._newest_rows - {uncached}:
            return [f"{quarter} row differs from an uncached compute_epoch"]
        return []

    def accuracy(self) -> float:
        """Scorecard aggregate of the one-shot study on the timeline's substrate.

        A timeline keeps no :class:`Study`; the study with the same
        Internet, vantage points, seed and stage configs runs the same
        detection, campaign and clustering code and is scored instead.
        """
        config = self.config
        study = pipeline.run_study(
            StudyConfig(
                internet=config.internet,
                placement=config.placement,
                scan=config.scan,
                campaign=config.campaign,
                n_vantage_points=config.n_vantage_points,
                xis=config.xis,
                seed=config.seed,
            )
        )
        return study.scorecard().aggregate


# -- serial-stores ---------------------------------------------------------------------


class SerialStores(Workload):
    """The sweep and the timeline above, one after the other, serial.

    A unit runs the sweep's unit and then the timeline's.  Its cold leg is
    the two cold legs (each into a fresh store); its warm leg is one
    store-served replay of each: the sweep's warm leg plus the mean of the
    timeline's warm repetitions.  The sweep takes ``seed`` and the timeline
    ``seed + 4``, so the default seed keeps both components' pinned seeds.
    """

    name = "serial-stores"
    default_seed = SweepSmall.default_seed

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        timeline_seed = seed + TimelineQuarters.default_seed - SweepSmall.default_seed
        self.sweep = SweepSmall(seed, scratch / "sweep")
        self.timeline = TimelineQuarters(timeline_seed, scratch / "timeline")

    def setup(self, telemetry: Telemetry | None = None) -> None:
        self.timeline.setup(telemetry)

    def run_unit(self, telemetry: Telemetry | None) -> UnitResult:
        sweep = self.sweep.run_unit(telemetry)
        timeline_unit = self.timeline.run_unit(telemetry)
        return UnitResult(
            sweep.cold_s + timeline_unit.cold_s,
            sweep.cold_cpu_s + timeline_unit.cold_cpu_s,
            [sum(sweep.warm_s) + statistics.fmean(timeline_unit.warm_s)],
            sweep.tally + timeline_unit.tally,
            sweep.problems + timeline_unit.problems,
        )

    def stage_bytes(self) -> float:
        return self.timeline.stage_bytes()

    def final_problems(self) -> list[str]:
        return self.timeline.final_problems()

    def accuracy(self) -> float:
        """Mean of the sweep's and the timeline's accuracy."""
        return statistics.fmean([self.sweep.accuracy(), self.timeline.accuracy()])

    def close(self) -> None:
        self.sweep.close()
        self.timeline.close()
        super().close()


WORKLOADS: dict[str, type[Workload]] = {workload.name: workload for workload in (StudyLarge, SerialStores)}
