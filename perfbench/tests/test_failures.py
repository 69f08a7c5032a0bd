"""Failure accounting: the tally equals the injected fire set.

Each workload runs one unit at a small scale under a :class:`FaultPlan`
whose faults are permanent, with a resilience config that degrades
instead of aborting.  The unit's ``failed`` count must equal the faults
that actually fired, on every leg that attempted the lost work.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.pipeline import StudyConfig
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import shutdown_pools
from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy
from repro.topology.generator import InternetConfig

from perfbench.loop import RAISED, Tally, UnitResult, closed_loop
from perfbench.workloads import (
    SWEEP_CELLS,
    TIMELINE_WARM_REPEATS,
    SerialStores,
    StudyLarge,
    SweepSmall,
    TimelineQuarters,
)

TOLERANT = ResilienceConfig(
    retry=RetryPolicy(max_attempts=2),
    fallback_in_process=False,
    budget=ErrorBudget(shard_loss_fraction=1.0),
)


def _plan(site: str, n: int) -> FaultPlan:
    """A permanent-error plan at ``site`` that fires on some, not all, of ``n`` indices."""
    spec = FaultSpec(site=site, kind="error", rate=0.4, fatal=True)
    for seed in range(200):
        plan = FaultPlan(seed=seed, specs=(spec,))
        fired = sum(plan.fires_ever(site, i) for i in range(n))
        if 0 < fired < n:
            return plan
    raise AssertionError("no seed under 200 produced a partial fire set")


@pytest.fixture
def stop_pool():
    yield
    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def test_study_tally_counts_quarantined_campaign_shards(tmp_path, stop_pool):
    base = StudyConfig(
        internet=InternetConfig(seed=3, n_access_isps=60, n_ixps=22), n_vantage_points=32, seed=3
    )
    clean = StudyLarge(3, tmp_path / "clean", base=base)
    clean.run_unit(None)
    n_shards = clean.last_coverage.total("campaign.shards")
    plan = _plan("campaign.shard", n_shards)
    fired = sum(plan.fires_ever("campaign.shard", i) for i in range(n_shards))

    workload = StudyLarge(3, tmp_path / "faulty", base=base, faults=plan, resilience=TOLERANT)
    result = workload.run_unit(None)
    coverage = workload.last_coverage
    assert result.tally == Tally(
        fired, coverage.total("campaign.shards") + coverage.total("clustering.shards")
    )
    assert any("coverage incomplete" in problem for problem in result.problems)


def test_sweep_tally_counts_failed_cells_on_both_legs(tmp_path):
    n_cells = 3
    plan = _plan("sweep.cell", n_cells)
    fired = sum(plan.fires_ever("sweep.cell", i) for i in range(n_cells))
    workload = SweepSmall(3, tmp_path, n_cells=n_cells, faults=plan, resilience=TOLERANT)
    try:
        result = workload.run_unit(None)
    finally:
        workload.close()
    # Failed cells are never stored, so the warm leg attempts them again.
    assert result.tally == Tally(2 * fired, 2 * n_cells)
    assert result.problems == []


def test_timeline_tally_counts_lost_epochs_on_every_leg(tmp_path):
    n_epochs = 3
    plan = _plan("timeline.shard", n_epochs)
    fired = sum(plan.fires_ever("timeline.shard", i) for i in range(n_epochs))
    workload = TimelineQuarters(7, tmp_path, end="2022Q3", faults=plan, resilience=TOLERANT)
    try:
        workload.setup()
        result = workload.run_unit(None)
    finally:
        workload.close()
    legs = 1 + TIMELINE_WARM_REPEATS
    assert result.tally == Tally(legs * fired, legs * n_epochs)


def test_serial_stores_unit_adds_up_both_halves(tmp_path):
    workload = SerialStores(3, tmp_path)
    try:
        workload.setup()
        result = workload.run_unit(None)
    finally:
        workload.close()
    n_quarters = len(workload.timeline.config.spec.quarters)
    # The sweep's cells on two legs; the timeline's epochs on every leg.
    assert result.tally == Tally(0, 2 * SWEEP_CELLS + (1 + TIMELINE_WARM_REPEATS) * n_quarters)
    assert len(result.warm_s) == 1 and result.problems == []
    assert workload.timeline.config.seed == TimelineQuarters.default_seed


class _Flaky:
    """A unit that raises on the given unit numbers and otherwise reports one clean attempt."""

    def __init__(self, raise_on: set[int]) -> None:
        self.raise_on = raise_on
        self.calls = 0

    def run_unit(self, telemetry) -> UnitResult:
        self.calls += 1
        if self.calls in self.raise_on:
            raise RuntimeError("injected unit failure")
        return UnitResult(cold_s=0.4, cold_cpu_s=0.4, warm_s=[0.1], tally=Tally(0, 5))


def test_units_that_raise_are_counted_and_the_loop_goes_on():
    loop = closed_loop(_Flaky({2}), seconds=1.0)
    # Units 1, 3 measure 0.5 s each; unit 2 raised after ~0 s.
    assert [unit.get("raised", False) for unit in loop.units] == [False, True, False]
    assert loop.tally == Tally(0, 5) + RAISED + Tally(0, 5)
    assert loop.problems == ["unit 2 raised"]
    assert len(loop.completed) == 2


def test_loop_stops_at_the_unit_count_closest_to_seconds():
    # Units measure 0.5 s: two (1.0 s) fall 0.2 s short of 1.2 s, three
    # would overshoot by 0.3 s, so the loop stops after two.
    assert len(closed_loop(_Flaky(set()), seconds=1.2).completed) == 2
    # For 1.3 s, three units overshoot by 0.2 s, two fall 0.3 s short.
    assert len(closed_loop(_Flaky(set()), seconds=1.3).completed) == 3
