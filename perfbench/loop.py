"""The closed loop: one client running units back to back.

The next unit starts only when the previous one has finished, so a slower
program receives less load.  In a traced run the units alternate: odd
units run untraced and even units run under
:meth:`~perfbench.tracing.SpanRecorder.unit`: a live
:class:`~repro.obs.Telemetry` bundle (whose flight recorder supplies the
pool workers' queue-wait and execute times) plus the wrappers.  The
difference between the two kinds is the tracing overhead.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from perfbench.tracing import SpanRecorder

#: Stop starting units after this long, whatever ``seconds`` says, so a
#: run ends well inside its time limit on a slow host.
MAX_LOOP_S = 120.0


@dataclass
class Tally:
    """Lost shards, cells or epochs (plus units that raised) out of those attempted."""

    failed: int = 0
    attempted: int = 0

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(self.failed + other.failed, self.attempted + other.attempted)


#: What a unit that raised contributes: one attempt, one failure.
RAISED = Tally(1, 1)


@dataclass
class UnitResult:
    """One unit's timed legs, failure tally and failed output checks."""

    cold_s: float
    cold_cpu_s: float
    warm_s: list[float]
    tally: Tally
    problems: list[str] = field(default_factory=list)

    @property
    def measured_s(self) -> float:
        return self.cold_s + sum(self.warm_s)


@dataclass
class LoopResult:
    units: list[dict[str, Any]] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    problems: list[str] = field(default_factory=list)

    @property
    def completed(self) -> list[dict[str, Any]]:
        return [unit for unit in self.units if "cold_s" in unit]


def closed_loop(
    workload: Any,
    seconds: float,
    recorder: SpanRecorder | None = None,
) -> LoopResult:
    """Run ``workload`` units until about ``seconds`` of legs have been measured.

    Only the timed legs count towards ``seconds``; output checks do not.
    The loop stops at the number of units whose legs come closest to
    ``seconds``: it starts no unit that would, at the mean unit time so
    far, overshoot by more than it would otherwise fall short.
    A unit that raises is counted as one failed attempt and the loop goes
    on.  With a ``recorder`` the loop also runs until it has at least one
    completed unit of each kind, traced and untraced.
    """
    out = LoopResult()
    measured = 0.0
    started_loop = time.perf_counter()
    while True:
        index = len(out.units) + 1
        traced = recorder is not None and index % 2 == 0
        started = time.perf_counter()
        try:
            if traced:
                with recorder.unit(index) as telemetry:
                    result = workload.run_unit(telemetry)
                recorder.count(index, "store.bytes_written", workload.stage_bytes())
            else:
                result = workload.run_unit(None)
        except Exception:  # noqa: BLE001 - a raised unit is counted, the loop goes on
            traceback.print_exc()
            result = None
        elapsed = time.perf_counter() - started
        if result is None:
            out.tally = out.tally + RAISED
            out.problems.append(f"unit {index} raised")
            out.units.append({"unit": index, "traced": traced, "raised": True})
            measured += elapsed
        else:
            out.tally = out.tally + result.tally
            out.problems.extend(f"unit {index}: {problem}" for problem in result.problems)
            out.units.append(
                {
                    "unit": index,
                    "traced": traced,
                    "cold_s": result.cold_s,
                    "cold_cpu_s": result.cold_cpu_s,
                    "warm_s": result.warm_s,
                }
            )
            measured += result.measured_s
        kinds = {unit["traced"] for unit in out.completed}
        close_enough = measured + measured / len(out.units) / 2 >= seconds
        if close_enough and (recorder is None or kinds == {True, False}):
            return out
        if time.perf_counter() - started_loop > MAX_LOOP_S:
            return out
