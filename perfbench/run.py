"""Run one benchmark workload, or all of them, and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study-large --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

One workload prints a host record, each metric by name and unit, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics
plus the tracing overhead.  ``--workload all`` runs every workload in its
own process and prints one summary table.  The exit code is non-zero
when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("study-large", "serial-stores")

#: Fresh-process set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: The benchmark definition: metric names and units come from here.
DEFINITION = ROOT / "BENCHMARK.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's pinned seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _load_program() -> None:
    """Put the checkout's ``src/`` on the path; refuse to run without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _scratch_dir(name: str) -> Path:
    scratch = ROOT / ".perfbench" / "tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Anything the program puts in a temporary file stays in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    import tempfile

    tempfile.tempdir = str(scratch)
    return scratch


def _stop_workers() -> None:
    """Shut the pool down and wait for every worker process to exit.

    The shared-memory resource tracker is a process too; it is stopped
    (and waited for) last, once no worker can still talk to it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.parallel import shutdown_pools

    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    resource_tracker._resource_tracker._stop()


def measure_setup(args: argparse.Namespace, seed: int) -> float:
    """Seconds from starting a fresh process until its set-up is done.

    Covers interpreter start, imports, pool start-up and substrate build;
    the probe process reports "ready" on stdout when it gets there.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        ready_s = time.perf_counter() - started
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return ready_s


def run_workload(args: argparse.Namespace) -> int:
    _load_program()
    from perfbench import hostspeed
    from perfbench.layers import HOOKS, LAYERS, SETUP
    from perfbench.loop import closed_loop
    from perfbench.probes import host_record, peak_rss_mb
    from perfbench.tracing import SETUP_UNIT, SpanRecorder
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workload = cls(seed, _scratch_dir(args.workload))
    if args.setup_probe:
        try:
            workload.start_pool()
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
            _stop_workers()
        return 0

    recorder = SpanRecorder(HOOKS, LAYERS) if args.trace else None
    try:
        setup_samples = [measure_setup(args, seed) for _ in range(SETUP_SAMPLES)]
        # The pool forks before any wrapper is installed, so workers run
        # the program unmodified; traced work in them is seen from the parent.
        workload.start_pool()
        if recorder is not None:
            with recorder.unit(SETUP_UNIT) as telemetry, telemetry.span(SETUP):
                workload.setup(telemetry)
        else:
            workload.setup()
        speed = hostspeed.HostSpeed()
        if not args.trace:
            hostspeed.ACTIVE = speed
            speed.start()
        try:
            loop = closed_loop(workload, args.seconds, recorder)
        finally:
            speed.stop()
            hostspeed.ACTIVE = None
        peak_mb = peak_rss_mb()
        loop.problems.extend(workload.final_problems())
        completed = loop.completed
        if args.trace:
            metrics = _trace_metrics(recorder, completed)
        else:
            # Legs are averaged, not their median taken: a run holds 3-5
            # units, and on a host whose speed switches between states the
            # median of so few jumps from one state to the other.
            measured = {
                "wall_s": statistics.fmean(unit["cold_s"] for unit in completed),
                "warm_s": statistics.fmean(leg for unit in completed for leg in unit["warm_s"]),
                "cpu_s": statistics.fmean(unit["cold_cpu_s"] for unit in completed),
            }
            # Leg timings in reference seconds: see hostspeed.py.
            metrics = {name: value * speed.scale() for name, value in measured.items()}
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["peak_rss_mb"] = peak_mb
            metrics["accuracy"] = workload.accuracy()
    finally:
        workload.close()
        _stop_workers()

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {DEFINITION.name}")
    metrics = {name: metrics[name] for name in units}
    tally, problems = loop.tally, loop.problems
    correct = bool(completed) and not problems
    host = host_record(ROOT, workload.workers, seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "setup_samples_s": setup_samples,
        "units": loop.units,
        "failed_frac": tally.failed / tally.attempted,
        "problems": problems,
        "metrics": metrics,
    }
    if not args.trace:
        record["measured"] = measured
        record["host_speed"] = {
            "probe_mean_s": speed.probe_mean(),
            "reference_s": hostspeed.REFERENCE_S,
            "samples": len(speed.samples),
        }
    _write_record(args, seed, record, recorder)
    _print_human(record, units)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _trace_metrics(recorder: Any, completed: list[dict]) -> dict[str, float]:
    from perfbench.layers import layer_metrics

    traced = [unit["cold_s"] for unit in completed if unit["traced"]]
    plain = [unit["cold_s"] for unit in completed if not unit["traced"]]
    metrics = layer_metrics(recorder.spans, recorder.counts, recorder.flights, len(traced))
    overhead_s = statistics.fmean(traced) - statistics.fmean(plain)
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.overhead_frac"] = overhead_s / statistics.fmean(plain)
    metrics["trace.units"] = float(len(traced))
    return metrics


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this kind of run."""
    section = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in json.loads(DEFINITION.read_text())[section]}


def _write_record(args: argparse.Namespace, seed: int, record: dict, recorder: Any) -> None:
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        spans = [span.to_json() for span in recorder.spans]
        (out / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")


def _print_human(record: dict, units: dict[str, str]) -> None:
    host = record["host"]
    print(f"# {record['workload']}: " + " ".join(f"{k}={v}" for k, v in host.items()))
    n_units = sum(1 for unit in record["units"] if "cold_s" in unit)
    print(f"#   units={n_units} failed checks={len(record['problems'])}")
    for problem in record["problems"]:
        print(f"#   CHECK FAILED: {problem}")
    units = {**units, "failed_frac": "fraction"}
    for name, value in [*record["metrics"].items(), ("failed_frac", record["failed_frac"])]:
        print(f"#   {name:<28} {value:>14.6g} {units[name]}")
    for name, value in record.get("measured", {}).items():
        print(f"#   {'measured ' + name:<28} {value:>14.6g} s (before the host-speed scale)")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one summary table; non-zero on any failure."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if done.returncode != 0 or result is None or not result["correct"]:
            status = 1
        rows.append((name, done.returncode, result))
    print("\n== summary ==")
    for name, code, result in rows:
        if result is None:
            print(f"{name}: exit {code}, no result")
            continue
        print(f"{name}: exit {code}, correct={result['correct']}, "
              f"failed/attempted={result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_frac':<28} {result['failed'] / result['attempted']:>14.6g} fraction")
    return status


_MAIN_PID = os.getpid()


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # Raise instead of dying, so every ``finally`` stops the pool workers
    # and probes this run started and removes its stores.  Forked pool
    # workers inherit the handler; they just exit.
    if os.getpid() != _MAIN_PID:
        os._exit(128 + signum)
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.workload == "all":
        _load_program()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
