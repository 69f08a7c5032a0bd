"""Host, provenance, CPU-time and memory probes for the benchmark.

CPU time and high-water RSS cover the benchmark process and its live
pool workers.  Worker figures are read from ``/proc`` (Linux); where it
is missing only the parent is counted.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Any

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def source_commit(root: Path) -> str:
    """The checkout's git commit, or a digest of its ``src/`` tree.

    The benchmark also runs from exported checkouts that are not git
    repositories; there the digest of every file under ``src/`` stands
    in for the commit.
    """
    if (root / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            done = None
        if done is not None and done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return f"src-sha256:{digest.hexdigest()[:16]}"


def host_record(root: Path, workers: int, seed: int) -> dict[str, Any]:
    import numpy

    from repro.parallel import usable_cpu_count

    return {
        "cpu_count": os.cpu_count(),
        "nproc": usable_cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": source_commit(root),
    }


def _worker_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children() if child.pid is not None]


def _proc_cpu_s(pid: int) -> float:
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields 14 and 15 of /proc/<pid>/stat (utime, stime), counted after
    # the ")" that closes the command name.
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def cpu_seconds() -> dict[int, float]:
    """Cumulative CPU seconds of this process (key 0) and each live worker."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    seconds = {0: usage.ru_utime + usage.ru_stime}
    seconds.update({pid: _proc_cpu_s(pid) for pid in _worker_pids()})
    return seconds


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two :func:`cpu_seconds` readings.

    A worker missing from ``before`` (started in between) counts from 0.
    """
    return sum(value - before.get(key, 0.0) for key, value in after.items())


def _proc_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """The larger of this process's and its workers' high-water RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max([own, reaped, *(_proc_hwm_mb(pid) for pid in _worker_pids())])
