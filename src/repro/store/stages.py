"""Per-stage content-addressed cache for the incremental timeline engine.

:class:`~repro.store.store.StudyStore` persists whole studies; the
longitudinal engine (:mod:`repro.timeline`) needs something finer — one
entry per *stage invocation* (a scan of one deployment, a latency
campaign for one ISP, a clustering of one offnet set), so that epoch
N+1 can reuse every stage whose inputs did not change between epochs.

Entries are small JSON payloads addressed by :func:`stage_key`, a
canonical hash over ``(schema, version, kind, payload-fingerprint)``.
Because the key covers *every* input the stage reads (including the
seed material its randomness is derived from), a hit is definitionally
the value the stage would recompute — which is what lets the
differential harness prove incremental ≡ full byte-identically.

Entries live under ``objects/<k2>/<key>.json`` in the shared layout of
:class:`~repro.store.objects.ObjectStore`: atomic publish from ``tmp/``,
mtime LRU, quarantine, and bounded gc.  Loads verify the payload digest
recorded at write time and degrade corrupt entries to misses (the bad
file is moved to ``quarantine/`` for post-mortems, so the slot heals on
rewrite).  Hit/miss/write counts land both on a
:class:`~repro.obs.metrics.MetricsRegistry` under ``stage.<kind>.hits``
etc. and on the instance-local :attr:`StageStore.counters` dict
(benchmarks assert on exact per-stage hit counts); gc counts land under
``stage.gc.*``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro import __version__
from repro.obs import MetricsRegistry, global_metrics
from repro.store.keys import STORE_SCHEMA
from repro.store.objects import ObjectStore

#: Schema tag for stage entries (bump on incompatible layout changes).
STAGE_SCHEMA = "repro-stage-v1"


def _canonical_json(value: Any) -> str:
    """Deterministic JSON text (sorted keys, no float repr surprises)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stage_key(kind: str, payload: Any) -> str:
    """The content address of one stage invocation.

    ``payload`` must be JSON-serialisable and must enumerate everything
    the stage's output depends on: config knobs, input fingerprints, and
    the seed material its randomness derives from.  The package version
    and store schema participate so caches never leak across releases.
    """
    material = _canonical_json(
        {
            "kind": kind,
            "payload": payload,
            "schema": f"{STORE_SCHEMA}/{STAGE_SCHEMA}",
            "version": __version__,
        }
    )
    return hashlib.sha256(material.encode()).hexdigest()


class StageStore(ObjectStore):
    """Content-addressed JSON store for per-stage timeline artifacts.

    One small JSON file per entry, with the study store's mtime LRU,
    quarantine and gc (see :class:`~repro.store.objects.ObjectStore`;
    the ``max_*`` bounds are :meth:`gc`'s defaults, and :meth:`put`
    never evicts).  ``metrics`` receives ``stage.*`` counters (defaults
    to the process-wide registry); :attr:`counters` mirrors them per
    instance so tests and benchmarks can assert exact reuse.
    """

    SUFFIX = ".json"

    def __init__(
        self,
        root: str | Path,
        metrics: MetricsRegistry | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        max_quarantine_entries: int | None = None,
        max_quarantine_age_s: float | None = None,
    ) -> None:
        super().__init__(
            root, max_entries, max_bytes, max_age_s, max_quarantine_entries, max_quarantine_age_s
        )
        self.metrics = metrics if metrics is not None else global_metrics()
        #: Instance-local ``{"<kind>.hits": n, ...}`` counters.
        self.counters: dict[str, int] = {}

    # -- counters --------------------------------------------------------------

    def _count(self, kind: str, event: str) -> None:
        name = f"{kind}.{event}"
        self.counters[name] = self.counters.get(name, 0) + 1
        self.metrics.count(f"stage.{name}")

    def _on_event(self, event: str) -> None:
        self._count("gc", event)

    def counter(self, kind: str, event: str) -> int:
        """The instance-local count of ``event`` (hits/misses/writes) for ``kind``."""
        return self.counters.get(f"{kind}.{event}", 0)

    # -- reads -----------------------------------------------------------------

    #: Whether a completed entry for ``key`` exists (no counter or LRU touch).
    contains = ObjectStore.contains_key

    def get(self, kind: str, key: str) -> Any | None:
        """The stored payload for ``key``; ``None`` on miss.

        The payload digest recorded at write time is verified; a corrupt
        or torn entry is quarantined and reported as a miss, so a bad
        disk degrades to recomputation while the evidence survives for
        post-mortems (bounded by :meth:`gc`).
        """
        try:
            entry = json.loads(self.entry_path(key).read_text())
            payload = entry["payload"]
            digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
            if entry["sha256"] != digest or entry["kind"] != kind:
                raise ValueError(f"stage entry {key} failed verification")
        except FileNotFoundError:
            self._count(kind, "misses")
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as error:
            self.quarantine(key, error)
            self._count(kind, "corruptions")
            self._count(kind, "misses")
            return None
        self.touch(key)
        self._count(kind, "hits")
        return payload

    # -- writes ----------------------------------------------------------------

    def put(self, kind: str, key: str, payload: Any) -> str:
        """Persist ``payload`` under ``key`` (idempotent); returns ``key``.

        Written under ``tmp/`` then published with one rename, so
        concurrent writers (timeline shards racing on a shared stage)
        and crashes can never land a torn entry.
        """

        def _write(staging: Path) -> None:
            entry = {
                "schema": STAGE_SCHEMA,
                "kind": kind,
                "key": key,
                "sha256": hashlib.sha256(_canonical_json(payload).encode()).hexdigest(),
                "payload": payload,
            }
            staging.write_text(json.dumps(entry, sort_keys=True))

        if self.publish(key, _write) is not None:
            self._count(kind, "writes")
        return key

    def stats(self) -> dict[str, int]:
        """Entry count and total bytes on disk."""
        return super().stats().to_json()
