"""Durable, content-addressed persistence for pipeline studies.

The package has four pieces:

* :mod:`repro.store.keys` — canonical config hashing.
  :func:`config_fingerprint` identifies a config exactly (it keys the
  process-memory cache in :mod:`repro.experiments.scenarios`);
  :func:`study_key` is the on-disk content address, which normalises
  execution-only knobs (backend, workers) the differential harness
  proves artifact-neutral.
* :mod:`repro.store.objects` — :class:`ObjectStore`, the
  on-disk mechanics both stores inherit: the ``objects/<k2>/<key>``
  layout, staging under ``tmp/`` with one atomic rename to publish,
  quarantine of entries that fail verification, LRU by entry mtime,
  count/size/age gc (which also reaps staging debris of dead writers)
  and stats.
* :mod:`repro.store.store` — :class:`StudyStore`, one digest-verified
  archive per study, rehydrated on a hit, with ``store.*`` metrics.
* :mod:`repro.store.stages` — :class:`StageStore`, the finer-grained
  per-stage JSON cache the incremental timeline engine
  (:mod:`repro.timeline`) layers on top; keys from :func:`stage_key`.

Together with :mod:`repro.sweep` this forms the durable-execution layer:
every completed sweep cell checkpoints here, and a restarted campaign
skips everything already present.
"""

from repro.store.keys import (
    STORE_SCHEMA,
    canonical_config_json,
    config_fingerprint,
    study_key,
)
from repro.store.objects import ObjectStore, StoreStats
from repro.store.stages import STAGE_SCHEMA, StageStore, stage_key
from repro.store.store import StudyStore

__all__ = [
    "STAGE_SCHEMA",
    "STORE_SCHEMA",
    "ObjectStore",
    "StageStore",
    "StoreStats",
    "StudyStore",
    "canonical_config_json",
    "config_fingerprint",
    "stage_key",
    "study_key",
]
