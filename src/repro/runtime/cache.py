"""Content-addressed on-disk result cache for experiment trials.

A trial's outcome is fully determined by its configuration (setup, layout,
workload parameters, seed) and by the code that simulates it.  The cache
therefore keys each :class:`~repro.cluster_sim.metrics.SimulationResult` by
a SHA-256 over a canonical JSON rendering of the trial specification plus a
*code version* — a hash of every source file that can influence simulation
output.  Editing the simulator (or any model/workload/algorithm module)
invalidates the whole cache automatically; re-running an already-swept
design point costs one file read.

Layout on disk (default ``results/cache/``, overridable via the
``REPRO_CACHE_DIR`` environment variable or explicitly)::

    results/cache/<key[:2]>/<key>.npz

Each entry is a compressed NumPy archive of the result's fields — no
pickle, so entries are portable and safe to share.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

from ..cluster_sim.metrics import SimulationResult

__all__ = [
    "ResultCache",
    "canonical",
    "canonical_key",
    "content_key",
    "code_version",
    "default_cache_dir",
]

#: Subpackages whose sources define simulation semantics; editing any file
#: below them changes :func:`code_version` and invalidates cached results.
_VERSIONED_SUBTREES = (
    "cluster_sim",
    "model",
    "placement",
    "popularity.py",
    "replication",
    "workload",
    "runtime/trial.py",
)

_CODE_VERSION: str | None = None


def code_version() -> str:
    """Hash of the simulation-relevant source tree (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for entry in _VERSIONED_SUBTREES:
            path = root / entry
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in files:
                digest.update(str(file.relative_to(root)).encode())
                digest.update(file.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical(obj):
    """Reduce *obj* to a JSON-serializable canonical structure.

    Dataclasses and plain objects become ``{"__class__": ..., fields}``
    with sorted keys; arrays become a digest over their raw bytes (keys
    must stay small even for big layouts).  Unknown leaves fall back to a
    digest of their pickle — deterministic for identically-constructed
    objects, which is the reproducibility contract of the experiment layer.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hashlib.sha256(data.tobytes()).hexdigest(),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    if dataclasses.is_dataclass(obj):
        fields = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__qualname__, **fields}
    if hasattr(obj, "__dict__"):
        state = {k: canonical(v) for k, v in sorted(vars(obj).items())}
        return {"__class__": type(obj).__qualname__, **state}
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return {"__pickle__": hashlib.sha256(blob).hexdigest()}


def canonical_key(form) -> str:
    """SHA-256 hex key of an already-canonical structure's JSON form."""
    text = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def content_key(obj) -> str:
    """SHA-256 hex key of an object's canonical JSON form."""
    return canonical_key(canonical(obj))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``results/cache`` under the working directory."""
    return Path(os.environ.get("REPRO_CACHE_DIR", "results/cache"))


#: On-disk entry schema version, stored inside every npz under the
#: ``schema`` key and checked on read.  Bump when the persisted field set
#: changes (v2 = the chaos/availability fields of the current schema).
#: Entries carrying no marker — every pre-versioning entry — or a foreign
#: version are treated as misses, never as errors: the runner simply
#: re-simulates and overwrites them.
_SCHEMA_VERSION = 2

#: SimulationResult fields persisted per entry, in schema order.  The
#: engine-path fact ``delegated`` describes the run that produced an
#: entry, not its outcome, so it is not persisted and a hit reads it as
#: the default.
_SCALAR_FIELDS = (
    ("num_requests", int),
    ("num_rejected", int),
    ("horizon_min", float),
    ("num_redirected", int),
    ("streams_dropped", int),
    ("num_truncated", int),
    ("num_events", int),
    ("num_failures", int),
    ("num_recoveries", int),
    ("num_retries", int),
    ("num_failovers", int),
    ("num_lost_to_failure", int),
    ("num_rereplicated", int),
    ("mean_time_to_recovery_min", float),
    ("wall_time_sec", float),
)
_ARRAY_FIELDS = (
    "per_video_requests",
    "per_video_rejected",
    "server_time_avg_load_mbps",
    "server_peak_load_mbps",
    "server_served",
    "server_bandwidth_mbps",
    "server_downtime_min",
)


class ResultCache:
    """Directory-backed store of :class:`SimulationResult` objects.

    Writes are atomic (temp file + rename) so concurrent workers and
    interrupted sweeps can never leave a truncated entry behind.
    """

    def __init__(self, root: "Path | str | None" = None) -> None:
        self._root = Path(root) if root is not None else default_cache_dir()

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    def get(self, key: str) -> SimulationResult | None:
        """Load the cached result for *key*, or None on a miss."""
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            with np.load(path) as archive:
                if (
                    "schema" not in archive.files
                    or int(archive["schema"][()]) != _SCHEMA_VERSION
                ):
                    return None  # unversioned (pre-PR-5) or foreign schema
                scalars = {
                    name: kind(archive[name][()])
                    for name, kind in _SCALAR_FIELDS
                }
                arrays = {name: archive[name].copy() for name in _ARRAY_FIELDS}
        except (OSError, KeyError, ValueError):
            return None  # corrupt or stale-schema entry: treat as a miss
        return SimulationResult(**scalars, **arrays)

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist *result* under *key* atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": np.int64(_SCHEMA_VERSION)}
        payload.update({name: getattr(result, name) for name, _ in _SCALAR_FIELDS})
        payload.update({name: getattr(result, name) for name in _ARRAY_FIELDS})
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **payload)
            os.replace(tmp_name, path)
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self._root.is_dir():
            return 0
        return sum(1 for _ in self._root.glob("*/*.npz"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._root.glob("*/*.npz")):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self._root)!r}, entries={len(self)})"
