"""Content-addressed on-disk cache for experiment results.

A cache entry is addressed by a SHA-256 over three things:

* the **code version** — a digest of every ``*.py`` file in the
  installed ``repro`` package, so any source change invalidates every
  entry (no stale results after editing the simulator);
* the **task identity** — the function's module and qualified name;
* the **canonicalised parameters** — dataclasses (``ProcessorConfig``
  and friends), enums, bytes, numpy scalars and nested containers are
  reduced to a stable JSON form, so logically equal parameter sets hash
  equally regardless of dict ordering, and any config change is a miss.

Entries are pickled results under ``<root>/<key[:2]>/<key>.pkl``.  The
root defaults to ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the current
working directory.  Eviction is explicit: :meth:`ResultCache.clear`
drops everything, :meth:`ResultCache.evict` trims to a budget by age.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import threading

from repro.errors import ConfigError
from repro.obs.tracer import current as _obs

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_code_version: Optional[str] = None
_code_version_lock = threading.Lock()


def code_version() -> str:
    """Digest of the installed ``repro`` sources (cached per process).

    Hashes every ``*.py`` under the package root in sorted order, so the
    same sources always produce the same version and any edit produces a
    new one — the cache's whole-package invalidation lever.

    The memoization is thread-safe, so threads that race on the first
    call all see one digest.  It lasts for the life of the process: a
    source edit takes effect in the next process.
    """
    global _code_version
    with _code_version_lock:
        if _code_version is None:
            import repro

            root = Path(repro.__file__).resolve().parent
            digest = hashlib.sha256()
            for path in sorted(root.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
            _code_version = digest.hexdigest()[:16]
        return _code_version


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a stable, JSON-serialisable form.

    The reduction is the foundation of both content addressing (cache
    keys) and the golden-trace digests of :mod:`repro.verify.digest`:
    logically equal values canonicalise equally regardless of dict or
    set ordering, and every float survives exactly (``json`` emits the
    shortest round-tripping decimal, so no precision is lost).  Non-
    finite floats and numpy arrays get tagged structured forms because
    plain JSON cannot represent them.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return {"__float__": "nan"}
        if math.isinf(obj):
            return {"__float__": "inf" if obj > 0 else "-inf"}
        return float(obj)
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    # No ndarray can exist before numpy is loaded, so the check leaves
    # numpy unimported for callers that never use it.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return {"__ndarray__": str(obj.dtype),
                "shape": list(obj.shape),
                "data": [canonicalize(v) for v in obj.reshape(-1).tolist()]}
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}",
                "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__":
                f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        if all(isinstance(k, str) for k in obj):
            # Str-keyed mappings stay plain objects (ordering is handled
            # by sort_keys at serialisation time) so golden documents
            # remain directly readable and diffable.
            return {k: canonicalize(v) for k, v in obj.items()}
        items = [[canonicalize(k), canonicalize(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        members = [canonicalize(v) for v in obj]
        members.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return {"__set__": members}
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalars
        return canonicalize(obj.item())
    if callable(obj):
        return {"__callable__":
                f"{getattr(obj, '__module__', '?')}."
                f"{getattr(obj, '__qualname__', repr(obj))}"}
    # Stable-enough catch-all; anything routinely swept should be one of
    # the structured cases above.
    return {"__repr__": repr(obj)}


def task_key(fn: Callable[..., Any], kwargs: Mapping[str, Any],
             version: Optional[str] = None) -> str:
    """The content address of one task: code + function + parameters."""
    payload = {
        "code": version if version is not None else code_version(),
        "fn": f"{fn.__module__}.{fn.__qualname__}",
        "params": canonicalize(dict(kwargs)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache`.

    ``corrupt`` counts entries that existed on disk but could not be
    decoded; each such entry is also counted as a miss (and unlinked, so
    it cannot be re-missed forever).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


class ResultCache:
    """Pickled experiment results, content-addressed on disk.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro-cache``.  Created lazily on the first store.
    version:
        Override the code-version component of every key (tests use
        this to simulate source changes without editing files).
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 version: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.version = version
        self.stats = CacheStats()

    def key_for(self, fn: Callable[..., Any],
                kwargs: Mapping[str, Any]) -> str:
        """The content address of ``fn(**kwargs)`` at this code version."""
        return task_key(fn, kwargs, version=self.version)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """(hit, value) for ``key``.

        A missing entry is a plain miss.  An entry that exists but
        cannot be decoded (truncated write, unpicklable after a class
        moved, plain disk corruption) is *unlinked* and counted in
        ``stats.corrupt`` as well as ``stats.misses`` — leaving it on
        disk would re-read and re-miss it on every lookup while
        ``__len__`` kept counting it as a valid entry.
        """
        tracer = _obs()
        path = self._path(key)
        try:
            fh = open(path, "rb")
        except OSError:
            self.stats.misses += 1
            if tracer.enabled:
                tracer.metrics.counter("cache.misses").inc()
            return False, None
        try:
            with fh:
                value = pickle.load(fh)
        except Exception:
            # Undecodable garbage can raise nearly anything out of the
            # unpickler (UnpicklingError, EOFError, ImportError, value
            # and type errors from corrupt opcodes); whatever it was,
            # the entry is useless — drop it.
            self.stats.corrupt += 1
            self.stats.misses += 1
            if tracer.enabled:
                tracer.metrics.counter("cache.corrupt").inc()
                tracer.metrics.counter("cache.misses").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.stats.hits += 1
        if tracer.enabled:
            tracer.metrics.counter("cache.hits").inc()
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic rename, last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("cache.stores").inc()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def evict(self, max_entries: int) -> int:
        """Trim to ``max_entries`` by dropping the oldest entries first."""
        if max_entries < 0:
            raise ConfigError(f"max_entries must be >= 0, got {max_entries}")
        entries = sorted(self.root.glob("*/*.pkl"),
                         key=lambda p: p.stat().st_mtime)
        removed = 0
        for path in entries[:max(0, len(entries) - max_entries)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
