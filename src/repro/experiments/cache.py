"""On-disk result cache for the experiment runner.

Re-running a figure with unchanged inputs should be a no-op: the cache
key is a blake2b digest of **code + params** —

* the source bytes of every ``repro`` module (hashed once per process),
  so *any* code change invalidates every entry, conservatively;
* the experiment id and the result-affecting run parameters — the
  scale of a scalable experiment, nothing else
  (:func:`repro.experiments.runner._cache_params`): the ``ExecPlan`` is
  left out, since batching and worker count cannot change a result.

Entries live under ``.repro-cache/`` (override with ``cache_dir`` or
``$REPRO_CACHE_DIR``) as ``<experiment>-<digest>.json`` files holding
the rendered report plus metadata.  Invalidation is therefore automatic
on code or parameter changes; to force a recomputation by hand, delete
the directory (or pass ``--refresh`` to the CLI).

Only the rendered text is cached — result objects hold BigFloats and
backend values whose round-trip fidelity is not worth guaranteeing
here; the runner re-renders from text on a hit and skips ``run``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from typing import Optional

from .. import faults as _faults
from .. import telemetry as _tele

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def cache_directory(cache_dir: Optional[str] = None) -> str:
    if cache_dir is not None:
        return cache_dir
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """blake2b over every ``repro`` source file (path + bytes, sorted).

    Hashing the whole package is deliberate: experiments reach through
    apps, formats and the engine, so a narrower hash would risk stale
    hits after a dependency-module change.  The tree is ~100 small
    files; one pass per process is negligible next to any experiment.
    """
    import repro
    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.blake2b(digest_size=16)
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def params_key(experiment_id: str, params: dict) -> str:
    """Deterministic digest of one run's identity: code + id + params."""
    payload = json.dumps({"code": code_digest(), "experiment": experiment_id,
                          "params": params}, sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _entry_path(directory: str, experiment_id: str, key: str) -> str:
    return os.path.join(directory, f"{experiment_id}-{key}.json")


def text_checksum(text: str) -> str:
    """Content checksum stored inside every entry (integrity check)."""
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _corrupt_miss(path: str) -> None:
    """A torn/corrupt entry: signal it, delete it, count the miss.

    Before PR 10 a torn entry was silently a miss forever (the file
    stayed, failing every load); now it is deleted so the next store
    rewrites it, and ``cache.corrupt`` makes the damage observable.
    """
    _tele.event("cache.corrupt")
    _tele.count("cache.miss")
    try:
        os.remove(path)
    except OSError:
        pass


def load(experiment_id: str, params: dict,
         cache_dir: Optional[str] = None) -> Optional[dict]:
    """The cached entry for this (code, experiment, params), or None.

    A missing file is a plain miss; an unreadable, truncated, or
    checksum-failing entry is corruption — counted as a
    ``cache.corrupt`` event, deleted, and treated as a miss.  The
    ``cache.read`` fault site can truncate the raw bytes (``corrupt``
    mode) or fail the read (``error`` mode) to exercise exactly that
    path.
    """
    directory = cache_directory(cache_dir)
    path = _entry_path(directory, experiment_id, params_key(experiment_id,
                                                            params))
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError:
        _tele.count("cache.miss")
        return None
    try:
        if _faults.fire("cache.read",
                        key=os.path.basename(path)) == "corrupt":
            raw = raw[:len(raw) // 2]
    except _faults.InjectedFault:
        _corrupt_miss(path)
        return None
    try:
        entry = json.loads(raw.decode())
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
    except (UnicodeDecodeError, ValueError):
        _corrupt_miss(path)
        return None
    if entry.get("checksum") != text_checksum(entry.get("text") or ""):
        _corrupt_miss(path)
        return None
    if entry.get("experiment") != experiment_id:
        _tele.count("cache.miss")
        return None
    _tele.count("cache.hit")
    _tele.count("cache.hit_bytes", len(entry.get("text") or ""))
    return entry


def store(experiment_id: str, params: dict, text: str,
          cache_dir: Optional[str] = None,
          elapsed_seconds: Optional[float] = None) -> str:
    """Persist one rendered report; returns the entry path."""
    directory = cache_directory(cache_dir)
    os.makedirs(directory, exist_ok=True)
    key = params_key(experiment_id, params)
    entry = {
        "experiment": experiment_id,
        "params": params,
        "code_digest": code_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "elapsed_seconds": elapsed_seconds,
        "checksum": text_checksum(text),
        "text": text,
    }
    path = _entry_path(directory, experiment_id, key)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(entry, f, indent=1)
    os.replace(tmp, path)  # atomic: concurrent runners can't tear entries
    _tele.count("cache.store")
    _tele.count("cache.store_bytes", len(text))
    return path


def clear(cache_dir: Optional[str] = None) -> int:
    """Delete every cache entry; returns the number removed."""
    directory = cache_directory(cache_dir)
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if name.endswith(".json"):
            os.remove(os.path.join(directory, name))
            removed += 1
    return removed
