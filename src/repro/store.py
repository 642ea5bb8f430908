"""Persistent content-addressed simulation result store.

The in-process trace cache (:mod:`repro.timing.trace_cache`) dies with
the process, so every ``run_all`` invocation — and every fork worker —
re-executes work units other figures already simulated.  This module
gives those results a content-addressed home on disk:

* entries live under ``REPRO_CACHE_DIR`` (default ``.repro_cache/`` in
  the current directory), one file per entry, named by a SHA-256
  *address* over (entry kind, source fingerprint of every module that
  produces the result, and the full logical key — service name, request
  population fingerprint, policy, allocator signature, reconvergence
  override, salt/step budgets, and the timing-config digest for timed
  entries).  Any code or configuration change produces a different
  address, so a stale hit is structurally impossible;
* writes are atomic (temp file in the same directory + ``os.replace``)
  and therefore safe under concurrent fork workers racing to publish
  the same or different entries — last writer wins with identical
  bytes, readers never observe a torn file;
* reads are corruption-tolerant: a missing file, bad magic/version,
  CRC mismatch or unpicklable body counts as a miss (the damaged entry
  is unlinked so it cannot fail again);
* the store holds at most ``REPRO_CACHE_MAX_BYTES`` (default 2 GiB);
  beyond that, entries are evicted oldest-mtime-first, and every hit
  refreshes its entry's mtime, making eviction LRU;
* ``REPRO_CACHE=0`` bypasses the store entirely;
  ``REPRO_CACHE_VERIFY=1`` makes callers (see ``run_chip``) recompute
  on every hit and compare against the stored result, raising
  :class:`CacheVerifyError` on any divergence — the cache analogue of
  the differential fuzz oracle.

Fingerprints hash the source text of whole packages, not import-time
state: :func:`trace_fingerprint` covers everything that *produces* an
executor trace (ISA, engine, memory system, workloads, batching, the
core executors and the streaming recorder), while
:func:`timed_fingerprint` additionally covers the whole timing package
so timed entries miss when any timing model changes but raw traces
survive timing-only edits (the cross-config reuse that motivates the
cache).
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import struct
import tempfile
import zlib
from typing import Dict, Optional, Sequence, Tuple

from . import sanitize
from .config import env_flag

#: file format magic; bump the trailing digits to invalidate all
#: entries written by earlier layouts (version mismatch == miss)
MAGIC = b"SIMRST01"

DEFAULT_DIR = ".repro_cache"
DEFAULT_MAX_BYTES = 2 * 1024 ** 3

#: sentinel distinguishing "no entry" from any legitimately stored value
MISS = object()


class CacheVerifyError(RuntimeError):
    """``REPRO_CACHE_VERIFY=1`` recompute disagreed with a stored entry
    (either a store bug or nondeterministic simulation — both fatal)."""


def enabled() -> bool:
    """Persistent caching is on unless ``REPRO_CACHE=0`` (re-read per
    call, so tests and CLIs can toggle it without re-importing)."""
    return env_flag("REPRO_CACHE", True)


def verify_enabled() -> bool:
    """True when ``REPRO_CACHE_VERIFY=1``: recompute on hit and compare."""
    return env_flag("REPRO_CACHE_VERIFY", False)


def cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", "") or DEFAULT_DIR


def max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "")
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_MAX_BYTES


# ----------------------------------------------------------------------
# source fingerprints
# ----------------------------------------------------------------------

def fingerprint_paths(paths: Sequence[str]) -> str:
    """SHA-256 over the contents of every ``.py`` file under ``paths``.

    Directories are walked in sorted order and files are keyed by their
    path relative to the given root, so the digest is stable across
    machines and checkouts but changes on any source edit, file
    addition, removal or rename.
    """
    h = hashlib.sha256()
    for root in paths:
        if os.path.isdir(root):
            files = []
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                files.extend(os.path.join(dirpath, f)
                             for f in sorted(filenames)
                             if f.endswith(".py"))
            for f in files:
                h.update(os.path.relpath(f, root).encode("utf-8"))
                h.update(b"\x00")
                with open(f, "rb") as fh:
                    h.update(fh.read())
                h.update(b"\x00")
        else:
            h.update(os.path.basename(root).encode("utf-8"))
            h.update(b"\x00")
            with open(root, "rb") as fh:
                h.update(fh.read())
            h.update(b"\x00")
    return h.hexdigest()


#: modules whose source determines an executor *trace*
TRACE_MODULES = ("repro.isa", "repro.engine", "repro.memsys", "repro.core",
                 "repro.batching", "repro.workloads", "repro.timing.streams")

#: modules whose source determines a *timed* result (trace + timing)
TIMED_MODULES = TRACE_MODULES + ("repro.timing",)

_fp_cache: Dict[Tuple[str, ...], str] = {}


def source_fingerprint(module_names: Tuple[str, ...]) -> str:
    """Fingerprint the source of the named modules/packages (cached per
    process — source files do not change under a running simulation)."""
    fp = _fp_cache.get(module_names)
    if fp is None:
        paths = []
        for name in module_names:
            mod = importlib.import_module(name)
            path = getattr(mod, "__file__", None) or name
            if os.path.basename(path) == "__init__.py":
                path = os.path.dirname(path)
            paths.append(path)
        fp = fingerprint_paths(paths)
        _fp_cache[module_names] = fp
    return fp


def trace_fingerprint() -> str:
    return source_fingerprint(TRACE_MODULES)


def timed_fingerprint() -> str:
    return source_fingerprint(TIMED_MODULES)


def address(kind: str, fingerprint: str, key: tuple) -> str:
    """Content address of one entry: SHA-256 over kind, source
    fingerprint and the ``repr`` of the logical key tuple."""
    h = hashlib.sha256()
    h.update(kind.encode("utf-8"))
    h.update(b"\x00")
    h.update(fingerprint.encode("utf-8"))
    h.update(b"\x00")
    h.update(repr(key).encode("utf-8"))
    return h.hexdigest()


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------

class ResultStore:
    """One directory of content-addressed pickle entries.

    File layout: ``MAGIC (8 bytes) | crc32(body) (4 bytes, big endian)
    | body (pickle)``.  The CRC is checked on every read, so truncated
    or bit-flipped entries are silently demoted to misses.
    """

    def __init__(self, root: str, limit: int = DEFAULT_MAX_BYTES):
        self.root = root
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evictions = 0
        self.errors = 0

    def _path(self, kind: str, digest: str) -> str:
        return os.path.join(self.root, f"{kind}-{digest}.pkl")

    def get(self, kind: str, digest: str):
        """The stored object, or :data:`MISS`."""
        path = self._path(kind, digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self.misses += 1
            return MISS
        try:
            if blob[:8] != MAGIC:
                raise ValueError("bad magic/version")
            (crc,) = struct.unpack(">I", blob[8:12])
            body = blob[12:]
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                raise ValueError("crc mismatch")
            obj = pickle.loads(body)
        except Exception:
            # corrupt or version-mismatched entry: drop it and miss
            self.errors += 1
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return MISS
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self.hits += 1
        self.bytes_read += len(blob)
        return obj

    def put(self, kind: str, digest: str, obj) -> None:
        """Atomically publish ``obj``; a no-op if the entry exists
        (content-addressed: same address implies same bytes)."""
        path = self._path(kind, digest)
        if os.path.exists(path):
            return
        body = pickle.dumps(obj, protocol=4)
        blob = MAGIC + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF) + body
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # a read-only or full cache directory degrades to no caching
            self.errors += 1
            return
        self.stores += 1
        self.bytes_written += len(blob)
        if sanitize.sanitizer_enabled():
            # the write path is the one place corruption could be *made*;
            # under the sanitizer, read our own entry back through the
            # full validation path
            sanitize.check(self.get(kind, digest) is not MISS,
                           "store: freshly written entry %s-%s failed "
                           "readback validation", kind, digest[:12])
            self.hits -= 1  # the readback is bookkeeping, not a real hit
        self._evict()

    def _evict(self) -> None:
        """Delete oldest-mtime entries until the store fits the budget."""
        if self.limit <= 0:
            return
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        entries = []
        total = 0
        for name in names:
            if not name.endswith(".pkl"):
                continue
            p = os.path.join(self.root, name)
            try:
                st = os.stat(p)
            except OSError:
                continue  # lost a race with another worker's eviction
            entries.append((st.st_mtime, st.st_size, p))
            total += st.st_size
        if total <= self.limit:
            return
        entries.sort()
        for _mtime, size, p in entries:
            if total <= self.limit:
                break
            try:
                os.unlink(p)
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "evictions": self.evictions,
            "errors": self.errors,
        }


#: per-directory store instances (stats survive env flips in-process)
_instances: Dict[str, ResultStore] = {}


def get_store() -> Optional[ResultStore]:
    """The store for the current ``REPRO_CACHE_DIR``, or ``None`` when
    disabled by ``REPRO_CACHE=0``."""
    if not enabled():
        return None
    root = os.path.abspath(cache_dir())
    inst = _instances.get(root)
    if inst is None:
        inst = _instances[root] = ResultStore(root, max_bytes())
    else:
        inst.limit = max_bytes()
    return inst


def stats() -> Dict[str, int]:
    """Aggregate hit/miss/bytes stats over every store this process has
    touched (mirrors ``trace_cache.stats()``)."""
    out = {"hits": 0, "misses": 0, "stores": 0, "bytes_read": 0,
           "bytes_written": 0, "evictions": 0, "errors": 0}
    for inst in _instances.values():
        for k, v in inst.stats().items():
            out[k] += v
    return out


def lookup(kind: str, fingerprint: str, key: tuple):
    """Fetch the entry for (kind, fingerprint, key), or :data:`MISS`."""
    store = get_store()
    if store is None:
        return MISS
    return store.get(kind, address(kind, fingerprint, key))


def record(kind: str, fingerprint: str, key: tuple, value) -> None:
    """Publish ``value`` under (kind, fingerprint, key) if enabled."""
    store = get_store()
    if store is not None:
        store.put(kind, address(kind, fingerprint, key), value)
