"""The content-addressed compile cache.

Compilation is a pure function of (source, configuration, compiler
version), so its output can be cached under a key derived from exactly
those three inputs:

* **canonical source** — the program is read and re-written as datums,
  so whitespace and comments do not affect the key (plus whether the
  library prelude is prepended);
* **configuration fingerprint** — :meth:`CompilerConfig.fingerprint`,
  canonical JSON over *every* field;
* **compiler version** — ``repro.__version__``; a new release never
  reuses an old release's entries.

The key is the SHA-256 of those parts; the store is content-addressed
(``objects/<k[:2]>/<k>.bin``) with a small in-memory LRU in front of
it.  Disk writes are atomic (temp file + ``os.replace``) so a crashed
or concurrent writer can never leave a half-written entry under a live
key, and every entry carries a checksum so a corrupted or truncated
file is detected and treated as a **miss**, never an error.

:meth:`CompileCache.compile` looks up memory → disk → compile, and a
miss writes one entry: the compiled program (the ISA), never derived
VM state.  A program loaded from disk rebuilds its decoded streams as
it runs and trace-compiles only the code objects that turn hot,
exactly as a fresh compile does.  A caller that already holds the key
(the daemon computes it for single-flight dedup) passes it in, so the
source is read once per request.

The on-disk root defaults to ``~/.cache/repro`` (honouring
``REPRO_CACHE_DIR`` and ``XDG_CACHE_HOME``), deliberately outside the
repository tree.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro import __version__
from repro.backend.codegen import CompiledProgram
from repro.config import CompilerConfig
from repro.observe.catalog import declare
from repro.observe.metrics import get_registry
from repro.pipeline import compile_source
from repro.sexp.reader import read_all
from repro.sexp.writer import write_datum

#: On-disk entry header; bump when the payload layout changes.
MAGIC = b"RPC1"
_DIGEST_LEN = hashlib.sha256().digest_size


class CacheCorrupt(Exception):
    """An on-disk entry failed validation (bad magic, checksum mismatch,
    truncated pickle, wrong payload type).  Internal: the cache converts
    it into a miss."""


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro`` — never a path inside the repository."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def canonical_source(source: str, prelude: bool = True) -> str:
    """The source half of the cache key: every top-level form re-written
    by the s-expression writer, so formatting and comments cannot split
    the cache.  Raises the reader's error on unparseable input (callers
    fall back to an uncached compile, which reports it properly)."""
    forms = read_all(source)
    tag = "prelude" if prelude else "bare"
    return tag + "\n" + "\n".join(write_datum(form) for form in forms)


def cache_key(
    source: str, config: Optional[CompilerConfig] = None, prelude: bool = True
) -> str:
    """SHA-256 over (canonical source, config fingerprint, version)."""
    config = config or CompilerConfig()
    h = hashlib.sha256()
    h.update(canonical_source(source, prelude).encode())
    h.update(b"\x00")
    h.update(config.fingerprint().encode())
    h.update(b"\x00")
    h.update(__version__.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_compiled(compiled: CompiledProgram) -> bytes:
    """Pickle a compiled program for the on-disk store.

    The VM fast-path caches (``fast_instructions``/``fast_blocks``)
    hold exec-compiled Python functions, which are both unpicklable and
    derived data — they are stripped for the duration of the pickle and
    restored; a deserialized program rebuilds them as it runs (the
    decoded stream on a code object's first entry, the trace table once
    the code turns hot).  The payload is framed as
    ``MAGIC + sha256(body) + body`` so corruption is detectable.
    """
    stashed = [
        (code.fast_instructions, code.fast_blocks) for code in compiled.codes
    ]
    for code in compiled.codes:
        code.fast_instructions = None
        code.fast_blocks = None
    try:
        body = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for code, (fast, blocks) in zip(compiled.codes, stashed):
            code.fast_instructions = fast
            code.fast_blocks = blocks
    return MAGIC + hashlib.sha256(body).digest() + body


def deserialize_compiled(data: bytes) -> CompiledProgram:
    """Inverse of :func:`serialize_compiled`; raises :class:`CacheCorrupt`
    on any framing, checksum, or unpickling problem."""
    header = len(MAGIC) + _DIGEST_LEN
    if len(data) < header or data[: len(MAGIC)] != MAGIC:
        raise CacheCorrupt("bad entry header")
    digest = data[len(MAGIC) : header]
    body = data[header:]
    if hashlib.sha256(body).digest() != digest:
        raise CacheCorrupt("checksum mismatch")
    try:
        obj = pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure is corruption
        raise CacheCorrupt(f"unpicklable body: {exc}") from exc
    if not isinstance(obj, CompiledProgram):
        raise CacheCorrupt(f"unexpected payload type {type(obj).__name__}")
    return obj


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (the ``repro.observe`` metric set)."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    corruptions: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CacheEntry:
    """One on-disk object, as reported by :meth:`CompileCache.entries`."""

    key: str
    path: str
    size: int
    mtime: float = field(repr=False, default=0.0)


class CompileCache:
    """In-memory LRU over an (optional) on-disk content-addressed store.

    ``get``/``put`` move whole :class:`CompiledProgram` objects; the
    memory tier returns the *same* object to repeated callers (compiled
    programs are immutable apart from the idempotent, lazily rebuilt VM
    fast-path caches), while the disk tier deserializes a fresh object
    per process.  Hits refresh both the LRU position and the disk
    entry's mtime, which is the recency order :meth:`gc` evicts in.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        memory_entries: int = 256,
        disk: bool = True,
        registry=None,
    ) -> None:
        self.disk = disk
        self.root = root if root is not None else (
            default_cache_dir() if disk else None
        )
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self.registry = registry if registry is not None else get_registry()
        self._memory: "OrderedDict[str, CompiledProgram]" = OrderedDict()

    # -- key/value interface -------------------------------------------

    def get(self, key: str) -> Optional[CompiledProgram]:
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            if self.registry.enabled:
                declare(self.registry, "repro_cache_hits").labels(
                    tier="memory"
                ).inc()
            return cached
        if self.disk:
            path = self._path(key)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                self._count_miss()
                return None
            try:
                compiled = deserialize_compiled(data)
            except CacheCorrupt:
                self.stats.corruptions += 1
                if self.registry.enabled:
                    declare(self.registry, "repro_cache_corruptions").inc()
                self._count_miss()
                self._discard(path)
                return None
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - concurrent GC
                pass
            self._remember(key, compiled)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            if self.registry.enabled:
                declare(self.registry, "repro_cache_hits").labels(
                    tier="disk"
                ).inc()
            return compiled
        self._count_miss()
        return None

    def _count_miss(self) -> None:
        self.stats.misses += 1
        if self.registry.enabled:
            declare(self.registry, "repro_cache_misses").inc()

    def put(self, key: str, compiled: CompiledProgram) -> None:
        self._remember(key, compiled)
        if not self.disk:
            return
        data = serialize_compiled(compiled)
        self._write(self._path(key), data)
        self.stats.stores += 1
        self.stats.bytes_written += len(data)
        if self.registry.enabled:
            declare(self.registry, "repro_cache_stores").inc()
            declare(self.registry, "repro_cache_bytes_written").inc(len(data))
            declare(self.registry, "repro_cache_entry_bytes").observe(len(data))

    def _write(self, path: str, data: bytes) -> None:
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            self._discard(tmp)
            raise

    # -- the one-call compile front door --------------------------------

    def compile(
        self,
        source: str,
        config: Optional[CompilerConfig] = None,
        prelude: bool = True,
        tracer=None,
        key: Optional[str] = None,
    ) -> Tuple[CompiledProgram, bool]:
        """Compile *source* under *config*, through the cache.

        Returns ``(compiled, hit)``.  On a hit the compiler never runs,
        so per-pass tracer spans are only recorded on a miss (callers
        that want compile observability should bypass the cache).

        Lookup is memory, then disk, then a compile whose result is
        stored.  *key* is ``cache_key(source, config, prelude)`` when
        the caller has already computed it; the source is then not
        read again.
        """
        config = config or CompilerConfig()
        if key is None:
            key = cache_key(source, config, prelude)
        cached = self.get(key)
        if cached is not None:
            return cached, True
        started = time.perf_counter()
        compiled = compile_source(
            source, config, prelude=prelude, tracer=tracer
        )
        if self.registry.enabled:
            declare(self.registry, "repro_compile_seconds").observe(
                time.perf_counter() - started
            )
        self.put(key, compiled)
        return compiled, False

    # -- maintenance ----------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """On-disk entries, oldest (least recently used) first."""
        found: List[CacheEntry] = []
        if self.root is None:
            return found
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return found
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".bin"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:  # pragma: no cover - concurrent removal
                    continue
                found.append(
                    CacheEntry(name[: -len(".bin")], path, st.st_size, st.st_mtime)
                )
        found.sort(key=lambda e: (e.mtime, e.key))
        return found

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Shrink the disk store to the given bounds, evicting least
        recently used entries first.  Returns the number removed."""
        entries = self.entries()
        total_bytes = sum(e.size for e in entries)
        total_entries = len(entries)
        removed = 0
        for entry in entries:
            over_entries = max_entries is not None and total_entries > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            self._discard(entry.path)
            self._memory.pop(entry.key, None)
            total_entries -= 1
            total_bytes -= entry.size
            removed += 1
            self.stats.evictions += 1
        if removed and self.registry.enabled:
            declare(self.registry, "repro_cache_evictions").inc(removed)
        return removed

    def verify(self, remove: bool = False) -> dict:
        """Integrity-scan the on-disk store: every entry re-validates
        its framing and checksum.  Corrupt entries are counted
        (``stats.corruptions`` and its metric) and, with
        ``remove=True``, deleted.  Returns ``{"scanned", "ok",
        "corrupt", "removed", "bytes"}``."""
        report = {"scanned": 0, "ok": 0, "corrupt": 0, "removed": 0, "bytes": 0}
        for entry in self.entries():
            report["scanned"] += 1
            report["bytes"] += entry.size
            try:
                with open(entry.path, "rb") as handle:
                    deserialize_compiled(handle.read())
            except (OSError, CacheCorrupt):
                report["corrupt"] += 1
                self.stats.corruptions += 1
                if self.registry.enabled:
                    declare(self.registry, "repro_cache_corruptions").inc()
                if remove:
                    self._discard(entry.path)
                    self._memory.pop(entry.key, None)
                    report["removed"] += 1
            else:
                report["ok"] += 1
        return report

    def clear(self) -> int:
        """Drop every entry (memory and disk).  Returns the number of
        disk entries removed — the explicit invalidation command.  The
        emptied ``objects/<k[:2]>`` shard directories go too, and so
        does an ``artifacts/`` directory left by builds that kept a
        second, executable tier: nothing else walks it."""
        removed = 0
        for entry in self.entries():
            self._discard(entry.path)
            removed += 1
        self._memory.clear()
        if self.root is not None:
            objects = os.path.join(self.root, "objects")
            if os.path.isdir(objects):
                for shard in os.listdir(objects):
                    try:
                        # Only an empty directory goes: a concurrent
                        # writer's fresh entry stays.
                        os.rmdir(os.path.join(objects, shard))
                    except OSError:
                        pass
            shutil.rmtree(os.path.join(self.root, "artifacts"), ignore_errors=True)
        return removed

    def disk_usage(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the on-disk store."""
        entries = self.entries()
        return len(entries), sum(e.size for e in entries)

    # -- internals ------------------------------------------------------

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, "objects", key[:2], key + ".bin")

    def _remember(self, key: str, compiled: CompiledProgram) -> None:
        self._memory[key] = compiled
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            if self.registry.enabled:
                declare(self.registry, "repro_cache_evictions").inc()

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def __repr__(self) -> str:
        where = self.root if self.disk else "memory-only"
        return f"<CompileCache {where} {self.stats.as_dict()}>"
