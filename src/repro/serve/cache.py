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

**The artifact tier.**  Alongside the ISA objects the cache keeps a
second content-addressed tier, ``artifacts/<k[:2]>/<k>.bin``
(:mod:`repro.vm.artifact`): the same program with its pre-decoded
instruction streams and marshal-serialized trace modules attached, so
a warm process skips predecode + blockcompile entirely.  Same keys,
same framing discipline, stricter validity (artifacts additionally
stamp the artifact format, the Python bytecode magic, and the config
fingerprint — any skew is a miss).  :meth:`CompileCache.compile`
probes memory → artifact → ISA; an ISA hit with a missing or stale
artifact re-promotes (rebuilds and rewrites the artifact), so the two
tiers converge on any shared disk root.  Artifact
handling is gated by ``CompilerConfig.artifact_cache`` and the
cache's ``artifacts`` flag, and only applies to ``vm_fast`` configs
(the tier stores fast-path state).  See ``docs/aot.md``.

The on-disk root defaults to ``~/.cache/repro`` (honouring
``REPRO_CACHE_DIR`` and ``XDG_CACHE_HOME``), deliberately outside the
repository tree.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Tuple

from repro import __version__
from repro.backend.codegen import CompiledProgram
from repro.config import CompilerConfig
from repro.observe.catalog import declare
from repro.observe.metrics import get_registry
from repro.pipeline import compile_source
from repro.sexp.reader import read_all
from repro.sexp.writer import write_datum
from repro.vm.artifact import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactStale,
    build_artifact,
    load_artifact,
)

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
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_stores: int = 0
    artifact_corruptions: int = 0
    artifact_bytes_written: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The two on-disk tiers (also the subdirectory names under the root).
TIERS = ("objects", "artifacts")


@dataclass
class CacheEntry:
    """One on-disk object, as reported by :meth:`CompileCache.entries`."""

    key: str
    path: str
    size: int
    mtime: float = field(repr=False, default=0.0)
    tier: str = "objects"


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
        artifacts: bool = True,
        registry=None,
    ) -> None:
        self.disk = disk
        self.root = root if root is not None else (
            default_cache_dir() if disk else None
        )
        self.memory_entries = memory_entries
        #: Whether compile() may read/write the executable-artifact
        #: tier (still subject to the per-config ``artifact_cache``
        #: knob; the tier needs a disk root).
        self.artifacts = artifacts and disk
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

    # -- the artifact tier ----------------------------------------------

    def get_artifact(
        self, key: str, fingerprint: Optional[str] = None
    ) -> Optional[CompiledProgram]:
        """Load the executable artifact for *key*, or None.  Corrupt
        entries are deleted and counted; stale ones (format/Python/
        version/fingerprint skew) are left for re-promotion to
        overwrite.  Either way: a miss, never an error."""
        if not self.artifacts:
            return None
        path = self._artifact_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._count_artifact_miss()
            return None
        try:
            compiled = load_artifact(data, expected_fingerprint=fingerprint)
        except ArtifactCorrupt:
            self.stats.artifact_corruptions += 1
            if self.registry.enabled:
                declare(self.registry, "repro_artifact_corruptions").inc()
            self._count_artifact_miss()
            self._discard(path)
            return None
        except ArtifactStale:
            self._count_artifact_miss()
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - concurrent GC
            pass
        self.stats.artifact_hits += 1
        if self.registry.enabled:
            declare(self.registry, "repro_artifact_hits").inc()
            declare(self.registry, "repro_cache_hits").labels(
                tier="artifact"
            ).inc()
        return compiled

    def put_artifact(self, key: str, compiled: CompiledProgram) -> bool:
        """Build and store the executable artifact for *key*.  Build or
        write failures are swallowed (the artifact tier is an
        accelerator, never a correctness dependency); returns whether
        the artifact was written."""
        if not self.artifacts:
            return False
        started = time.perf_counter()
        try:
            data = build_artifact(compiled)
            self._write(self._artifact_path(key), data)
        except (ArtifactError, OSError, ValueError):
            return False
        self.stats.artifact_stores += 1
        self.stats.artifact_bytes_written += len(data)
        if self.registry.enabled:
            declare(self.registry, "repro_artifact_stores").inc()
            declare(self.registry, "repro_artifact_bytes_written").inc(len(data))
            declare(self.registry, "repro_artifact_build_seconds").observe(
                time.perf_counter() - started
            )
        return True

    def _count_artifact_miss(self) -> None:
        self.stats.artifact_misses += 1
        if self.registry.enabled:
            declare(self.registry, "repro_artifact_misses").inc()

    def _artifact_enabled(self, config: CompilerConfig) -> bool:
        # The tier stores fast-path state; legacy-loop configs have
        # nothing to gain and nothing to store.
        return self.artifacts and config.artifact_cache and config.vm_fast

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
    ) -> Tuple[CompiledProgram, bool]:
        """Compile *source* under *config*, through the cache.

        Returns ``(compiled, hit)``.  On a hit the compiler never runs,
        so per-pass tracer spans are only recorded on a miss (callers
        that want compile observability should bypass the cache).

        Tier order: memory LRU, then the executable-artifact tier
        (when enabled for this config — skips predecode/blockcompile
        entirely), then the ISA tier.  An ISA hit whose artifact was
        missing or stale re-promotes it; a full miss compiles and
        writes both tiers.
        """
        config = config or CompilerConfig()
        key = cache_key(source, config, prelude)
        use_artifact = self._artifact_enabled(config)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            if self.registry.enabled:
                declare(self.registry, "repro_cache_hits").labels(
                    tier="memory"
                ).inc()
            return cached, True
        if use_artifact:
            compiled = self.get_artifact(key, fingerprint=config.fingerprint())
            if compiled is not None:
                self._remember(key, compiled)
                self.stats.hits += 1
                return compiled, True
        cached = self.get(key)
        if cached is not None:
            if use_artifact:
                # ISA hit, artifact miss: promote so the next warm
                # process skips predecode + blockcompile.
                self.put_artifact(key, cached)
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
        if use_artifact:
            self.put_artifact(key, compiled)
        return compiled, False

    # -- maintenance ----------------------------------------------------

    def entries(self, tier: str = "all") -> List[CacheEntry]:
        """On-disk entries, oldest (least recently used) first.  *tier*
        selects ``"objects"`` (ISA), ``"artifacts"``, or ``"all"``
        (the default — maintenance must see both tiers)."""
        tiers = TIERS if tier == "all" else (tier,)
        found: List[CacheEntry] = []
        for tier_name in tiers:
            tier_dir = self._tier_dir(tier_name)
            if tier_dir is None or not os.path.isdir(tier_dir):
                continue
            for shard in sorted(os.listdir(tier_dir)):
                shard_dir = os.path.join(tier_dir, shard)
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
                    found.append(CacheEntry(
                        name[: -len(".bin")], path, st.st_size,
                        st.st_mtime, tier_name,
                    ))
        found.sort(key=lambda e: (e.mtime, e.key, e.tier))
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
        """Integrity-scan the on-disk store — **both tiers**: ISA
        entries re-validate framing and checksum; artifact entries
        additionally check the version/fingerprint stamps (skew counts
        as ``stale``, not ``corrupt`` — a stale artifact is simply
        awaiting re-promotion, though ``remove=True`` deletes it too,
        since it can never be read again by this build).

        Corrupt entries are counted (``stats.corruptions`` /
        ``stats.artifact_corruptions`` and their metrics) and, with
        ``remove=True``, deleted.  Returns ``{"scanned", "ok",
        "corrupt", "stale", "removed", "bytes", "tiers"}`` where
        ``tiers`` breaks the same counts down per tier.
        """
        tiers = {
            name: {"scanned": 0, "ok": 0, "corrupt": 0, "stale": 0,
                   "removed": 0, "bytes": 0}
            for name in TIERS
        }
        for entry in self.entries():
            t = tiers[entry.tier]
            t["scanned"] += 1
            t["bytes"] += entry.size
            status = "ok"
            try:
                with open(entry.path, "rb") as handle:
                    data = handle.read()
                if entry.tier == "artifacts":
                    load_artifact(data)
                else:
                    deserialize_compiled(data)
            except ArtifactStale:
                status = "stale"
            except (OSError, CacheCorrupt, ArtifactError):
                status = "corrupt"
                if entry.tier == "artifacts":
                    self.stats.artifact_corruptions += 1
                    if self.registry.enabled:
                        declare(self.registry, "repro_artifact_corruptions").inc()
                else:
                    self.stats.corruptions += 1
                    if self.registry.enabled:
                        declare(self.registry, "repro_cache_corruptions").inc()
            t[status] += 1
            if status != "ok" and remove:
                self._discard(entry.path)
                if entry.tier == "objects":
                    self._memory.pop(entry.key, None)
                t["removed"] += 1
        report = {
            key: sum(t[key] for t in tiers.values())
            for key in ("scanned", "ok", "corrupt", "stale", "removed", "bytes")
        }
        report["tiers"] = tiers
        return report

    def clear(self) -> int:
        """Drop every entry (memory and disk).  Returns the number of
        disk entries removed — the explicit invalidation command."""
        removed = 0
        for entry in self.entries():
            self._discard(entry.path)
            removed += 1
        self._memory.clear()
        return removed

    def disk_usage(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the on-disk store."""
        entries = self.entries()
        return len(entries), sum(e.size for e in entries)

    # -- internals ------------------------------------------------------

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, "objects", key[:2], key + ".bin")

    def _artifact_path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, "artifacts", key[:2], key + ".bin")

    def _tier_dir(self, tier: str) -> Optional[str]:
        return os.path.join(self.root, tier) if self.root else None

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


def iter_keys(sources, config: Optional[CompilerConfig] = None) -> Iterator[str]:
    """Cache keys for many sources under one config (warm-up helper)."""
    for source in sources:
        yield cache_key(source, config)
