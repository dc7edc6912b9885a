"""``repro.serve`` — the compilation service layer.

The production substrate around the compiler: a content-addressed
compile cache (compilation is deterministic in (source, config,
version), so every recompile is waste), a crash-isolated multi-process
worker pool with per-request timeouts and instruction budgets, a batch
front end (``repro batch``), and a long-lived JSON-lines daemon
(``repro serve``) — one core in :mod:`repro.serve.net.server` with a
TCP listener and a stdio transport (:mod:`repro.serve.stdio`).

See ``docs/serving.md`` for the architecture, the protocol with a
worked transcript, cache-key semantics, and the failure-mode table.
"""

from repro.serve.cache import (
    CacheCorrupt,
    CacheStats,
    CompileCache,
    cache_key,
    canonical_source,
    default_cache_dir,
    deserialize_compiled,
    serialize_compiled,
)
from repro.serve.pool import TaskResult, WorkerPool, default_jobs
from repro.serve.service import BatchService, Request, Response, summarize
from repro.serve.stdio import PROTOCOL_VERSION, serve_stdio

__all__ = [
    "BatchService",
    "CacheCorrupt",
    "CacheStats",
    "CompileCache",
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "TaskResult",
    "WorkerPool",
    "cache_key",
    "canonical_source",
    "default_cache_dir",
    "default_jobs",
    "deserialize_compiled",
    "serialize_compiled",
    "serve_stdio",
    "summarize",
]
