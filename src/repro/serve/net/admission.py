"""Per-tenant admission control for the daemon (both transports).

The pool's queue is unbounded by design (a batch knows its own size);
a daemon does not have that luxury — a single client can submit
forever.  Admission control bounds what the server will hold
per tenant and in total, and answers everything past the bound with an
immediate ``overloaded`` reject (the JSON-lines protocol's 429) rather
than queueing without limit.

A *tenant* is whatever the request says it is (``"tenant": "name"``,
defaulting to ``"default"``) — the unit of isolation is cooperative,
like a rate-limit key, not a security boundary.  One tenant hammering
its queue full cannot displace another tenant's requests: per-tenant
bounds are checked before the global one, and the global bound is the
backstop against many tenants at once.

Counted against a tenant is every admitted-but-unresolved request —
queued in the pool, running on a worker, or waiting as a single-flight
follower — so dedup does not become an amplification loophole.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observe.catalog import declare

#: Reject reasons (the ``repro_serve_rejects`` label values).
REASON_TENANT_FULL = "tenant-queue-full"
REASON_QUEUE_FULL = "queue-full"
REASON_MAX_CLIENTS = "max-clients"
REASON_DRAINING = "draining"


class AdmissionController:
    """Bounded per-tenant and global pending-request accounting."""

    def __init__(
        self,
        max_pending_per_tenant: int = 128,
        max_pending_total: int = 1024,
        registry=None,
    ) -> None:
        self.max_pending_per_tenant = max_pending_per_tenant
        self.max_pending_total = max_pending_total
        self.registry = registry
        self.pending: Dict[str, int] = {}
        self.total = 0
        self.admitted = 0
        self.rejects: Dict[str, int] = {}

    def try_admit(self, tenant: str) -> Optional[str]:
        """Admit one request for *tenant*; returns ``None`` on success
        or the reject reason.  Every successful admit must be paired
        with exactly one :meth:`release`."""
        depth = self.pending.get(tenant, 0)
        if depth >= self.max_pending_per_tenant:
            return self._reject(REASON_TENANT_FULL)
        if self.total >= self.max_pending_total:
            return self._reject(REASON_QUEUE_FULL)
        self.pending[tenant] = depth + 1
        self.total += 1
        self.admitted += 1
        self._gauge(tenant)
        return None

    def release(self, tenant: str) -> None:
        depth = self.pending.get(tenant, 0)
        if depth <= 1:
            self.pending.pop(tenant, None)
        else:
            self.pending[tenant] = depth - 1
        self.total = max(0, self.total - 1)
        self._gauge(tenant)

    def count_reject(self, reason: str) -> None:
        """Record a reject decided outside the queue bounds (connection
        cap, draining)."""
        self._reject(reason)

    def _reject(self, reason: str) -> str:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1
        if self.registry is not None and self.registry.enabled:
            declare(self.registry, "repro_serve_rejects").labels(
                reason=reason
            ).inc()
        return reason

    def _gauge(self, tenant: str) -> None:
        if self.registry is not None and self.registry.enabled:
            declare(self.registry, "repro_serve_tenant_queue_depth").labels(
                tenant=tenant
            ).set(self.pending.get(tenant, 0))

    def stats(self) -> Dict[str, object]:
        return {
            "pending_total": self.total,
            "admitted": self.admitted,
            "per_tenant": dict(self.pending),
            "rejects": dict(self.rejects),
            "max_pending_per_tenant": self.max_pending_per_tenant,
            "max_pending_total": self.max_pending_total,
        }
