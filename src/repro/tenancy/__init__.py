"""Multi-tenant serving over the DLFS datapath.

Layers (all pay-for-use — with no tenants configured, none of this is
constructed and the single-job datapath is bit-identical):

* :mod:`~repro.tenancy.admission` — per-tenant token buckets with
  deferred admission and bounded queues;
* :mod:`~repro.tenancy.scheduler` — start-time fair queueing over the
  reactor's posting queues, priority classes with bounded bypass,
  per-tenant qpair-depth shares;
* :mod:`~repro.tenancy.partition` — hugepage sample-cache quotas with
  self-only reclaim;
* :mod:`~repro.tenancy.slo` — per-tenant latency/throughput metrics and
  SLO-violation counters on the metrics registry;
* :mod:`~repro.tenancy.traffic` — the seeded open-/closed-loop traffic
  engine.

:class:`TenantRuntime` is the umbrella object a
:class:`~repro.core.api.DLFSClient` builds from
``DLFSConfig.tenants`` and hands to its reactor.
"""

from __future__ import annotations

from typing import Optional

from .admission import AdmissionController, TokenBucket
from .partition import CachePartition
from .scheduler import FairScheduler, TenantSpec
from .slo import TenantAccounting
from .traffic import TenantWorkload, TrafficEngine

__all__ = [
    "TenantRuntime",
    "TenantSpec",
    "TenantWorkload",
    "TrafficEngine",
    "FairScheduler",
    "AdmissionController",
    "TokenBucket",
    "CachePartition",
    "TenantAccounting",
]


class TenantRuntime:
    """Admission + scheduling + partitioning + accounting for one client."""

    def __init__(
        self,
        env,
        specs: tuple,
        queue_depth: int,
        registry=None,
    ) -> None:
        self.env = env
        self.specs = tuple(specs)
        self.partition = CachePartition(self.specs)
        self.scheduler = FairScheduler(
            self.specs, queue_depth, partition=self.partition
        )
        self.accounting = TenantAccounting(env, self.specs, registry=registry)
        self.admission: Optional[AdmissionController] = None
        self.reactor = None

    def attach(self, reactor) -> None:
        """Called by the reactor's constructor, whose request posting
        queues are this runtime's scheduler: bind the cache partition,
        the scheduler's quota gate and admission to the reactor."""
        self.reactor = reactor
        cache = reactor.cache
        self.partition.attach(cache, cache.pool.num_chunks)
        self.scheduler.gate = self._gate
        self.admission = AdmissionController(
            self.env, self.specs, reactor.submit, accounting=self.accounting
        )

    def _gate(self, tenant: str, nbytes: int) -> bool:
        need = self.reactor.cache.chunks_needed(nbytes)
        return self.partition.can_admit(tenant, need)

    def submit(self, job) -> bool:
        """Admission-controlled job submission; False on rejection."""
        if self.admission is None:
            raise RuntimeError("TenantRuntime is not attached to a reactor")
        return self.admission.submit_job(job)

    def spec(self, name: str) -> Optional[TenantSpec]:
        for s in self.specs:
            if s.name == name:
                return s
        return None

    def __repr__(self) -> str:
        return f"<TenantRuntime tenants={len(self.specs)}>"
