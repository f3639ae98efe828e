"""Per-tenant SLO accounting on the observability metrics registry.

Every tenant gets namespaced instruments
(``tenant.<name>.jobs_completed``, ``.samples_delivered``,
``.bytes_delivered``, ``.jobs_rejected``, ``.samples_failed``,
``.slo_violations`` counters plus a ``tenant.<name>.job_latency``
histogram).  When the serving run has no metrics registry (obs off),
accounting falls back to a private registry — the same pattern
``RecoveryStats`` uses — so per-tenant shares and p99s are always
available to the benchmarks without forcing tracing on.

Job latency is measured by the caller from *arrival* (traffic-engine
submit time), so admission queueing counts against the SLO — a tenant
throttled at admission sees that delay in its own tail, not hidden.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TenantAccounting"]


class TenantAccounting:
    """Per-tenant latency/throughput metrics and SLO-violation counters."""

    def __init__(self, env, specs: tuple, registry=None) -> None:
        if registry is None or not registry.enabled:
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry(env)
        self.env = env
        self.registry = registry
        #: ``(t_done, tenant, latency, delivered, failed)`` per completed
        #: job: windowed percentiles (crash benches) and merged
        #: multi-client rows need more than whole-run histograms.
        self.records: list[tuple] = []
        self._specs = {}
        for spec in specs:
            self._specs[spec.name] = spec
            self._ensure(spec.name)

    def _ensure(self, name: str) -> None:
        r = self.registry
        r.counter(f"tenant.{name}.jobs_completed")
        r.counter(f"tenant.{name}.jobs_rejected")
        r.counter(f"tenant.{name}.samples_delivered")
        r.counter(f"tenant.{name}.samples_failed")
        r.counter(f"tenant.{name}.bytes_delivered")
        r.counter(f"tenant.{name}.slo_violations")
        r.histogram(f"tenant.{name}.job_latency")
        r.histogram(f"tenant.{name}.xform_wait")

    def _spec(self, name: str):
        spec = self._specs.get(name)
        if spec is None:
            from .scheduler import TenantSpec

            spec = TenantSpec(name=name)
            self._specs[name] = spec
            self._ensure(name)
        return spec

    # -- recording ------------------------------------------------------------
    def on_job_done(
        self,
        tenant: str,
        latency: float,
        delivered: int,
        failed: int,
        nbytes: int,
    ) -> None:
        spec = self._spec(tenant)
        self.records.append((self.env.now, tenant, latency, delivered, failed))
        r = self.registry
        r.counter(f"tenant.{tenant}.jobs_completed").incr()
        r.counter(f"tenant.{tenant}.samples_delivered").incr(delivered)
        if failed:
            r.counter(f"tenant.{tenant}.samples_failed").incr(failed)
        r.counter(f"tenant.{tenant}.bytes_delivered").incr(nbytes)
        r.histogram(f"tenant.{tenant}.job_latency").observe(latency)
        if spec.slo_latency > 0.0 and latency > spec.slo_latency:
            r.counter(f"tenant.{tenant}.slo_violations").incr()

    def on_rejected(self, tenant: str, samples: int) -> None:
        self._spec(tenant)
        self.registry.counter(f"tenant.{tenant}.jobs_rejected").incr()

    def on_xform_wait(self, tenant: str, wait: float) -> None:
        """Transform-queue wait for one task (zero when the transform
        tier is off or a job ships direct) — tenancy accounting covers
        both tiers."""
        self._spec(tenant)
        self.registry.histogram(f"tenant.{tenant}.xform_wait").observe(wait)

    # -- reporting ------------------------------------------------------------
    def rows(self) -> list[dict]:
        """One report row per tenant, sorted by name; shares sum to 1."""
        r = self.registry
        names = sorted(self._specs)
        total_bytes = 0
        for name in names:
            total_bytes += r.counter(f"tenant.{name}.bytes_delivered").value
        rows = []
        for name in names:
            spec = self._specs[name]
            hist = r.histogram(f"tenant.{name}.job_latency")
            nbytes = r.counter(f"tenant.{name}.bytes_delivered").value
            rows.append(
                {
                    "tenant": name,
                    "weight": spec.weight,
                    "priority": spec.priority,
                    "jobs": r.counter(f"tenant.{name}.jobs_completed").value,
                    "rejected": r.counter(f"tenant.{name}.jobs_rejected").value,
                    "samples": r.counter(f"tenant.{name}.samples_delivered").value,
                    "failed": r.counter(f"tenant.{name}.samples_failed").value,
                    "bytes": nbytes,
                    "share": (nbytes / total_bytes) if total_bytes else 0.0,
                    "p50": hist.percentile(50.0),
                    "p99": hist.percentile(99.0),
                    "xform_wait_p99": r.histogram(
                        f"tenant.{name}.xform_wait"
                    ).percentile(99.0),
                    "slo_violations": r.counter(
                        f"tenant.{name}.slo_violations"
                    ).value,
                }
            )
        return rows

    def row(self, tenant: str) -> Optional[dict]:
        for r in self.rows():
            if r["tenant"] == tenant:
                return r
        return None

    def __repr__(self) -> str:
        return f"<TenantAccounting tenants={len(self._specs)}>"
