"""Per-tenant admission control: token buckets with deferred admission.

Tokens are *samples*: a tenant configured with ``rate=2000`` may start
2000 samples/second of sim time, with ``burst`` samples of depth.  The
bucket refills lazily from sim time, so conformance is exact and costs
no events while a tenant is under its rate.

A job that does not fit is parked in a per-tenant FIFO and admitted by a
drainer process at the precise instant enough tokens accrue.  When the
FIFO is full — or the job has more samples than ``burst``, so the bucket
can never hold enough tokens for it — the job is *rejected*, not dropped
silently: every sample gets an :class:`~repro.errors.AdmissionRejected`
in ``job.errors`` and the job's done event fires, so open-loop
generators never wedge.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..errors import AdmissionRejected

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """Deterministic lazily-refilled token bucket (tokens = samples)."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = 0.0

    def _refill(self, now: float) -> None:
        if now > self.last:
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
            self.last = now

    def try_take(self, n: float, now: float) -> bool:
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def eta(self, n: float, now: float) -> float:
        """Seconds until ``n`` tokens are available (0 if available now)."""
        self._refill(now)
        if self.tokens >= n:
            return 0.0
        return (n - self.tokens) / self.rate


class AdmissionController:
    """Token-bucket gate in front of the reactor's submit path."""

    def __init__(
        self,
        env,
        specs: tuple,
        submit: Callable[[object], None],
        accounting=None,
    ) -> None:
        self.env = env
        self._submit = submit
        self.accounting = accounting
        self._buckets: dict[str, TokenBucket] = {}
        self._limits: dict[str, int] = {}
        self._queues: dict[str, deque] = {}
        self._draining: dict[str, bool] = {}
        for spec in specs:
            if spec.rate > 0.0:
                self._buckets[spec.name] = TokenBucket(spec.rate, spec.burst)
                self._limits[spec.name] = spec.max_queued_jobs
                self._queues[spec.name] = deque()
                self._draining[spec.name] = False
        self.admitted = 0
        self.deferred = 0
        self.rejected = 0

    def submit_job(self, job) -> bool:
        """Admit, defer, or reject one job.  Returns False on rejection."""
        tenant = getattr(job, "tenant", None)
        bucket = self._buckets.get(tenant) if tenant is not None else None
        if bucket is None:
            self.admitted += 1
            self._submit(job)
            return True
        queue = self._queues[tenant]
        n = len(job.samples)
        if n > bucket.burst:
            # Parked, it would block the FIFO head forever and wedge
            # every later job of the tenant.
            self._reject(job, tenant, f"job of {n} samples exceeds burst")
            return False
        if not queue and bucket.try_take(n, self.env.now):
            self.admitted += 1
            self._submit(job)
            return True
        if len(queue) >= self._limits[tenant]:
            self._reject(job, tenant, "admission queue full")
            return False
        self.deferred += 1
        queue.append(job)
        if not self._draining[tenant]:
            self._draining[tenant] = True
            self.env.process(self._drain(tenant), name=f"admission.{tenant}")
        return True

    def _drain(self, tenant: str):
        queue = self._queues[tenant]
        bucket = self._buckets[tenant]
        while queue:
            job = queue[0]
            n = len(job.samples)
            while not bucket.try_take(n, self.env.now):
                # eta is exact under lazy refill; the max() guards float
                # round-down from ever busy-looping at zero delay.
                yield self.env.timeout(max(bucket.eta(n, self.env.now), 1e-9))
            queue.popleft()
            self.admitted += 1
            self._submit(job)
        self._draining[tenant] = False

    def _reject(self, job, tenant: str, reason: str) -> None:
        self.rejected += 1
        for s in job.samples:
            job.errors.append(
                AdmissionRejected(
                    f"tenant {tenant!r} {reason}",
                    tenant=tenant,
                    key=("s", int(s)),
                )
            )
        job.remaining = 0
        job.done.succeed(job)
        if self.accounting is not None:
            self.accounting.on_rejected(tenant, len(job.samples))

    def queue_depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    def __repr__(self) -> str:
        return (
            f"<AdmissionController admitted={self.admitted} "
            f"deferred={self.deferred} rejected={self.rejected}>"
        )
