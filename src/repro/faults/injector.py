"""The deterministic fault injector.

One :class:`FaultInjector` is shared by every component of a simulated
testbed (NVMe devices, the fabric, NVMe-oF targets, reactors).  Each
*fault site* — e.g. ``nvme.nvme0.media`` or ``link.c0->s1`` — draws from
its own RNG substream derived from ``(plan.seed, site name)``, so the
decision sequence at one site never depends on what other sites did or
on the order in which components were wired up.  Same plan + same
workload => bit-identical fault event trace.

Components hold the injector behind an ``injector`` attribute that
defaults to ``None``; with no injector installed they take their
original fast path, and a zero-rate site consumes no randomness, keeping
fault machinery strictly pay-for-use.  The attribute is also the only
switch between an NVMe device's analytic and per-command service paths:
any injector, even a zero-rate one, selects the per-command path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim.rng import rng as sim_rng
from ..sim.stats import Counter
from .plan import FaultPlan

__all__ = ["FaultInjector", "FaultEvent"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the injector's trace."""

    time: float
    site: str
    kind: str


class FaultInjector:
    """Seeded per-site fault decisions plus a reproducible event trace."""

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        self.trace: list[FaultEvent] = []
        self.counts = Counter()
        self._streams: dict[str, np.random.Generator] = {}
        self._tenant_rates: dict[str, float] = dict(plan.tenant_faults)

    # -- substreams ---------------------------------------------------------
    def _stream(self, site: str) -> np.random.Generator:
        rng = self._streams.get(site)
        if rng is None:
            rng = sim_rng(
                f"fault.{site}", [self.plan.seed, zlib.crc32(site.encode())]
            )
            self._streams[site] = rng
        return rng

    def _roll(self, site: str, rate: float) -> bool:
        if rate <= 0.0:
            return False  # zero-rate sites consume no randomness
        return bool(self._stream(site).random() < rate)

    def record(self, now: float, site: str, kind: str) -> None:
        self.trace.append(FaultEvent(now, site, kind))
        self.counts.incr(kind)

    # -- NVMe device sites --------------------------------------------------------
    def nvme_fault(self, device: str, now: float) -> Optional[tuple[str, float]]:
        """Fault decision for one NVMe command on ``device``.

        Returns ``None`` (healthy) or ``(kind, extra_delay)`` where kind
        is ``media_error`` (fails, no data), ``timeout`` (wedges for
        ``extra_delay`` seconds before completing TIMEOUT), or
        ``hiccup`` (completes OK after ``extra_delay`` extra latency).
        """
        p = self.plan
        if self._roll(f"nvme.{device}.media", p.media_error_rate):
            self.record(now, f"nvme.{device}", "media_error")
            return ("media_error", 0.0)
        if self._roll(f"nvme.{device}.timeout", p.timeout_rate):
            self.record(now, f"nvme.{device}", "timeout")
            return ("timeout", p.timeout_stall)
        if self._roll(f"nvme.{device}.hiccup", p.hiccup_rate):
            self.record(now, f"nvme.{device}", "hiccup")
            return ("hiccup", p.hiccup_duration)
        return None

    # -- fabric sites -------------------------------------------------------------
    def link_fault(self, src: str, dst: str, now: float) -> Optional[float]:
        """Stall (seconds) for one transfer on ``src->dst``, or ``None``."""
        if self._roll(f"link.{src}->{dst}", self.plan.link_drop_rate):
            self.record(now, f"link.{src}->{dst}", "link_drop")
            return self.plan.link_stall
        return None

    def nvmf_fault(self, target: str, now: float) -> Optional[float]:
        """Capsule-loss stall at an NVMe-oF target front-end, or ``None``."""
        if self._roll(f"nvmf.{target}.drop", self.plan.nvmf_drop_rate):
            self.record(now, f"nvmf.{target}", "nvmf_drop")
            return self.plan.link_stall
        return None

    # -- tenant-keyed sites ---------------------------------------------------------
    @property
    def has_tenant_faults(self) -> bool:
        return any(rate > 0.0 for rate in self._tenant_rates.values())

    def tenant_fault(self, tenant: Optional[str], now: float) -> bool:
        """Extra media-error roll for one completion of ``tenant``'s span.

        Tenants absent from the plan (and untagged spans) consume no
        randomness, so targeting one tenant perturbs nothing else.
        """
        if tenant is None:
            return False
        rate = self._tenant_rates.get(tenant, 0.0)
        if self._roll(f"tenant.{tenant}.media", rate):
            self.record(now, f"tenant.{tenant}", "tenant_media_error")
            return True
        return False

    # -- forced qpair resets --------------------------------------------------------
    @property
    def resets_enabled(self) -> bool:
        return self.plan.qpair_reset_period > 0.0

    def next_reset_delay(self, qpair: str) -> float:
        """Delay until the next forced reset of ``qpair`` (jittered period)."""
        p = self.plan
        jitter = p.qpair_reset_jitter * self._stream(f"reset.{qpair}").random()
        return p.qpair_reset_period * (1.0 + jitter)

    # -- reporting -------------------------------------------------------------------
    def trace_signature(self) -> list[tuple[float, str, str]]:
        """Hashable view of the trace, for determinism checks."""
        return [(e.time, e.site, e.kind) for e in self.trace]

    def __repr__(self) -> str:
        return f"<FaultInjector events={len(self.trace)} {self.counts.as_dict()!r}>"
