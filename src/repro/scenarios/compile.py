"""Compile scenarios down to the existing engines' native inputs.

The DSL never grows a runtime of its own: a :class:`~.dsl.Scenario`
compiles to exactly the objects the engines already consume —

* tenancy / cluster / xform: ``(TenantSpec, ...)`` + ``(TenantWorkload,
  ...)`` pairs for :class:`repro.tenancy.TrafficEngine`, a
  :class:`repro.faults.FaultPlan` (tenant-keyed media drips and node
  crash schedules) and the transform-worker crash schedule;
* fluid: ``(name, RateEnvelope, flows)`` cohort triples for
  :func:`repro.sim.fluid.run_scale` plus a ``ScaleSpec`` carrying the
  lane topology and outage windows.

Phase modulation compiles to *one workload per (tenant, interval)*:
each open-loop tenant's timeline is cut at every realized phase-step
edge plus its own churn/hot-swap instants, and each active interval
becomes a windowed ``TenantWorkload`` named ``tenant@phase.k``.  Every
such workload draws from its own ``repro.sim.rng`` substream (streams
are keyed by workload name), so the compiled scenario is deterministic
and — because per-job completion records carry the workload name too —
every fingerprint metric is phase-scoped for free, with no mid-run
snapshot processes to race same-timestamp events under the sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError
from .dsl import PhaseStep, Scenario, TenantDef

__all__ = [
    "Interval",
    "compile_workloads",
    "compile_fault_plan",
    "compile_crashes",
    "compile_envelopes",
    "compile_scale_spec",
    "split_workload_name",
]


def split_workload_name(name: str) -> Tuple[str, str]:
    """``"tenant@phase.k"`` -> ``(tenant, phase)``; plain names map to
    the whole-run pseudo-phase ``""``."""
    if "@" not in name:
        return name, ""
    base, rest = name.split("@", 1)
    phase = rest.rsplit(".", 1)[0]
    return base, phase


@dataclass(frozen=True)
class Interval:
    """One compiled slice of a tenant's timeline (horizon fractions)."""

    phase: str
    index: int
    lo: float
    hi: float
    mult: float
    active: bool
    #: True once the dataset hot-swap has happened.
    swapped: bool


def _tenant_intervals(
    steps: Tuple[PhaseStep, ...], t: TenantDef
) -> List[Interval]:
    """Cut the phase-step grid at the tenant's churn/swap instants."""
    edges = set()
    for s in steps:
        edges.add(s.lo)
        edges.add(s.hi)
    for cut in (t.join, t.leave):
        if 0.0 < cut < 1.0:
            edges.add(cut)
    if t.swap_at is not None:
        edges.add(t.swap_at)
    grid = sorted(edges)
    out: List[Interval] = []
    counter = 0
    for a, b in zip(grid, grid[1:]):
        mid = 0.5 * (a + b)
        step = next(s for s in steps if s.lo <= mid < s.hi)
        active = t.join <= mid < t.leave and step.mult > 0.0
        out.append(Interval(
            phase=step.phase,
            index=counter,
            lo=a,
            hi=b,
            mult=step.mult,
            active=active,
            swapped=t.swap_at is not None and mid >= t.swap_at,
        ))
        if active:
            counter += 1
    return out


def _sample_range(t: TenantDef, num_samples: int, swapped: bool) -> Tuple[int, int]:
    lo_f, hi_f = (t.swap_lo, t.swap_hi) if swapped else (t.range_lo, t.range_hi)
    lo = int(lo_f * num_samples)
    hi = int(hi_f * num_samples)
    if hi <= lo:
        hi = lo + 1
    if hi > num_samples:
        raise ConfigError(
            f"tenant {t.name!r}: sample range [{lo}, {hi}) exceeds the "
            f"{num_samples}-sample dataset"
        )
    return lo, hi


def compile_workloads(
    scn: Scenario, quick: bool = False, perturb: float = 0.0
) -> Tuple[tuple, tuple]:
    """The scenario's ``(specs, workloads)`` for the event engines.

    ``perturb`` scales every open-loop rate by ``1 + perturb`` — the
    golden-master self-check's injected drift.
    """
    from ..tenancy import TenantSpec, TenantWorkload

    scn.validate()
    horizon = scn.effective_horizon(quick)
    steps = scn.steps()
    specs: List = []
    workloads: List = []
    for t in scn.tenants:
        if t.kind == "train":
            lo, hi = _sample_range(t, scn.num_samples, swapped=False)
            specs.append(TenantSpec(
                name=t.name, weight=t.weight, priority=t.priority,
                slo_latency=t.slo_latency,
            ))
            workloads.append(TenantWorkload(
                name=t.name, kind="train", batch=t.batch,
                concurrency=t.concurrency, think_time=t.think_time,
                sample_lo=lo, sample_hi=hi,
            ))
            continue
        for iv in _tenant_intervals(steps, t):
            if not iv.active:
                continue
            wname = f"{t.name}@{iv.phase}.{iv.index}"
            lo, hi = _sample_range(t, scn.num_samples, iv.swapped)
            specs.append(TenantSpec(
                name=wname, weight=t.weight, priority=t.priority,
                slo_latency=t.slo_latency,
            ))
            workloads.append(TenantWorkload(
                name=wname, kind=t.kind,
                rate=t.rate * iv.mult * (1.0 + perturb),
                batch=t.batch, tail_shape=t.tail_shape,
                sample_lo=lo, sample_hi=hi,
                window=(iv.lo * horizon, iv.hi * horizon),
            ))
    return tuple(specs), tuple(workloads)


def compile_fault_plan(
    scn: Scenario, quick: bool = False, seed: Optional[int] = None
):
    """The scenario's :class:`FaultPlan` (``None`` when nothing faults).

    Slow-drip media degradation compiles to per-interval tenant-keyed
    media rates: interval ``i``'s rate is ``fault_rate`` scaled by the
    interval's midpoint fraction, so the drip ramps linearly across the
    run while staying a frozen, declarative plan.  Worker crashes are no
    part of the plan: the fleet takes them as ``FleetSpec.xform_crashes``
    (:func:`compile_crashes`).
    """
    from ..faults import FaultPlan

    horizon = scn.effective_horizon(quick)
    steps = scn.steps()
    tenant_faults: List[Tuple[str, float]] = []
    for t in scn.tenants:
        if t.fault_rate <= 0.0:
            continue
        if t.kind == "train":
            tenant_faults.append((t.name, t.fault_rate * 0.5))
            continue
        for iv in _tenant_intervals(steps, t):
            if not iv.active:
                continue
            wname = f"{t.name}@{iv.phase}.{iv.index}"
            mid = 0.5 * (iv.lo + iv.hi)
            tenant_faults.append((wname, t.fault_rate * mid))
    node_crashes = compile_crashes(scn, "node_crash", horizon)
    if not tenant_faults and not node_crashes:
        return None
    return FaultPlan(
        seed=seed if seed is not None else scn.seed,
        tenant_faults=tuple(tenant_faults),
        node_crashes=node_crashes,
    )


#: Two events declared at the same fraction (a "region" going down)
#: must not share a sim timestamp: same-tick ordering is exactly what
#: the sanitizer perturbs, and crash/rejoin bookkeeping is not
#: commutative (NodeDown notification order reaches the reactors).  A
#: target-keyed nanosecond skew keeps "simultaneous" events at the same
#: wall moment while giving each its own tick.
_EVENT_SKEW = 1e-9


def compile_crashes(scn: Scenario, kind: str, horizon: float) -> tuple:
    """``(target, crash_time, rejoin_time|None)`` tuples for ``kind``."""
    out = []
    for e in scn.events:
        if e.kind != kind:
            continue
        skew = e.target * _EVENT_SKEW
        rejoin = e.until * horizon + skew if e.until is not None else None
        out.append((e.target, e.at * horizon + skew, rejoin))
    return tuple(out)


def compile_envelopes(
    scn: Scenario, quick: bool = False, perturb: float = 0.0
) -> List[Tuple[str, object, int]]:
    """Fluid cohorts: ``(name, RateEnvelope, flows)`` per tenant.

    Each tenant's realized intervals become contiguous envelope segments
    over exactly ``[0, day]``; churn windows and zero-multiplier phases
    are zero-rate segments (the fluid engine treats those as idle).
    """
    from ..sim.fluid import RateEnvelope, Segment

    scn.validate()
    day = scn.effective_horizon(quick)
    steps = scn.steps()
    out: List[Tuple[str, object, int]] = []
    for t in scn.tenants:
        flows = t.users if t.users > 0 else scn.users
        segments = []
        for iv in _tenant_intervals(steps, t):
            rate = (
                flows * t.rate * iv.mult * (1.0 + perturb)
                if iv.active else 0.0
            )
            segments.append(
                Segment(iv.lo * day, iv.hi * day, rate, scn.sample_bytes)
            )
        out.append((t.name, RateEnvelope(segments), flows))
    return out


def compile_scale_spec(scn: Scenario, quick: bool = False, seed=None):
    """The :class:`ScaleSpec` carrying topology and outage windows."""
    from ..sim.fluid import ScaleSpec

    day = scn.effective_horizon(quick)
    faults = tuple(
        (e.target, e.at, e.until)
        for e in scn.events if e.kind == "lane_outage"
    )
    flows = [t.users if t.users > 0 else scn.users for t in scn.tenants]
    return ScaleSpec(
        users=sum(flows),
        cohorts=len(scn.tenants),
        day=day,
        lanes=scn.lanes,
        sample_bytes=scn.sample_bytes,
        tagged_per_cohort=scn.tagged,
        seed=seed if seed is not None else scn.seed,
        bumps=(),
        churn=(),
        faults=faults,
    )
