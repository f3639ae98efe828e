"""Hybrid-fidelity engine: fluid-flow bulk lanes + event-accurate tagged flows.

The per-event kernel tops out around ~1e6 events/s, so a fleet-scale day
(millions of users, ~1e9 requests) is hours of host time.  This module
adds the second fidelity level the ROADMAP calls for: *bulk* steady-state
traffic advances analytically between epoch boundaries while a seeded
sample of *tagged* flows stays fully event-accurate, populating latency
percentiles, SLO accounting, and traces from real events.

The load-bearing trick is the **anchored backlog closed form**.  A lane's
queue depth is

    B(t) = max(0, B_a + (r - mu) * (t - t_a))

where ``(t_a, B_a)`` is the last *anchor* and ``r``/``mu`` are the bulk
inflow and bottleneck service rates.  Anchors move only at epoch
boundaries (rate changes, faults) and tagged-flow arrivals (impulses) —
*identically in both fidelity modes*.  Bulk arrivals are charge-only
reads of the closed form: in all-event mode each bulk request is a real
kernel event that evaluates ``wait_at(t)``; in hybrid mode an entire
epoch of them is charged by one arithmetic-series sum over the same
expression.  Because the anchor trajectory is mode-independent, tagged
flows observe bit-identical waits in both modes — that is the
equivalence obligation ``equivalence_check`` enforces (exact sha1 of
tagged sample order and latencies; integer-exact bulk request/byte
counters; aggregate latency sums within :data:`EQUIVALENCE_EPSILON`, the
only place the series association differs from per-event summation).

Bulk arrival *instants* are deterministic, not sampled: a rate-envelope
segment of duration ``d`` and rate ``r`` realizes ``round(d * r)``
arrivals at the mid-riser grid ``t_k = start + (k + 0.5) * gap``.  Both
modes share :class:`ArrivalSchedule`, so per-epoch counts split exactly
at any boundary (``index_at`` is the shared inverse of the grid).

Tagged requests are still offered one at a time, in kernel order.  In
all-event mode each tagged flow is a kernel process
(:func:`_tagged_process`) among the bulk emitters.  In hybrid mode
nothing else is an event, so one sweep (:class:`_TaggedSweep`) replays
those processes from a small heap of (fire time, kernel key) entries: it
offers every request at the same float instant and in the same order,
and takes each key from the kernel's own numbering, so
``events_scheduled`` and the sanitizer's perturbed ranks are unchanged.

Fluid code never reads ``env.now``: epoch bodies take the epoch bounds
``(t0, t1)`` as arguments (lint rule SL111 enforces this), so the math
cannot silently couple to event-processing order.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .rng import rng as sim_rng

__all__ = [
    "EQUIVALENCE_EPSILON",
    "Segment",
    "RateEnvelope",
    "ArrivalSchedule",
    "FluidLane",
    "TaggedFlow",
    "TaggedRecord",
    "tag_flows",
    "flow_arrival_times",
    "ScaleSpec",
    "ScaleReport",
    "run_scale",
    "equivalence_check",
    "tagged_digests",
]

#: Declared tolerance for aggregate (bulk) latency sums between the
#: hybrid and all-event runs.  Everything else — tagged digests, request
#: and byte counters — must match exactly; only the association order of
#: the latency summation differs (arithmetic series vs per-event adds).
EQUIVALENCE_EPSILON = 1e-9

#: Most arrivals one schedule segment may realize: the fluid charge
#: forms ``n * (n - 1)`` in int64, so ``n`` must stay below 2**31.
MAX_SEGMENT_ARRIVALS = (1 << 31) - 1

#: Unit exponentials one numpy call draws for :func:`flow_arrival_times`.
EXPONENTIAL_BLOCK = 1024

#: An extra epoch cut this fraction of a :class:`ScaleSpec` day after each
#: fault/churn edge.  Every cut re-bases the lane anchors that tagged
#: flows read, so dropping these cuts would move tagged latencies in
#: their last bits.
EDGE_CUT_DELAY = 0.002


# ---------------------------------------------------------------------------
# Rate envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One piecewise-constant piece of a rate envelope: [start, end)."""

    start: float
    end: float
    #: Aggregate request arrival rate over the piece, requests/second.
    rate: float
    #: Bytes per request.
    size: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError(f"segment end {self.end} <= start {self.start}")
        if self.rate < 0:
            raise ConfigError(f"segment rate {self.rate} < 0")
        if self.size <= 0:
            raise ConfigError(f"segment size {self.size} <= 0")


class RateEnvelope:
    """A piecewise-constant open-loop arrival-rate profile.

    Segments must be sorted and contiguous (each starts where the
    previous ends); zero-rate segments express idle/inactive windows.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Sequence[Segment]) -> None:
        segs = tuple(segments)
        if not segs:
            raise ConfigError("rate envelope needs at least one segment")
        for prev, cur in zip(segs, segs[1:]):
            if cur.start != prev.end:
                raise ConfigError(
                    f"envelope segments not contiguous at {prev.end} -> {cur.start}"
                )
        self.segments = segs

    @property
    def start(self) -> float:
        return self.segments[0].start

    @property
    def end(self) -> float:
        return self.segments[-1].end

    def boundaries(self) -> Tuple[float, ...]:
        """Every segment edge (epoch boundaries for the driver)."""
        return tuple(s.start for s in self.segments) + (self.end,)

    def rate_at(self, t: float) -> float:
        """Rate of the segment covering ``t`` (half-open [start, end))."""
        for seg in self.segments:
            if seg.start <= t < seg.end:
                return seg.rate
        return 0.0

    def bytes_rate_at(self, t: float) -> float:
        """Byte inflow rate at ``t`` (requests/s * bytes/request)."""
        for seg in self.segments:
            if seg.start <= t < seg.end:
                return seg.rate * seg.size
        return 0.0

    @classmethod
    def diurnal(
        cls,
        base_rate: float,
        size: int,
        day: float,
        segments: int = 24,
        amplitude: float = 0.5,
        bumps: Sequence[Tuple[float, float, float]] = (),
        active: Optional[Tuple[float, float]] = None,
    ) -> "RateEnvelope":
        """A day-long diurnal profile with optional flash-crowd bumps.

        ``base_rate`` is the midline; the sinusoid troughs at t=0 and
        peaks at midday.  ``bumps`` are ``(start_frac, dur_frac, mult)``
        multipliers on top of the diurnal shape (the flash crowds).
        ``active`` clips the profile to a sub-window (tenant arrival and
        departure); outside it the rate is zero.
        """
        if day <= 0 or segments < 1:
            raise ConfigError("diurnal envelope needs day > 0, segments >= 1")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigError(f"amplitude {amplitude} outside [0, 1)")
        lo, hi = active if active is not None else (0.0, day)
        edges = [day * i / segments for i in range(segments + 1)]
        edges += [lo, hi]
        for start_frac, dur_frac, _ in bumps:
            edges.append(day * start_frac)
            edges.append(day * (start_frac + dur_frac))
        cut = sorted(e for e in edges if 0.0 <= e <= day)
        boundaries: List[float] = []
        for e in cut:
            if not boundaries or e > boundaries[-1]:
                boundaries.append(e)
        if boundaries[0] > 0.0:
            boundaries.insert(0, 0.0)
        if boundaries[-1] < day:
            boundaries.append(day)
        pieces = []
        for a, b in zip(boundaries, boundaries[1:]):
            mid = 0.5 * (a + b)
            if not (lo <= mid < hi):
                pieces.append(Segment(a, b, 0.0, size))
                continue
            mult = 1.0 + amplitude * math.sin(2.0 * math.pi * mid / day - 0.5 * math.pi)
            for start_frac, dur_frac, bump_mult in bumps:
                if day * start_frac <= mid < day * (start_frac + dur_frac):
                    mult *= bump_mult
            pieces.append(Segment(a, b, base_rate * mult, size))
        return cls(pieces)


# ---------------------------------------------------------------------------
# Deterministic bulk arrival schedules
# ---------------------------------------------------------------------------

class _SchedSeg:
    """One envelope segment realized as an arrival grid.

    An empty segment's grid has no points; its infinite gap makes the
    grid inverse map every instant to index 0.
    """

    __slots__ = ("start", "end", "count", "gap", "size")

    def __init__(self, start: float, end: float, count: int, size: int) -> None:
        self.start = start
        self.end = end
        self.count = count
        self.gap = (end - start) / count if count else math.inf
        self.size = size


class ArrivalSchedule:
    """Evenly-spaced arrivals realizing ``fraction`` of an envelope.

    A segment of duration ``d`` at effective rate ``r`` yields
    ``round(d * r)`` arrivals at ``t_k = start + (k + 0.5) * gap`` —
    strictly interior to the segment, so an epoch boundary (always a
    segment edge or an anchor instant) never lands *on* an arrival.
    The hybrid and all-event modes share one schedule object, which is
    what makes per-interval request counts split integer-exactly.
    """

    __slots__ = ("segments", "total", "_ends")

    def __init__(self, envelope: RateEnvelope, fraction: float = 1.0) -> None:
        if fraction < 0:
            raise ConfigError(f"schedule fraction {fraction} < 0")
        segs: List[_SchedSeg] = []
        total = 0
        for seg in envelope.segments:
            dur = seg.end - seg.start
            count = int(dur * seg.rate * fraction + 0.5)
            if count > MAX_SEGMENT_ARRIVALS:
                raise ConfigError(
                    f"segment [{seg.start}, {seg.end}) realizes {count} "
                    f"arrivals; at most {MAX_SEGMENT_ARRIVALS} fit the "
                    f"int64 series sums"
                )
            segs.append(_SchedSeg(seg.start, seg.end, count, seg.size))
            total += count
        self.segments = tuple(segs)
        self.total = total
        self._ends = tuple(seg.end for seg in segs)

    @staticmethod
    def _index_at(segs: Sequence[_SchedSeg], t):
        """First arrival index ``k`` with ``t_k >= t``, clamped to the count.

        Vectorized: entry ``[i, j]`` inverts instant ``t[i]`` against
        the grid of ``segs[j]``.  Exact inverse of the
        ``t_k = start + (k + 0.5) * gap`` grid: the division round-trip
        can land one off for non-dyadic gaps, so the candidate is
        snapped against the grid expression itself (the one
        :meth:`arrivals_between` emits).  Without the snap, a window cut
        through an arrival instant could count it twice or drop it, and
        per-interval counts would stop telescoping.
        """
        start = np.array([seg.start for seg in segs])
        gap = np.array([seg.gap for seg in segs])
        count = np.array([seg.count for seg in segs])
        t = np.asarray(t, dtype=float)[:, None]
        k = np.clip(np.ceil((t - start) / gap - 0.5), 0, count).astype(np.int64)
        while True:
            over = (k > 0) & (start + (k - 0.5) * gap >= t)
            if not over.any():
                break
            k = k - over
        while True:
            under = (k < count) & (start + (k + 0.5) * gap < t)
            if not under.any():
                break
            k = k + under
        return k

    def _active(self, a: float, b: float) -> Iterator[_SchedSeg]:
        """Segments with arrivals that overlap ``[a, b)``, by bisection."""
        segs = self.segments
        for i in range(bisect.bisect_right(self._ends, a), len(segs)):
            seg = segs[i]
            if seg.start >= b:
                return
            if seg.count:
                yield seg

    def count_between(self, a: float, b: float) -> int:
        """Arrivals with ``a <= t_k < b``."""
        lo, hi = self._index_at(list(self._active(a, b)), (a, b))
        return int((hi - lo).sum())

    def arrivals_between(self, a: float, b: float) -> Iterator[Tuple[float, int]]:
        """Yield ``(t_k, size)`` for every arrival in ``[a, b)``."""
        segs = list(self._active(a, b))
        lo, hi = self._index_at(segs, (a, b)).tolist()
        for seg, k_lo, k_hi in zip(segs, lo, hi):
            for k in range(k_lo, k_hi):
                yield seg.start + (k + 0.5) * seg.gap, seg.size


# ---------------------------------------------------------------------------
# The fluid lane
# ---------------------------------------------------------------------------

class FluidLane:
    """One service lane (NVMe -> fabric -> transform) with a fluid model.

    ``stages`` is a sequence of ``(name, bytes_per_second)`` service
    stages; the bottleneck ``mu = min(rates)`` drains the backlog, and a
    request's no-queue latency is ``overhead + sum(size / rate_i)``.

    The lane is *registered* with its environment: after each
    ``env.run_epoch(until)`` the kernel calls :meth:`epoch_end` with the
    epoch bounds, and the lane charges the epoch's bulk arrivals
    analytically — unless the run is all-event, where every bulk
    arrival is a real :meth:`offer` and the lane charges nothing.
    """

    def __init__(
        self,
        env,
        name: str,
        stages: Sequence[Tuple[str, float]],
        overhead: float = 0.0,
        start: float = 0.0,
        registry=None,
    ) -> None:
        if not stages:
            raise ConfigError(f"lane {name!r} needs at least one stage")
        self.env = env
        self.name = name
        self.stages = tuple((str(n), float(r)) for n, r in stages)
        for stage_name, rate in self.stages:
            if rate <= 0:
                raise ConfigError(
                    f"lane {name!r} stage {stage_name!r} rate {rate} <= 0"
                )
        self.mu = min(rate for _, rate in self.stages)
        self.overhead = float(overhead)
        #: Bulk arrival schedules feeding this lane (set by the driver).
        self.schedules: List[ArrivalSchedule] = []
        #: Bulk counters (events + analytic charges combined).
        self.requests = 0
        self.bytes = 0
        self.latency_sum = 0.0
        #: The analytically-charged share of the bulk counters.
        self.fluid_requests = 0
        self.fluid_bytes = 0
        self.fluid_latency_sum = 0.0
        #: Tagged-flow counters (always event-charged, both modes).
        self.tagged_requests = 0
        self.tagged_bytes = 0
        self.tagged_latency_sum = 0.0
        #: Bulk before this instant is charged by real events: the lane
        #: start in hybrid mode, +inf in all-event mode.
        self.evented_until = float(start)
        #: Service is down before this instant (waits include the gap).
        self.outage_until = float(start)
        self._inflow = 0.0
        #: Anchor history for the current epoch: (t, backlog, net rate).
        self._marks: List[Tuple[float, float, float]] = [
            (float(start), 0.0, -self.mu)
        ]
        #: Request size -> its no-queue latency (:meth:`base_latency`),
        #: priced once per size: the stages never change.
        self._prices: dict[int, float] = {}
        self._registry = registry
        if registry is not None and registry.enabled:
            prefix = f"fluid.lane.{name}."
            registry.mark_fluid(prefix + "requests")
            registry.mark_fluid(prefix + "bytes")
        env.register_lane(self)

    # -- closed-form state -------------------------------------------------
    def backlog_at(self, t: float) -> float:
        """Queue depth in bytes at ``t`` (>= the last anchor)."""
        ta, ba, net = self._marks[-1]
        b = ba + net * (t - ta)
        return b if b > 0.0 else 0.0

    def wait_at(self, t: float) -> float:
        """Queueing delay seen by an arrival at ``t``."""
        w = self.backlog_at(t) / self.mu
        if t < self.outage_until:
            w += self.outage_until - t
        return w

    def base_latency(self, nbytes: int) -> float:
        """No-queue pipeline latency for one request of ``nbytes``."""
        total = self._prices.get(nbytes)
        if total is None:
            total = self.overhead
            for _, rate in self.stages:
                total += nbytes / rate
            self._prices[nbytes] = total
        return total

    # -- anchor transitions (epoch boundaries + tagged impulses) -----------
    def _append_anchor(self, t: float, backlog: float, net: float) -> None:
        if self._marks[-1][0] == t:
            self._marks[-1] = (t, backlog, net)
        else:
            self._marks.append((t, backlog, net))

    def set_inflow(self, t: float, rate: float) -> None:
        """Re-anchor with a new bulk byte inflow rate (epoch boundary)."""
        self._inflow = float(rate)
        mu_eff = 0.0 if t < self.outage_until else self.mu
        self._append_anchor(t, self.backlog_at(t), self._inflow - mu_eff)

    def set_outage(self, t: float, until: float) -> None:
        """Service outage over ``[t, until)``: backlog fills undrained.

        Outages overlap as a union: the lane stays down until the last
        open one ends.
        """
        if until <= t:
            raise ConfigError(f"outage until {until} <= start {t}")
        if until > self.outage_until:
            self.outage_until = float(until)
        self.set_inflow(t, self._inflow)

    def clear_outage(self, t: float) -> None:
        """Service resumed at ``t`` (an epoch boundary >= outage end)."""
        self.set_inflow(t, self._inflow)

    # -- charging ----------------------------------------------------------
    def offer(self, t: float, nbytes: int, tagged: bool = False) -> float:
        """Charge one request arriving at ``t``; returns its latency.

        Bulk offers are charge-only reads of the closed form (they never
        move the anchor — the envelope inflow already accounts for their
        mass).  Tagged offers are impulses: their bytes enter the
        backlog and delay everything behind them, in both modes.
        """
        if tagged:
            # One backlog read prices the wait (as wait_at does) and
            # re-anchors the lane with the request's bytes on top.
            backlog = self.backlog_at(t)
            wait = backlog / self.mu
            if t < self.outage_until:
                wait += self.outage_until - t
            base = self._prices.get(nbytes)
            if base is None:
                base = self.base_latency(nbytes)
            lat = wait + base
            self._append_anchor(t, backlog + nbytes, self._marks[-1][2])
            self.tagged_requests += 1
            self.tagged_bytes += nbytes
            self.tagged_latency_sum += lat
        else:
            lat = self.wait_at(t) + self.base_latency(nbytes)
            self.requests += 1
            self.bytes += nbytes
            self.latency_sum += lat
        return lat

    # -- the fluid epoch body ---------------------------------------------
    def epoch_end(self, t0: float, t1: float) -> None:
        """Close the epoch ``[t0, t1)``: charge bulk analytically.

        Called by :meth:`Environment.run_epoch`.  Takes the epoch bounds
        as arguments — fluid code must never read ``env.now`` (SL111).
        """
        a = t0 if t0 >= self.evented_until else self.evented_until
        if a < t1:
            self._charge(a, t1)
        net = self._marks[-1][2]
        self._marks = [(t1, self.backlog_at(t1), net)]
        registry = self._registry
        if registry is not None and registry.enabled:
            prefix = f"fluid.lane.{self.name}."
            registry.counter(prefix + "requests").value = self.fluid_requests
            registry.counter(prefix + "bytes").value = self.fluid_bytes
            registry.gauge(prefix + "backlog").set(self.backlog_at(t1))

    def _charge(self, t0: float, t1: float) -> None:
        """Series-sum the waits of every bulk arrival in ``[t0, t1)``.

        Each anchor ``(ta, ba, net)`` is in force from its instant to the
        next one, so an arrival's wait in that interval is
        ``max(0, ba + net*(t_k - ta)) / mu`` plus the outage gap — both
        linear in ``t_k``, hence exactly summable as arithmetic series.
        One numpy pass covers every (anchor interval, schedule segment)
        pair: rows are intervals, columns the schedules' active segments.
        The charges are then added one at a time in (interval, schedule)
        order: a pairwise or compensated sum would move the float totals
        by ulps, and they must not depend on how the charges were
        computed.
        """
        segs = [seg for sched in self.schedules for seg in sched._active(t0, t1)]
        if not segs:
            return
        # Column vectors, one row per anchor interval [lo, hi).
        ta, ba, net = np.array(self._marks).T[:, :, None]
        lo = np.maximum(ta, t0)
        hi = np.minimum(np.append(ta[1:], [[t1]], axis=0), t1)
        k = ArrivalSchedule._index_at(segs, np.concatenate((lo, hi))[:, 0])
        k_lo = k[:len(lo)]
        n = k[len(lo):] - k_lo
        start = np.array([seg.start for seg in segs])
        gap = np.array([seg.gap for seg in segs])
        mu = self.mu
        t_first = start + (k_lo + 0.5) * gap
        wait_first = (ba + net * (t_first - ta)) / mu
        dwait = net * gap / mu
        # Backlog clamps at zero: count the leading arrivals that still
        # see a positive backlog (it only crosses downward — anchors
        # always start with backlog >= 0).
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            drained = np.minimum(np.ceil(wait_first / -dwait), n)
        m = np.where(
            wait_first <= 0.0, 0, np.where(dwait >= 0.0, n, drained)
        ).astype(np.int64)
        wait_sum = m * wait_first + dwait * (m * (m - 1) // 2)
        # Outage edges are epoch boundaries, so no interval straddles one.
        out = self.outage_until
        t_sum = n * t_first + gap * (n * (n - 1) // 2)
        wait_sum = np.where(hi <= out, wait_sum + (n * out - t_sum), wait_sum)
        base = np.array([self.base_latency(seg.size) for seg in segs])
        live = n > 0
        for count, seg in zip(np.where(live, n, 0).sum(axis=0).tolist(), segs):
            self.requests += count
            self.bytes += count * seg.size
            self.fluid_requests += count
            self.fluid_bytes += count * seg.size
        total = self.latency_sum
        fluid = self.fluid_latency_sum
        for charge in (wait_sum + n * base)[live].tolist():
            total += charge
            fluid += charge
        self.latency_sum = total
        self.fluid_latency_sum = fluid


# ---------------------------------------------------------------------------
# Tagged flows
# ---------------------------------------------------------------------------

class TaggedRecord(NamedTuple):
    """One event-accurate tagged request, as observed."""

    tenant: str
    flow: int
    seq: int
    lane: str
    t: float
    latency: float


@dataclass(frozen=True)
class TaggedFlow:
    """One per-user flow sampled to stay fully event-accurate."""

    tenant: str
    flow_id: int
    lane_index: int
    size: int
    times: Tuple[float, ...]


def tag_flows(tenant: str, flows: int, k: int, seed: int) -> Tuple[int, ...]:
    """Seeded choice of ``k`` flow ids (of ``flows``) to tag for ``tenant``.

    Drawn from the ``fluid.tag.<tenant>`` substream so the tagged set is
    a pure function of (tenant, seed) — identical in both fidelity modes
    and stable under any event reordering.
    """
    if flows <= 0 or k < 0:
        raise ConfigError(f"tag_flows: flows={flows}, k={k} out of range")
    if k >= flows:
        return tuple(range(flows))
    stream = sim_rng(
        f"fluid.tag.{tenant}", [seed, zlib.crc32(tenant.encode("utf-8"))]
    )
    picked = stream.choice(flows, size=k, replace=False)
    return tuple(sorted(int(i) for i in picked))


def flow_arrival_times(
    envelope: RateEnvelope,
    flows: int,
    tenant: str,
    flow_id: int,
    seed: int,
) -> Tuple[float, ...]:
    """Poisson arrival instants for one flow under a piecewise-constant rate.

    Standard inversion: unit-exponential increments consumed against the
    per-flow rate ``segment.rate / flows``, carrying unused mass across
    segment edges.  A pure function of the substream, so hybrid and
    all-event runs see bit-identical tagged timelines.  The increments
    are drawn :data:`EXPONENTIAL_BLOCK` at a time: a block holds the
    values, in order, that one ``stream.exponential(1.0)`` call each
    would return.
    """
    if flows <= 0:
        raise ConfigError(f"flow_arrival_times: flows={flows} <= 0")
    stream = sim_rng(
        f"fluid.flow.{tenant}.{flow_id}",
        [seed, zlib.crc32(tenant.encode("utf-8")), flow_id],
    )
    times: List[float] = []
    draws = stream.exponential(1.0, size=EXPONENTIAL_BLOCK).tolist()
    pending, used = draws[0], 1
    for seg in envelope.segments:
        rate = seg.rate / flows
        if rate <= 0.0:
            continue
        t = seg.start
        while True:
            dt = pending / rate
            if t + dt >= seg.end:
                pending -= (seg.end - t) * rate
                break
            t += dt
            times.append(t)
            if used == len(draws):
                draws = stream.exponential(1.0, size=EXPONENTIAL_BLOCK).tolist()
                used = 0
            pending = draws[used]
            used += 1
    return tuple(times)


def _order_digest(records: Sequence[TaggedRecord]) -> str:
    """sha1 of the tagged sample order: tenant, flow, seq and lane."""
    h = hashlib.sha1()
    for r in records:
        h.update(f"{r.tenant}:{r.flow}:{r.seq}:{r.lane}\n".encode("utf-8"))
    return h.hexdigest()


def _latency_digest(records: Sequence[TaggedRecord]) -> str:
    """sha1 of the tagged arrival instants and latencies, via ``float.hex``
    (bit-exact, no repr rounding)."""
    h = hashlib.sha1()
    for r in records:
        h.update(f"{r.t.hex()}:{r.latency.hex()}\n".encode("utf-8"))
    return h.hexdigest()


def tagged_digests(records: Sequence[TaggedRecord]) -> Tuple[str, str]:
    """(sample-order sha1, latency sha1) over the tagged record stream.

    Each digest hashes only its own fields, so the pair costs one hash of
    the stream whether it is built here or read one digest at a time.
    """
    return _order_digest(records), _latency_digest(records)


# ---------------------------------------------------------------------------
# The fleet-scale scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleSpec:
    """A fleet-scale diurnal day: cohorts of users over fluid lanes.

    Times in ``bumps``/``churn``/``faults`` (and :data:`EDGE_CUT_DELAY`)
    are *fractions of the day*, so a downscaled slice (``sliced``) keeps
    the same shape.  The diurnal profile has 24 segments.  Outages on
    one lane may overlap; the lane is down over their union.
    """

    users: int = 1_000_000
    cohorts: int = 8
    day: float = 86400.0
    lanes: int = 8
    #: Open-loop request rate per user at the diurnal midline.
    rate_per_user: float = 0.02
    sample_bytes: int = 262144
    #: K: tagged (fully event-accurate) flows per cohort.
    tagged_per_cohort: int = 4
    seed: int = 42
    amplitude: float = 0.5
    #: Flash crowds: (start_frac, dur_frac, rate multiplier).
    bumps: Tuple[Tuple[float, float, float], ...] = (
        (0.38, 0.02, 3.0),
        (0.80, 0.015, 2.5),
    )
    #: Tenant churn: (cohort index, join_frac, leave_frac).
    churn: Tuple[Tuple[int, float, float], ...] = ((7, 0.30, 0.90),)
    #: Lane outages: (lane index, down_frac, up_frac).
    faults: Tuple[Tuple[int, float, float], ...] = ((0, 0.55, 0.56),)
    #: SLO bound on tagged request latency, seconds.
    slo: float = 0.01

    def validate(self) -> None:
        if self.users < self.cohorts or self.cohorts < 1:
            raise ConfigError("need users >= cohorts >= 1")
        if self.lanes < 1 or self.day <= 0 or self.rate_per_user <= 0:
            raise ConfigError("need lanes >= 1, day > 0, rate_per_user > 0")
        if self.tagged_per_cohort < 1:
            raise ConfigError("need tagged_per_cohort >= 1 (the accurate set)")
        for idx, join, leave in self.churn:
            if not (0 <= idx < self.cohorts and 0.0 <= join < leave <= 1.0):
                raise ConfigError(f"bad churn entry {(idx, join, leave)}")
        for idx, down, up in self.faults:
            if not (0 <= idx < self.lanes and 0.0 <= down < up <= 1.0):
                raise ConfigError(f"bad fault entry {(idx, down, up)}")

    def sliced(self, users: int, day: float) -> "ScaleSpec":
        """The downscaled equivalence slice: same shape, smaller fleet."""
        return replace(self, users=users, day=day)


@dataclass
class ScaleReport:
    """Everything one ``run_scale`` produced."""

    mode: str
    spec: ScaleSpec
    sim_time: float
    #: Kernel keys the run took.  In event mode these are the events it
    #: scheduled.  In hybrid mode they are the keys the tagged sweep took
    #: in place of the per-flow processes' events (a start, one timeout
    #: per request that waits, an end), though none reached the heap.
    events_scheduled: int
    bulk_requests: int = 0
    bulk_bytes: int = 0
    bulk_latency_sum: float = 0.0
    fluid_requests: int = 0
    fluid_bytes: int = 0
    tagged: List[TaggedRecord] = field(default_factory=list)
    lanes: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    # Each digest hashes only its own fields of ``tagged``, on every read:
    # reading both hashes the stream once, and nothing cached can go stale.
    @property
    def order_digest(self) -> str:
        return _order_digest(self.tagged)

    @property
    def latency_digest(self) -> str:
        return _latency_digest(self.tagged)

    @property
    def elide_ratio(self) -> float:
        """Fraction of bulk requests charged without a kernel event."""
        return self.fluid_requests / self.bulk_requests if self.bulk_requests else 0.0

    def tagged_percentiles(self) -> dict:
        """Exact (nearest-rank) latency percentiles of the tagged set."""
        lats = sorted(r.latency for r in self.tagged)
        if not lats:
            return {"count": 0}
        def rank(p: float) -> float:
            i = math.ceil(p * len(lats)) - 1
            return lats[max(0, min(i, len(lats) - 1))]
        return {
            "count": len(lats),
            "p50": rank(0.50),
            "p90": rank(0.90),
            "p99": rank(0.99),
            "p999": rank(0.999),
            "max": lats[-1],
            "slo_violations": sum(1 for v in lats if v > self.spec.slo),
        }

    def summary(self) -> dict:
        out = {
            "mode": self.mode,
            "users": self.spec.users,
            "day": self.spec.day,
            "lanes": len(self.lanes),
            "sim_time": self.sim_time,
            "events_scheduled": self.events_scheduled,
            "bulk_requests": self.bulk_requests,
            "bulk_bytes": self.bulk_bytes,
            "fluid_requests": self.fluid_requests,
            "elide_ratio": self.elide_ratio,
            "order_digest": self.order_digest,
            "latency_digest": self.latency_digest,
            "tagged": self.tagged_percentiles(),
        }
        return out


def _cohort_envelopes(spec: ScaleSpec) -> List[Tuple[str, RateEnvelope, int]]:
    """Per-cohort (name, envelope, flows) with churn windows applied."""
    flows = spec.users // spec.cohorts
    churn_by_cohort = {idx: (join, leave) for idx, join, leave in spec.churn}
    out = []
    for c in range(spec.cohorts):
        active = None
        window = churn_by_cohort.get(c)
        if window is not None:
            active = (window[0] * spec.day, window[1] * spec.day)
        envelope = RateEnvelope.diurnal(
            base_rate=flows * spec.rate_per_user,
            size=spec.sample_bytes,
            day=spec.day,
            amplitude=spec.amplitude,
            bumps=spec.bumps,
            active=active,
        )
        out.append((f"cohort{c}", envelope, flows))
    return out


def _bulk_emitter(env, lane: FluidLane, sched: ArrivalSchedule, end: float):
    """All-event bulk: one real kernel event per scheduled arrival."""
    for t_k, size in sched.arrivals_between(0.0, end):
        delay = t_k - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        lane.offer(t_k, size)


def _tagged_process(env, lane: FluidLane, flow: TaggedFlow,
                    records: List[TaggedRecord]):
    """One tagged flow as a kernel process: a timeout per request.

    Tagged requests are offered one at a time in kernel order: by these
    processes in all-event mode, and by :class:`_TaggedSweep` in hybrid
    mode, which replays them and is tested against them.
    """
    seq = 0
    for t in flow.times:
        delay = t - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        lat = lane.offer(t, flow.size, tagged=True)
        records.append(TaggedRecord(
            tenant=flow.tenant, flow=flow.flow_id, seq=seq,
            lane=lane.name, t=t, latency=lat,
        ))
        seq += 1


class _TaggedSweep:
    """Hybrid mode's tagged flows: one heap in place of a process each.

    It does what one :func:`_tagged_process` per flow does in a kernel
    that runs nothing else.  A heap entry ``(fire, key, lane, flow, i,
    due)`` resumes ``flow`` at ``fire``; ``due`` says that its timeout
    for ``flow.times[i]`` fired.  The first resume (``due`` false) is
    the process's start event.  Entries pop in the kernel's ``(time,
    key)`` order, each fire time is the kernel's ``now + (t - now)``,
    and keys come from the kernel's numbering (``env._eid``, plus a
    sanitizer rank under a tiebreak factory) where a process takes one:
    its start, each timeout and its end.  So every request is offered
    at the same instant and in the same order as by the processes, and
    ``env._eid`` and the ranks drawn come out the same.
    """

    def __init__(self, env, records: List[TaggedRecord]) -> None:
        self._env = env
        self._records = records
        self._heap: list = []

    def _key(self):
        """The next kernel key, as ``Environment._post_at`` takes it."""
        env = self._env
        env._eid += 1
        return env._eid if env._tiebreak is None else env._ranked_key()

    def add(self, lane: FluidLane, flow: TaggedFlow) -> None:
        """Start ``flow`` on ``lane`` now, as ``env.process`` would."""
        heapq.heappush(
            self._heap, (self._env.now, self._key(), lane, flow, 0, False)
        )

    def run(self, until: float) -> Optional[float]:
        """Resume every flow due at or before ``until``, as the kernel's
        ``run(until)`` would; returns the last fire time resumed."""
        heap = self._heap
        records = self._records
        env = self._env
        now = None
        while heap and heap[0][0] <= until:
            now, _, lane, flow, i, due = heapq.heappop(heap)
            times = flow.times
            n = len(times)
            while i < n:
                t = times[i]
                if not due and t - now > 0.0:
                    # The process's next timeout (key taken inline, as
                    # the kernel's own post sites do).
                    env._eid += 1
                    key = env._eid if env._tiebreak is None else env._ranked_key()
                    heapq.heappush(heap, (now + (t - now), key, lane, flow, i, True))
                    break
                due = False
                records.append(TaggedRecord(
                    flow.tenant, flow.flow_id, i, lane.name, t,
                    lane.offer(t, flow.size, True),
                ))
                i += 1
            else:
                self._key()  # the process's end event
        return now

    def drain(self) -> None:
        """Resume every remaining flow, as ``env.run()`` would after the
        last epoch, leaving ``env.now`` at the last fire time."""
        if self._heap:
            self._env.now = self.run(math.inf)  # simlint: disable=SL112 -- replays kernel steps, so sets the clock their run would


def _boundaries(spec: ScaleSpec, cohorts=None) -> List[float]:
    """Epoch boundaries: envelope edges, faults, churn, and the cuts
    :data:`EDGE_CUT_DELAY` after each fault/churn edge."""
    edges = [0.0, spec.day]
    if cohorts is None:
        cohorts = _cohort_envelopes(spec)
    for _, envelope, _ in cohorts:
        edges.extend(envelope.boundaries())
    delay = EDGE_CUT_DELAY * spec.day
    forcing = []
    for _, down, up in spec.faults:
        forcing.extend([down * spec.day, up * spec.day])
    for _, join, leave in spec.churn:
        forcing.extend([join * spec.day, leave * spec.day])
    edges.extend(forcing)
    edges.extend(t + delay for t in forcing if t + delay < spec.day)
    cut = sorted(e for e in edges if 0.0 <= e <= spec.day)
    out: List[float] = []
    for e in cut:
        if not out or e > out[-1]:
            out.append(e)
    return out


def run_scale(
    spec: ScaleSpec,
    mode: str = "hybrid",
    registry=None,
    envelopes=None,
) -> ScaleReport:
    """Simulate the fleet-scale day at the requested fidelity.

    ``mode="hybrid"`` charges every bulk arrival analytically at epoch
    boundaries and offers the tagged requests from one sweep
    (:class:`_TaggedSweep`), so the kernel processes no event;
    ``mode="event"`` runs every bulk arrival and tagged request as a
    kernel event.  Both share the epoch cuts, anchor trajectory,
    schedules, and tagged substreams, so tagged results are
    bit-identical (see :func:`equivalence_check`).

    ``envelopes`` overrides the built-in diurnal cohort envelopes with
    explicit ``(name, RateEnvelope, flows)`` triples — the scenario DSL
    compiles its phase timelines into these.  Each envelope must span
    exactly ``[0, spec.day]``.
    """
    if mode not in ("hybrid", "event"):
        raise ConfigError(f"unknown scale mode {mode!r}")
    spec.validate()
    if envelopes is not None:
        for name, envelope, flows in envelopes:
            if envelope.start != 0.0 or envelope.end != spec.day:
                raise ConfigError(
                    f"cohort {name!r}: envelope spans "
                    f"[{envelope.start}, {envelope.end}], expected [0, {spec.day}]"
                )
            if flows < 1:
                raise ConfigError(f"cohort {name!r}: flows {flows} < 1")
    from ..cluster.node import fluid_lane_stages
    from .engine import Environment
    env = Environment()
    # Service stages for one lane, from the hardware/transfer models.
    stages = fluid_lane_stages()
    lanes = [
        FluidLane(env, f"lane{i}", stages, registry=registry)
        for i in range(spec.lanes)
    ]
    cohorts = list(envelopes) if envelopes is not None else _cohort_envelopes(spec)
    records: List[TaggedRecord] = []
    # Hybrid mode runs no other event, so one sweep replays the tagged
    # flows' processes; event mode interleaves them with the bulk.
    sweep = _TaggedSweep(env, records) if mode == "hybrid" else None

    # Bulk schedules: each cohort's non-tagged mass, split evenly over
    # lanes (the front-end balancer's fluid share).
    from ..cluster.serving import fluid_bulk_shares
    shares = fluid_bulk_shares(spec.lanes)
    for name, envelope, flows in cohorts:
        k = min(spec.tagged_per_cohort, flows)
        bulk_frac = (flows - k) / flows
        for lane, share in zip(lanes, shares):
            lane.schedules.append(
                ArrivalSchedule(envelope, fraction=bulk_frac * share)
            )

    # Tagged flows: seeded choice per cohort, round-robin over lanes.
    for name, envelope, flows in cohorts:
        k = min(spec.tagged_per_cohort, flows)
        for j, flow_id in enumerate(tag_flows(name, flows, k, spec.seed)):
            flow = TaggedFlow(
                tenant=name,
                flow_id=flow_id,
                lane_index=j % spec.lanes,
                size=spec.sample_bytes,
                times=flow_arrival_times(
                    envelope, flows, name, flow_id, spec.seed
                ),
            )
            lane = lanes[flow.lane_index]
            if sweep is not None:
                sweep.add(lane, flow)
            else:
                env.process(
                    _tagged_process(env, lane, flow, records),
                    name=f"tagged.{name}.{flow_id}",
                )

    if mode == "event":
        for lane in lanes:
            lane.evented_until = math.inf
            for sched in lane.schedules:
                env.process(
                    _bulk_emitter(env, lane, sched, spec.day),
                    name=f"bulk.{lane.name}",
                )

    edges = _boundaries(spec, cohorts)
    for a, b in zip(edges, edges[1:]):
        for idx, down, up in spec.faults:
            if down * spec.day == a:
                lanes[idx].set_outage(a, up * spec.day)
        # Re-anchoring every lane also brings back a lane whose last
        # open outage ended at ``a``.
        for li, lane in enumerate(lanes):
            inflow = 0.0
            for sname, envelope, flows in cohorts:
                k = min(spec.tagged_per_cohort, flows)
                inflow += (
                    envelope.bytes_rate_at(a) * ((flows - k) / flows) * shares[li]
                )
            lane.set_inflow(a, inflow)
        if sweep is not None:
            sweep.run(b)
        env.run_epoch(until=b)
    env.run()
    if sweep is not None:
        sweep.drain()

    report = ScaleReport(
        mode=mode,
        spec=spec,
        sim_time=env.now,
        events_scheduled=env._eid,
        tagged=records,
    )
    for lane in lanes:
        report.bulk_requests += lane.requests
        report.bulk_bytes += lane.bytes
        report.bulk_latency_sum += lane.latency_sum
        report.fluid_requests += lane.fluid_requests
        report.fluid_bytes += lane.fluid_bytes
        report.lanes.append({
            "name": lane.name,
            "requests": lane.requests,
            "bytes": lane.bytes,
            "latency_sum": lane.latency_sum,
            "fluid_requests": lane.fluid_requests,
            "fluid_bytes": lane.fluid_bytes,
            "tagged_requests": lane.tagged_requests,
            "tagged_latency_sum": lane.tagged_latency_sum,
        })
    if registry is not None and registry.enabled:
        report.metrics = registry.dump()
    return report


def equivalence_check(spec: ScaleSpec, envelopes=None) -> dict:
    """The tagged-flow equivalence obligation, on one spec.

    Runs both fidelity modes and demands: exact tagged sample-order and
    latency digests, integer-exact per-lane bulk request/byte counters,
    and aggregate bulk latency sums within :data:`EQUIVALENCE_EPSILON`
    (relative).  Returns a JSON-able verdict.
    """
    hybrid = run_scale(spec, mode="hybrid", envelopes=envelopes)
    event = run_scale(spec, mode="event", envelopes=envelopes)
    failures: List[str] = []
    if hybrid.order_digest != event.order_digest:
        failures.append("tagged sample-order digest mismatch")
    if hybrid.latency_digest != event.latency_digest:
        failures.append("tagged latency digest mismatch")
    for hl, el in zip(hybrid.lanes, event.lanes):
        if hl["requests"] != el["requests"]:
            failures.append(
                f"{hl['name']}: requests {hl['requests']} != {el['requests']}"
            )
        if hl["bytes"] != el["bytes"]:
            failures.append(
                f"{hl['name']}: bytes {hl['bytes']} != {el['bytes']}"
            )
        if hl["tagged_latency_sum"] != el["tagged_latency_sum"]:
            failures.append(f"{hl['name']}: tagged latency sum mismatch")
        scale = max(abs(hl["latency_sum"]), abs(el["latency_sum"]), 1.0)
        if abs(hl["latency_sum"] - el["latency_sum"]) > EQUIVALENCE_EPSILON * scale:
            failures.append(
                f"{hl['name']}: bulk latency sum off by "
                f"{abs(hl['latency_sum'] - el['latency_sum']) / scale:.3e} "
                f"(> {EQUIVALENCE_EPSILON:g} relative)"
            )
    return {
        "ok": not failures,
        "failures": failures,
        "epsilon": EQUIVALENCE_EPSILON,
        "order_digest": hybrid.order_digest,
        "latency_digest": hybrid.latency_digest,
        "hybrid_events": hybrid.events_scheduled,
        "event_events": event.events_scheduled,
        "bulk_requests": event.bulk_requests,
        "elide_ratio": hybrid.elide_ratio,
    }
