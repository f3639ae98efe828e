"""The subsystem benchmarks: the chaos sweep, multi-tenant fairness and
isolation, replicated-cluster scaling, failover and isolation, and the
transform tier's pushdown crossover.  None is a paper figure.  Each
function runs one subsystem end to end at a fixed size and returns a
:class:`~repro.bench.figures.FigureResult` named after its table under
``benchmarks/results/``, whose claim bands are that subsystem's
acceptance bars.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..faults import ZERO_PLAN, FaultPlan
from ..hw.platform import Testbed
from ..tenancy import TenantSpec, TenantWorkload
from ..xform import XformSpec, augment, decompress, tfrecord_parse
from . import workloads as W
from .figures import FigureResult

__all__ = [
    "chaos",
    "tenancy_fairness",
    "tenancy_isolation",
    "cluster_scaling",
    "cluster_failover",
    "cluster_isolation",
    "xform_crossover",
]


# ---------------------------------------------------------------------------
# Fault injection (repro.faults)

#: Per-command media-error rates swept (0.0 = the pay-for-use baseline).
RATES = (0.0, 0.001, 0.01, 0.05)


def plan_for(rate: float) -> FaultPlan:
    if rate == 0.0:
        return ZERO_PLAN
    return FaultPlan(
        seed=7,
        media_error_rate=rate,
        timeout_rate=rate / 5.0,
        qpair_reset_period=2e-3,
    )


def chaos() -> FigureResult:
    """DLFS throughput and accounting under escalating faults.

    Media errors plus periodic qpair resets at increasing rates, two
    full epochs on two nodes each.  The zero plan must be fault-free,
    every rate must account for every expected sample
    (``delivered + failed == expected``) and deliver, and recovery must
    retry once faults are injected.
    """
    result = FigureResult(
        figure="chaos",
        title="Chaos sweep: media errors + timeouts (rate / 5) + 2 ms "
              "qpair resets (4 KB samples, 2 nodes, 2 epochs)",
        x_label="media-error rate",
        y_label="samples/s, samples, counts, seconds",
    )
    runs = {}
    for rate in RATES:
        # Sample-level batching: one SPDK command per sample, so the
        # per-command rates bite at sweep scale.
        r = runs[rate] = W.dlfs_readers(
            W.Readers(epochs=2),
            num_clients=2,
            num_samples=1024,
            sample_bytes=4096,
            batching="sample",
            fault_plan=plan_for(rate),
        )
        for name, value in (
            ("samples/s", r.sample_throughput),
            ("expected", r.expected),
            ("delivered", r.delivered),
            ("failed", r.failed),
            ("fault kinds", len(r.fault_counts)),
            ("retries", r.recovery.get("retries", 0)),
            ("resets", r.recovery.get("resets", 0)),
            ("degraded s", r.recovery.get("degraded_time", 0.0)),
        ):
            result.series.setdefault(name, {})[rate] = value
    # The zero plan is fault-free: no losses, no recovery activity.
    result.band("zero plan: failed samples", runs[0.0].failed, le=0)
    result.band("zero plan: fault kinds injected",
                len(runs[0.0].fault_counts), le=0)
    # Graceful degradation: every epoch completes at every rate.
    result.band("|delivered + failed - expected|, max over rates",
                max(abs(r.delivered + r.failed - r.expected)
                    for r in runs.values()), le=0)
    result.band("delivered, min over rates",
                min(r.delivered for r in runs.values()), gt=0)
    # Recovery actually engages once faults are injected.
    result.band("retries, max over the fault rates",
                max(r.recovery.get("retries", 0)
                    for rate, r in runs.items() if rate > 0), gt=0)
    return result


# ---------------------------------------------------------------------------
# Multi-tenant serving (repro.tenancy)
#
# Shares are measured at the device-service level over the saturation
# window [warmup, horizon] (see FairScheduler.bytes_served): job-level
# byte accounting over-credits backlogged tenants whose jobs dedup onto
# already-pending fetches, and whole-run shares equalize during the
# drain because every admitted job eventually completes.

#: Weight vectors swept by the fairness table.
WEIGHT_SETS = ((1.0, 1.0, 1.0), (1.0, 2.0, 4.0), (1.0, 3.0, 8.0))
TENANCY_HORIZON = 0.05
TENANCY_WARMUP = TENANCY_HORIZON / 5
#: Acceptance bars.
FAIRNESS_TOLERANCE = 0.05
ISOLATION_RATIO = 2.0


def tenancy_fairness() -> FigureResult:
    """Achieved device-service share vs configured weight share.

    Under saturation (equal offered load, disjoint sample ranges, cache
    much smaller than the working set) each tenant's share must be
    within ``FAIRNESS_TOLERANCE`` of its SFQ weight share, for every
    weight vector.
    """
    result = FigureResult(
        figure="tenancy_fairness",
        title="Tenancy: device-service share vs SFQ weight share "
              "(saturation window)",
        x_label="weights, tenant",
        y_label="share of device service",
    )
    want_s = result.series["weight share"] = {}
    got_s = result.series["achieved"] = {}
    err_s = result.series["error"] = {}
    for weights in WEIGHT_SETS:
        specs, workloads = W.fair_tenants(weights=weights)
        report = W.dlfs_tenancy(
            specs=specs, workloads=workloads,
            horizon=TENANCY_HORIZON, warmup=TENANCY_WARMUP,
        )
        total_w = sum(s.weight for s in specs)
        for s in specs:
            want = s.weight / total_w
            got = report.service_shares.get(s.name, 0.0)
            row = f"{':'.join(f'{w:g}' for w in weights)} {s.name}"
            want_s[row], got_s[row] = want, got
            err_s[row] = abs(got - want) / want
    result.band("share error / weight share, max over tenants and weight "
                "sets", max(err_s.values()), le=FAIRNESS_TOLERANCE)
    return result


def tenancy_isolation() -> FigureResult:
    """A victim trainer's window p99 job latency with a bursty,
    fault-injected neighbor must stay within ``ISOLATION_RATIO`` of its
    solo p99."""
    specs = (
        TenantSpec(name="victim", weight=2.0),
        TenantSpec(
            name="noisy", weight=1.0, priority=2,
            qpair_share=0.5, cache_share=0.25,
        ),
    )
    victim = TenantWorkload(
        name="victim", kind="train", batch=16, concurrency=2,
        sample_lo=0, sample_hi=1024,
    )
    noisy = TenantWorkload(
        name="noisy", kind="bursty", rate=2000.0, batch=32,
        sample_lo=1024, sample_hi=3072,
    )

    def victim_p99(report) -> float:
        return next(row["p99"] for row in report.window_rows
                    if row["tenant"] == "victim")

    solo = W.dlfs_tenancy(
        specs=specs, workloads=(victim,),
        horizon=TENANCY_HORIZON, warmup=TENANCY_WARMUP,
    )
    duo = W.dlfs_tenancy(
        specs=specs, workloads=(victim, noisy),
        horizon=TENANCY_HORIZON, warmup=TENANCY_WARMUP,
        fault_plan=FaultPlan(seed=7, tenant_faults=(("noisy", 0.1),)),
    )
    result = FigureResult(
        figure="tenancy_isolation",
        title="Tenancy: victim p99 beside a bursty neighbor with 10% "
              "injected media errors (saturation window)",
        x_label="victim run",
        y_label="seconds",
    )
    p99 = result.series["victim p99"] = {
        "solo": victim_p99(solo),
        "with neighbor": victim_p99(duo),
    }
    result.band("victim p99: with neighbor / solo",
                p99["with neighbor"] / p99["solo"] if p99["solo"] > 0
                else float("inf"), le=ISOLATION_RATIO)
    return result


# ---------------------------------------------------------------------------
# Replicated cluster serving (repro.cluster)
#
# Windows are measured from the per-job completion records
# (RunReport.records), not whole-run aggregates, so the drain tail after
# the arrival horizon cannot mask degradation.

#: (storage nodes, clients) pairs of the scaling table.
FLEETS = ((2, 1), (4, 2), (8, 4))
CLUSTER_HORIZON = 0.02
#: Per-client throughput at every fleet vs the smallest fleet's.
SCALING_EFFICIENCY = 0.75
#: Victim-window p99 bound, as a multiple of the no-crash baseline.
P99_DEGRADATION = 3.0
#: Post-rejoin throughput must match the baseline within this fraction.
RECOVERY_TOLERANCE = 0.05
#: Seconds past the rejoin instant where the victim window ends.
VICTIM_TAIL = 0.002
#: Seconds past the rejoin instant where the post-rejoin window starts
#: (detect delay + reconnect + re-warm + pipeline refill).
SETTLE_MARGIN = 0.005

CRASH_LANE = 1
CRASH_T = 0.006
REJOIN_T = 0.012


def cluster_scaling() -> FigureResult:
    """Growing the fleet (storage nodes and clients together, so
    per-node offered load is constant) must scale delivered throughput
    near-linearly: per-client throughput at every fleet within
    ``SCALING_EFFICIENCY`` of the smallest fleet's, losing no sample."""
    result = FigureResult(
        figure="cluster_scaling",
        title="Cluster: healthy fleet scaling (R=2, one client per two "
              "storage nodes, 20 ms)",
        x_label="storage nodes",
        y_label="samples/s",
    )
    s = result.series
    for storage, clients in FLEETS:
        r = W.dlfs_cluster(
            num_storage=storage, num_clients=clients, replicas=2,
            horizon=CLUSTER_HORIZON,
        )
        for name, value in (
            ("clients", clients),
            ("samples/s", r.sample_throughput),
            ("per client", r.sample_throughput / clients),
            ("failed", r.failed),
        ):
            s.setdefault(name, {})[storage] = value
    baseline = s["per client"][FLEETS[0][0]]
    s["efficiency"] = {
        storage: per_client / baseline if baseline else 0.0
        for storage, per_client in s["per client"].items()
    }
    result.band("per-client efficiency, min over fleets",
                min(s["efficiency"].values()), ge=SCALING_EFFICIENCY)
    result.band("failed samples, sum over fleets",
                sum(s["failed"].values()), le=0)
    return result


def _window_p99(report, lo: float, hi: float) -> float:
    lats = [rec[2] for rec in report.records if lo <= rec[0] < hi]
    return float(np.percentile(lats, 99)) if lats else 0.0


def _window_delivered(report, lo: float, hi: float) -> int:
    return sum(rec[3] for rec in report.records if lo <= rec[0] < hi)


def cluster_failover() -> FigureResult:
    """One seeded node crash + rejoin under live traffic vs the no-crash
    baseline, on 8 storage nodes and 2 clients.

    The crash run must lose zero samples, keep the job p99 of the victim
    window ``[crash, rejoin + VICTIM_TAIL)`` within ``P99_DEGRADATION``
    of the baseline's, and deliver within ``RECOVERY_TOLERANCE`` of the
    baseline's samples over the post-rejoin window
    ``[rejoin + SETTLE_MARGIN, horizon)``.  A 4-node fleet loses 25%
    capacity to one crash and its degradation tail outlives any
    sensible settle margin.
    """
    base = W.dlfs_cluster(
        num_storage=8, num_clients=2, replicas=2, horizon=CLUSTER_HORIZON,
    )
    crash = W.dlfs_cluster(
        num_storage=8, num_clients=2, replicas=2, horizon=CLUSTER_HORIZON,
        node_crashes=((CRASH_LANE, CRASH_T, REJOIN_T),),
    )
    victim_lo, victim_hi = CRASH_T, REJOIN_T + VICTIM_TAIL
    recover_lo = REJOIN_T + SETTLE_MARGIN
    result = FigureResult(
        figure="cluster_failover",
        title=f"Cluster: lane {CRASH_LANE} crashes at {CRASH_T * 1e3:g} ms "
              f"and rejoins at {REJOIN_T * 1e3:g} ms (8 storage nodes, "
              f"2 clients, R=2)",
        x_label="run",
        y_label="samples, seconds",
    )
    for label, r in (("baseline", base), ("crash", crash)):
        for name, value in (
            ("delivered", r.delivered),
            ("failed", r.failed),
            ("victim-window p99", _window_p99(r, victim_lo, victim_hi)),
            ("post-rejoin delivered",
             _window_delivered(r, recover_lo, CLUSTER_HORIZON)),
        ):
            result.series.setdefault(name, {})[label] = value
    result.notes.append(
        f"victim window [{victim_lo * 1e3:g}, {victim_hi * 1e3:g}) ms, "
        f"post-rejoin window [{recover_lo * 1e3:g}, "
        f"{CLUSTER_HORIZON * 1e3:g}) ms"
    )
    p99 = result.series["victim-window p99"]
    thr = result.series["post-rejoin delivered"]
    result.band("crash: failed samples", crash.failed, le=0)
    result.band("victim-window p99: crash / baseline",
                p99["crash"] / p99["baseline"] if p99["baseline"] > 0
                else float("inf"), le=P99_DEGRADATION)
    thr_ratio = (thr["crash"] / thr["baseline"] if thr["baseline"]
                 else float("inf"))
    result.band("abs(1 - post-rejoin delivered: crash / baseline)",
                abs(1.0 - thr_ratio), le=RECOVERY_TOLERANCE)
    return result


def cluster_isolation() -> FigureResult:
    """The preset's tenant mix (closed-loop ``train`` beside the
    open-loop ``serve`` tenant) must keep serve's job p99 within its
    own SLO, with zero SLO misses.

    The run is long enough for train's sample range to become
    cache-resident (near 50 ms on the full fleet): from then on train's
    jobs are cache hits that keep every reactor's SCQ busy, and a poll
    loop that drained the SCQ before posting starved serve's fetches of
    qpair slots.
    """
    specs, workloads = W.cluster_tenants()
    slo = {s.name: s.slo_latency for s in specs}
    workers = {w.name: w.concurrency for w in workloads}["train"]
    r = W.dlfs_cluster(horizon=0.1)
    result = FigureResult(
        figure="cluster_isolation",
        title=f"Cluster: serve beside {workers} closed-loop train workers "
              f"per client (the cluster preset, 100 ms)",
        x_label="tenant",
        y_label="jobs, seconds",
    )
    for row in r.per_tenant:
        for name, value in (
            ("jobs", row["jobs"]),
            ("p50", row["p50"]),
            ("p99", row["p99"]),
            ("SLO", slo[row["tenant"]]),
            ("SLO misses", row["slo_violations"]),
        ):
            result.series.setdefault(name, {})[row["tenant"]] = value
    result.band("serve p99", result.series["p99"]["serve"], le=slo["serve"])
    result.band("serve SLO misses", result.series["SLO misses"]["serve"],
                le=0)
    return result


# ---------------------------------------------------------------------------
# Fetch/transform disaggregation (repro.xform)

GB = 1e9

#: Selectivity axis: shrinking augmentations below 1, decompression
#: inflation above.
SELECTIVITIES = (0.25, 0.5, 1.0, 2.0)
#: Fabric bandwidth axis (bytes/s).
BANDWIDTHS = (1.5 * GB, 3.0 * GB, 6.0 * GB)
#: Cells where full pushdown must WIN (selectivity, bandwidth).
CROSSOVER_WIN = tuple(
    (s, b) for s in (0.25, 0.5) for b in (1.5 * GB, 3.0 * GB)
)
#: Cells where full pushdown must LOSE.
CROSSOVER_LOSE = tuple(
    [(2.0, b) for b in BANDWIDTHS] + [(s, 6.0 * GB) for s in SELECTIVITIES]
)
#: Cost placement vs the better static extreme, per cell.
COST_TRACKING = 0.95
#: Win/lose bands ignore gaps smaller than this fraction — cells on
#: the crossover itself are ties, not wrong-side results.
TIE_BAND = 0.03

#: Per-byte CPU cost of the swept stage — light enough that the wire
#: term can dominate on a constrained fabric (the crossover needs both
#: regimes reachable).
STAGE_PER_BYTE = 0.5e-9


def _stages(selectivity: float) -> tuple:
    """parse + one swept stage: augment shrinks, decompress inflates."""
    if selectivity <= 1.0:
        swept = augment(selectivity=selectivity, per_byte=STAGE_PER_BYTE)
    else:
        swept = decompress(ratio=selectivity, per_byte=STAGE_PER_BYTE)
    return (tfrecord_parse(), swept)


def _testbed(bandwidth: float) -> Testbed:
    tb = Testbed.paper_emulated()
    return dataclasses.replace(
        tb, network=dataclasses.replace(tb.network, bandwidth=bandwidth)
    )


def _cell(selectivity: float, bandwidth: float) -> str:
    return f"{selectivity:g} @ {bandwidth / GB:g} GB/s"


def xform_crossover() -> FigureResult:
    """The pushdown crossover over stage selectivity (output bytes /
    input bytes) and fabric bandwidth.

    Every cell runs the same serving workload with
    ``placement="worker"`` (ship raw bytes, transform on the worker
    pool), ``"storage"`` (OffloadFS-style full pushdown onto the
    storage nodes' cores) and ``"cost"`` (the analytic boundary):

    * **pushdown wins where it should** — at selectivity < 1 under a
      constrained fabric, shipping the shrunken bytes beats shipping
      raw in every ``CROSSOVER_WIN`` cell;
    * **pushdown loses where it should** — when the stage inflates the
      record or the fabric is fast enough that storage CPU is the
      scarce resource (2 nodes x 1 pushdown core vs 2 workers x 2
      cores), in every ``CROSSOVER_LOSE`` cell.  Both bands tolerate a
      ``TIE_BAND`` margin: cells sitting *on* the crossover are
      near-ties whose sign flips with the sample count;
    * **the cost model tracks the winner** — cost placement reaches at
      least ``COST_TRACKING`` of the better static extreme in every
      cell, and no run fails a sample.
    """
    result = FigureResult(
        figure="xform_crossover",
        title="Transform tier: pushdown crossover (2 storage nodes x 1 "
              "pushdown core, 2 workers x 2 cores, 2 clients, 6 ms)",
        x_label="selectivity @ fabric",
        y_label="samples/s by placement",
    )
    s = result.series
    for sel in SELECTIVITIES:
        for bw in BANDWIDTHS:
            runs = {
                placement: W.dlfs_xform(
                    num_storage=2, num_clients=2, num_samples=1024,
                    horizon=0.006,
                    spec=XformSpec(stages=_stages(sel), workers=2,
                                   placement=placement),
                    testbed=_testbed(bw),
                )
                for placement in ("worker", "storage", "cost")
            }
            cell = _cell(sel, bw)
            for placement, r in runs.items():
                s.setdefault(placement, {})[cell] = r.sample_throughput
            s.setdefault("cost boundary", {})[cell] = (
                runs["cost"].tier["boundary"])
            s.setdefault("failed", {})[cell] = sum(
                r.failed for r in runs.values())
            if (sel, bw) in ((0.25, 1.5 * GB), (2.0, 6.0 * GB)):
                # Each tier's CPU under full pushdown at the grid's corners.
                result.notes.append(
                    f"storage placement CPU at {cell}: " + " ".join(
                        f"{u['tier']}/{u['node']}={u['cpu']:.0%}"
                        for u in runs["storage"].utilization))

    def storage_over_worker(sel: float, bw: float) -> float:
        return s["storage"][_cell(sel, bw)] / s["worker"][_cell(sel, bw)]

    result.band("storage / worker, min over the win cells",
                min(storage_over_worker(*c) for c in CROSSOVER_WIN),
                ge=1 - TIE_BAND)
    result.band("storage / worker, max over the lose cells",
                max(storage_over_worker(*c) for c in CROSSOVER_LOSE),
                le=1 + TIE_BAND)
    result.band("failed samples, sum over all runs",
                sum(s["failed"].values()), le=0)
    best = {cell: max(s["worker"][cell], s["storage"][cell])
            for cell in s["cost"]}
    result.band("cost / best static placement, min over cells",
                min(s["cost"][cell] / b if b else 0.0
                    for cell, b in best.items()),
                ge=COST_TRACKING)
    return result
