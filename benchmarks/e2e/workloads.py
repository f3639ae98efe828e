"""The benchmark's five workloads, each a thin adapter over one public driver.

An adapter takes ``(seed, scale, metrics, probe)``: the workload seed,
a size divisor (1 for measured runs, 20 for ``--smoke``), whether the
driver should fill its sim-side metrics registry, and the :class:`Probe`
wrapped around the drivers.  It returns an :class:`Outcome`, the one
shape the harness measures and checks, so a refactor of the drivers only
has to re-point the adapters.

Why these five (README.md has the full table):

* ``ingest``    - the paper's headline datapath: chunk batching on the
  fast path (no fault injector), closed loop, a 300k-entry directory.
* ``serve``     - the same layers through the reference NVMe/qpair path
  (a fault plan is installed) under three-tenant fair-queued serving.
* ``failover``  - the replicated cluster tier through two crash/rejoin
  windows: balancer, failover, handoff, rewarm, fabric.
* ``pushdown``  - the fetch/transform tier with a worker crash.
* ``fleet-day`` - the fluid engine's diurnal day.  It calls none of the
  datapath, tenancy, cluster or xform code, so a change there must leave
  it unchanged.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
from repro.bench.workloads import dlfs_cluster, dlfs_observed, dlfs_tenancy, dlfs_xform
from repro.core.api import DLFS, DLFSClient
from repro.faults import FaultPlan
from repro.sim.engine import Environment
from repro.sim.fluid import ScaleSpec, run_scale
from repro.tenancy import TenantSpec, TenantWorkload
from repro.tenancy.slo import TenantAccounting
from repro.tenancy.traffic import TrafficEngine
from repro.xform import XformSpec, parse_stages

KIB = 1024


@dataclass
class Outcome:
    """What one workload run produced, in driver-independent terms."""

    #: Samples (fleet-day: bulk requests) completed per simulated second.
    throughput: float
    #: Samples delivered / lost to unrecoverable faults.
    delivered: int
    failed: int
    #: Simulated latencies, in seconds, of the latency-bound traffic: the
    #: SLO tenant's jobs timed from their scheduled arrival, the tagged
    #: fleet requests, or (ingest) the closed-loop batch reads.
    latencies: list
    #: That traffic's jobs attempted and missing their SLO (late, failed
    #: or refused); zero when it has no SLO.
    slo_attempted: int = 0
    slo_missed: int = 0
    #: Determinism witness: sample-order digest plus ``sim_time.hex()``.
    witness: str = ""
    #: Correctness violations found by the adapter's checks.
    violations: list = field(default_factory=list)
    #: Sim-side per-layer metrics (``sim.*`` names).
    counters: dict = field(default_factory=dict)


class Probe:
    """Observers wrapped around public driver entry points while in use.

    ``with Probe() as probe:`` installs the wrappers and the exit
    restores the originals.  Every wrapper only records; none touches
    simulation state, so a probed run is the same simulation as an
    unprobed one.
    """

    def __init__(self) -> None:
        self.envs: list = []
        #: ``time.perf_counter()`` when the first ``DLFS.mount`` returned.
        self.mounted_at: float | None = None
        self.datasets: list = []
        self.engines: list = []
        #: ``(tenant, latency, delivered, failed)`` per completed job.
        self.jobs: list = []
        #: Sim seconds per ``DLFSClient.bread`` call.
        self.batch_latencies: list = []
        self._saved: list = []

    def __enter__(self) -> "Probe":
        probe = self
        env_init = Environment.__init__
        mount = DLFS.mount.__func__
        bread = DLFSClient.bread
        engine_init = TrafficEngine.__init__
        job_done = TenantAccounting.on_job_done

        def environment(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            probe.envs.append(env)

        def mounted(cls, *args, **kwargs):
            fs = mount(cls, *args, **kwargs)
            probe.datasets.append(fs.dataset)
            if probe.mounted_at is None:
                probe.mounted_at = time.perf_counter()  # simlint: disable=SF201 -- host-time split, never read by the simulation
            return fs

        def timed_bread(client, count=None):
            t0 = client.env.now
            samples = yield from bread(client, count)
            probe.batch_latencies.append(client.env.now - t0)
            return samples

        def engine(eng, *args, **kwargs):
            engine_init(eng, *args, **kwargs)
            probe.engines.append(eng)

        def on_job_done(acct, tenant, latency, delivered, failed, nbytes):
            probe.jobs.append((tenant, latency, delivered, failed))
            job_done(acct, tenant, latency, delivered, failed, nbytes)

        for owner, name, wrapper in (
            (Environment, "__init__", environment),
            (DLFS, "mount", classmethod(mounted)),
            (DLFSClient, "bread", timed_bread),
            (TrafficEngine, "__init__", engine),
            (TenantAccounting, "on_job_done", on_job_done),
        ):
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @property
    def events(self) -> int:
        """Events scheduled over every environment the run built."""
        return sum(env._eid for env in self.envs)


def _digest(samples: np.ndarray, sim_time: float) -> str:
    data = np.ascontiguousarray(samples, dtype=np.int64)
    return f"{hashlib.sha1(data.tobytes()).hexdigest()}:{sim_time.hex()}"


def _percentile_us(hist: dict, key: str) -> float:
    return 1e6 * hist.get(key, 0.0)


def _datapath_counters(obs) -> dict:
    """``sim.nvme/qpair/fabric/reader/recovery.*`` from a metrics dump."""
    dump = obs.metrics.dump() if obs.enabled else {}
    hists = dump.get("histograms", {})
    out = {}
    for name, hist in (("nvme", "nvme.latency"), ("qpair", "qpair.latency"),
                       ("fabric", "fabric.latency")):
        h = hists.get(hist, {})
        out[f"sim.{name}.{'transfers' if name == 'fabric' else 'commands'}"] = (
            h.get("count", 0))
        out[f"sim.{name}.p99_us"] = _percentile_us(h, "p99")
        if name == "nvme":
            out["sim.nvme.p50_us"] = _percentile_us(h, "p50")
    stages: dict = {}
    for lane, times in dump.get("layers", {}).items():
        if lane.startswith("dlfs."):
            for stage, seconds in times.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
    busy = sum(stages.values())
    for stage in ("prep", "post", "poll", "copy", "poll_idle"):
        out[f"sim.reader.{stage}_frac"] = stages.get(stage, 0.0) / busy if busy else 0.0
    out["sim.reader.job_p99_us"] = _percentile_us(
        hists.get("reactor.job_latency", {}), "p99")
    recovery: dict = {}
    for stats in dump.get("recovery", {}).values():
        for key, value in stats.items():
            recovery[key] = recovery.get(key, 0) + value
    out["sim.recovery.retries"] = recovery.get("retries", 0)
    out["sim.recovery.resets"] = recovery.get("resets", 0)
    out["sim.recovery.media_errors"] = recovery.get("media_error", 0)
    out["sim.recovery.aborted"] = recovery.get("aborted", 0)
    out["sim.recovery.degraded_s"] = recovery.get("degraded_time", 0.0)
    return out


def _accounted(report, demanded: int) -> list:
    """Every demanded sample delivered or failed, and in the witness."""
    bad = []
    total = report.delivered + report.failed
    if total != demanded:
        bad.append(f"delivered {report.delivered} + failed {report.failed} "
                   f"!= {demanded} samples demanded")
    if len(report.samples_read) != total:
        bad.append(f"witness holds {len(report.samples_read)} samples, "
                   f"delivered + failed is {total}")
    return bad


def _check_served(report, probe: Probe, workloads: tuple) -> list:
    """Conservation and range checks for the traffic-engine drivers; an
    admitted job demands its samples."""
    bad = []
    ranges = {w.name: (w.sample_lo, w.sample_hi) for w in workloads}
    demanded = 0
    for i, e in enumerate(probe.engines):
        if e.jobs_completed != e.jobs_submitted:
            bad.append(f"engine {i}: {e.jobs_submitted} jobs admitted, "
                       f"{e.jobs_completed} terminated")
        for name, jobs in e._log.items():
            lo, hi = ranges[name]
            for key, samples in jobs.items():
                demanded += len(samples)
                if samples.min() < lo or samples.max() >= hi:
                    bad.append(f"{name} job {key} read outside [{lo}, {hi})")
    return bad + _accounted(report, demanded)


def _served(report, probe: Probe, workloads: tuple, slo_tenant: str,
            slo: float, counters: dict) -> Outcome:
    """Outcome of a traffic-engine driver (serve, failover, pushdown)."""
    jobs = [job for job in probe.jobs if job[0] == slo_tenant]
    refused = sum(e.rejected_jobs for e in probe.engines)
    counters["sim.tenancy.rejected_jobs"] = refused
    slo_refused = sum(
        row["rejected"] for row in report.per_tenant
        if row["tenant"] == slo_tenant
    )
    return Outcome(
        throughput=report.sample_throughput,
        delivered=report.delivered,
        failed=report.failed,
        latencies=[latency for _t, latency, _ok, _failed in jobs],
        slo_attempted=len(jobs) + slo_refused,
        slo_missed=slo_refused + sum(
            1 for _t, latency, _ok, failed in jobs if latency > slo or failed
        ),
        witness=_digest(report.samples_read, report.sim_time),
        violations=_check_served(report, probe, workloads),
        counters=counters,
    )


def ingest(seed: int, scale: int, metrics: bool, probe: Probe) -> Outcome:
    nodes = 4
    samples = 150_000 // scale
    r = dlfs_observed(
        samples=samples, sample_bytes=16 * KIB, batch=32, mode="chunk",
        num_nodes=nodes, trace=False, metrics=metrics, seed=seed,
    )
    bad = _accounted(r, samples // nodes * nodes)
    size = probe.datasets[0].num_samples
    if len(r.samples_read) and (r.samples_read.min() < 0
                                or r.samples_read.max() >= size):
        bad.append(f"read a sample outside the dataset's [0, {size})")
    return Outcome(
        throughput=r.sample_throughput,
        delivered=r.delivered,
        failed=r.failed,
        latencies=list(probe.batch_latencies),
        witness=_digest(r.samples_read, r.sim_time),
        violations=bad,
        counters=_datapath_counters(r.obs),
    )


def serve(seed: int, scale: int, metrics: bool, probe: Probe) -> Outcome:
    slo = 2e-3
    specs = (
        TenantSpec(name="api", slo_latency=slo),
        TenantSpec(name="train", weight=2.0),
        TenantSpec(name="scan", priority=2, rate=4000.0, burst=256.0,
                   max_queued_jobs=32, cache_share=0.25, qpair_share=0.5),
    )
    workloads = (
        TenantWorkload(name="api", kind="poisson", rate=8000.0, batch=4,
                       sample_lo=0, sample_hi=2048),
        TenantWorkload(name="train", kind="train", batch=16, concurrency=4,
                       sample_lo=2048, sample_hi=4096),
        TenantWorkload(name="scan", kind="bursty", rate=100.0, batch=32,
                       sample_lo=4096, sample_hi=6144),
    )
    horizon = 0.2 / scale
    r = dlfs_tenancy(
        specs, workloads, num_samples=6144, sample_bytes=16 * KIB,
        horizon=horizon, warmup=horizon / 5, seed=seed,
        hugepage_bytes=16 * KIB * KIB, metrics=metrics,
        fault_plan=FaultPlan(seed=seed, media_error_rate=0.002,
                             qpair_reset_period=0.02),
    )
    counters = _datapath_counters(r.obs)
    counters["sim.tenancy.preemptions"] = r.preemptions
    counters["sim.tenancy.forced_serves"] = r.forced_serves
    return _served(r, probe, workloads, "api", slo, counters)


def _cluster_mix(serve_rate: float, samples: int, slo: float, name: str,
                 train_concurrency: int):
    half = samples // 2
    specs = (
        TenantSpec(name="train", weight=2.0, slo_latency=5e-3),
        TenantSpec(name=name, weight=1.0, slo_latency=slo),
    )
    workloads = (
        TenantWorkload(name="train", kind="train", batch=16,
                       concurrency=train_concurrency, sample_lo=0,
                       sample_hi=half),
        TenantWorkload(name=name, kind="poisson", rate=serve_rate, batch=8,
                       sample_lo=half, sample_hi=samples),
    )
    return specs, workloads


def failover(seed: int, scale: int, metrics: bool, probe: Probe) -> Outcome:
    slo = 2e-3
    samples = 8192
    # One train worker per client: with four, train starves the serve
    # tenant (p50 ~170 ms at 800 and at 3000 jobs/s), a finding to chase
    # on its own rather than a regime to benchmark.
    specs, workloads = _cluster_mix(3000.0, samples, slo, "serve", 1)
    h = 0.35 / scale
    r = dlfs_cluster(
        num_storage=8, num_clients=2, replicas=2, num_samples=samples,
        horizon=h, seed=seed, hedge_delay=1e-3, read_cache_chunks=64,
        node_crashes=((1, 0.2 * h, 0.4 * h), (5, 0.5 * h, 0.7 * h)),
        specs=specs, workloads=workloads, metrics=metrics,
    )
    counters = _datapath_counters(r.obs)
    routed = sum(r.balancer["routed"].values())
    counters.update({
        "sim.cluster.failovers": r.balancer["failovers"],
        "sim.cluster.hedges_posted": r.recovery.get("hedges_posted", 0),
        "sim.cluster.handoffs_completed": r.lifecycle.get("handoffs_completed", 0),
        "sim.cluster.handoffs_aborted": r.lifecycle.get("handoffs_aborted", 0),
        "sim.cluster.handoff_mb": r.lifecycle.get("handoff_bytes", 0) / 1e6,
        "sim.cluster.rewarms": r.lifecycle.get("rewarms", 0),
        "sim.cluster.cache_routed_frac": (
            r.balancer["cache_routed"] / routed if routed else 0.0),
    })
    return _served(r, probe, workloads, "serve", slo, counters)


def pushdown(seed: int, scale: int, metrics: bool, probe: Probe) -> Outcome:
    slo = 10e-3
    samples = 2048
    # 200 jobs/s per client keeps the transform tier below saturation
    # even while a worker is down (at 600 its queue grows without bound
    # and p99 means nothing), so the tail is not one crash window's luck.
    specs, workloads = _cluster_mix(200.0, samples, slo, "infer", 1)
    h = 6.0 / scale
    r = dlfs_xform(
        num_storage=2, num_clients=2, num_samples=samples, horizon=h,
        seed=seed,
        spec=XformSpec(stages=parse_stages("parse,augment:0.5"), workers=2),
        xform_crashes=((0, 0.4 * h, 0.5 * h),),
        specs=specs, workloads=workloads, metrics=metrics,
    )
    counters = _datapath_counters(r.obs)
    dump = r.obs.metrics.dump() if r.obs.enabled else {}
    wait = dump.get("histograms", {}).get("xform.queue_wait", {})
    workers = [row["cpu"] for row in r.utilization if row["tier"] == "xform"]
    counters.update({
        "sim.xform.tasks": r.tier["tasks"],
        "sim.xform.redispatches": r.tier["redispatches"],
        "sim.xform.queue_wait_p99_us": _percentile_us(wait, "p99"),
        "sim.xform.net_mb": sum(link["bytes"] for link in r.links) / 1e6,
        "sim.xform.worker_busy_frac": sum(workers) / len(workers),
    })
    return _served(r, probe, workloads, "infer", slo, counters)


def fleet_day(seed: int, scale: int, metrics: bool, probe: Probe) -> Outcome:
    # 100k users keep a repetition near 3 s (the forced event windows'
    # bulk events scale with users); a 2%-of-day lane outage puts enough
    # tagged requests behind it for a steady p99.9.
    base = ScaleSpec(users=100_000, seed=seed, faults=((0, 0.55, 0.57),))
    spec = base.sliced(users=base.users // scale, day=base.day / scale)
    r = run_scale(spec, mode="hybrid")
    bad = []
    if r.fluid_requests > r.bulk_requests:
        bad.append(f"{r.fluid_requests} fluid requests > "
                   f"{r.bulk_requests} bulk requests")
    flows = {(t.tenant, t.flow) for t in r.tagged}
    if len(flows) != spec.cohorts * spec.tagged_per_cohort:
        bad.append(f"{len(flows)} tagged flows, expected "
                   f"{spec.cohorts} x {spec.tagged_per_cohort}")
    if sum(lane["tagged_requests"] for lane in r.lanes) != len(r.tagged):
        bad.append("lane tagged counts disagree with the tagged records")
    latencies = [t.latency for t in r.tagged]
    return Outcome(
        throughput=r.bulk_requests / r.sim_time,
        delivered=r.bulk_requests,
        failed=0,
        latencies=latencies,
        slo_attempted=len(latencies),
        slo_missed=sum(1 for v in latencies if v > spec.slo),
        witness=f"{r.order_digest}:{r.latency_digest}:{r.sim_time.hex()}",
        violations=bad,
        counters={
            "sim.fluid.events_scheduled": r.events_scheduled,
            "sim.fluid.elide_frac": r.elide_ratio,
            "sim.fluid.bulk_mean_latency_ms": (
                1e3 * r.bulk_latency_sum / r.bulk_requests),
            "sim.fluid.tagged_requests": len(r.tagged),
        },
    )


#: Workload name -> adapter, in the order the harness runs them.
WORKLOADS = {
    "ingest": ingest,
    "serve": serve,
    "failover": failover,
    "pushdown": pushdown,
    "fleet-day": fleet_day,
}
