"""Experiment drivers for the figure benchmarks and the serving fleets.

The paper's own datapath has one path: closed-loop ``bread`` readers
(:class:`Readers`) are a layer of :func:`run_fleet`, beside the tenant
traffic of the serving presets, and every run returns a
:class:`RunReport`.  Ext4, Octopus, the TF adapters (Fig 12) and the
lookup drivers (Fig 10) keep their own drivers and :class:`Result`: they
model other stacks, or a lookup load that reads no data.  The figure
modules (:mod:`repro.bench.figures`) compose these into the paper's
tables and series.

Scale note: the paper's runs push millions of samples; the figures read
a few thousand per node, which is past the point where the simulated
steady-state throughput stops changing (the simulator has no
long-horizon drift), and keep wall-clock time per figure in seconds.
Every driver takes explicit counts so a user can crank them up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cluster import Cluster, ClusterRuntime, ClusterSpec
from ..core import DLFS, DLFSConfig
from ..data import Dataset
from ..errors import ConfigError
from ..faults import FaultPlan
from ..hw import BoundThread, Testbed
from ..kernelfs import Ext4FileSystem
from ..octopus import OctopusFS
from ..sim import Environment
from ..sim import rng as sim_rng
from ..tenancy import TenantSpec, TenantWorkload, TrafficEngine
from ..train import DLFSTFAdapter, Ext4TFAdapter, OctopusTFAdapter
from ..xform import XformRuntime, XformSpec, XformTier, parse_stages

__all__ = [
    "ext4_single_node",
    "ext4_multi_node",
    "octopus_multi_node",
    "dlfs_lookup_time",
    "ext4_open_time",
    "octopus_lookup_time",
    "tf_ingest_throughput",
    "run_fleet",
    "preset",
    "dlfs_readers",
    "dlfs_observed",
    "dlfs_tenancy",
    "dlfs_cluster",
    "dlfs_xform",
    "demo_tenants",
    "fair_tenants",
    "cluster_tenants",
    "PRESETS",
    "SECTIONS",
    "Result",
    "Readers",
    "FleetSpec",
    "RunReport",
]

DEFAULT_SEED = 42


@dataclass(frozen=True)
class Result:
    """One measured run of another stack (Ext4, Octopus, a TF adapter)."""

    #: Samples per second (aggregate over all clients).
    sample_throughput: float
    #: Payload bytes per second (aggregate).
    bandwidth: float


def _dataset(num_samples: int, sample_bytes: int) -> Dataset:
    return Dataset.fixed("bench", num_samples, sample_bytes, seed=DEFAULT_SEED)


# ---------------------------------------------------------------------------
# Ext4 and Octopus drivers (Figs 6-9)
# ---------------------------------------------------------------------------

def ext4_single_node(
    sample_bytes: int,
    threads: int = 1,
    reads_per_thread: int = 250,
    warm_metadata: bool = True,
) -> Result:
    """Ext4 random-sample throughput on the real device: Ext4-Base (1
    thread) / Ext4-MC, each thread measured after 20 warm-up reads."""
    warmup_per_thread = 20
    env = Environment()
    tb = Testbed.paper()
    cluster = Cluster(env, tb, num_nodes=1, devices_per_node=1)
    node = cluster.node(0)
    total = threads * (reads_per_thread + warmup_per_thread)
    ds = _dataset(total + 64, sample_bytes)
    fs = Ext4FileSystem(env, node.device)
    fs.ingest_dataset(ds)
    if warm_metadata:
        fs.warm_metadata()
    order = sim_rng("bench.ext4.order", DEFAULT_SEED).permutation(ds.num_samples)
    measured_reads = 0
    t_start = [None]

    def worker(env, tid):
        nonlocal measured_reads
        thread = BoundThread(node.cpu.core(tid % len(node.cpu)), f"t{tid}")
        contention = tb.os.smp_contention_per_thread * (threads - 1)
        base = tid * (reads_per_thread + warmup_per_thread)
        for k in range(reads_per_thread + warmup_per_thread):
            if k == warmup_per_thread and t_start[0] is None:
                t_start[0] = env.now
            idx = int(order[base + k])
            yield from thread.run(contention)
            yield from fs.read_sample(thread, ds.sample_name(idx))
            if k >= warmup_per_thread:
                measured_reads += 1

    procs = [env.process(worker(env, t)) for t in range(threads)]
    env.run(until=env.all_of(procs))
    throughput = measured_reads / (env.now - (t_start[0] or 0.0))
    return Result(throughput, throughput * sample_bytes)


def ext4_multi_node(
    num_nodes: int,
    sample_bytes: int,
    reads_per_node: int = 300,
) -> Result:
    """Ext4 reads its node-local data (the paper's Ext4 configuration:
    datasets replicated/partitioned onto local burst buffers), each node
    measured after 20 warm-up reads."""
    warmup_per_node = 20
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    per_node = reads_per_node + warmup_per_node
    measured = 0
    t_start = [None]
    filesystems = []
    for node in cluster:
        ds = Dataset.fixed(
            f"bench{node.index}", per_node + 32, sample_bytes,
            seed=DEFAULT_SEED + node.index,
        )
        fs = Ext4FileSystem(env, node.device)
        fs.ingest_dataset(ds)
        fs.warm_metadata()
        filesystems.append((node, fs, ds))

    def worker(env, node, fs, ds):
        nonlocal measured
        thread = BoundThread(node.cpu.core(0), f"{node.name}.t0")
        order = sim_rng(
            f"bench.ext4.order.{node.index}", DEFAULT_SEED + node.index
        ).permutation(ds.num_samples)
        for k in range(per_node):
            if k == warmup_per_node and t_start[0] is None:
                t_start[0] = env.now
            yield from fs.read_sample(thread, ds.sample_name(int(order[k])))
            if k >= warmup_per_node:
                measured += 1

    procs = [env.process(worker(env, *f)) for f in filesystems]
    env.run(until=env.all_of(procs))
    throughput = measured / (env.now - (t_start[0] or 0.0))
    return Result(throughput, throughput * sample_bytes)


def octopus_multi_node(
    num_nodes: int,
    sample_bytes: int,
    reads_per_node: int = 250,
) -> Result:
    """Octopus aggregated throughput: one client per node, distributed
    metadata + RDMA data reads, each node measured after 15 warm-up
    reads."""
    warmup_per_node = 15
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    per_node = reads_per_node + warmup_per_node
    ds = _dataset(max(2 * num_nodes * per_node, 2000), sample_bytes)
    fs = OctopusFS(cluster)
    fs.mount(ds)
    order = sim_rng("bench.octopus.order", DEFAULT_SEED).permutation(ds.num_samples)
    measured = 0
    t_start = [None]

    def worker(env, rank):
        nonlocal measured
        base = rank * per_node
        for k in range(per_node):
            if k == warmup_per_node and t_start[0] is None:
                t_start[0] = env.now
            yield from fs.read_sample(rank, int(order[base + k]))
            if k >= warmup_per_node:
                measured += 1

    procs = [env.process(worker(env, r)) for r in range(num_nodes)]
    env.run(until=env.all_of(procs))
    throughput = measured / (env.now - (t_start[0] or 0.0))
    return Result(throughput, throughput * sample_bytes)


# ---------------------------------------------------------------------------
# Lookup-time drivers (Fig 10)
# ---------------------------------------------------------------------------

def dlfs_lookup_time(
    num_nodes: int,
    total_samples: int = 1_000_000,
    sample_bytes: int = 512,
    measured_lookups_per_node: int = 1500,
) -> float:
    """Total time for the cluster to look up ``total_samples`` samples.

    Each node resolves its share (total/num_nodes) through its directory
    replica.  A sampled subset runs in the simulator; the per-lookup
    mean is scaled to the full share (lookup cost has no queue effects —
    it is pure local CPU — so the extrapolation is exact).
    """
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    # Directory scale matters (tree height); data volume does not.
    ds = _dataset(total_samples, sample_bytes)
    fs = DLFS.mount(cluster, ds, DLFSConfig(batching="none"))
    client = fs.client(rank=0, num_ranks=1, node=cluster.node(0))
    share = total_samples // num_nodes
    count = min(measured_lookups_per_node, share)
    rng = sim_rng("bench.lookup.targets", DEFAULT_SEED)
    targets = rng.integers(0, total_samples, count)

    def app(env):
        from repro.core import LookupJob

        t0 = env.now
        for idx in targets:
            job = LookupJob(done=env.event(), index=int(idx))
            client.reactor.submit(job)
            yield job.done
        return (env.now - t0) / count

    per_lookup = env.run(until=env.process(app(env)))
    return per_lookup * share


def ext4_open_time(
    num_nodes: int,
    total_samples: int = 1_000_000,
    sample_bytes: int = 512,
    measured_opens_per_node: int = 400,
) -> float:
    """Ext4 equivalent: cold file-open time for each node's share."""
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=1, devices_per_node=1
    )
    node = cluster.node(0)
    share = total_samples // num_nodes
    count = min(measured_opens_per_node, share)
    ds = _dataset(count + 16, sample_bytes)
    fs = Ext4FileSystem(env, node.device)
    fs.ingest_dataset(ds)  # cold caches: every open pays the full walk
    thread = BoundThread(node.cpu.core(0), "opens")

    def app(env):
        t0 = env.now
        for i in range(count):
            fd = yield from fs.open(thread, ds.sample_name(i))
            yield from fs.close(thread, fd)
        return (env.now - t0) / count

    per_open = env.run(until=env.process(app(env)))
    return per_open * share


def octopus_lookup_time(
    num_nodes: int,
    total_samples: int = 1_000_000,
    sample_bytes: int = 512,
    measured_lookups_per_node: int = 400,
) -> float:
    """Octopus lookup time: concurrent clients, distributed metadata.

    All nodes look up concurrently (contention on the serialized
    metadata services is part of the measurement); returns the time for
    the slowest node's share.
    """
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    share = total_samples // num_nodes
    count = min(measured_lookups_per_node, share)
    ds = _dataset(max(num_nodes * count, 1000), sample_bytes)
    fs = OctopusFS(cluster)
    fs.mount(ds)
    rng = sim_rng("bench.octopus.lookup", DEFAULT_SEED)
    per_node_time = []

    def worker(env, rank):
        targets = rng.integers(0, ds.num_samples, count)
        t0 = env.now
        for idx in targets:
            yield from fs.lookup(rank, int(idx))
        per_node_time.append((env.now - t0) / count)

    procs = [env.process(worker(env, r)) for r in range(num_nodes)]
    env.run(until=env.all_of(procs))
    return max(per_node_time) * share


# ---------------------------------------------------------------------------
# Disaggregation effectiveness: the ideal curves (Fig 11)
# ---------------------------------------------------------------------------

def ideal_disaggregated_throughput(
    num_devices: int, num_clients: int, sample_bytes: int,
) -> float:
    """The paper's analytic NVMe-1C / NVMe-16C curves (Fig 11).

    Aggregate emulated-device bandwidth divided by sample size, capped
    by the clients' total NIC bandwidth once devices outnumber what the
    client links can absorb (the paper's rule: with one client, the
    network bottlenecks past 2 devices).
    """
    tb = Testbed.paper_emulated()
    device_bw = num_devices * tb.nvme.read_bandwidth
    client_bw = num_clients * tb.network.bandwidth
    return min(device_bw, client_bw) / sample_bytes


# ---------------------------------------------------------------------------
# One builder for closed-loop readers and the tenancy, cluster and xform
# serving layers
# ---------------------------------------------------------------------------

def demo_tenants() -> tuple:
    """The reference three-tenant mix: ``(specs, workloads)``.

    Two closed-loop training tenants with 2:1 weights (concurrency 4
    keeps each trainer backlogged at the scheduler, so the weighted
    share is actually realized) plus one bursty
    open-loop scan tenant that is rate-limited by a token bucket, runs
    at a lower priority class, and is capped to a quarter of the sample
    cache and half of each qpair's depth — the configuration the
    example, the ``serve`` preset, and the perfcheck workload all share.
    Sample ranges are disjoint thirds of a 3072-sample dataset.
    """
    specs = (
        TenantSpec(name="train_a", weight=2.0, slo_latency=5e-3),
        TenantSpec(name="train_b", weight=1.0, slo_latency=5e-3),
        TenantSpec(
            name="scan", weight=1.0, priority=2, rate=4000.0, burst=256.0,
            max_queued_jobs=32, cache_share=0.25, qpair_share=0.5,
        ),
    )
    workloads = (
        TenantWorkload(
            name="train_a", kind="train", batch=16, concurrency=4,
            sample_lo=0, sample_hi=1024,
        ),
        TenantWorkload(
            name="train_b", kind="train", batch=16, concurrency=4,
            sample_lo=1024, sample_hi=2048,
        ),
        TenantWorkload(
            name="scan", kind="bursty", rate=300.0, batch=32,
            sample_lo=2048, sample_hi=3072,
        ),
    )
    return specs, workloads


def fair_tenants(
    weights: tuple = (1.0, 2.0, 4.0),
    rate: float = 20000.0,
    span: int = 1024,
    batch: int = 8,
) -> tuple:
    """A saturating fairness mix: ``(specs, workloads)``.

    One open-loop Poisson tenant per weight, all offering the *same*
    load (``rate`` jobs/s of ``batch`` samples) over disjoint ranges, so
    under saturation the achieved device-service shares are set purely
    by the SFQ weights.
    """
    specs = tuple(
        TenantSpec(name=f"t{i}w{w:g}", weight=float(w))
        for i, w in enumerate(weights)
    )
    workloads = tuple(
        TenantWorkload(
            name=s.name, kind="poisson", rate=rate, batch=batch,
            sample_lo=i * span, sample_hi=(i + 1) * span,
        )
        for i, s in enumerate(specs)
    )
    return specs, workloads


def cluster_tenants(num_samples: int = 8192, rate: float = 3000.0) -> tuple:
    """The reference cluster serving mix: ``(specs, workloads)``.

    One closed-loop training tenant (backlogged, throughput-oriented)
    plus one open-loop Poisson inference tenant with a tight SLO — the
    mix of the ``cluster`` and ``xform`` presets, every cluster bench,
    and the perfcheck / sanitizer fleets.  Sample ranges are disjoint
    halves so the two tenants exercise different shards.
    """
    half = num_samples // 2
    specs = (
        TenantSpec(name="train", weight=2.0, slo_latency=5e-3),
        TenantSpec(name="serve", weight=1.0, slo_latency=2e-3),
    )
    workloads = (
        TenantWorkload(
            name="train", kind="train", batch=16, concurrency=4,
            sample_lo=0, sample_hi=half,
        ),
        TenantWorkload(
            name="serve", kind="poisson", rate=rate, batch=8,
            sample_lo=half, sample_hi=num_samples,
        ),
    )
    return specs, workloads


@dataclass(frozen=True)
class Readers:
    """Closed-loop ``bread`` trainers: the load of the paper's own runs.

    One reader process per client rank, ``ranks_per_node`` ranks per
    compute node (on cores 0, 1, ...).  Each reader sequences epoch 0
    with the run's seed, reads ``warmup`` samples, starts its reactor's
    read meter, then reads ``reads`` samples or, instead, ``epochs``
    whole epochs.  A batch holds ``batch`` samples unless the quota or
    the epoch ends first; epoch ``e`` is sequenced with ``seed + e``, so
    the data order is a function of the seed alone.
    """

    batch: int = 32
    warmup: int = 0
    reads: int = 0
    epochs: int = 0
    ranks_per_node: int = 1

    def demand(self, nodes: int = 1) -> int:
        """Samples the readers of ``nodes`` compute nodes read under a
        sample quota, warm-up included."""
        return nodes * self.ranks_per_node * (self.warmup + self.reads)

    def validate(self) -> None:
        if self.batch < 1 or self.ranks_per_node < 1:
            raise ConfigError("readers need batch >= 1 and ranks_per_node >= 1")
        if min(self.warmup, self.reads, self.epochs) < 0 or (
            (self.reads > 0) == (self.epochs > 0)
        ):
            raise ConfigError(
                "readers need one quota, reads or epochs, and warmup >= 0"
            )


@dataclass(frozen=True)
class FleetSpec:
    """One deployment and its load, built and driven by :func:`run_fleet`.

    ``num_clients`` compute nodes each run a seeded traffic engine (seed
    ``seed + 1000 * rank``), or, with ``readers``, closed-loop trainers
    sequencing from ``seed``.  ``num_storage == 0`` gives every client
    its own local NVMe device; otherwise the devices sit on
    ``num_storage`` storage nodes behind NVMe-oF (the Fig 11
    disaggregated topology), each shard on ``replicas`` of them.  Every
    layer is pay-for-use: a field left at its default builds nothing
    for that layer.
    """

    #: Tenant policies (:class:`~repro.tenancy.TenantSpec`) and their
    #: traffic (:class:`~repro.tenancy.TenantWorkload`).
    specs: tuple = ()
    workloads: tuple = ()
    #: True: the specs drive the client's fair-queue scheduler
    #: (admission, SFQ lanes, cache/qpair partitions; one client, local
    #: or flat topology).  False: they only drive per-tenant accounting.
    fair_queue: bool = False
    num_samples: int = 8192
    sample_bytes: int = 64 * 1024
    #: Arrival window; the run then drains every admitted job and shuts
    #: the clients down cleanly.
    horizon: float = 0.02
    #: Start of the fair-queue service-share window ``[warmup, horizon]``.
    warmup: float = 0.0
    seed: int = DEFAULT_SEED
    queue_depth: int = 32
    #: Hardware description.  Default: the real NVMe device for a reader
    #: fleet of one client on local devices (the paper's single-node
    #: runs), emulated devices (its multi-node testbed) for every other
    #: fleet.  A nonzero ``hugepage_bytes`` resizes its hugepage pool.
    testbed: Optional[Testbed] = None
    hugepage_bytes: int = 0
    metrics: bool = False
    fault_plan: Optional[FaultPlan] = None
    num_clients: int = 2
    num_storage: int = 8
    replicas: int = 2
    balancer: bool = True
    hedge_delay: float = 0.0
    read_cache_chunks: int = 0
    #: ``(lane, crash_time, rejoin_time)`` storage-node crashes;
    #: ``rejoin_time=None`` is a permanent loss.
    node_crashes: tuple = ()
    #: The fetch/transform tier (:class:`~repro.xform.XformSpec`);
    #: ``None`` or no stages builds no transform worker nodes.
    xform: Optional[XformSpec] = None
    #: ``(worker, crash_time, rejoin_time)`` transform-worker crashes.
    xform_crashes: tuple = ()
    #: Closed-loop readers (:class:`Readers`) in place of tenant
    #: traffic: no traffic engine or tenant runtime is built, and
    #: ``horizon``/``warmup`` play no part.
    readers: Optional[Readers] = None
    #: :class:`~repro.core.DLFSConfig` knobs: batching mode, chunk
    #: pipeline window, compute injected per poll loop (Fig 7b),
    #: copy-thread cores, and the hugepage chunk size.
    batching: str = "sample"
    window: int = 8
    injected_compute: float = 0.0
    copy_cores: tuple = ()
    chunk_bytes: int = 256 * 1024
    #: Spans (Chrome-trace exportable).
    trace: bool = False


#: :class:`RunReport` fields of each optional layer, in the order
#: :meth:`RunReport.summary` emits them.
SECTIONS = {
    "readers": ("app_time", "bandwidth", "expected", "fault_counts",
                "reactor_names"),
    "fair_queue": ("service_shares", "service_bytes", "preemptions",
                   "forced_serves", "window_rows"),
    "cluster": ("balancer", "lifecycle"),
    "xform": ("tier", "links", "utilization", "routed"),
}


@dataclass(frozen=True)
class RunReport:
    """One run of :func:`run_fleet`.

    The fields after ``layers`` are one section per optional layer
    (:data:`SECTIONS`), left empty unless ``layers`` names that layer.
    """

    #: Delivered samples per simulated second: over the full run, or
    #: (readers) each reader's rate over its measured window, summed
    #: when the last reader ends.
    sample_throughput: float
    #: Samples delivered / lost, jobs bounced by admission control /
    #: completed (readers: ``bread`` calls), summed over every client.
    delivered: int
    failed: int
    rejected_jobs: int
    jobs: int
    #: Final simulated time (the load, drain and teardown).
    sim_time: float
    #: Every completed job's sample indices in (client, tenant, job-key)
    #: order, or every reader's batches in (rank, read) order — the
    #: determinism witness (completion-order independent).
    samples_read: np.ndarray
    #: Per-tenant accounting rows after the drain; accounting-only runs
    #: merge clients (counts sum, percentiles from the merged records).
    per_tenant: tuple
    #: Every job completion ``(t_done, tenant, latency, delivered,
    #: failed)``, merged and sorted.
    records: tuple
    #: Merged reactor recovery counters (retries, failovers, node_down, ...).
    recovery: dict
    #: The observability bundle (null objects unless metrics are on).
    obs: object
    #: The optional layers built: ``readers``, ``fair_queue``,
    #: ``cluster``, ``xform``.
    layers: tuple = ()
    #: Readers: sim time when the last reader ended; payload bytes per
    #: second, summed like the throughput; samples ``bread`` returned
    #: (``delivered + failed`` when every sample is accounted for);
    #: injected faults per (site, kind); reactor lane names.
    app_time: float = 0.0
    bandwidth: float = 0.0
    expected: int = 0
    fault_counts: dict = field(default_factory=dict)
    reactor_names: tuple = ()
    #: Fair queue: rows at the arrival-horizon edge, while the system is
    #: still saturated (whole-run shares equalize during the drain); the
    #: per-tenant device-service byte fractions (the SFQ fairness metric)
    #: and byte deltas over ``[warmup, horizon]``; scheduler counters.
    window_rows: tuple = ()
    service_shares: dict = field(default_factory=dict)
    service_bytes: dict = field(default_factory=dict)
    preemptions: int = 0
    forced_serves: int = 0
    #: Cluster: balancer counters merged over clients (per-lane
    #: ``routed``, ``failovers``, ``cache_routed``); lifecycle counters
    #: (crashes, rejoins, handoffs, rewarms; empty without crashes).
    balancer: dict = field(default_factory=dict)
    lifecycle: dict = field(default_factory=dict)
    #: Xform: tier counters, TransferEngine per-link rows, per-tier CPU
    #: utilization rows, per-lane routed task counts.
    tier: dict = field(default_factory=dict)
    links: tuple = ()
    utilization: tuple = ()
    routed: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-able fields: the common ones plus each built section."""
        out = {
            name: getattr(self, name) for name in (
                "delivered", "failed", "rejected_jobs", "jobs", "sim_time",
                "sample_throughput", "recovery", "per_tenant",
            )
        }
        for layer in self.layers:
            out.update((name, getattr(self, name)) for name in SECTIONS[layer])
        return out


def _merge_tenant_rows(runtimes: list, records: tuple) -> tuple:
    """Merge per-client accounting rows by tenant name.

    Counts sum exactly; latency percentiles are recomputed from the
    merged completion records (per-client histograms can't be merged).
    """
    by_latency: dict = {}
    for _t, tenant, latency, _ok, _fail in records:
        by_latency.setdefault(tenant, []).append(latency)
    merged: dict = {}
    for rt in runtimes:
        for row in rt.accounting.rows():
            name = row["tenant"]
            if name not in merged:
                merged[name] = dict(row)
            else:
                m = merged[name]
                for key in (
                    "jobs", "rejected", "samples", "failed", "bytes",
                    "slo_violations",
                ):
                    if key in row:
                        m[key] = m.get(key, 0) + row[key]
    total_bytes = sum(m.get("bytes", 0) for m in merged.values())
    for name, m in merged.items():
        m["share"] = m.get("bytes", 0) / total_bytes if total_bytes else 0.0
        lats = sorted(by_latency.get(name, ()))
        if lats:
            m["p50"] = lats[int(0.50 * (len(lats) - 1))]
            m["p99"] = lats[int(0.99 * (len(lats) - 1))]
    return tuple(merged[name] for name in sorted(merged))


def _read(client, load: Readers, seed: int, log: list):
    """One reader process (see :class:`Readers`); ``log`` collects the
    sample indices of each batch ``bread`` returned."""
    epoch = 0

    def batches(quota: Optional[int]):
        # quota=None reads to the end of epoch ``load.epochs - 1``.
        nonlocal epoch
        done = 0
        while quota is None or done < quota:
            if client.epoch_remaining == 0:
                if quota is None and epoch + 1 >= load.epochs:
                    return
                epoch += 1
                client.sequence(seed=seed + epoch)
                if quota is not None and client.epoch_remaining == 0:
                    raise ConfigError(
                        f"reader {client.rank} has no samples in epoch {epoch}"
                    )
                continue
            count = load.batch if quota is None else min(load.batch, quota - done)
            got = yield from client.bread(min(count, client.epoch_remaining))
            log.append(np.asarray(got, dtype=np.int64))
            done += len(got)

    client.sequence(seed=seed)
    yield from batches(load.warmup)
    client.reactor.read_meter.start()
    yield from batches(load.reads or None)


def _drive_readers(env, fs, clients: list, load: Readers, seed: int):
    """Run one reader per client until each has read its quota.

    Throughput and bandwidth are read when the last reader ends, before
    teardown.  Returns a callable giving the run's :class:`RunReport`
    fields once the clients are torn down.
    """
    logs: list = [[] for _ in clients]
    procs = [
        env.process(_read(c, load, seed, log), name=f"reader[{c.rank}]")
        for c, log in zip(clients, logs)
    ]
    env.run(until=env.all_of(procs))
    measured = dict(
        app_time=env.now,
        sample_throughput=sum(c.sample_throughput() for c in clients),
        bandwidth=sum(c.bandwidth() for c in clients),
    )

    def finish() -> dict:
        reads = [got for log in logs for got in log]
        return dict(
            measured,
            layers=("readers",),
            delivered=sum(c.samples_delivered for c in clients),
            failed=sum(c.failed_samples for c in clients),
            rejected_jobs=0,
            jobs=len(reads),
            samples_read=(
                np.concatenate(reads) if reads else np.empty(0, dtype=np.int64)
            ),
            per_tenant=(),
            records=(),
            expected=sum(len(got) for got in reads),
            fault_counts=(
                fs.injector.counts.as_dict() if fs.injector is not None else {}
            ),
            reactor_names=tuple(c.reactor.name for c in clients),
        )

    return finish


def _drive_traffic(env, spec: FleetSpec, ds, clients: list, tier):
    """Serve the tenant traffic until every admitted job has drained.

    Returns a callable giving the run's :class:`RunReport` fields once
    the clients are torn down.
    """
    runtimes = []
    engines = []
    procs = []
    for r, client in enumerate(clients):
        runtime = (
            client.tenancy if spec.fair_queue
            else ClusterRuntime(env, client.reactor, spec.specs)
        )
        runtimes.append(runtime)
        if tier is not None:
            runtime = XformRuntime(
                env, runtime, tier, client.node.name, rank=r
            )
        engine = TrafficEngine(
            env, runtime, ds, tuple(spec.workloads),
            seed=spec.seed + 1000 * r, horizon=spec.horizon,
        )
        engines.append(engine)
        procs.extend(engine.start())

    window: dict = {}
    if spec.fair_queue:
        runtime = runtimes[0]
        if spec.warmup > 0:
            env.run(until=spec.warmup)
        base = dict(runtime.scheduler.bytes_served)
        env.run(until=spec.horizon)
        edge = dict(runtime.scheduler.bytes_served)
        deltas = {
            t: edge[t] - base.get(t, 0) for t in sorted(edge)
            if edge[t] - base.get(t, 0) > 0
        }
        total = sum(deltas.values())
        window.update(
            window_rows=tuple(runtime.accounting.rows()),
            service_shares={t: deltas[t] / total for t in deltas} if total else {},
            service_bytes=deltas,
        )
    env.run(until=env.all_of(procs))
    for r, engine in enumerate(engines):
        env.run(until=env.process(engine.drain(), name=f"fleet.drain[{r}]"))

    def finish() -> dict:
        records = tuple(
            sorted(rec for rt in runtimes for rec in rt.accounting.records)
        )
        out = dict(window, layers=(), records=records)
        if spec.fair_queue:
            sched = runtimes[0].scheduler
            out.update(
                layers=("fair_queue",),
                per_tenant=tuple(runtimes[0].accounting.rows()),
                preemptions=sched.preemptions, forced_serves=sched.forced_serves,
            )
        else:
            out.update(per_tenant=_merge_tenant_rows(runtimes, records))
        delivered = sum(e.delivered for e in engines)
        out.update(
            sample_throughput=delivered / env.now if env.now > 0 else 0.0,
            delivered=delivered,
            failed=sum(e.failed for e in engines),
            rejected_jobs=sum(e.rejected_jobs for e in engines),
            jobs=sum(e.jobs_completed for e in engines),
            samples_read=np.concatenate([e.samples_read() for e in engines]),
        )
        return out

    return finish


def run_fleet(spec: FleetSpec) -> RunReport:
    """Build the fleet ``spec`` describes, drive its load, report.

    Tenant traffic stops arriving at ``spec.horizon`` and every admitted
    job drains; readers read their quota.  The clients then shut down
    one by one and trailing timers drain.  Node crashes fail queued work
    over to surviving replicas; worker crashes re-dispatch in-flight
    transform tasks.  Without transform stages no worker node is built
    (extra NICs would move the fabric digest), so the run is
    bit-identical to the same fleet without the tier.
    """
    xform = spec.xform if spec.xform is not None and spec.xform.enabled else None
    workers = xform.workers if xform is not None else 0
    load = spec.readers
    if load is not None:
        load.validate()
        if spec.specs or spec.workloads or spec.fair_queue or xform is not None:
            raise ConfigError(
                "readers replace tenant traffic: no tenant specs, "
                "workloads, fair_queue or transform stages"
            )
    if not 0.0 <= spec.warmup < spec.horizon:
        raise ConfigError("need 0 <= warmup < horizon")
    if spec.fair_queue and spec.num_clients != 1:
        raise ConfigError("the fair-queue scheduler serves exactly one client")
    if spec.xform_crashes and xform is None:
        raise ConfigError("xform_crashes given but no transform stages")
    if xform is not None and not spec.num_storage:
        raise ConfigError("the transform tier needs storage nodes")
    env = Environment()
    tb = spec.testbed or (
        Testbed.paper() if load is not None and spec.num_clients == 1
        and not spec.num_storage else Testbed.paper_emulated()
    )
    if spec.hugepage_bytes:
        tb = dataclasses.replace(tb, hugepage_bytes=spec.hugepage_bytes)
    cluster = Cluster(
        env, tb,
        num_nodes=spec.num_clients + spec.num_storage + workers,
        devices_per_node=0 if spec.num_storage else 1,
        hugepage_chunk_size=spec.chunk_bytes,
    )
    placement = []
    for d in range(spec.num_storage):
        storage = cluster.node(spec.num_clients + d)
        storage.add_device()
        placement.append((storage.index, 0))
    plan = spec.fault_plan
    if spec.node_crashes:
        plan = dataclasses.replace(
            plan or FaultPlan(), node_crashes=tuple(spec.node_crashes)
        )
    config = DLFSConfig(
        batching=spec.batching,
        queue_depth=spec.queue_depth,
        window=spec.window,
        copy_cores=tuple(spec.copy_cores),
        injected_compute=spec.injected_compute,
        tenants=tuple(spec.specs) if spec.fair_queue else (),
        cluster=ClusterSpec(
            replicas=spec.replicas,
            balancer=spec.balancer,
            hedge_delay=spec.hedge_delay,
            read_cache_chunks=spec.read_cache_chunks,
        ) if spec.num_storage else None,
        fault_plan=plan,
        trace=spec.trace,
        metrics=spec.metrics,
    )
    ds = _dataset(spec.num_samples, spec.sample_bytes)
    fs = DLFS.mount(cluster, ds, config, placement=placement or None)
    tier = None
    if xform is not None:
        first = spec.num_clients + spec.num_storage
        tier = XformTier(
            env, xform, fs, [cluster.node(first + w) for w in range(workers)],
            crashes=tuple(spec.xform_crashes),
            registry=fs.obs.metrics if fs.obs.enabled else None,
        )
    per_node = load.ranks_per_node if load is not None else 1
    ranks = spec.num_clients * per_node
    clients = [
        fs.client(rank=r, num_ranks=ranks, node=cluster.node(r // per_node),
                  core_index=r % per_node)
        for r in range(ranks)
    ]
    if load is not None:
        finish = _drive_readers(env, fs, clients, load, spec.seed)
    else:
        finish = _drive_traffic(env, spec, ds, clients, tier)
    for r, client in enumerate(clients):
        env.run(
            until=env.process(client.shutdown(), name=f"fleet.teardown[{r}]")
        )
    env.run()  # drain trailing timers (rejoin schedules, watchdogs)

    recovery: dict = {}
    for client in clients:
        for key, value in client.reactor.recovery_stats.as_dict().items():
            recovery[key] = recovery.get(key, 0) + value
    out = finish()
    if fs.cluster_state is not None:
        routed: dict = {}
        for client in clients:
            for lane, count in client.balancer.routed.items():
                routed[lane] = routed.get(lane, 0) + count
        out.update(
            layers=out["layers"] + ("cluster",),
            balancer={
                "routed": routed,
                "failovers": sum(c.balancer.failovers for c in clients),
                "cache_routed": sum(c.balancer.cache_routed for c in clients),
            },
            lifecycle=(
                fs.lifecycle.counters() if fs.lifecycle is not None else {}
            ),
        )
    if tier is not None:
        out.update(
            layers=out["layers"] + ("xform",),
            tier=tier.counters(),
            links=tuple(tier.engine.link_rows()),
            utilization=tuple(tier.utilization_rows()),
            routed=tier.routed(),
        )
    return RunReport(sim_time=env.now, recovery=recovery, obs=fs.obs, **out)


#: Preset name -> (default tenant mix as a function of ``num_samples``,
#: the FleetSpec fields the preset sets).  ``python -m repro fleet
#: --preset NAME`` reads its defaults here too.
PRESETS = {
    # One node with a local device.  The hugepage pool is shrunk (16 MB
    # ≫ one batch, ≪ the dataset) so the run is I/O-bound: with the
    # whole dataset cache-resident, hits bypass the scheduler and
    # fairness becomes unmeasurable.
    "serve": (lambda _num_samples: demo_tenants(), dict(
        fair_queue=True, num_storage=0, num_clients=1, num_samples=3072,
        sample_bytes=16 * 1024, horizon=0.05, warmup=0.01,
        testbed=Testbed.paper(), hugepage_bytes=16 * 1024 * 1024,
    )),
    # The FleetSpec defaults: 2 clients, 8 storage nodes, R=2, balancer.
    "cluster": (cluster_tenants, {}),
    # The flat (R=1, no balancer) datapath plus, on the CLI, two
    # transform workers running parse + a 0.5-selectivity augment.
    "xform": (cluster_tenants, dict(
        num_storage=2, replicas=1, balancer=False, num_samples=2048,
        horizon=0.01,
        xform=XformSpec(stages=parse_stages("parse,augment:0.5"), workers=2),
    )),
    # The paper's datapath: closed-loop readers on one client with a
    # local device (so the real one, see FleetSpec.testbed), chunk
    # batching and the SPDK queue depth of DLFSConfig; by default 2,000
    # reads from 4,000 16 KiB samples.
    "readers": (lambda _num_samples: ((), ()), dict(
        readers=Readers(reads=2000), num_clients=1, num_storage=0,
        queue_depth=128, batching="chunk", num_samples=4000,
        sample_bytes=16 * 1024,
    )),
}


def preset(name: str, specs=None, workloads=None, **fields) -> FleetSpec:
    """Preset ``name``'s FleetSpec, with ``fields`` overriding its defaults
    and the preset's tenant mix unless ``specs``/``workloads`` are given."""
    if (specs is None) != (workloads is None):
        raise ConfigError("pass both specs and workloads, or neither")
    mix, defaults = PRESETS[name]
    spec = FleetSpec(**{**defaults, **fields})
    if specs is None:
        specs, workloads = mix(spec.num_samples)
    return dataclasses.replace(
        spec, specs=tuple(specs), workloads=tuple(workloads)
    )


def dlfs_tenancy(specs=None, workloads=None, **fields) -> RunReport:
    """One multi-tenant serving run on a single node (``serve`` preset)."""
    return run_fleet(preset("serve", specs, workloads, **fields))


def dlfs_cluster(**fields) -> RunReport:
    """One replicated cluster serving run under live traffic
    (``cluster`` preset)."""
    return run_fleet(preset("cluster", **fields))


def dlfs_xform(spec: Optional[XformSpec] = None, **fields) -> RunReport:
    """One serving run through the fetch/transform tier (``xform``
    preset).  ``spec=None`` is the pay-for-use contract: bit-identical
    to :func:`dlfs_cluster` with ``replicas=1, balancer=False`` — the
    ``xform_pay_for_use`` perfcheck workload holds the two side by side."""
    return run_fleet(preset("xform", xform=spec, **fields))


def dlfs_readers(load: Readers, **fields) -> RunReport:
    """Closed-loop readers ``load`` on the ``readers`` preset, with
    ``fields`` overriding its defaults."""
    return run_fleet(preset("readers", readers=load, **fields))


def dlfs_observed(
    samples: int = 2000,
    sample_bytes: int = 16 * 1024,
    batch: int = 32,
    mode: str = "chunk",
    num_nodes: int = 1,
    trace: bool = True,
    metrics: bool = True,
    seed: int = DEFAULT_SEED,
    **fields,
) -> RunReport:
    """``samples`` reads split over ``num_nodes`` readers, observed (e2e
    ``ingest``).  The dataset holds twice the reads, so no reader
    reaches an epoch edge."""
    return dlfs_readers(
        Readers(batch=batch, reads=samples // num_nodes),
        num_samples=max(2 * samples, 2000), sample_bytes=sample_bytes,
        batching=mode, num_clients=num_nodes, trace=trace, metrics=metrics,
        seed=seed, **fields,
    )


# ---------------------------------------------------------------------------
# TensorFlow ingest driver (Fig 12)
# ---------------------------------------------------------------------------

def tf_ingest_throughput(
    system: str,
    num_nodes: int,
    sample_bytes: int,
    batches_per_node: int = 20,
) -> Result:
    """Aggregate TF-adapter ingest throughput for one system: per node,
    ``batches_per_node`` measured 32-sample batches after 3 warm-up
    batches, at the default :class:`~repro.train.TFIngestSpec` costs."""
    if system not in ("dlfs", "ext4", "octopus"):
        raise ConfigError(f"unknown system {system!r}")
    batch, warmup_batches = 32, 3
    env = Environment()
    cluster = Cluster(
        env, Testbed.paper_emulated(), num_nodes=num_nodes, devices_per_node=1
    )
    per_node = (batches_per_node + warmup_batches) * batch
    adapters = []
    if system == "dlfs":
        ds = _dataset(max(2 * num_nodes * per_node, 4000), sample_bytes)
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="chunk"))
        for r in range(num_nodes):
            client = fs.client(rank=r, num_ranks=num_nodes, node=cluster.node(r))
            # The TF input-pipeline thread lives on a second core; the
            # reactor busy-polls core 0.
            thread = BoundThread(cluster.node(r).cpu.core(1), f"tf{r}")
            adapters.append(DLFSTFAdapter(client, thread))
    elif system == "ext4":
        for node in cluster:
            ds = Dataset.fixed(
                f"bench{node.index}", per_node + 32, sample_bytes,
                seed=DEFAULT_SEED + node.index,
            )
            fs = Ext4FileSystem(env, node.device)
            fs.ingest_dataset(ds)
            fs.warm_metadata()
            thread = BoundThread(node.cpu.core(0), f"tf{node.index}")
            adapters.append(Ext4TFAdapter(fs, ds, thread))
    else:
        ds = _dataset(max(2 * num_nodes * per_node, 2000), sample_bytes)
        fs = OctopusFS(cluster)
        fs.mount(ds)
        for r in range(num_nodes):
            thread = BoundThread(cluster.node(r).cpu.core(0), f"tf{r}")
            adapters.append(OctopusTFAdapter(fs, thread, rank=r,
                                             num_ranks=num_nodes))

    def app(env, adapter):
        adapter.start_epoch(DEFAULT_SEED)
        for _ in range(warmup_batches):
            yield from adapter.next_batch(batch)
        adapter.meter.start()
        for _ in range(batches_per_node):
            yield from adapter.next_batch(batch)

    procs = [env.process(app(env, a)) for a in adapters]
    env.run(until=env.all_of(procs))
    throughput = sum(a.ingest_rate() for a in adapters)
    bandwidth = sum(a.meter.bandwidth() for a in adapters)
    return Result(throughput, bandwidth)
