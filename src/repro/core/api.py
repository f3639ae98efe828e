"""The DLFS public API (paper §III-A).

``DLFS.mount`` plays the role of ``dlfs_mount``: it lays the dataset out
over the allocated NVMe devices, builds the in-memory sample directory,
and prepares the chunk plan.  Per-node :class:`DLFSClient` objects then
expose the thin API:

=================  ==========================================
paper API          this library
=================  ==========================================
``dlfs_mount``     ``DLFS.mount(...)`` / ``DLFS.mount_timed``
``dlfs_open``      ``client.open(name)``
``dlfs_read``      ``client.read(file_or_index)``
``dlfs_close``     ``client.close_file(f)``
``dlfs_sequence``  ``client.sequence(seed)``
``dlfs_bread``     ``client.bread(n)``
=================  ==========================================

All I/O entry points are *process helpers*: call them with ``yield
from`` inside a simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Union

import numpy as np

from ..cluster import (
    Cluster,
    ClusterLifecycle,
    ClusterSpec,
    ClusterState,
    Communicator,
    FrontEndBalancer,
    Node,
    NodeReadCache,
    ShardMap,
)
from ..data import Dataset, DatasetLayout, ParallelFS
from ..errors import ConfigError, InvalidHandle, NotMounted
from ..faults import FaultInjector, FaultPlan, RecoveryPolicy
from ..hw import MB, NVMeDevice
from ..hw.cpu import BoundThread
from ..obs import OBS_OFF, Observability
from ..sim import Event, Store
from ..sim import rng as sim_rng
from ..spdk import IOQPair, NVMeoFTarget, SPDKDriver
from .batching import ChunkEpoch, ChunkPlan, DeliveryPlan
from .directory import LocalValidBits, SampleDirectory, aggregate_directory
from .reader import CopyPool, LookupJob, Reactor, ReadJob
from .sequence import GlobalSequence

__all__ = ["DLFS", "DLFSClient", "DLFSConfig", "DLFSFile", "MountReport"]

#: Batching modes (paper §III-D).
BATCH_NONE = "none"       # DLFS-Base: synchronous per-sample reads
BATCH_SAMPLE = "sample"   # frontend sample-level batching
BATCH_CHUNK = "chunk"     # + backend chunk-level batching (full DLFS)
#: Default samples per bread() mini-batch (paper: 32).
BATCH_PER_RANK = 32


@dataclass(frozen=True)
class DLFSConfig:
    """Tunables of a DLFS instance."""

    #: "none" (DLFS-Base), "sample", or "chunk" (the full system).
    batching: str = BATCH_CHUNK
    #: SPDK I/O qpair queue depth.
    queue_depth: int = 128
    #: Chunk-pipeline window: in-cache data chunks the copy threads pick
    #: from (and the prefetch depth).
    window: int = 8
    #: Extra core indices for the copy-thread pool ((): copy inline on
    #: the reactor core — the paper's single-core configuration).
    copy_cores: tuple = ()
    #: Fig 7(b): application compute injected per polling-loop
    #: iteration, in seconds.
    injected_compute: float = 0.0
    #: §III-C2 ablation: False polls every qpair's completion queue
    #: separately instead of the shared completion queue.
    use_scq: bool = True
    #: The paper's future-work extension (§III-C2): application buffers
    #: live on hugepages, so delivery hands out references into the
    #: sample cache instead of copying.  The previous batch's cache
    #: references are released when the next ``bread`` is issued
    #: (double-buffer discipline), so the application must be done with
    #: a batch before requesting the next.
    zero_copy: bool = False
    #: Deterministic fault injection (:mod:`repro.faults`).  ``None``
    #: (and a zero plan) keep the datapath bit-identical to a build
    #: without the fault subsystem — pay-for-use.
    fault_plan: Optional[FaultPlan] = None
    #: Recovery policy for the reactors.  ``None`` with a non-zero
    #: fault plan resolves to ``RecoveryPolicy()`` defaults.
    recovery: Optional[RecoveryPolicy] = None
    #: Observability (:mod:`repro.obs`): record end-to-end spans for
    #: every datapath operation (Chrome-trace exportable).  Off keeps
    #: the datapath bit-identical to an uninstrumented build.
    trace: bool = False
    #: Observability: collect counters/histograms/layer attribution in
    #: a unified :class:`repro.obs.MetricsRegistry`.
    metrics: bool = False
    #: Multi-tenant serving (:mod:`repro.tenancy`): per-tenant
    #: :class:`~repro.tenancy.TenantSpec` policies.  Empty keeps the
    #: single-job datapath bit-identical — pay-for-use, like faults/obs.
    tenants: tuple = ()
    #: Replicated cluster serving tier (:mod:`repro.cluster`): R-way
    #: shard placement, front-end balancing, crash/rejoin failover.
    #: ``None`` — or a flat spec (``replicas=1``, balancer off) — keeps
    #: single-node construction bit-identical (pay-for-use).
    cluster: Optional[ClusterSpec] = None

    def validate(self) -> None:
        if self.batching not in (BATCH_NONE, BATCH_SAMPLE, BATCH_CHUNK):
            raise ConfigError(f"unknown batching mode {self.batching!r}")
        if self.queue_depth < 1 or self.window < 1:
            raise ConfigError("queue_depth and window must be >= 1")
        if self.injected_compute < 0:
            raise ConfigError("injected_compute must be >= 0")
        if self.fault_plan is not None:
            self.fault_plan.validate()
        if self.recovery is not None:
            self.recovery.validate()
        seen = []
        for spec in self.tenants:
            spec.validate()
            if spec.name in seen:
                raise ConfigError(f"duplicate tenant {spec.name!r}")
            seen.append(spec.name)
        if self.cluster is not None:
            self.cluster.validate()
            if self.tenants and not self.cluster.is_flat:
                raise ConfigError(
                    "cluster serving and tenancy SFQ are mutually exclusive "
                    "(cluster mode accounts tenants via ClusterRuntime)"
                )


@dataclass(eq=False)
class DLFSFile:
    """Handle returned by ``open`` (``dlfs_open``)."""

    sample_index: int
    length: int
    closed: bool = False


@dataclass(frozen=True)
class MountReport:
    """Timing breakdown of a timed ``dlfs_mount``."""

    staging_time: float
    directory_build_time: float
    aggregation_time: float

    @property
    def total(self) -> float:
        return self.staging_time + self.directory_build_time + self.aggregation_time


class DLFS:
    """A mounted DLFS instance: dataset, layout, directory, devices."""

    def __init__(
        self,
        cluster: Cluster,
        dataset: Dataset,
        config: Optional[DLFSConfig] = None,
        placement: Optional[list[tuple[int, int]]] = None,
        interleaved: bool = False,
        layout: Optional[DatasetLayout] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.dataset = dataset
        self.config = config or DLFSConfig()
        self.config.validate()
        if placement is None:
            placement = [(n.index, 0) for n in cluster if n.devices]
        if not placement:
            raise ConfigError("no NVMe devices available for DLFS")
        for node_idx, dev_idx in placement:
            node = cluster.node(node_idx)
            if dev_idx >= len(node.devices):
                raise ConfigError(
                    f"placement names device {dev_idx} on {node.name}, "
                    f"which has {len(node.devices)}"
                )
        self.placement = placement
        chunk_bytes = cluster.hugepage_chunk_size
        if layout is None:
            layout = DatasetLayout(
                dataset, num_shards=len(placement), interleaved=interleaved
            )
        elif layout.num_shards != len(placement):
            raise ConfigError(
                f"layout has {layout.num_shards} shards but placement "
                f"names {len(placement)} devices"
            )
        self.layout = layout
        self.directory = SampleDirectory(dataset, self.layout)
        self.plan = ChunkPlan(self.layout, chunk_bytes)
        # One NVMe-oF target per shard device, for remote clients.
        self.targets: list[NVMeoFTarget] = []
        for node_idx, dev_idx in placement:
            node = cluster.node(node_idx)
            self.targets.append(
                NVMeoFTarget(
                    self.env, node.name, node.devices[dev_idx], cluster.fabric
                )
            )
        # Replicated cluster serving tier (pay-for-use: a missing or
        # flat spec builds nothing and keeps the exact single-node
        # datapath).  Lanes are the shard index space: lane s is the
        # storage node that staged shard s (its anchored primary), so
        # replicas=1 placement is identical to flat mode by design.
        self.cluster_spec: Optional[ClusterSpec] = self.config.cluster
        self.shard_map: Optional[ShardMap] = None
        self.cluster_state: Optional[ClusterState] = None
        self.lifecycle: Optional[ClusterLifecycle] = None
        cspec = self.cluster_spec
        if cspec is not None and not cspec.is_flat:
            nodes_used = [node_idx for node_idx, _ in placement]
            if len(set(nodes_used)) != len(nodes_used):
                raise ConfigError(
                    "cluster serving needs one storage node per shard "
                    "(placement reuses a node)"
                )
            lanes = list(range(len(placement)))
            self.shard_map = ShardMap(
                num_shards=len(placement), nodes=lanes,
                replicas=cspec.replicas, anchors=lanes,
            )
            self.cluster_state = ClusterState(self.shard_map, self.layout, cspec)
            if cspec.read_cache_chunks > 0:
                for lane, target in enumerate(self.targets):
                    rc = NodeReadCache(
                        f"{target.name}.rcache",
                        cspec.read_cache_chunks,
                        chunk_bytes,
                    )
                    target.read_cache = rc
                    self.cluster_state.read_caches[lane] = rc
        # Fault injection: one shared injector drives every fault site
        # (devices, fabric, NVMe-oF targets, reactor reset schedules)
        # from one seed.  A zero plan builds nothing, so the healthy
        # datapath stays bit-identical (pay-for-use).
        self.injector: Optional[FaultInjector] = None
        self.recovery: Optional[RecoveryPolicy] = self.config.recovery
        plan = self.config.fault_plan
        if plan is not None and not plan.is_zero:
            self.injector = FaultInjector(plan)
            if self.recovery is None:
                self.recovery = RecoveryPolicy()
            cluster.fabric.install_fault_injector(self.injector)
            for node_idx, dev_idx in placement:
                device = cluster.node(node_idx).devices[dev_idx]
                device.install_fault_injector(self.injector)
            for target in self.targets:
                target.install_fault_injector(self.injector)
        # Observability mirrors the injector's install pattern: one
        # bundle per instance, wired onto every datapath component; the
        # default (both off) shares the null bundle and installs nothing.
        self.obs: Observability = OBS_OFF
        if self.config.trace or self.config.metrics:
            self.obs = Observability(
                self.env,
                trace=self.config.trace,
                metrics=self.config.metrics,
            )
            cluster.fabric.install_observability(self.obs)
            for node_idx, dev_idx in placement:
                node = cluster.node(node_idx)
                device = node.devices[dev_idx]
                device.install_observability(self.obs)
                self.obs.tracer.set_process(device.name, node.name)
            for target in self.targets:
                target.install_observability(self.obs)
                self.obs.tracer.set_process(target.name, target.host)
        # Node crash/rejoin lifecycle: needs the cluster state (to drive
        # failover) and the injector/obs hooks built above.
        crashes = () if plan is None else plan.node_crashes
        if crashes:
            if self.cluster_state is None:
                raise ConfigError(
                    "fault plan schedules node crashes but config.cluster "
                    "is off (need a ClusterSpec with replicas>1 or the "
                    "balancer enabled)"
                )
            self.lifecycle = ClusterLifecycle(
                self.env,
                self.cluster_state,
                cspec,
                crashes,
                targets=dict(enumerate(self.targets)),
                devices={
                    lane: self.device_for_shard(lane)
                    for lane in range(len(placement))
                },
                fabric=cluster.fabric,
                injector=self.injector,
                tracer=self.obs.tracer,
            )
        self._clients: list["DLFSClient"] = []
        self._mounted = False

    # -- mount -------------------------------------------------------------------
    @classmethod
    def mount(
        cls,
        cluster: Cluster,
        dataset: Dataset,
        config: Optional[DLFSConfig] = None,
        placement: Optional[list[tuple[int, int]]] = None,
        interleaved: bool = False,
    ) -> "DLFS":
        """Instant (untimed) mount: builds all structures, charges no
        simulated time.  Steady-state experiments use this."""
        fs = cls(cluster, dataset, config, placement, interleaved)
        fs.directory.build_all_shards()
        fs._mounted = True
        return fs

    @classmethod
    def mount_batched(
        cls,
        cluster: Cluster,
        dataset: Dataset,
        files,
        config: Optional[DLFSConfig] = None,
        placement: Optional[list[tuple[int, int]]] = None,
    ) -> "DLFS":
        """Mount a dataset stored as batched files (TFRecord/CIFAR style).

        Every sample keeps its own directory entry pointing at its
        payload inside the enclosing file (paper §III-B1: direct access
        to any sample in a TFRecord), and each batched file also gets a
        whole-file entry for file-oriented access
        (``directory.lookup_file``).
        """
        from ..data.batched_layout import BatchedFileLayout

        if placement is None:
            placement = [(n.index, 0) for n in cluster if n.devices]
        layout = BatchedFileLayout(dataset, files, num_shards=len(placement))
        fs = cls(cluster, dataset, config, placement, layout=layout)
        for i, f in enumerate(files):
            shard, offset, nbytes = layout.file_extent(i)
            fs.directory.register_file_entry(f.name, shard, offset, nbytes)
        fs.directory.build_all_shards()
        fs._mounted = True
        return fs

    def mount_timed(
        self,
        comm: Communicator,
        pfs: ParallelFS,
        write_chunk: int = 8 * MB,
    ) -> Generator[Event, Any, MountReport]:
        """Timed collective ``dlfs_mount`` (paper §III-A/B2).

        Every shard node stages its portion from the parallel file
        system onto its NVMe device, builds its local directory tree
        (charged as one hash and one AVL insert per sample), and one
        allgather replicates the directory.  Process helper.
        """
        env = self.env
        t0 = env.now

        def stage(shard: int) -> Generator[Event, Any, None]:
            node_idx, dev_idx = self.placement[shard]
            device = self.cluster.node(node_idx).devices[dev_idx]
            total = self.layout.shard_bytes(shard)
            start, _ = self.layout.shard_extent(shard)
            offset, remaining = start, total
            while remaining > 0:
                step = min(write_chunk, remaining)
                yield from pfs.read(step)
                cmd = device.write(offset - offset % 512, step + (-step % 512))
                yield cmd.completion
                offset += step
                remaining -= step

        staging = [
            env.process(stage(s), name=f"dlfs.stage{s}")
            for s in range(len(self.placement))
        ]
        yield env.all_of(staging)
        t1 = env.now

        # Local tree construction: each node hashes + inserts its share.
        spec = self.cluster.testbed.cpu
        build_times = []
        for shard in range(self.layout.num_shards):
            n_local = len(self.layout.shard_samples(shard))
            depth = max(1, int(np.ceil(np.log2(n_local + 1))))
            build_times.append(
                n_local * (spec.hash_cost + depth * spec.tree_node_visit)
            )
        yield env.timeout(max(build_times))  # nodes build in parallel
        t2 = env.now

        yield from aggregate_directory(comm, self.directory)
        t3 = env.now
        self._mounted = True
        return MountReport(
            staging_time=t1 - t0,
            directory_build_time=t2 - t1,
            aggregation_time=t3 - t2,
        )

    # -- clients ---------------------------------------------------------------
    def client(
        self,
        rank: int = 0,
        num_ranks: int = 1,
        node: Optional[Node] = None,
        core_index: int = 0,
    ) -> "DLFSClient":
        """Create the DLFS client for one training task."""
        if not self._mounted:
            raise NotMounted("DLFS.mount() (or mount_timed) must run first")
        if not 0 <= rank < num_ranks:
            raise ConfigError(f"rank {rank} out of range ({num_ranks} ranks)")
        if node is None:
            node = self.cluster.node(rank % len(self.cluster))
        client = DLFSClient(self, rank, num_ranks, node, core_index)
        self._clients.append(client)
        return client

    def device_for_shard(self, shard: int) -> NVMeDevice:
        node_idx, dev_idx = self.placement[shard]
        return self.cluster.node(node_idx).devices[dev_idx]

    def __repr__(self) -> str:
        return (
            f"<DLFS {self.dataset.name!r} shards={len(self.placement)} "
            f"mode={self.config.batching!r}>"
        )


class DLFSClient:
    """Per-task DLFS frontend + its pinned backend reactor."""

    def __init__(
        self,
        fs: DLFS,
        rank: int,
        num_ranks: int,
        node: Node,
        core_index: int,
    ) -> None:
        self.fs = fs
        self.env = fs.env
        self.rank = rank
        self.num_ranks = num_ranks
        self.node = node
        config = fs.config
        self.config = config

        self.driver = SPDKDriver(node)
        self.vbits = LocalValidBits(fs.directory)
        from .cache import SampleCache  # local import to avoid cycle

        self.cache = SampleCache(node.hugepages, on_evict=self._on_evict)
        inbox = Store(self.env, name=f"dlfs.{node.name}.r{rank}.scq")

        # One qpair per shard: direct to local devices, NVMe-oF otherwise.
        qpairs: dict[int, IOQPair] = {}
        for shard, (node_idx, dev_idx) in enumerate(fs.placement):
            if node_idx == node.index:
                device = node.devices[dev_idx]
                if not self.driver.is_unbound(device):
                    self.driver.unbind_from_kernel(device)
                qpairs[shard] = self.driver.connect(
                    device, queue_depth=config.queue_depth, completion_sink=inbox
                )
            else:
                qpairs[shard] = self.driver.connect(
                    fs.targets[shard],
                    queue_depth=config.queue_depth,
                    completion_sink=inbox,
                )
        self.qpairs = qpairs

        # Multi-tenant serving: build the runtime (admission + fair
        # scheduler + cache partition + accounting) only when tenants
        # are configured — pay-for-use like faults and obs.
        self.tenancy = None
        if config.tenants:
            from ..tenancy import TenantRuntime  # local import, no cycle

            self.tenancy = TenantRuntime(
                self.env,
                config.tenants,
                queue_depth=config.queue_depth,
                registry=fs.obs.metrics if fs.obs.enabled else None,
            )
            # Tenant-keyed fault plans draw at completion delivery.
            if fs.injector is not None and fs.injector.has_tenant_faults:
                for qp in qpairs.values():
                    qp.injector = fs.injector

        # Cluster serving: each client gets its own front-end balancer
        # view over the shared cluster state (pay-for-use: None off).
        self.balancer = None
        if fs.cluster_state is not None:
            self.balancer = FrontEndBalancer(
                fs.cluster_state, hedge_delay=fs.cluster_spec.hedge_delay
            )

        thread = BoundThread(node.cpu.core(core_index), f"dlfs.r{rank}.io")
        testbed = fs.cluster.testbed
        self.reactor = Reactor(
            env=self.env,
            thread=thread,
            qpairs=qpairs,
            cache=self.cache,
            vbits=self.vbits,
            directory=fs.directory,
            plan=fs.plan,
            cpu_spec=testbed.cpu,
            net_spec=testbed.network,
            injected_compute=config.injected_compute,
            inbox=inbox,
            use_scq=config.use_scq,
            zero_copy=config.zero_copy,
            injector=fs.injector,
            recovery=fs.recovery,
            tenancy=self.tenancy,
            balancer=self.balancer,
            name=f"dlfs.{node.name}.r{rank}",
        )
        if fs.lifecycle is not None:
            fs.lifecycle.register(self.reactor)
        if config.copy_cores:
            cores = [node.cpu.core(i) for i in config.copy_cores]
            pool = CopyPool(self.env, cores, kick=self.reactor._kick)
            self.reactor.copy_pool = pool
        if fs.obs.enabled:
            for qp in qpairs.values():
                qp.install_observability(fs.obs)
                fs.obs.tracer.set_process(qp.name, node.name)
            self.reactor.install_observability(fs.obs)
            fs.obs.tracer.set_process(self.reactor.name, node.name)
            fs.obs.tracer.set_process(f"{self.reactor.name}.copy", node.name)
        # Zero-copy mode: cache keys lent to the application by the
        # previous batch, released when the next one is requested.
        self._lent_keys: list = []
        #: Per-sample failures surfaced by completed jobs (graceful
        #: degradation: jobs finish, losses are reported here).
        self.error_log: list = []
        # Epoch state (set by sequence()).
        self._global_seq: Optional[GlobalSequence] = None
        self._epoch: Optional[ChunkEpoch] = None
        self._delivery = None
        self._pos = 0
        self._batch_counter = 0

    # -- eviction: clear the directory V bits of evicted spans --------------------
    def _on_evict(self, key) -> None:
        kind = key[0]
        if kind in ("s", "e"):
            self.vbits.clear_valid(key[1])
        else:  # ("c", gid)
            self.vbits.clear_valid_many(self.fs.plan.members(key[1]))

    # -- dlfs_open / dlfs_read / dlfs_close ---------------------------------------
    def open(self, name: str) -> Generator[Event, Any, DLFSFile]:
        """``dlfs_open``: resolve a sample name through the directory."""
        job = LookupJob(done=self.env.event(), name=name)
        self.reactor.submit(job)
        result = yield job.done
        return DLFSFile(sample_index=result.sample_index, length=result.length)

    def read(self, target: Union[DLFSFile, int]) -> Generator[Event, Any, int]:
        """``dlfs_read``: synchronous full read of one sample."""
        if isinstance(target, DLFSFile):
            if target.closed:
                raise InvalidHandle("file handle is closed")
            index = target.sample_index
        else:
            index = int(target)
        self._release_lent()
        job = ReadJob(
            samples=np.array([index], dtype=np.int64), done=self.env.event()
        )
        self.reactor.submit(job)
        yield job.done
        self._collect_lent(job)
        return int(self.fs.dataset.sizes[index])

    def close_file(self, f: DLFSFile) -> None:
        """``dlfs_close``."""
        if f.closed:
            raise InvalidHandle("file handle already closed")
        f.closed = True

    def read_batch(self, sample_indices) -> Generator[Event, Any, int]:
        """Sample-level batched read of explicit samples (one job, many
        overlapped fetches)."""
        samples = np.asarray(sample_indices, dtype=np.int64)
        self._release_lent()
        job = ReadJob(samples=samples, done=self.env.event())
        self.reactor.submit(job)
        yield job.done
        self._collect_lent(job)
        return int(self.fs.dataset.sizes[samples].sum())

    # -- dlfs_sequence / dlfs_bread --------------------------------------------------
    def sequence(self, seed: int, batch_per_rank: Optional[int] = None) -> None:
        """``dlfs_sequence``: arm a new epoch from a shared seed."""
        batch = batch_per_rank or BATCH_PER_RANK
        if self.config.batching == BATCH_CHUNK:
            self._epoch = ChunkEpoch(self.fs.plan, seed, self.num_ranks)
            # Per-rank generator stream derived from (seed, rank).
            order_seed = int(
                sim_rng("dlfs.sequence.rank", [seed, self.rank]).integers(2**31)
            )
            # Lazy: picks are made only as bread and its prefetch read.
            self._delivery = DeliveryPlan(
                self.fs.plan,
                self._epoch.rank_chunks(self.rank),
                self._epoch.rank_edges(self.rank),
                seed=order_seed,
                window=self.config.window,
            )
        else:
            self._global_seq = GlobalSequence(
                self.fs.dataset.num_samples,
                seed,
                num_ranks=self.num_ranks,
                batch_per_rank=batch,
            )
            self._rank_order = self._global_seq.epoch_order_for_rank(self.rank)
            self._pos = 0

    @property
    def epoch_remaining(self) -> int:
        """Samples left before the epoch is exhausted."""
        if self.config.batching == BATCH_CHUNK:
            if self._delivery is None:
                return 0
            return len(self._delivery)
        if self._global_seq is None:
            return 0
        return len(self._rank_order) - self._pos

    def bread(self, count: Optional[int] = None) -> Generator[Event, Any, np.ndarray]:
        """``dlfs_bread``: deliver the next mini-batch of samples.

        Returns the indices of the delivered samples.  Requires a prior
        :meth:`sequence` call.
        """
        count = count or BATCH_PER_RANK
        if self.config.batching == BATCH_CHUNK:
            samples = yield from self._bread_chunk(count)
        elif self.config.batching == BATCH_SAMPLE:
            samples = yield from self._bread_sample(count)
        else:
            samples = yield from self._bread_base(count)
        return samples

    def _bread_chunk(self, count: int) -> Generator[Event, Any, np.ndarray]:
        if self._delivery is None:
            raise NotMounted("call sequence() before bread()")
        if not len(self._delivery):
            raise ConfigError("epoch exhausted; call sequence() with a new seed")
        samples, requirements = self._delivery.take(count)
        # Distinct upcoming requirements, up to the window depth.
        prefetch = self._delivery.lookahead(self.config.window)
        self._release_lent()
        job = ReadJob(
            samples=samples,
            done=self.env.event(),
            requirements=requirements,
            prefetch=prefetch,
        )
        self.reactor.submit(job)
        yield job.done
        self._collect_lent(job)
        return samples

    def _next_portion(self, count: int) -> np.ndarray:
        if self._global_seq is None:
            raise NotMounted("call sequence() before bread()")
        if self._pos >= len(self._rank_order):
            raise ConfigError("epoch exhausted; call sequence() with a new seed")
        end = min(self._pos + count, len(self._rank_order))
        portion = self._rank_order[self._pos:end]
        self._pos = end
        return portion

    def _bread_sample(self, count: int) -> Generator[Event, Any, np.ndarray]:
        portion = self._next_portion(count)
        self._release_lent()
        job = ReadJob(samples=portion, done=self.env.event())
        self.reactor.submit(job)
        yield job.done
        self._collect_lent(job)
        return portion

    def _bread_base(self, count: int) -> Generator[Event, Any, np.ndarray]:
        """DLFS-Base: one synchronous dlfs_read per sample (§III-D's
        motivating anti-pattern)."""
        portion = self._next_portion(count)
        for idx in portion:
            yield from self.read(int(idx))
        return portion

    # -- zero-copy buffer lending --------------------------------------------------
    def _release_lent(self) -> None:
        """Return the previous batch's cache references (zero-copy)."""
        if self._lent_keys:
            self.cache.release_many(self._lent_keys)
            self._lent_keys.clear()

    def _collect_lent(self, job: ReadJob) -> None:
        if job.retained:
            self._lent_keys.extend(job.retained)
        if job.errors:
            self.error_log.extend(job.errors)

    def release_buffers(self) -> None:
        """Explicitly return zero-copy buffers before the next batch."""
        self._release_lent()

    # -- lifecycle / stats -----------------------------------------------------------
    def shutdown(self) -> Generator[Event, Any, None]:
        """Stop the reactor and free its core."""
        self._release_lent()
        yield self.reactor.stop()

    @property
    def samples_delivered(self) -> int:
        return self.reactor.samples_delivered

    @property
    def failed_samples(self) -> int:
        """Samples lost to unrecoverable faults (graceful degradation)."""
        return len(self.error_log)

    @property
    def recovery_stats(self):
        """The reactor's :class:`repro.sim.RecoveryStats`."""
        return self.reactor.recovery_stats

    def error_report(self) -> dict:
        """Structured per-job error accounting for this client."""
        by_key: dict = {}
        for exc in self.error_log:
            by_key.setdefault(exc.key, []).append(str(exc))
        return {
            "failed_samples": len(self.error_log),
            "by_span": by_key,
            "recovery": self.reactor.recovery_stats.as_dict(),
        }

    def sample_throughput(self) -> float:
        """Delivered samples per simulated second."""
        return self.reactor.read_meter.rate()

    def bandwidth(self) -> float:
        return self.reactor.read_meter.bandwidth()

    def __repr__(self) -> str:
        return (
            f"<DLFSClient rank={self.rank}/{self.num_ranks} on "
            f"{self.node.name!r} mode={self.config.batching!r}>"
        )
