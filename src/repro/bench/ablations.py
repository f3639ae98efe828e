"""The design ablations, parameter sweeps and timed mount breakdown
(DESIGN.md §4-5).  Each function runs one fixed-size experiment and
returns a :class:`~repro.bench.figures.FigureResult` named after its
table under ``benchmarks/results/``, with the claim bands it must meet.
"""

from __future__ import annotations

import numpy as np

from ..cluster import Cluster, Communicator
from ..core import DLFS, DLFSConfig
from ..data import Dataset, ParallelFS
from ..hw import KB, Testbed
from ..octopus import OctopusFS, OctopusSpec
from ..sim import Environment
from . import workloads as W
from .figures import FigureResult

__all__ = [
    "ablation_chunk_size",
    "ablation_copy_threads",
    "ablation_scq",
    "ablation_zero_copy",
    "ablation_metadata",
    "sweep_queue_depth",
    "sweep_window",
    "mount_breakdown",
]


def _single_node(sample_bytes: int, batches: int, **fields) -> float:
    """DLFS throughput of one reader on the real device: ``batches``
    measured 32-sample batches after 4 warm-up batches."""
    load = W.Readers(warmup=4 * 32, reads=batches * 32)
    return W.dlfs_readers(
        load, num_samples=max(2 * load.demand(), 2000),
        sample_bytes=sample_bytes, **fields,
    ).sample_throughput


def ablation_chunk_size() -> FigureResult:
    """Chunk-level batching vs chunk size at 512 B samples.

    The headline effect (§III-D2) is chunking *at all*: any chunk size
    collapses hundreds of per-sample SPDK requests into one.  Among
    chunk sizes the differences are second-order once the device is
    kept busy.
    """
    result = FigureResult(
        figure="ablation_chunk_size",
        title="Ablation: data chunk size (512 B samples)",
        x_label="configuration",
        y_label="samples/s",
    )
    curve = result.series["DLFS"] = {
        "per-sample": _single_node(512, 120, batching="sample")
    }
    for chunk in (16 * KB, 64 * KB, 256 * KB):
        curve[f"{chunk // KB}KB-chunks"] = _single_node(
            512, 300, chunk_bytes=chunk
        )
    # Chunk batching (any size) beats per-sample requests decisively,
    # and the default 256 KB is at least as good as small chunks.
    result.band("chunks / per-sample, min over chunk sizes",
                min(v / curve["per-sample"] for k, v in curve.items()
                    if k != "per-sample"), gt=1.5)
    result.band("256KB / 16KB chunks",
                curve["256KB-chunks"] / curve["16KB-chunks"], ge=0.9)
    return result


def ablation_copy_threads() -> FigureResult:
    """Offloading copies to a pool helps when delivery is CPU-bound
    (tiny samples), not when the device is the bottleneck."""
    result = FigureResult(
        figure="ablation_copy_threads",
        title="Ablation: copy-thread pool size (512 B samples)",
        x_label="copy cores",
        y_label="samples/s",
    )
    tiny = result.series["512B"] = {}
    big = result.series["128KB"] = {}
    for n_copy in (0, 1, 2):
        cores = tuple(range(1, 1 + n_copy))
        tiny[n_copy] = _single_node(512, 60, copy_cores=cores)
        big[n_copy] = _single_node(128 * KB, 30, copy_cores=cores)
    # One copy core only relocates the work (same serial copy budget);
    # two split it and nearly double CPU-bound throughput.  Device-bound
    # large samples gain nothing (within noise).
    result.band("512B: 2 copy cores / none", tiny[2] / tiny[0], gt=1.5)
    result.band("128KB: 2 copy cores / none", big[2] / big[0], gt=0.85, lt=1.15)
    return result


def ablation_scq() -> FigureResult:
    """SCQ vs per-qpair polling, at 16 remote devices with per-sample
    requests (where completion handling dominates)."""

    def run_one(use_scq: bool) -> float:
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=17,
                          devices_per_node=0)
        placement = []
        for d in range(16):
            node = cluster.node(1 + d)
            node.add_device()
            placement.append((node.index, 0))
        ds = Dataset.fixed("bench", 8000, 4 * KB, seed=1)
        fs = DLFS.mount(
            cluster, ds,
            DLFSConfig(batching="sample", use_scq=use_scq),
            placement=placement,
        )
        client = fs.client(rank=0, num_ranks=1, node=cluster.node(0))
        client.sequence(seed=1)

        def app(env):
            for _ in range(3):
                yield from client.bread(32)
            client.reactor.read_meter.start()
            for _ in range(40):
                yield from client.bread(32)

        env.run(until=env.process(app(env)))
        return client.sample_throughput()

    result = FigureResult(
        figure="ablation_scq",
        title="Ablation: shared completion queue vs per-qpair polling",
        x_label="configuration",
        y_label="samples/s",
    )
    series = result.series["throughput"] = {
        "SCQ": run_one(True),
        "per-qpair": run_one(False),
    }
    result.band("SCQ / per-qpair", series["SCQ"] / series["per-qpair"], gt=1.0)
    return result


def ablation_zero_copy() -> FigureResult:
    """The paper's future-work extension: application buffers on
    hugepages remove the final copy.  Pays off exactly where the copy
    stage is the bottleneck (tiny samples); device-bound sizes are
    unchanged."""
    result = FigureResult(
        figure="ablation_zero_copy",
        title="Ablation: zero-copy delivery (paper future work)",
        x_label="sample size",
        y_label="samples/s",
    )
    for zc, label in ((False, "copy"), (True, "zero-copy")):
        result.series[label] = {}
        for size, tag in ((512, "512B"), (128 * KB, "128KB")):
            cfg = DLFSConfig(batching="chunk", zero_copy=zc)
            env = Environment()
            cluster = Cluster(env, Testbed.paper(), num_nodes=1,
                              devices_per_node=1)
            ds = Dataset.fixed("bench", 12_000, size, seed=1)
            fs = DLFS.mount(cluster, ds, cfg)
            client = fs.client()
            client.sequence(seed=1)

            def app(env, client=client):
                for _ in range(4):
                    yield from client.bread(32)
                client.reactor.read_meter.start()
                for _ in range(60):
                    yield from client.bread(32)

            env.run(until=env.process(app(env)))
            result.series[label][tag] = client.sample_throughput()
    copy, zc = result.series["copy"], result.series["zero-copy"]
    # CPU-bound tiny samples win; device-bound large ones lose nothing.
    result.band("512B: zero-copy / copy", zc["512B"] / copy["512B"], gt=1.02)
    result.band("128KB: zero-copy / copy", zc["128KB"] / copy["128KB"], gt=0.95)
    return result


def ablation_metadata() -> FigureResult:
    """DLFS's replicated directory vs Octopus-style remote lookups,
    holding the data path fixed (the Octopus client with the
    ``replicated`` knob)."""

    def run_one(replicated: bool) -> float:
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=8,
                          devices_per_node=0)
        fs = OctopusFS(cluster, OctopusSpec(replicated=replicated))
        ds = Dataset.fixed("bench", 4000, 4 * KB, seed=2)
        fs.mount(ds)
        # The committed ablation_metadata table reads this stream.
        rng = np.random.default_rng(3)  # simlint: disable=SL105 -- fixed order
        order = rng.permutation(ds.num_samples)
        per_node = 150

        def worker(env, rank):
            base = rank * per_node
            for k in range(per_node):
                yield from fs.read_sample(rank, int(order[base + k]))

        procs = [env.process(worker(env, r)) for r in range(8)]
        env.run(until=env.all_of(procs))
        return 8 * per_node / env.now

    result = FigureResult(
        figure="ablation_metadata",
        title="Ablation: replicated vs distributed metadata "
              "(fixed data path)",
        x_label="configuration",
        y_label="samples/s (aggregate)",
    )
    series = result.series["throughput"] = {
        "replicated (DLFS-style)": run_one(True),
        "distributed (Octopus)": run_one(False),
    }
    # Metadata locality alone buys a large factor: the paper's §III-B
    # motivation for the replicated in-memory directory.
    result.band("replicated / distributed",
                series["replicated (DLFS-style)"] / series["distributed (Octopus)"],
                gt=1.5)
    return result


def sweep_queue_depth() -> FigureResult:
    """Sample-level batching throughput vs SPDK queue depth.

    §III-D1: with sample-level batching "the DLFS frontend can then
    submit as many requests as allowed by the queue depth of SPDK I/O
    QPairs", so throughput climbs with queue depth until the device
    pipeline is full.
    """
    result = FigureResult(
        figure="sweep_queue_depth",
        title="Sweep: SPDK I/O QPair queue depth "
              "(4 KB samples, sample-level batching)",
        x_label="queue depth",
        y_label="samples/s",
    )
    curve = result.series["DLFS-sample"] = {}
    load = W.Readers(warmup=4 * 32, reads=40 * 32)
    for depth in (1, 2, 4, 8, 16, 64, 128):
        curve[depth] = W.dlfs_readers(
            load, num_samples=max(2 * load.demand(), 2000),
            sample_bytes=4 * KB, batching="sample", queue_depth=depth,
        ).sample_throughput
    # Depth 1 degenerates to synchronous reads; deep queues pipeline,
    # and returns flatten once the device is saturated.
    result.band("depth 16 / depth 1", curve[16] / curve[1], gt=3.0)
    result.band("depth 128 / depth 16", curve[128] / curve[16], lt=1.5)
    result.band("step to the next depth, min",
                min(result.steps("DLFS-sample")), ge=0.9)
    return result


def sweep_window() -> FigureResult:
    """Chunk-pipeline window vs throughput on remote devices.

    With 4 remote devices, a 1-chunk window starves the qpairs between
    breads; a deeper window keeps every device streaming.
    """
    result = FigureResult(
        figure="sweep_window",
        title="Sweep: chunk-pipeline window "
              "(128 KB samples, 4 remote NVMe devices, 1 client)",
        x_label="window (chunks)",
        y_label="samples/s",
    )
    curve = result.series["DLFS-1C"] = {}
    # Small breads (4 samples = 2 chunks) so the lookahead window, not
    # the batch's own fan-out, drives pipelining.
    load = W.Readers(batch=4, warmup=3 * 4, reads=150 * 4)
    for window in (1, 2, 4, 8, 16, 32):
        curve[window] = W.dlfs_readers(
            load, num_storage=4, replicas=1, balancer=False,
            num_samples=max(2 * load.demand(), 4000),
            sample_bytes=128 * KB, window=window,
        ).sample_throughput
    result.band("window 16 / window 1", curve[16] / curve[1], gt=1.3)
    result.band("window 32 / window 16", curve[32] / curve[16], ge=0.9)
    return result


def mount_breakdown() -> FigureResult:
    """Timed ``dlfs_mount`` breakdown versus node count.

    §III-B2: "This distributed generation of AVL trees speeds up the
    creation of the in-memory sample directory."  Staging parallelizes
    over nodes, local tree construction shrinks with the per-node share,
    and the allgather grows only mildly, so total mount time drops as
    nodes are added.
    """

    def mount_once(num_nodes: int):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=num_nodes)
        ds = Dataset.fixed("mount", 200_000, 16 * KB, seed=1)
        fs = DLFS(cluster, ds)
        job = fs.mount_timed(Communicator(cluster), ParallelFS(env))
        return env.run(until=env.process(job))

    result = FigureResult(
        figure="mount_breakdown",
        title="Extension: dlfs_mount time vs node count "
              "(200K samples, 16 KB)",
        x_label="nodes",
        y_label="seconds",
    )
    for series in ("staging", "tree build", "allgather", "total"):
        result.series[series] = {}
    for n in (1, 2, 4, 8, 16):
        report = mount_once(n)
        result.series["staging"][n] = report.staging_time
        result.series["tree build"][n] = report.directory_build_time
        result.series["allgather"][n] = report.aggregation_time
        result.series["total"][n] = report.total
    # Mount time drops substantially with more nodes, because staging
    # parallelizes and tree building shrinks; the allgather is a small
    # share of the total everywhere.
    for name in ("total", "staging", "tree build"):
        result.band(f"{name}: 16 nodes / 1 node",
                    result.series[name][16] / result.series[name][1], lt=0.25)
    total = result.series["total"]
    result.band("allgather / total, max over 2-16 nodes",
                max(result.series["allgather"][n] / total[n]
                    for n in (2, 4, 8, 16)),
                lt=0.25)
    return result
