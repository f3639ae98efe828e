"""Ablations for the design choices DESIGN.md calls out.

* chunk size sweep (the 256 KB default of §III-C1);
* copy-thread pool size (§III-C2's copy threads);
* shared completion queue vs per-qpair polling (§III-C2);
* replicated vs distributed metadata (§III-B2, via the Octopus knob).
"""

from conftest import RESULTS_DIR, run_once

from repro.bench.figures import FigureResult
from repro.bench import workloads as W
from repro.bench.report import render_figure
from repro.cluster import Cluster
from repro.core import DLFS, DLFSConfig
from repro.data import Dataset
from repro.hw import KB, Testbed
from repro.octopus import OctopusFS, OctopusSpec
from repro.sim import Environment

import numpy as np


def _single_node(sample_bytes: int, batches: int, **fields) -> float:
    """DLFS throughput of one reader on the real device: ``batches``
    measured 32-sample batches after 4 warm-up batches."""
    load = W.Readers(warmup=4 * 32, reads=batches * 32)
    return W.dlfs_readers(
        load, num_samples=max(2 * load.demand(), 2000),
        sample_bytes=sample_bytes, **fields,
    ).sample_throughput


def _emit(capsys_disabled_printer, result):
    text = render_figure(result)
    capsys_disabled_printer(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.figure}.txt").write_text(text + "\n")


def test_ablation_chunk_size(benchmark, emit):
    """Chunk-level batching vs chunk size at 512 B samples.

    The headline effect (§III-D2) is chunking *at all*: any chunk size
    collapses hundreds of per-sample SPDK requests into one.  Among
    chunk sizes the differences are second-order once the device is
    kept busy.
    """

    def run():
        result = FigureResult(
            figure="ablation_chunk_size",
            title="Ablation: data chunk size (512 B samples)",
            x_label="configuration",
            y_label="samples/s",
        )
        result.series["DLFS"] = {
            "per-sample": _single_node(512, 120, batching="sample")
        }
        for chunk in (16 * KB, 64 * KB, 256 * KB):
            result.series["DLFS"][f"{chunk // KB}KB-chunks"] = _single_node(
                512, 300, chunk_bytes=chunk
            )
        return result

    result = run_once(benchmark, run)
    emit(result)
    curve = result.series["DLFS"]
    # Chunk batching (any size) beats per-sample requests decisively.
    for key, value in curve.items():
        if key != "per-sample":
            assert value > 1.5 * curve["per-sample"], key
    # The default 256 KB is at least as good as small chunks.
    assert curve["256KB-chunks"] >= 0.9 * curve["16KB-chunks"]


def test_ablation_copy_threads(benchmark, emit):
    """Offloading copies to a pool helps when delivery is CPU-bound
    (tiny samples), not when the device is the bottleneck."""

    def run():
        result = FigureResult(
            figure="ablation_copy_threads",
            title="Ablation: copy-thread pool size (512 B samples)",
            x_label="copy cores",
            y_label="samples/s",
        )
        result.series["512B"] = {}
        result.series["128KB"] = {}
        for n_copy in (0, 1, 2):
            cores = tuple(range(1, 1 + n_copy))
            result.series["512B"][n_copy] = _single_node(
                512, 60, copy_cores=cores
            )
            result.series["128KB"][n_copy] = _single_node(
                128 * KB, 30, copy_cores=cores
            )
        return result

    result = run_once(benchmark, run)
    emit(result)
    tiny = result.series["512B"]
    big = result.series["128KB"]
    # One copy core only relocates the work (same serial copy budget);
    # two copy cores split it and nearly double CPU-bound throughput.
    assert tiny[2] > tiny[0] * 1.5
    # Device-bound large samples gain nothing (within noise).
    assert abs(big[2] - big[0]) < 0.15 * big[0]


def test_ablation_shared_completion_queue(benchmark, emit):
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

    def run():
        result = FigureResult(
            figure="ablation_scq",
            title="Ablation: shared completion queue vs per-qpair polling",
            x_label="configuration",
            y_label="samples/s",
        )
        result.series["throughput"] = {
            "SCQ": run_one(True),
            "per-qpair": run_one(False),
        }
        return result

    result = run_once(benchmark, run)
    emit(result)
    series = result.series["throughput"]
    assert series["SCQ"] > series["per-qpair"]


def test_ablation_zero_copy(benchmark, emit):
    """The paper's future-work extension: application buffers on
    hugepages remove the final copy.  Pays off exactly where the copy
    stage is the bottleneck (tiny samples); device-bound sizes are
    unchanged."""

    def run():
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
        return result

    result = run_once(benchmark, run)
    emit(result)
    copy, zc = result.series["copy"], result.series["zero-copy"]
    assert zc["512B"] > copy["512B"] * 1.02       # CPU-bound: wins
    assert zc["128KB"] > copy["128KB"] * 0.95     # device-bound: no loss


def test_ablation_metadata_replication(benchmark, emit):
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
        order = np.random.default_rng(3).permutation(ds.num_samples)
        per_node = 150

        def worker(env, rank):
            base = rank * per_node
            for k in range(per_node):
                yield from fs.read_sample(rank, int(order[base + k]))

        procs = [env.process(worker(env, r)) for r in range(8)]
        env.run(until=env.all_of(procs))
        return 8 * per_node / env.now

    def run():
        result = FigureResult(
            figure="ablation_metadata",
            title="Ablation: replicated vs distributed metadata "
                  "(fixed data path)",
            x_label="configuration",
            y_label="samples/s (aggregate)",
        )
        result.series["throughput"] = {
            "replicated (DLFS-style)": run_one(True),
            "distributed (Octopus)": run_one(False),
        }
        return result

    result = run_once(benchmark, run)
    emit(result)
    series = result.series["throughput"]
    # Metadata locality alone buys a large factor — the paper's §III-B
    # motivation for the replicated in-memory directory.
    assert series["replicated (DLFS-style)"] > 1.5 * series["distributed (Octopus)"]
