"""One function per paper figure.

Each ``figNN`` function runs its experiment at (scaled) paper
parameters and returns a :class:`FigureResult` with the same series the
paper plots plus the paper's headline numbers for side-by-side
comparison.  Every DLFS bar is a closed-loop readers run
(:func:`~repro.bench.workloads.dlfs_readers`).  The ``benchmarks/``
directory wires these into pytest-benchmark targets;
``repro.bench.report`` renders them.

``scale < 1.0`` shrinks workload sizes proportionally (used by the test
suite); the benchmarks run at ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..data import imagenet_like, imdb_like
from ..hw.platform import KB, MB
from ..sim import rng as sim_rng
from ..train import run_accuracy_experiment
from . import workloads as W

__all__ = [
    "FigureResult",
    "fig01_size_distribution",
    "fig06_single_node_throughput",
    "fig07a_core_scaling",
    "fig07b_compute_overlap",
    "fig08_throughput_16_nodes",
    "fig09_scalability",
    "fig10_lookup_time",
    "fig11_disaggregation",
    "fig12_tensorflow",
    "fig13_training_accuracy",
]

SMALL_SIZES = (512, 4 * KB)
LARGE_SIZES = (16 * KB, 128 * KB, 1 * MB)
ALL_SIZES = SMALL_SIZES + LARGE_SIZES
NODE_COUNTS = (2, 4, 8, 16)


@dataclass
class FigureResult:
    """Series + paper reference points for one figure."""

    figure: str
    title: str
    #: x-axis label and the plotted unit.
    x_label: str
    y_label: str
    #: series name -> {x: y}.
    series: dict[str, dict] = field(default_factory=dict)
    #: Headline comparisons: description -> (paper value, measured value).
    headline: dict[str, tuple] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def ratio(self, numerator: str, denominator: str, x) -> float:
        return self.series[numerator][x] / self.series[denominator][x]

    def mean_ratio(self, numerator: str, denominator: str, xs) -> float:
        return float(
            np.mean([self.ratio(numerator, denominator, x) for x in xs])
        )


def _n(count: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(count * scale)))


def _dlfs(sample_bytes: int, batches: int, warmup: int, floor: int,
          nodes: int = 1, cores: int = 1, **fields) -> W.RunReport:
    """One DLFS bar: ``cores`` readers on each of ``nodes`` nodes, each
    measured over ``batches`` 32-sample batches after ``warmup`` more.
    The dataset holds twice what they read, and at least ``floor``."""
    load = W.Readers(warmup=32 * warmup, reads=32 * batches,
                     ranks_per_node=cores)
    return W.dlfs_readers(
        load, num_clients=nodes, sample_bytes=sample_bytes,
        num_samples=max(2 * load.demand(nodes), floor), **fields,
    )


# ---------------------------------------------------------------------------
def fig01_size_distribution(num_samples: int = 200_000, seed: int = 1) -> FigureResult:
    """Fig 1: sample-size CDFs for ImageNet-like and IMDB-like datasets."""
    result = FigureResult(
        figure="fig01",
        title="Sample size distribution for different datasets",
        x_label="sample size (bytes)",
        y_label="CDF",
    )
    grid = np.unique(np.logspace(1.5, 7, 60).astype(np.int64))
    for name, dist in (("ImageNet", imagenet_like()), ("IMDB", imdb_like())):
        sizes = dist.sample(sim_rng("fig01.cdf", seed), num_samples)
        cdf = np.searchsorted(np.sort(sizes), grid, side="right") / num_samples
        result.series[name] = {int(x): float(c) for x, c in zip(grid, cdf)}
    img = imagenet_like().sample(sim_rng("fig01.imagenet", seed), num_samples)
    imdb = imdb_like().sample(sim_rng("fig01.imdb", seed), num_samples)
    result.headline["ImageNet: fraction of samples <= 147 KB"] = (
        0.75, float((img <= 147 * KB).mean())
    )
    result.headline["IMDB: fraction of samples <= 1.6 KB"] = (
        0.75, float((imdb <= 1.6 * KB).mean())
    )
    return result


# ---------------------------------------------------------------------------
def fig06_single_node_throughput(
    sizes: tuple = ALL_SIZES, scale: float = 1.0
) -> FigureResult:
    """Fig 6: random-read sample throughput on the single real NVMe device."""
    result = FigureResult(
        figure="fig06",
        title="Random read sample throughput on single node",
        x_label="sample size (bytes)",
        y_label="samples/s",
    )
    batches = _n(40, scale, 8)
    reads = _n(250, scale, 40)
    mc_threads = 10
    for series in ("Ext4-Base", "Ext4-MC", "DLFS-Base", "DLFS"):
        result.series[series] = {}
    for size in sizes:
        result.series["Ext4-Base"][size] = W.ext4_single_node(
            size, threads=1, reads_per_thread=reads
        ).sample_throughput
        result.series["Ext4-MC"][size] = W.ext4_single_node(
            size, threads=mc_threads, reads_per_thread=max(reads // 2, 30)
        ).sample_throughput
        result.series["DLFS-Base"][size] = _dlfs(
            size, max(batches // 3, 4), warmup=4, floor=2000,
            batching="none",
        ).sample_throughput
        result.series["DLFS"][size] = _dlfs(
            size, batches, warmup=4, floor=2000,
        ).sample_throughput

    small = [s for s in sizes if s <= 4 * KB]
    big = [s for s in sizes if s >= 16 * KB]
    if small:
        result.headline["DLFS-Base / Ext4-Base (<=4KB), paper: >= 1.82x"] = (
            1.82, result.mean_ratio("DLFS-Base", "Ext4-Base", small)
        )
        result.headline["DLFS / Ext4-MC (small), paper: 3.35x"] = (
            3.35, result.mean_ratio("DLFS", "Ext4-MC", small)
        )
    if big:
        ratio = result.mean_ratio("Ext4-Base", "DLFS", big)
        result.headline["Ext4-Base vs DLFS (>=16KB), paper: 43.8% lower"] = (
            0.562, ratio  # paper: Ext4-Base = (1 - 0.438) x DLFS
        )
    return result


# ---------------------------------------------------------------------------
def fig07a_core_scaling(
    core_counts: tuple = (1, 2, 3, 4, 6, 8, 10),
    sample_bytes: int = 128 * KB,
    scale: float = 1.0,
) -> FigureResult:
    """Fig 7a: bandwidth vs core count — DLFS saturates with one core."""
    result = FigureResult(
        figure="fig07a",
        title="Core count needed to saturate SSD bandwidth",
        x_label="cores",
        y_label="bandwidth (bytes/s)",
    )
    batches = _n(30, scale, 6)
    reads = _n(150, scale, 30)
    result.series["DLFS"] = {}
    result.series["Ext4"] = {}
    for cores in core_counts:
        result.series["DLFS"][cores] = _dlfs(
            sample_bytes, batches, warmup=4, floor=2000, cores=cores,
        ).bandwidth
        result.series["Ext4"][cores] = W.ext4_single_node(
            sample_bytes, threads=cores, reads_per_thread=reads
        ).bandwidth
    peak = 2.4 * 2**30
    result.headline["DLFS @1 core / device peak, paper: saturated"] = (
        1.0, result.series["DLFS"][core_counts[0]] / peak
    )
    ext4_curve = result.series["Ext4"]
    saturating = [
        c for c in core_counts if ext4_curve[c] >= 0.9 * max(ext4_curve.values())
    ]
    result.headline["Ext4 cores to reach ~peak, paper: >= 3"] = (
        3, min(saturating) if saturating else max(core_counts)
    )
    return result


def fig07b_compute_overlap(
    compute_points: tuple = (0.0, 0.25e-3, 0.5e-3, 1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3),
    sizes: tuple = (512, 16 * KB, 128 * KB),
    scale: float = 1.0,
) -> FigureResult:
    """Fig 7b: compute injected into the poll loop before throughput drops."""
    result = FigureResult(
        figure="fig07b",
        title="CPU intensity: overlap of I/O and computation",
        x_label="injected compute per poll loop (s)",
        y_label="relative throughput",
    )
    batches = _n(25, scale, 6)
    for size in sizes:
        curve = {}
        base = None
        for compute in compute_points:
            tput = _dlfs(
                size, batches, warmup=4, floor=2000,
                injected_compute=compute,
            ).sample_throughput
            if base is None:
                base = tput
            curve[compute] = tput / base
        result.series[f"{size}B"] = curve

    def tolerated(curve: dict, threshold: float = 0.90) -> float:
        ok = [c for c, rel in curve.items() if rel >= threshold]
        return max(ok) if ok else 0.0

    if 128 * KB in sizes:
        result.headline["128KB overlap tolerance, paper: ~2 ms"] = (
            2e-3, tolerated(result.series[f"{128 * KB}B"])
        )
        if 16 * KB in sizes:
            result.headline["16KB tolerance < 128KB tolerance (paper: yes)"] = (
                True,
                tolerated(result.series[f"{16 * KB}B"])
                < tolerated(result.series[f"{128 * KB}B"]),
            )
        if 512 in sizes:
            result.headline[
                "512B tolerance / 128KB tolerance, paper: ~1 (chunk batching)"
            ] = (
                1.0,
                tolerated(result.series["512B"])
                / max(tolerated(result.series[f"{128 * KB}B"]), 1e-9),
            )
    result.notes.append(
        "512B divergence: the paper's poll loop blocks on a batch of "
        "chunk-size requests, so tiny samples inherit the chunk batch's "
        "I/O window; our reader prefetches chunks across bread() calls, "
        "making 512B delivery CPU-bound — added compute subtracts "
        "directly.  128KB/16KB tolerances match the paper."
    )
    return result


# ---------------------------------------------------------------------------
def fig08_throughput_16_nodes(
    sizes: tuple = ALL_SIZES, num_nodes: int = 16, scale: float = 1.0
) -> FigureResult:
    """Fig 8: aggregated random-read throughput over 16 nodes."""
    result = FigureResult(
        figure="fig08",
        title=f"Aggregated read throughput over {num_nodes} nodes",
        x_label="sample size (bytes)",
        y_label="samples/s (aggregate)",
    )
    reads = _n(200, scale, 40)
    for series in ("DLFS", "Octopus", "Ext4"):
        result.series[series] = {}
    for size in sizes:
        # Small samples need longer runs so steady state spans many
        # 256 KB chunks (one chunk holds hundreds of tiny samples).
        batches = _n(80 if size <= 4 * KB else 20, scale, 5)
        result.series["DLFS"][size] = _dlfs(
            size, batches, warmup=3, floor=4000, nodes=num_nodes,
        ).sample_throughput
        result.series["Octopus"][size] = W.octopus_multi_node(
            num_nodes, size, reads_per_node=max(reads // 2, 25)
        ).sample_throughput
        result.series["Ext4"][size] = W.ext4_multi_node(
            num_nodes, size, reads_per_node=reads
        ).sample_throughput
    small = [s for s in sizes if s <= 4 * KB]
    big = [s for s in sizes if s >= 16 * KB]
    if small:
        result.headline["DLFS / Ext4 (small), paper: 9.72x"] = (
            9.72, result.mean_ratio("DLFS", "Ext4", small)
        )
        result.headline["DLFS / Octopus (small), paper: 6.05x"] = (
            6.05, result.mean_ratio("DLFS", "Octopus", small)
        )
    if big:
        result.headline["DLFS / Ext4 (>=16KB), paper: 1.31x"] = (
            1.31, result.mean_ratio("DLFS", "Ext4", big)
        )
        result.headline["DLFS / Octopus (>=16KB), paper: 1.12x"] = (
            1.12, result.mean_ratio("DLFS", "Octopus", big)
        )
    return result


# ---------------------------------------------------------------------------
def fig09_scalability(
    node_counts: tuple = NODE_COUNTS,
    sizes: tuple = (512, 128 * KB),
    scale: float = 1.0,
) -> FigureResult:
    """Fig 9: aggregated throughput versus node count."""
    result = FigureResult(
        figure="fig09",
        title="Aggregated throughput on networked NVMe devices",
        x_label="nodes",
        y_label="samples/s (aggregate)",
    )
    reads = _n(200, scale, 40)
    for size in sizes:
        batches = _n(80 if size <= 4 * KB else 20, scale, 5)
        for system in ("DLFS", "Octopus", "Ext4"):
            result.series[f"{system}@{size}B"] = {}
        for n in node_counts:
            result.series[f"DLFS@{size}B"][n] = _dlfs(
                size, batches, warmup=3, floor=4000, nodes=n,
            ).sample_throughput
            result.series[f"Octopus@{size}B"][n] = W.octopus_multi_node(
                n, size, reads_per_node=max(reads // 2, 25)
            ).sample_throughput
            result.series[f"Ext4@{size}B"][n] = W.ext4_multi_node(
                n, size, reads_per_node=reads
            ).sample_throughput

    if 512 in sizes:
        result.headline["DLFS / Ext4 @512B (mean), paper: 28.45x"] = (
            28.45, result.mean_ratio("DLFS@512B", "Ext4@512B", node_counts)
        )
        result.headline["DLFS / Octopus @512B (mean), paper: 104.38x"] = (
            104.38, result.mean_ratio("DLFS@512B", "Octopus@512B", node_counts)
        )
        dlfs = result.series["DLFS@512B"]
        linearity = (dlfs[node_counts[-1]] / dlfs[node_counts[0]]) / (
            node_counts[-1] / node_counts[0]
        )
        result.headline["DLFS @512B scaling linearity, paper: ~1.0"] = (
            1.0, linearity
        )
    big = 128 * KB
    if big in sizes:
        result.headline["DLFS / Ext4 @128KB (mean), paper: 1.651x"] = (
            1.651, result.mean_ratio(f"DLFS@{big}B", f"Ext4@{big}B", node_counts)
        )
        result.headline["DLFS / Octopus @128KB (mean), paper: 1.37x"] = (
            1.37, result.mean_ratio(f"DLFS@{big}B", f"Octopus@{big}B", node_counts)
        )
    return result


# ---------------------------------------------------------------------------
def fig10_lookup_time(
    node_counts: tuple = NODE_COUNTS,
    sizes: tuple = (512, 128 * KB),
    total_samples: int = 1_000_000,
    scale: float = 1.0,
) -> FigureResult:
    """Fig 10: total sample-lookup time for 1 M samples."""
    result = FigureResult(
        figure="fig10",
        title="Sample lookup time of DLFS on NVMe devices (1M samples)",
        x_label="nodes",
        y_label="total lookup time (s)",
    )
    total = max(int(total_samples * scale), 20_000)
    measured = _n(1200, scale, 150)
    for size in sizes:
        for system in ("DLFS", "Ext4", "Octopus"):
            result.series[f"{system}@{size}B"] = {}
        for n in node_counts:
            result.series[f"DLFS@{size}B"][n] = W.dlfs_lookup_time(
                n, total_samples=total, sample_bytes=size,
                measured_lookups_per_node=measured,
            )
            result.series[f"Ext4@{size}B"][n] = W.ext4_open_time(
                n, total_samples=total, sample_bytes=size,
                measured_opens_per_node=max(measured // 3, 50),
            )
            result.series[f"Octopus@{size}B"][n] = W.octopus_lookup_time(
                n, total_samples=total, sample_bytes=size,
                measured_lookups_per_node=max(measured // 3, 50),
            )
    size = sizes[0]
    n0, n1 = node_counts[0], node_counts[-1]
    result.headline["Ext4 / DLFS lookup, paper: ~2 orders of magnitude"] = (
        100.0,
        result.series[f"Ext4@{size}B"][n0] / result.series[f"DLFS@{size}B"][n0],
    )
    result.headline["Octopus is the slowest, paper: yes"] = (
        True,
        result.series[f"Octopus@{size}B"][n0]
        > result.series[f"Ext4@{size}B"][n0],
    )
    dlfs_scaling = result.series[f"DLFS@{size}B"][n0] / result.series[
        f"DLFS@{size}B"
    ][n1]
    result.headline["DLFS lookup-time speedup 2->16 nodes, paper: ~8x"] = (
        n1 / n0, dlfs_scaling
    )
    return result


# ---------------------------------------------------------------------------
def fig11_disaggregation(
    device_counts: tuple = (1, 2, 4, 8, 16),
    sample_bytes: int = 128 * KB,
    scale: float = 1.0,
) -> FigureResult:
    """Fig 11: effective throughput on disaggregated NVMe devices."""
    result = FigureResult(
        figure="fig11",
        title="Effective throughput on disaggregated NVMe devices",
        x_label="NVMe devices",
        y_label="samples/s",
    )
    batches = _n(25, scale, 6)
    for series in ("DLFS-1C", "DLFS-16C", "NVMe-1C", "NVMe-16C"):
        result.series[series] = {}

    def disaggregated(devices: int, clients: int, batches: int) -> float:
        # Devices on their own storage nodes behind NVMe-oF, one shard
        # each (the flat R=1 datapath).  A client fanning out over many
        # devices needs a deeper chunk pipeline to keep every qpair
        # busy (one window share each).
        return _dlfs(
            sample_bytes, batches, warmup=3,
            floor=max(devices * 512, 4000), nodes=clients,
            num_storage=devices, replicas=1, balancer=False,
            window=max(8, 8 * devices // clients),
        ).sample_throughput

    for d in device_counts:
        result.series["DLFS-1C"][d] = disaggregated(d, 1, batches * 2)
        result.series["DLFS-16C"][d] = disaggregated(d, 16, batches)
        result.series["NVMe-1C"][d] = W.ideal_disaggregated_throughput(
            d, 1, sample_bytes
        )
        result.series["NVMe-16C"][d] = W.ideal_disaggregated_throughput(
            d, 16, sample_bytes
        )
    one_client_eff = np.mean(
        [
            result.series["DLFS-1C"][d] / result.series["NVMe-1C"][d]
            for d in device_counts
        ]
    )
    sixteen_eff = np.mean(
        [
            result.series["DLFS-16C"][d] / result.series["NVMe-16C"][d]
            for d in device_counts
        ]
    )
    result.headline["DLFS-1C / ideal, paper: 93.4%"] = (0.934, float(one_client_eff))
    result.headline["DLFS-16C / ideal, paper: up to 88%"] = (0.88, float(sixteen_eff))
    return result


# ---------------------------------------------------------------------------
def fig12_tensorflow(
    node_counts: tuple = NODE_COUNTS,
    sizes: tuple = (512, 128 * KB),
    scale: float = 1.0,
) -> FigureResult:
    """Fig 12: TensorFlow ingest throughput over each file system."""
    result = FigureResult(
        figure="fig12",
        title="Aggregated throughput for TensorFlow on top of DLFS",
        x_label="nodes",
        y_label="samples/s (aggregate)",
    )
    batches = _n(15, scale, 4)
    for size in sizes:
        for system in ("DLFS-TF", "Octopus-TF", "Ext4-TF"):
            result.series[f"{system}@{size}B"] = {}
        for n in node_counts:
            for system, tag in (("dlfs", "DLFS-TF"), ("octopus", "Octopus-TF"),
                                ("ext4", "Ext4-TF")):
                result.series[f"{tag}@{size}B"][n] = W.tf_ingest_throughput(
                    system, n, size, batches_per_node=batches
                ).sample_throughput
    if 512 in sizes:
        result.headline["DLFS-TF / Octopus-TF @512B, paper: 29.93x"] = (
            29.93,
            result.mean_ratio("DLFS-TF@512B", "Octopus-TF@512B", node_counts),
        )
        result.headline["DLFS-TF / Ext4-TF @512B, paper: 102.07x"] = (
            102.07,
            result.mean_ratio("DLFS-TF@512B", "Ext4-TF@512B", node_counts),
        )
    big = 128 * KB
    if big in sizes:
        result.headline["DLFS-TF / Octopus-TF @128KB, paper: 1.25x"] = (
            1.25,
            result.mean_ratio(f"DLFS-TF@{big}B", f"Octopus-TF@{big}B", node_counts),
        )
        result.headline["DLFS-TF / Ext4-TF @128KB, paper: 1.614x"] = (
            1.614,
            result.mean_ratio(f"DLFS-TF@{big}B", f"Ext4-TF@{big}B", node_counts),
        )
    return result


# ---------------------------------------------------------------------------
def fig13_training_accuracy(
    epochs: int = 100,
    num_samples: int = 5000,
    scale: float = 1.0,
    seed: int = 0,
) -> FigureResult:
    """Fig 13: validation accuracy, Full_Rand vs DLFS-determined order."""
    result = FigureResult(
        figure="fig13",
        title="Training accuracy with the CIFAR10-like dataset",
        x_label="epoch",
        y_label="validation accuracy",
    )
    epochs = _n(epochs, scale, 10)
    num_samples = _n(num_samples, scale, 500)
    cmp = run_accuracy_experiment(
        num_samples=num_samples, epochs=epochs,
        class_separation=0.75, seed=seed,
    )
    result.series["Full_Rand"] = {
        int(e): float(a)
        for e, a in zip(cmp.full_rand.epochs, cmp.full_rand.val_accuracy)
    }
    result.series["DLFS"] = {
        int(e): float(a)
        for e, a in zip(cmp.dlfs.epochs, cmp.dlfs.val_accuracy)
    }
    result.headline["final accuracy gap (Full_Rand - DLFS), paper: ~0"] = (
        0.0, cmp.final_gap
    )
    result.headline["max tail-epoch gap, paper: no observable difference"] = (
        0.0, cmp.max_epoch_gap
    )
    return result
