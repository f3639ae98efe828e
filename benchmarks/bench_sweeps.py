"""Parameter sweeps: SPDK queue depth and the chunk-pipeline window.

§III-D1: with sample-level batching "the DLFS frontend can then submit
as many requests as allowed by the queue depth of SPDK I/O QPairs" —
so throughput should climb with queue depth until the device pipeline
is full.  The chunk window plays the same role for chunk-level batching
across remote devices.
"""

from conftest import run_once

from repro.bench.figures import FigureResult
from repro.bench import workloads as W
from repro.hw import KB


def test_sweep_queue_depth(benchmark, emit):
    """Sample-level batching throughput vs SPDK queue depth."""

    def run():
        result = FigureResult(
            figure="sweep_queue_depth",
            title="Sweep: SPDK I/O QPair queue depth "
                  "(4 KB samples, sample-level batching)",
            x_label="queue depth",
            y_label="samples/s",
        )
        result.series["DLFS-sample"] = {}
        load = W.Readers(warmup=4 * 32, reads=40 * 32)
        for depth in (1, 2, 4, 8, 16, 64, 128):
            result.series["DLFS-sample"][depth] = W.dlfs_readers(
                load, num_samples=max(2 * load.demand(), 2000),
                sample_bytes=4 * KB, batching="sample", queue_depth=depth,
            ).sample_throughput
        return result

    result = run_once(benchmark, run)
    emit(result)
    curve = result.series["DLFS-sample"]
    # Depth 1 degenerates to synchronous reads; deep queues pipeline.
    assert curve[16] > 3 * curve[1]
    # Beyond the point where the device is saturated, returns flatten.
    assert curve[128] < curve[16] * 1.5
    # Monotone non-decreasing within tolerance.
    depths = sorted(curve)
    for a, b in zip(depths, depths[1:]):
        assert curve[b] >= curve[a] * 0.9


def test_sweep_chunk_window(benchmark, emit):
    """Chunk-pipeline window vs throughput on remote devices.

    With 4 remote devices, a 1-chunk window starves the qpairs between
    breads; a deeper window keeps every device streaming.
    """

    def run():
        result = FigureResult(
            figure="sweep_window",
            title="Sweep: chunk-pipeline window "
                  "(128 KB samples, 4 remote NVMe devices, 1 client)",
            x_label="window (chunks)",
            y_label="samples/s",
        )
        result.series["DLFS-1C"] = {}
        # Small breads (4 samples = 2 chunks) so the lookahead window,
        # not the batch's own fan-out, drives pipelining.
        load = W.Readers(batch=4, warmup=3 * 4, reads=150 * 4)
        for window in (1, 2, 4, 8, 16, 32):
            result.series["DLFS-1C"][window] = W.dlfs_readers(
                load, num_storage=4, replicas=1, balancer=False,
                num_samples=max(2 * load.demand(), 4000),
                sample_bytes=128 * KB, window=window,
            ).sample_throughput
        return result

    result = run_once(benchmark, run)
    emit(result)
    curve = result.series["DLFS-1C"]
    assert curve[16] > 1.3 * curve[1]
    assert curve[32] >= curve[16] * 0.9
