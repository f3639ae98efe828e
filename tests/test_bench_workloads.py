"""Unit tests for the benchmark workload drivers (small parameters)."""

import pytest

from repro.bench.workloads import (
    Readers,
    RunReport,
    dlfs_lookup_time,
    dlfs_readers,
    ext4_multi_node,
    ext4_open_time,
    ext4_single_node,
    ideal_disaggregated_throughput,
    octopus_lookup_time,
    octopus_multi_node,
    tf_ingest_throughput,
)
from repro.errors import ConfigError
from repro.hw import GB, KB


def dlfs_run(sample_bytes, batches=6, warmup=2, nodes=1, floor=2000,
             cores=1, **fields):
    """``batches`` measured 32-sample batches per reader after ``warmup``."""
    load = Readers(warmup=32 * warmup, reads=32 * batches,
                   ranks_per_node=cores)
    return dlfs_readers(load, num_clients=nodes, sample_bytes=sample_bytes,
                        num_samples=max(2 * load.demand(nodes), floor),
                        **fields)


class TestSingleNodeDrivers:
    def test_dlfs_returns_result(self):
        r = dlfs_run(4 * KB)
        assert isinstance(r, RunReport)
        assert r.layers == ("readers",)
        assert r.sample_throughput > 0
        assert r.bandwidth == pytest.approx(r.sample_throughput * 4 * KB, rel=0.01)
        assert r.delivered == r.expected == 8 * 32 and r.failed == 0
        assert r.reactor_names == ("dlfs.node0.r0",)
        assert 0 < r.app_time <= r.sim_time

    def test_dlfs_modes_ordered(self):
        chunk = dlfs_run(512, batching="chunk").sample_throughput
        base = dlfs_run(512, batching="none").sample_throughput
        assert chunk > 2 * base

    def test_dlfs_deterministic(self):
        a = dlfs_run(4 * KB)
        b = dlfs_run(4 * KB)
        assert a.sample_throughput == b.sample_throughput

    def test_dlfs_multi_core(self):
        r = dlfs_run(4 * KB, cores=2)
        assert r.sample_throughput > 0
        assert r.reactor_names == ("dlfs.node0.r0", "dlfs.node0.r1")

    def test_ext4_threads_scale(self):
        one = ext4_single_node(4 * KB, threads=1, reads_per_thread=60)
        four = ext4_single_node(4 * KB, threads=4, reads_per_thread=40)
        assert four.sample_throughput > 2 * one.sample_throughput

    def test_ext4_cold_slower_than_warm(self):
        warm = ext4_single_node(4 * KB, reads_per_thread=60, warm_metadata=True)
        cold = ext4_single_node(4 * KB, reads_per_thread=60, warm_metadata=False)
        assert cold.sample_throughput < warm.sample_throughput


class TestMultiNodeDrivers:
    def test_dlfs_multi_node_aggregates(self):
        r2 = dlfs_run(4 * KB, warmup=3, nodes=2, floor=4000)
        r4 = dlfs_run(4 * KB, warmup=3, nodes=4, floor=4000)
        assert r4.sample_throughput > 1.4 * r2.sample_throughput

    def test_ext4_multi_node(self):
        r = ext4_multi_node(2, 4 * KB, reads_per_node=60)
        assert r.sample_throughput > 0

    def test_octopus_multi_node(self):
        r = octopus_multi_node(2, 4 * KB, reads_per_node=50)
        assert r.sample_throughput > 0

    def test_system_ordering_holds_at_small_scale(self):
        dlfs = dlfs_run(512, batches=10, warmup=3, nodes=2,
                        floor=4000).sample_throughput
        ext4 = ext4_multi_node(2, 512, reads_per_node=80).sample_throughput
        octo = octopus_multi_node(2, 512, reads_per_node=60).sample_throughput
        assert dlfs > ext4 > octo


class TestLookupDrivers:
    def test_lookup_time_positive_and_ordered(self):
        total = 40_000
        dlfs = dlfs_lookup_time(2, total_samples=total,
                                measured_lookups_per_node=200)
        ext4 = ext4_open_time(2, total_samples=total,
                              measured_opens_per_node=100)
        octo = octopus_lookup_time(2, total_samples=total,
                                   measured_lookups_per_node=100)
        assert 0 < dlfs < ext4 < octo

    def test_dlfs_lookup_scales_with_share(self):
        total = 40_000
        t2 = dlfs_lookup_time(2, total_samples=total,
                              measured_lookups_per_node=200)
        t8 = dlfs_lookup_time(8, total_samples=total,
                              measured_lookups_per_node=200)
        assert t2 / t8 == pytest.approx(4.0, rel=0.4)


class TestDisaggregation:
    def test_more_devices_help_many_clients(self):
        def disaggregated(devices):
            return dlfs_run(128 * KB, warmup=3, nodes=4, floor=4000,
                            num_storage=devices, replicas=1, balancer=False,
                            window=max(8, 8 * devices // 4))

        r1 = disaggregated(1)
        r4 = disaggregated(4)
        assert r4.sample_throughput > 1.5 * r1.sample_throughput

    def test_ideal_model(self):
        # Device-bound region.
        one = ideal_disaggregated_throughput(1, 1, 128 * KB)
        assert one == pytest.approx(2.4 * GB / (128 * KB))
        # Network-bound region with one client.
        many = ideal_disaggregated_throughput(16, 1, 128 * KB)
        assert many == pytest.approx(6.0 * GB / (128 * KB))
        # With 16 clients the devices bind again.
        assert ideal_disaggregated_throughput(16, 16, 128 * KB) == pytest.approx(
            16 * 2.4 * GB / (128 * KB)
        )


class TestTFIngest:
    @pytest.mark.parametrize("system", ["dlfs", "ext4", "octopus"])
    def test_each_system_runs(self, system):
        r = tf_ingest_throughput(system, 2, 4 * KB, batches_per_node=4)
        assert r.sample_throughput > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            tf_ingest_throughput("zfs", 2, 4 * KB)
