"""Stress and property tests: end-to-end invariants under random
workloads, memory back-pressure, and failure paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core import DLFS, DLFSConfig
from repro.data import Dataset, imdb_like
from repro.errors import HardwareError, QueueFullError
from repro.faults import FaultPlan, RecoveryPolicy
from repro.hw import KB, MB, NVMeDevice, NVMeSpec, Testbed
from repro.sim import Environment


def run_workload(mode, n, size, batches, batch, seed, zero_copy=False,
                 hugepage_bytes=None, num_nodes=1, window=8,
                 fault_plan=None, recovery=None):
    """Run a bread workload; return (client, cluster, delivered list)."""
    env = Environment()
    testbed = Testbed.paper() if num_nodes == 1 else Testbed.paper_emulated()
    if hugepage_bytes is not None:
        from dataclasses import replace
        testbed = replace(testbed, hugepage_bytes=hugepage_bytes)
    cluster = Cluster(env, testbed, num_nodes=num_nodes, devices_per_node=1)
    ds = Dataset.fixed("stress", n, size, seed=seed)
    fs = DLFS.mount(
        cluster, ds,
        DLFSConfig(batching=mode, zero_copy=zero_copy, window=window,
                   fault_plan=fault_plan, recovery=recovery),
    )
    client = fs.client(rank=0, num_ranks=1)
    client.sequence(seed=seed)
    delivered = []

    def app(env):
        for _ in range(batches):
            if client.epoch_remaining == 0:
                break
            got = yield from client.bread(min(batch, client.epoch_remaining))
            delivered.extend(got.tolist())
        yield from client.shutdown()

    env.run(until=env.process(app(env)))
    return client, cluster, delivered


class TestDeliveryInvariants:
    @given(
        mode=st.sampled_from(["none", "sample", "chunk"]),
        n=st.integers(64, 400),
        size=st.sampled_from([512, 4 * KB, 40 * KB]),
        batch=st.integers(1, 48),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_no_duplicates_no_inventions(self, mode, n, size, batch, seed):
        client, cluster, delivered = run_workload(
            mode, n, size, batches=6, batch=batch, seed=seed
        )
        assert len(delivered) == len(set(delivered))
        assert all(0 <= s < n for s in delivered)
        assert client.samples_delivered == len(delivered)

    @given(
        mode=st.sampled_from(["sample", "chunk"]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=10, deadline=None)
    def test_full_epoch_is_exact_cover(self, mode, seed):
        n = 300
        client, cluster, delivered = run_workload(
            mode, n, 2 * KB, batches=1000, batch=50, seed=seed
        )
        if mode == "chunk":
            # Chunk mode covers every sample exactly once per epoch.
            assert sorted(delivered) == list(range(n))
        else:
            # Sample mode drops the short tail batch (the standard
            # drop-remainder discipline of distributed SGD).
            expect = n - n % 32  # default batch_per_rank
            assert len(delivered) == expect
            assert len(set(delivered)) == expect

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_replay(self, seed):
        a = run_workload("chunk", 256, 1 * KB, batches=4, batch=32, seed=seed)
        b = run_workload("chunk", 256, 1 * KB, batches=4, batch=32, seed=seed)
        assert a[2] == b[2]

    def test_variable_sizes_deliver_correct_bytes(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper(), num_nodes=1)
        ds = Dataset.synthetic("var", 600, imdb_like(), seed=9)
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="chunk"))
        client = fs.client()
        client.sequence(seed=9)

        def app(env):
            got = yield from client.bread(100)
            return got

        got = env.run(until=env.process(app(env)))
        expected = int(ds.sizes[got].sum())
        assert client.reactor.read_meter.bytes == expected


class TestResourceConservation:
    @pytest.mark.parametrize("zero_copy", [False, True])
    @pytest.mark.parametrize("mode", ["none", "chunk"])
    def test_hugepage_pool_restored_after_run(self, mode, zero_copy):
        client, cluster, delivered = run_workload(
            mode, 300, 4 * KB, batches=5, batch=32, seed=1,
            zero_copy=zero_copy,
        )
        pool = cluster.node(0).hugepages
        cache = client.cache
        # Every chunk is either free or held by a retained-clean slot.
        held = sum(len(cache.slot(k).chunks) for k in list(cache._slots))
        assert pool.free_chunks + held == pool.num_chunks
        # No slot still holds references after shutdown.
        for key in list(cache._slots):
            assert cache.slot(key).refs == 0

    def test_backpressure_with_tiny_hugepage_pool(self):
        """A pool of very few chunks forces eviction cycling; the run
        must still complete and deliver everything exactly once."""
        client, cluster, delivered = run_workload(
            "chunk", 400, 4 * KB, batches=100, batch=20, seed=3,
            hugepage_bytes=4 * 256 * KB,  # four chunks total
            window=2,
        )
        assert sorted(delivered) == list(range(400))
        assert client.cache.evictions > 0  # pressure actually happened

    def test_tiny_pool_with_sample_mode(self):
        client, cluster, delivered = run_workload(
            "sample", 200, 4 * KB, batches=100, batch=25, seed=4,
            hugepage_bytes=3 * 256 * KB,
        )
        # Drop-remainder epoch: 200 - 200 % 32 samples, all distinct.
        assert len(delivered) == len(set(delivered)) == 192

    def test_multi_node_conservation(self):
        client, cluster, delivered = run_workload(
            "chunk", 600, 8 * KB, batches=8, batch=32, seed=5, num_nodes=3,
        )
        assert len(delivered) == len(set(delivered))
        for node in cluster:
            pool = node.hugepages
            assert pool.free_chunks <= pool.num_chunks


class TestVBitConsistency:
    def test_valid_bits_match_resident_cache(self):
        client, cluster, delivered = run_workload(
            "chunk", 300, 2 * KB, batches=4, batch=32, seed=6,
        )
        cache, vbits, plan = client.cache, client.vbits, client.fs.plan
        resident_samples = set()
        for key in list(cache._slots):
            slot = cache.slot(key)
            if slot.state != "resident":
                continue
            kind = key[0]
            if kind == "c":
                resident_samples.update(plan.members(key[1]).tolist())
            else:
                resident_samples.add(key[1])
        for s in range(300):
            if vbits.is_valid(s):
                assert s in resident_samples, f"stale V bit for sample {s}"

    def test_eviction_clears_v_bits(self):
        client, cluster, delivered = run_workload(
            "chunk", 400, 4 * KB, batches=100, batch=20, seed=7,
            hugepage_bytes=4 * 256 * KB, window=2,
        )
        vbits = client.vbits
        # After heavy eviction, valid count is bounded by what four
        # chunks can hold (64 x 4 KB samples per 256 KB chunk).
        assert vbits.valid_count <= 4 * 64


class TestFailurePaths:
    def test_device_queue_full_is_loud(self):
        env = Environment()
        dev = NVMeDevice(env, NVMeSpec(max_outstanding=2))
        dev.read(0, 4 * KB)
        dev.read(8192, 4 * KB)
        with pytest.raises(QueueFullError):
            dev.read(16384, 4 * KB)

    def test_sample_larger_than_device_span_rejected(self):
        env = Environment()
        dev = NVMeDevice(env, capacity=1 * MB)
        with pytest.raises(HardwareError):
            dev.read(512 * KB, 1 * MB)

    def test_reactor_survives_failed_lookup_then_keeps_working(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper(), num_nodes=1)
        ds = Dataset.fixed("d", 100, 1 * KB)
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="none"))
        client = fs.client()

        def app(env):
            from repro.errors import FileNotFound

            try:
                yield from client.open("d/99999998")
            except FileNotFound:
                pass
            # The reactor must still serve subsequent requests.
            n = yield from client.read(5)
            return n

        assert env.run(until=env.process(app(env))) == 1 * KB


class TestChaosInvariants:
    """The delivery/conservation invariants must survive fault injection:
    media errors, injected timeouts, and periodic qpair resets (the
    ISSUE's chaos acceptance run)."""

    CHAOS = FaultPlan(
        seed=11, media_error_rate=0.01, timeout_rate=0.002,
        qpair_reset_period=1e-3,
    )

    def _chaos_run(self, mode, n, size, batches, batch, seed, **kw):
        return run_workload(
            mode, n, size, batches=batches, batch=batch, seed=seed,
            fault_plan=self.CHAOS, recovery=RecoveryPolicy(max_retries=6),
            **kw,
        )

    @pytest.mark.parametrize("mode", ["sample", "chunk"])
    def test_no_duplicates_and_exact_accounting(self, mode):
        client, cluster, delivered = self._chaos_run(
            mode, 300, 4 * KB, batches=1000, batch=32, seed=21
        )
        # No duplicates, no invented samples, even across retries/resets.
        assert len(delivered) == len(set(delivered))
        assert all(0 <= s < 300 for s in delivered)
        # Error accounting sums: every demanded sample was delivered or
        # reported failed, none lost silently.
        stats = client.recovery_stats
        assert client.samples_delivered + stats["failed_samples"] == len(delivered)

    def test_no_chunk_leaks_across_aborted_requests(self):
        """Hugepage-chunk conservation under chaos: aborted and failed
        requests must hand their cache chunks back."""
        client, cluster, delivered = self._chaos_run(
            "chunk", 400, 4 * KB, batches=1000, batch=20, seed=22,
            hugepage_bytes=4 * 256 * KB, window=2,
        )
        assert client.recovery_stats["resets"] > 0  # chaos actually hit
        pool = cluster.node(0).hugepages
        cache = client.cache
        held = sum(len(cache.slot(k).chunks) for k in list(cache._slots))
        assert pool.free_chunks + held == pool.num_chunks
        for key in list(cache._slots):
            assert cache.slot(key).refs == 0

    def test_chaos_run_is_deterministic(self):
        a = self._chaos_run("chunk", 256, 2 * KB, batches=16, batch=32, seed=23)
        b = self._chaos_run("chunk", 256, 2 * KB, batches=16, batch=32, seed=23)
        assert a[2] == b[2]
        assert (a[0].fs.injector.trace_signature()
                == b[0].fs.injector.trace_signature())
        assert a[0].recovery_stats.as_dict() == b[0].recovery_stats.as_dict()

    def test_total_media_failure_degrades_gracefully(self):
        """media_error_rate=1.0: nothing is deliverable, yet every batch
        completes and every sample is accounted as failed."""
        client, cluster, delivered = run_workload(
            "sample", 96, 4 * KB, batches=3, batch=32, seed=24,
            fault_plan=FaultPlan(seed=5, media_error_rate=1.0),
            recovery=RecoveryPolicy(max_retries=2),
        )
        assert client.samples_delivered == 0
        assert client.failed_samples == 96
        assert client.recovery_stats["budget_exhausted"] > 0
        report = client.error_report()
        assert report["failed_samples"] == 96


class TestPostStage:
    """The reactor's poll loop posts before it polls again: outside
    shutdown it never takes an SCQ message while some lane has queued
    work and a free qpair slot.  The configurations never run the cache
    out of memory, because ``promote`` legitimately waits under memory
    pressure."""

    @pytest.mark.parametrize("num_storage, num_samples", [
        (4, 2048),  # replicated lanes behind the balancer
        (0, 1024),  # one local device, flat datapath
    ])
    def test_no_poll_with_a_post_pending(
        self, monkeypatch, num_storage, num_samples
    ):
        from repro.bench.workloads import preset, run_fleet
        from repro.core.reader import Reactor

        takes, pending = [], []
        init = Reactor.__init__

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            get = self.inbox.get

            def checked_get():
                takes.append(self.env.now)
                if not self._stopping and self._pump_needed():
                    pending.append(self.env.now)
                return get()

            self.inbox.get = checked_get

        monkeypatch.setattr(Reactor, "__init__", spy_init)
        r = run_fleet(preset(
            "cluster", num_storage=num_storage, num_clients=1,
            num_samples=num_samples, horizon=0.02,
        ))
        assert r.delivered > 0 and r.failed == 0
        assert len(takes) > 500
        assert not pending, (
            f"{len(pending)} of {len(takes)} SCQ takes with a post "
            f"pending, first at t={pending[0]:.6g}"
        )
