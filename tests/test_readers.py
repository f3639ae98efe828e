"""Closed-loop ``bread`` readers: outputs pinned bit for bit.

Every DLFS figure bar, ``fleet --preset readers``, perfcheck's
fig06/fig08 gates, the sanitizer's default target and e2e ``ingest``
run closed-loop trainers over the paper's datapath.  These digests pin
what those runs deliver — the sample order (sha1), the final sim time,
the counts and the throughput, all exact — so a change to how the runs
are built and driven must leave each one where it is.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.bench.workloads import (
    FleetSpec,
    Readers,
    dlfs_observed,
    dlfs_readers,
    run_fleet,
)
from repro.cluster import Cluster
from repro.core import DLFS, DLFSConfig, SampleCache
from repro.data import Dataset
from repro.errors import ConfigError
from repro.faults import FaultPlan, parse_fault_plan
from repro.hw import KB, MB, Testbed
from repro.obs.export import chrome_trace
from repro.sim import Environment
from repro.tenancy import TenantSpec
from repro.xform import XformSpec, parse_stages

#: A fault plan with media errors and periodic qpair resets.
CHAOS_PLAN = "media=0.01,reset_period=0.002"


def _sha1(samples) -> str:
    data = np.ascontiguousarray(samples, dtype=np.int64)
    return hashlib.sha1(data.tobytes()).hexdigest()


def _witness(report) -> tuple:
    return (_sha1(report.samples_read), report.sim_time.hex(),
            report.delivered, report.failed, report.sample_throughput.hex())


class TestPinnedObservedRuns:
    """``dlfs_observed``-shaped runs: perfcheck's quick fig06/fig08
    gates, a 3-node chunk run and ``test_obs``'s sample-mode fault run."""

    @pytest.mark.parametrize("nodes, pinned", [
        (1, ("158eb43d20bee59aa1a139166c76d8f9f32faed8",
             "0x1.36476af89c5e7p-9", 256, 0, "0x1.cd3ee53fbf6f5p+16")),
        (2, ("ffe6acb11d9576bb744d62f4f91bbc3fb58bddce",
             "0x1.b95db234537d3p-10", 256, 0, "0x1.28f80d7252f18p+17")),
    ])
    def test_perfcheck_quick_gates(self, nodes, pinned):
        r = dlfs_observed(samples=256, batch=32, mode="chunk",
                          num_nodes=nodes, trace=False, metrics=True)
        assert _witness(r) == pinned

    def test_three_node_chunk_run(self):
        r = dlfs_observed(samples=256, num_nodes=3, mode="chunk",
                          trace=False, metrics=False)
        assert _witness(r) == (
            "5449aab6221a043e942359e98883e14304934fa6",
            "0x1.490a81c40193bp-10", 255, 0, "0x1.c839e4a42715cp+17")

    def test_sample_mode_fault_run(self):
        plan = FaultPlan(seed=7, media_error_rate=0.05, timeout_rate=0.01,
                         qpair_reset_period=2e-3)
        r = dlfs_observed(samples=400, sample_bytes=4096, mode="sample",
                          fault_plan=plan, trace=False, metrics=False)
        assert _witness(r) == (
            "1d77687ac7b92d33a2179a3a60cec3de5c318639",
            "0x1.ef592681862aep-5", 400, 0, "0x1.a66352e11a66ep+14")


class TestPinnedChaosRuns:
    """A fault-injected accounting run: 2 nodes x 2 whole epochs of
    1024 samples under ``CHAOS_PLAN``."""

    @pytest.mark.parametrize("mode, pinned, recovery, faults", [
        ("chunk",
         ("0x1.3b1bfc8018bf9p-9", 2048, 0, 2048, "0x1.9ff50ce8a90e3p+19"),
         {"degraded_time": 0.03860286783040364, "resets": 3},
         {"qpair_reset": 3}),
        ("sample",
         ("0x1.5abcb78d71701p-7", 2048, 0, 2048, "0x1.7a03f2ba7fe31p+17"),
         {"degraded_time": 0.010937392675602392, "media_error": 14,
          "retries": 14, "resets": 16, "aborted": 56},
         {"media_error": 14, "qpair_reset": 16}),
    ])
    def test_default_plan(self, mode, pinned, recovery, faults):
        r = dlfs_readers(Readers(epochs=2), num_clients=2, num_samples=1024,
                         sample_bytes=4 * KB, batching=mode,
                         fault_plan=parse_fault_plan(CHAOS_PLAN))
        assert (r.app_time.hex(), r.delivered, r.failed, r.expected,
                r.sample_throughput.hex()) == pinned
        assert r.recovery == recovery
        assert r.fault_counts == faults


def _measured(sample_bytes, nodes=1, floor=2000, warmup=2, **fields):
    """Six measured 32-sample batches per reader after ``warmup``."""
    load = Readers(warmup=warmup * 32, reads=6 * 32,
                   ranks_per_node=fields.pop("cores", 1))
    return dlfs_readers(
        load, num_clients=nodes, sample_bytes=sample_bytes,
        num_samples=max(2 * load.demand(nodes), floor), **fields,
    )


class TestPinnedFigureTopologies:
    """One small measured run per figure topology: throughput and
    bandwidth over the measured window, and the time the readers end."""

    @pytest.mark.parametrize("run, pinned", [
        (lambda: _measured(4 * KB, cores=2),
         ("0x1.980e2b1227ce5p+20", "0x1.980e2b1227ce5p+32",
          "0x1.d4f8c5c0b0a64p-10")),
        (lambda: _measured(16 * KB, injected_compute=1e-3),
         ("0x1.945ba3ca75893p+14", "0x1.945ba3ca75893p+28",
          "0x1.188f78ae6786ep-7")),
        (lambda: _measured(512, copy_cores=(1, 2)),
         ("0x1.78f1b795f0699p+21", "0x1.78f1b795f0699p+30",
          "0x1.fb8fa02d792a1p-12")),
        (lambda: _measured(4 * KB, nodes=2, floor=4000, warmup=3),
         ("0x1.5b269c300e4cap+20", "0x1.5b269c300e4cap+32",
          "0x1.41e869bd7a90cp-10")),
        (lambda: _measured(128 * KB, nodes=2, floor=4000, warmup=3,
                           num_storage=2, replicas=1, balancer=False),
         ("0x1.14a184f3e8a38p+15", "0x1.14a184f3e8a38p+32",
          "0x1.0726bad106edbp-6")),
    ], ids=["cores2", "injected_compute", "copy_cores", "multi_node",
            "disaggregated_2x2"])
    def test_throughput_and_bandwidth(self, run, pinned):
        r = run()
        assert (r.sample_throughput.hex(), r.bandwidth.hex(),
                r.app_time.hex()) == pinned
        assert r.delivered + r.failed == r.expected == len(r.samples_read)


def _epoch_orders(seed: int, epoch_len: int) -> tuple:
    """One reader's first two epochs, read across the epoch edge."""
    r = dlfs_readers(Readers(reads=epoch_len + 64), num_clients=1,
                     num_samples=epoch_len, sample_bytes=4 * KB,
                     batching="sample", seed=seed)
    return r.samples_read[:epoch_len], r.samples_read[epoch_len:]


class TestEpochSeeds:
    def test_epoch_e_is_sequenced_with_seed_plus_e(self):
        first, second = _epoch_orders(7, 256)
        assert sorted(first.tolist()) == list(range(256))
        # The second epoch of a seed-7 run is sequence(seed=8)'s order...
        seed8 = dlfs_readers(Readers(reads=64), num_clients=1,
                             num_samples=256, sample_bytes=4 * KB,
                             batching="sample", seed=8)
        assert np.array_equal(second, seed8.samples_read)
        # ...so it is not the second epoch of a seed-42 run.
        _, other = _epoch_orders(42, 256)
        assert not np.array_equal(second, other)


class TestReadersConfig:
    @pytest.mark.parametrize("fields", [
        dict(specs=(TenantSpec(name="t"),)),
        dict(fair_queue=True, num_clients=1),
        dict(num_storage=2, replicas=1, balancer=False,
             xform=XformSpec(stages=parse_stages("parse"))),
    ], ids=["tenant_specs", "fair_queue", "xform"])
    def test_readers_replace_tenant_traffic(self, fields):
        with pytest.raises(ConfigError, match="readers replace tenant traffic"):
            run_fleet(FleetSpec(readers=Readers(reads=32), **fields))

    @pytest.mark.parametrize("load", [
        Readers(), Readers(reads=32, epochs=1), Readers(reads=32, warmup=-1),
        Readers(reads=32, batch=0), Readers(reads=32, ranks_per_node=0),
    ])
    def test_one_quota_and_positive_sizes(self, load):
        with pytest.raises(ConfigError):
            dlfs_readers(load, num_samples=256)

    def test_sample_quota_over_an_empty_epoch_is_rejected(self):
        # 4 samples over 4 sample-mode ranks leave ranks no samples; a
        # sample quota could then never be read, while whole epochs end.
        with pytest.raises(ConfigError, match="no samples in epoch"):
            dlfs_readers(Readers(reads=10), num_clients=4, num_samples=4,
                         sample_bytes=4 * KB, batching="sample")
        r = dlfs_readers(Readers(epochs=2), num_clients=4, num_samples=4,
                         sample_bytes=4 * KB, batching="sample")
        assert r.delivered == r.expected

    def test_defaults_are_one_node_with_a_local_device(self):
        r = dlfs_readers(Readers(reads=64), num_samples=2000,
                         sample_bytes=4 * KB)
        assert r.reactor_names == ("dlfs.node0.r0",)
        assert r.layers == ("readers",)


@pytest.fixture
def caches(monkeypatch):
    """Every :class:`SampleCache` the run builds, in client order."""
    built = []
    init = SampleCache.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SampleCache, "__init__", record)
    return built


class TestPinnedCachePressure:
    """Two whole epochs through a 2 MiB hugepage pool: clean slots are
    evicted, so the order slots turn clean (which sets eviction order)
    reaches the sim time and the throughput."""

    @pytest.mark.parametrize("mode, evictions, pinned", [
        ("chunk", [38, 40],
         ("7e00d2a2f549308777a05a9743612be7f48ffe5d", "0x1.a6783708f25dfp-8",
          4096, 0, "0x1.36407d9dfaab9p+19")),
        ("sample", [2040, 2040],
         ("cac4d6d7a8e63b1334a913d99577cda13a90f3eb", "0x1.17282080e5e58p-7",
          4096, 0, "0x1.d5874076020adp+18")),
    ])
    def test_two_epochs_evict(self, caches, mode, evictions, pinned):
        r = dlfs_readers(Readers(epochs=2), num_clients=2, num_samples=2048,
                         sample_bytes=4 * KB, hugepage_bytes=2 * MB,
                         batching=mode)
        assert [c.evictions for c in caches] == evictions
        assert (_sha1(r.samples_read), r.app_time.hex(), r.delivered,
                r.failed, r.sample_throughput.hex()) == pinned


def _zero_copy_reads(mode: str) -> tuple:
    """Three warm-up and twenty measured 32-sample batches of one
    zero-copy reader, built as ``test_zero_copy`` builds its rigs."""
    env = Environment()
    cluster = Cluster(env, Testbed.paper(), num_nodes=1, devices_per_node=1)
    ds = Dataset.fixed("d", 2000, 4 * KB)
    fs = DLFS.mount(cluster, ds, DLFSConfig(batching=mode, zero_copy=True))
    client = fs.client()
    client.sequence(seed=1)
    batches = []

    def app(env):
        for i in range(23):
            if i == 3:
                client.reactor.read_meter.start()
            batches.append((yield from client.bread(32)))

    env.run(until=env.process(app(env)))
    rate = client.sample_throughput()
    env.run(until=env.process(client.shutdown()))
    env.run()
    return _sha1(np.concatenate(batches)), env.now.hex(), rate.hex()


class TestPinnedZeroCopy:
    """Zero-copy delivery lends cache references and returns them on the
    next ``bread``; what it delivers and when is pinned."""

    @pytest.mark.parametrize("mode, pinned", [
        ("chunk", ("fec29b6d9a30c150efe9fc3fc45ed8eba881f145",
                   "0x1.03c9062719d8bp-9", "0x1.1360dfdc4815dp+19")),
        ("sample", ("e01ae0be530ca1ecf6e69091950aca5f2a6a3e0a",
                    "0x1.ea1fef21c4b79p-10", "0x1.8056bfbbc2de8p+18")),
    ])
    def test_reads(self, mode, pinned):
        assert _zero_copy_reads(mode) == pinned


class TestPinnedTrace:
    """Span ids are handed out as spans start, so this digest of the
    exported trace pins the order every span starts in."""

    def test_chunk_run_spans(self):
        r = dlfs_observed(samples=256, trace=True)
        doc = json.dumps(chrome_trace(r.obs.tracer), sort_keys=True)
        assert len(r.obs.tracer.spans) == 327
        assert (hashlib.sha1(doc.encode()).hexdigest()
                == "c4a4c574cdb0fbee76c75d4b5c52c2f0511d163a")
