"""Integration tests: DLFS client + reactor + SPDK + devices end to end."""

import numpy as np
import pytest

from repro.cluster import Cluster, Communicator
from repro.core import DLFS, DLFSConfig
from repro.data import Dataset, ParallelFS, imdb_like
from repro.errors import ConfigError, FileNotFound, InvalidHandle, NotMounted
from repro.hw import KB, MB, Testbed
from repro.sim import Environment


def make_rig(num_nodes=1, mode="chunk", n=2000, size=4 * KB, dist=None, **cfg):
    env = Environment()
    testbed = Testbed.paper() if num_nodes == 1 else Testbed.paper_emulated()
    cluster = Cluster(env, testbed, num_nodes=num_nodes, devices_per_node=1)
    if dist is not None:
        ds = Dataset.synthetic("d", n, dist, seed=7)
    else:
        ds = Dataset.fixed("d", n, size)
    fs = DLFS.mount(cluster, ds, DLFSConfig(batching=mode, **cfg))
    return env, cluster, ds, fs


class TestMountAndClients:
    def test_mount_requires_devices(self):
        env = Environment()
        cluster = Cluster(env, num_nodes=1, devices_per_node=0)
        ds = Dataset.fixed("d", 10, 100)
        with pytest.raises(ConfigError):
            DLFS.mount(cluster, ds)

    def test_client_before_mount_rejected(self):
        env = Environment()
        cluster = Cluster(env, num_nodes=1, devices_per_node=1)
        ds = Dataset.fixed("d", 10, 100)
        fs = DLFS(cluster, ds)
        with pytest.raises(NotMounted):
            fs.client()

    def test_placement_validation(self):
        env = Environment()
        cluster = Cluster(env, num_nodes=2, devices_per_node=1)
        ds = Dataset.fixed("d", 10, 100)
        with pytest.raises(ConfigError):
            DLFS.mount(cluster, ds, placement=[(0, 5)])

    def test_default_placement_spans_cluster(self):
        env, cluster, ds, fs = make_rig(num_nodes=1)
        assert fs.placement == [(0, 0)]
        assert fs.layout.num_shards == 1

    def test_rank_bounds(self):
        env, cluster, ds, fs = make_rig()
        with pytest.raises(ConfigError):
            fs.client(rank=1, num_ranks=1)


class TestOpenReadClose:
    def test_open_resolves_name(self):
        env, cluster, ds, fs = make_rig()
        client = fs.client()

        def app(env):
            f = yield from client.open(ds.sample_name(17))
            return f

        f = env.run(until=env.process(app(env)))
        assert f.sample_index == 17
        assert f.length == 4 * KB

    def test_open_missing_name(self):
        env, cluster, ds, fs = make_rig()
        client = fs.client()

        def app(env):
            try:
                yield from client.open("d/99999999")
            except FileNotFound:
                return "missing"

        assert env.run(until=env.process(app(env))) == "missing"

    def test_read_returns_sample_length(self):
        env, cluster, ds, fs = make_rig(mode="none")
        client = fs.client()

        def app(env):
            f = yield from client.open(ds.sample_name(3))
            n = yield from client.read(f)
            client.close_file(f)
            return n

        assert env.run(until=env.process(app(env))) == 4 * KB

    def test_closed_handle_rejected(self):
        env, cluster, ds, fs = make_rig(mode="none")
        client = fs.client()

        def app(env):
            f = yield from client.open(ds.sample_name(0))
            client.close_file(f)
            with pytest.raises(InvalidHandle):
                yield from client.read(f)
            with pytest.raises(InvalidHandle):
                client.close_file(f)

        env.run(until=env.process(app(env)))

    def test_reread_hits_sample_cache(self):
        """Second dlfs_read of the same sample uses the V bit (§III-C1)."""
        env, cluster, ds, fs = make_rig(mode="none")
        client = fs.client()
        times = []

        def app(env):
            for _ in range(2):
                t0 = env.now
                yield from client.read(5)
                times.append(env.now - t0)

        env.run(until=env.process(app(env)))
        assert client.vbits.is_valid(5)
        assert times[1] < times[0] * 0.3  # no device I/O on the hit
        assert client.cache.hits >= 1


class TestBreadModes:
    @pytest.mark.parametrize("mode", ["none", "sample", "chunk"])
    def test_bread_delivers_batches(self, mode):
        env, cluster, ds, fs = make_rig(mode=mode)
        client = fs.client()
        client.sequence(seed=3)

        def app(env):
            batches = []
            for _ in range(4):
                batch = yield from client.bread(16)
                batches.append(batch)
            return batches

        batches = env.run(until=env.process(app(env)))
        all_samples = np.concatenate(batches)
        assert len(all_samples) == 64
        assert len(set(all_samples.tolist())) == 64  # no repeats in an epoch
        assert client.samples_delivered == 64

    def test_bread_before_sequence_rejected(self):
        env, cluster, ds, fs = make_rig(mode="chunk")
        client = fs.client()

        def app(env):
            try:
                yield from client.bread(8)
            except NotMounted:
                return "no-seq"

        assert env.run(until=env.process(app(env))) == "no-seq"

    def test_epoch_exhaustion_detected(self):
        env, cluster, ds, fs = make_rig(mode="chunk", n=64, size=4 * KB)
        client = fs.client()
        client.sequence(seed=1)

        def app(env):
            yield from client.bread(client.epoch_remaining)
            try:
                yield from client.bread(1)
            except ConfigError:
                return "exhausted"

        assert env.run(until=env.process(app(env))) == "exhausted"

    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_prefetch_keys_match_per_entry_scan(self, window):
        env, cluster, ds, fs = make_rig(
            mode="chunk", n=1500, dist=imdb_like(), window=window
        )
        client = fs.client()
        client.sequence(seed=3)
        _, keys = client._delivery.take(len(client._delivery))
        # The same epoch again, looked ahead from every position.
        client.sequence(seed=3)
        d = client._delivery
        for pos in range(len(keys) + 1):
            seen = []
            i = pos
            while i < len(keys) and len(seen) < window:
                if keys[i] not in seen:
                    seen.append(keys[i])
                i += 1
            assert d.lookahead(window) == tuple(seen)
            if pos < len(keys):
                assert d.take(1)[1] == [keys[pos]]

    def test_two_epochs_different_order(self):
        env, cluster, ds, fs = make_rig(mode="chunk", n=512)
        client = fs.client()

        def epoch(env, seed):
            client.sequence(seed=seed)
            out = []
            while client.epoch_remaining:
                batch = yield from client.bread(64)
                out.extend(batch.tolist())
            return out

        e1 = env.run(until=env.process(epoch(env, 1)))
        e2 = env.run(until=env.process(epoch(env, 2)))
        assert sorted(e1) == sorted(e2) == list(range(512))
        assert e1 != e2

    def test_chunk_mode_issues_chunk_sized_io(self):
        """§IV-A2: actual I/O requests are mostly the chunk size."""
        env, cluster, ds, fs = make_rig(mode="chunk", n=4000, size=512)
        client = fs.client()
        client.sequence(seed=1)

        def app(env):
            for _ in range(8):
                yield from client.bread(32)

        env.run(until=env.process(app(env)))
        device = cluster.node(0).device
        mean_io = device.read_meter.bytes / device.read_meter.completions
        assert mean_io > 100 * KB  # ~256 KB chunks, not 512 B samples

    def test_base_mode_issues_per_sample_io(self):
        env, cluster, ds, fs = make_rig(mode="none", n=512, size=512)
        client = fs.client()
        client.sequence(seed=1)

        def app(env):
            for _ in range(4):
                yield from client.bread(32)

        env.run(until=env.process(app(env)))
        device = cluster.node(0).device
        mean_io = device.read_meter.bytes / device.read_meter.completions
        assert mean_io < 2 * KB

    def test_read_batch_explicit_indices(self):
        env, cluster, ds, fs = make_rig(mode="sample")
        client = fs.client()

        def app(env):
            total = yield from client.read_batch([1, 5, 9])
            return total

        assert env.run(until=env.process(app(env))) == 3 * 4 * KB

    def test_large_samples_split_into_chunk_requests(self):
        """A sample bigger than the cache chunk is disassembled (§III-C1)."""
        env, cluster, ds, fs = make_rig(mode="none", n=16, size=1 * MB)
        client = fs.client()

        def app(env):
            yield from client.read(0)

        env.run(until=env.process(app(env)))
        qp = client.qpairs[0]
        assert qp.posted == 1 * MB // (256 * KB)


class TestMultiNode:
    def test_remote_shards_reachable(self):
        env, cluster, ds, fs = make_rig(num_nodes=4, mode="chunk", n=4000)
        client = fs.client(rank=0, num_ranks=1)
        client.sequence(seed=5)

        def app(env):
            delivered = []
            for _ in range(8):
                batch = yield from client.bread(32)
                delivered.extend(batch.tolist())
            return delivered

        delivered = env.run(until=env.process(app(env)))
        shards = {fs.layout.shard_of(i) for i in delivered}
        assert len(shards) > 1  # data really came from several nodes
        served = sum(t.meter.completions for t in fs.targets)
        assert served > 0  # remote targets actually used

    def test_parallel_clients_cover_epoch(self):
        env, cluster, ds, fs = make_rig(num_nodes=2, mode="chunk", n=2000)
        clients = [fs.client(rank=r, num_ranks=2, node=cluster.node(r))
                   for r in range(2)]
        for c in clients:
            c.sequence(seed=9)
        results = {}

        def app(env, rank):
            out = []
            c = clients[rank]
            while c.epoch_remaining:
                batch = yield from c.bread(50)
                out.extend(batch.tolist())
            results[rank] = out

        procs = [env.process(app(env, r)) for r in range(2)]
        env.run(until=env.all_of(procs))
        combined = results[0] + results[1]
        assert sorted(combined) == list(range(2000))

    def test_variable_size_dataset(self):
        env, cluster, ds, fs = make_rig(
            num_nodes=2, mode="chunk", n=3000, dist=imdb_like()
        )
        client = fs.client(rank=0, num_ranks=1)
        client.sequence(seed=2)

        def app(env):
            total = 0
            for _ in range(10):
                batch = yield from client.bread(32)
                total += int(ds.sizes[batch].sum())
            return total

        total = env.run(until=env.process(app(env)))
        assert total > 0
        assert client.bandwidth() > 0


class TestTimedMount:
    def test_mount_timed_reports_phases(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=4)
        ds = Dataset.fixed("d", 4000, 64 * KB)
        fs = DLFS(cluster, ds)
        comm = Communicator(cluster)
        pfs = ParallelFS(env)

        def app(env):
            report = yield from fs.mount_timed(comm, pfs)
            return report

        report = env.run(until=env.process(app(env)))
        assert report.staging_time > 0
        assert report.directory_build_time > 0
        assert report.aggregation_time > 0
        assert report.total == pytest.approx(env.now)
        assert fs.directory.is_complete
        # Data was actually written to the devices.
        written = sum(n.device.write_meter.bytes for n in cluster)
        assert written >= ds.total_bytes

    def test_clients_usable_after_timed_mount(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=2)
        ds = Dataset.fixed("d", 512, 16 * KB)
        fs = DLFS(cluster, ds)
        comm = Communicator(cluster)
        pfs = ParallelFS(env)

        def app(env):
            yield from fs.mount_timed(comm, pfs)
            client = fs.client(rank=0, num_ranks=1)
            client.sequence(seed=1)
            batch = yield from client.bread(16)
            return len(batch)

        assert env.run(until=env.process(app(env))) == 16


class TestShutdown:
    def test_shutdown_frees_reactor_core(self):
        env, cluster, ds, fs = make_rig(mode="chunk")
        client = fs.client()
        client.sequence(seed=1)
        core = cluster.node(0).cpu.core(0)

        def app(env):
            yield from client.bread(8)
            yield from client.shutdown()
            # Core must be free for other work now.
            yield from core.execute(1e-6)
            return "done"

        assert env.run(until=env.process(app(env))) == "done"
        assert core.count == 0
