"""Unit tests for the SPDK substrate: requests, qpairs, NVMe-oF targets."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Cluster
from repro.errors import ConfigError, QueueFullError
from repro.hw import KB, Testbed
from repro.sim import Environment, Store
from repro.spdk import (
    NVMeoFTarget,
    SPDKDriver,
    SPDKRequest,
    align_down,
    align_up,
    aligned_span,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return Cluster(env, Testbed.paper_emulated(), num_nodes=2, devices_per_node=1)


def make_request(pool, offset=0, nbytes=4096, nchunks=1, tag=None):
    chunks = [pool.try_alloc() for _ in range(nchunks)]
    assert all(c is not None for c in chunks)
    return SPDKRequest(offset=offset, nbytes=nbytes, chunks=chunks, tag=tag)


class TestAlignment:
    def test_align_down_up(self):
        assert align_down(1000) == 512
        assert align_up(1000) == 1024
        assert align_down(512) == 512
        assert align_up(512) == 512

    def test_aligned_span_covers_range(self):
        start, nbytes = aligned_span(700, 100)
        assert start == 512
        assert start + nbytes >= 800
        assert start % 512 == 0 and nbytes % 512 == 0

    @given(
        offset=st.integers(min_value=0, max_value=10**9),
        nbytes=st.integers(min_value=1, max_value=10**6),
    )
    def test_aligned_span_properties(self, offset, nbytes):
        start, span = aligned_span(offset, nbytes)
        assert start <= offset
        assert start + span >= offset + nbytes
        assert start % 512 == 0 and span % 512 == 0
        assert span - nbytes < 2 * 512  # never pads more than two blocks


class TestSPDKRequest:
    def test_valid_request(self, cluster):
        pool = cluster.node(0).hugepages
        req = make_request(pool, offset=512, nbytes=4096)
        assert req.offset == 512

    def test_unaligned_rejected(self, cluster):
        pool = cluster.node(0).hugepages
        chunk = pool.try_alloc()
        with pytest.raises(ConfigError):
            SPDKRequest(offset=100, nbytes=4096, chunks=[chunk])
        with pytest.raises(ConfigError):
            SPDKRequest(offset=0, nbytes=1000, chunks=[chunk])

    def test_buffer_too_small_rejected(self, cluster):
        pool = cluster.node(0).hugepages
        chunk = pool.try_alloc()  # 256 KB
        with pytest.raises(ConfigError):
            SPDKRequest(offset=0, nbytes=512 * KB, chunks=[chunk])

    def test_no_chunks_rejected(self):
        with pytest.raises(ConfigError):
            SPDKRequest(offset=0, nbytes=512, chunks=[])

    def test_ids_are_unique(self, cluster):
        pool = cluster.node(0).hugepages
        a = make_request(pool)
        b = make_request(pool)
        assert a.request_id != b.request_id


class TestDriver:
    def test_unbind_required_for_local_connect(self, cluster):
        node = cluster.node(0)
        driver = SPDKDriver(node)
        with pytest.raises(ConfigError):
            driver.connect(node.device)
        driver.unbind_from_kernel(node.device)
        qp = driver.connect(node.device)
        assert not qp.is_remote
        assert driver.is_unbound(node.device)

    def test_cannot_unbind_remote_device(self, cluster):
        driver = SPDKDriver(cluster.node(0))
        with pytest.raises(ConfigError):
            driver.unbind_from_kernel(cluster.node(1).device)

    def test_connect_remote_target(self, env, cluster):
        driver = SPDKDriver(cluster.node(0))
        target = NVMeoFTarget(
            env, cluster.node(1).name, cluster.node(1).device, cluster.fabric
        )
        qp = driver.connect(target)
        assert qp.is_remote
        assert driver.qpairs == [qp]


class TestLocalQPair:
    def _connect(self, cluster, **kw):
        node = cluster.node(0)
        driver = SPDKDriver(node)
        driver.unbind_from_kernel(node.device)
        return node, driver.connect(node.device, **kw)

    def test_read_completes_into_sink(self, env, cluster):
        node, qp = self._connect(cluster)
        req = make_request(node.hugepages, offset=0, nbytes=4096)
        qp.post(req)

        def reap(env):
            done = yield qp.completion_sink.get()
            return done

        got = env.run(until=env.process(reap(env)))
        assert got is req
        assert req.latency > 0
        assert req.chunks[0].valid_bytes == 4096

    def test_queue_depth_enforced(self, env, cluster):
        node, qp = self._connect(cluster, queue_depth=2)
        qp.post(make_request(node.hugepages))
        qp.post(make_request(node.hugepages, offset=8192))
        assert qp.free_slots == 0
        with pytest.raises(QueueFullError):
            qp.post(make_request(node.hugepages, offset=16384))

    def test_inflight_drains(self, env, cluster):
        node, qp = self._connect(cluster, queue_depth=8)
        for i in range(4):
            qp.post(make_request(node.hugepages, offset=i * 8192))
        assert qp.inflight == 4
        env.run()
        assert qp.inflight == 0
        assert qp.completed == qp.posted == 4

    def test_multi_chunk_request_fill(self, env, cluster):
        node, qp = self._connect(cluster)
        req = make_request(node.hugepages, offset=0, nbytes=384 * KB, nchunks=2)
        qp.post(req)
        env.run()
        assert req.chunks[0].valid_bytes == 256 * KB
        assert req.chunks[1].valid_bytes == 128 * KB

    def test_shared_sink_across_qpairs(self, env, cluster):
        node = cluster.node(0)
        node.add_device()
        driver = SPDKDriver(node)
        scq = Store(env, name="scq")
        for dev in node.devices:
            driver.unbind_from_kernel(dev)
        qps = [driver.connect(dev, completion_sink=scq) for dev in node.devices]
        for qp in qps:
            qp.post(make_request(node.hugepages))
        env.run()
        assert len(scq) == 2

    def test_bad_queue_depth(self, cluster):
        node = cluster.node(0)
        driver = SPDKDriver(node)
        driver.unbind_from_kernel(node.device)
        with pytest.raises(ConfigError):
            driver.connect(node.device, queue_depth=0)

    def test_on_release_fires_as_the_slot_frees(self, env, cluster):
        # Completion and reset abort both free the slot and call the
        # hook before the request reaches the sink.
        node, qp = self._connect(cluster, queue_depth=4)
        seen = []
        qp.on_release = lambda req: seen.append(
            (req, qp.free_slots, len(qp.completion_sink))
        )
        done = make_request(node.hugepages)
        qp.post(done)
        env.run()
        assert seen == [(done, 4, 0)]
        aborted = make_request(node.hugepages, offset=8192)
        qp.post(aborted)
        qp.reset()
        assert seen[1:] == [(aborted, 0, 1)]  # disconnected: no free slots
        assert qp.completion_sink.items == (done, aborted)


class TestRemoteQPair:
    def _connect_remote(self, env, cluster, **kw):
        client, server = cluster.node(0), cluster.node(1)
        driver = SPDKDriver(client)
        target = NVMeoFTarget(env, server.name, server.device, cluster.fabric)
        return client, target, driver.connect(target, **kw)

    def test_remote_read_completes(self, env, cluster):
        client, target, qp = self._connect_remote(env, cluster)
        req = make_request(client.hugepages, offset=0, nbytes=128 * KB)
        qp.post(req)
        env.run()
        assert qp.completed == 1
        assert target.meter.bytes == 128 * KB

    def test_remote_latency_exceeds_local_by_fabric_costs(self, env, cluster):
        client, target, qp = self._connect_remote(env, cluster)
        req = make_request(client.hugepages, offset=0, nbytes=4096)
        qp.post(req)
        env.run()
        remote_latency = req.latency

        env2 = Environment()
        cluster2 = Cluster(env2, Testbed.paper_emulated(), num_nodes=1)
        node = cluster2.node(0)
        driver = SPDKDriver(node)
        driver.unbind_from_kernel(node.device)
        qp2 = driver.connect(node.device)
        req2 = make_request(node.hugepages, offset=0, nbytes=4096)
        qp2.post(req2)
        env2.run()

        added = remote_latency - req2.latency
        spec = cluster.testbed.network
        # NVMe-oF adds capsule + protocol latency + data transfer, all in
        # the paper's "< 10 us" band for a 4 KB read.
        assert added > spec.nvmf_added_latency
        assert added < 10e-6

    def test_remote_bandwidth_bounded_by_nic(self, env):
        """Many large reads from one remote device: NIC or device caps BW."""
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=2)
        client, target, qp = (
            cluster.node(0),
            NVMeoFTarget(env, cluster.node(1).name, cluster.node(1).device,
                         cluster.fabric),
            None,
        )
        driver = SPDKDriver(client)
        qp = driver.connect(target, queue_depth=64)
        n = 40
        for i in range(n):
            req = make_request(client.hugepages, offset=i * 256 * KB,
                               nbytes=256 * KB)
            qp.post(req)
        env.run()
        bw = n * 256 * KB / env.now
        cap = min(cluster.testbed.network.bandwidth,
                  cluster.testbed.nvme.read_bandwidth)
        assert bw <= cap * 1.01
        assert bw > 0.7 * cap

    def test_target_reactor_utilization_tracked(self, env, cluster):
        client, target, qp = self._connect_remote(env, cluster)
        for i in range(8):
            qp.post(make_request(client.hugepages, offset=i * 8192))
        env.run()
        assert 0.0 < target.reactor_utilization() <= 1.0
