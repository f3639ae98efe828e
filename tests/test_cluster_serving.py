"""Replicated cluster serving tier: placement, routing, failover.

Covers the tentpole surfaces (ShardMap placement, ClusterState address
translation, FrontEndBalancer routing, NodeReadCache, the end-to-end
crash/rejoin failover gates) plus the satellite edge cases: ChunkLedger
reclaim at exactly-full quota, the oversized-span escape under
concurrent reclaim pressure, and rejoin-from-empty-ledger.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.workloads import cluster_tenants, dlfs_cluster
from repro.cluster import (
    Cluster,
    ClusterSpec,
    ClusterState,
    FrontEndBalancer,
    NodeReadCache,
    ShardMap,
    rendezvous_order,
)
from repro.core import DLFS, DLFSConfig
from repro.data import Dataset
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.hw import KB, Testbed
from repro.sim import Environment
from repro.tenancy import CachePartition, TenantSpec


# ---------------------------------------------------------------------------
# Rendezvous placement
# ---------------------------------------------------------------------------

class TestShardMap:
    def test_replicas_distinct_and_bounded(self):
        m = ShardMap(num_shards=16, nodes=range(8), replicas=3)
        for s in range(16):
            reps = m.replicas_of(s)
            assert len(reps) == 3
            assert len(set(reps)) == 3
            assert m.primary(s) == reps[0]

    def test_anchor_pins_primary(self):
        lanes = list(range(6))
        m = ShardMap(num_shards=6, nodes=lanes, replicas=2, anchors=lanes)
        for s in range(6):
            assert m.primary(s) == s

    def test_standby_outside_replica_set(self):
        m = ShardMap(num_shards=8, nodes=range(4), replicas=2)
        for s in range(8):
            standby = m.standby(s)
            assert standby is not None
            assert standby not in m.replicas_of(s)

    def test_standby_exhausted_when_all_nodes_replicate(self):
        m = ShardMap(num_shards=4, nodes=range(2), replicas=2)
        assert m.standby(0) is None

    def test_consistency_under_node_removal(self):
        """Removing a node only disturbs shards that ranked it."""
        before = ShardMap(num_shards=32, nodes=range(8), replicas=2)
        after = ShardMap(num_shards=32, nodes=range(7), replicas=2)
        for s in range(32):
            if 7 not in before.replicas_of(s):
                assert after.replicas_of(s) == before.replicas_of(s)

    def test_rendezvous_order_is_stable_permutation(self):
        order = rendezvous_order("shard:3", range(8))
        assert sorted(order) == list(range(8))
        assert order == rendezvous_order("shard:3", range(8))

    def test_shards_on_inverts_replicas_of(self):
        m = ShardMap(num_shards=12, nodes=range(5), replicas=2)
        for node in range(5):
            for s in m.shards_on(node):
                assert node in m.replicas_of(s)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardMap(num_shards=0, nodes=range(2))
        with pytest.raises(ConfigError):
            ShardMap(num_shards=2, nodes=())
        with pytest.raises(ConfigError):
            ShardMap(num_shards=2, nodes=(0, 0))
        with pytest.raises(ConfigError):
            ShardMap(num_shards=2, nodes=range(2), replicas=3)
        with pytest.raises(ConfigError):
            ShardMap(num_shards=2, nodes=range(2), anchors=(0,))
        with pytest.raises(ConfigError):
            ShardMap(num_shards=2, nodes=range(2), anchors=(0, 9))


# ---------------------------------------------------------------------------
# Cluster state: address translation, liveness, grafting
# ---------------------------------------------------------------------------

class _FakeLayout:
    """Just enough of DatasetLayout for ClusterState: per-shard sizes."""

    def __init__(self, shard_bytes, base_offset=4096):
        self._bytes = shard_bytes
        self.base_offset = base_offset

    def shard_bytes(self, shard):
        return self._bytes[shard]


def _state(num_shards=4, nodes=4, replicas=2, spec=None, shard_kb=64):
    lanes = list(range(nodes))
    m = ShardMap(
        num_shards=num_shards, nodes=lanes, replicas=replicas, anchors=lanes
    ) if num_shards == nodes else ShardMap(
        num_shards=num_shards, nodes=lanes, replicas=replicas
    )
    layout = _FakeLayout([shard_kb * KB] * num_shards)
    return ClusterState(m, layout, spec or ClusterSpec(replicas=replicas))


class TestClusterState:
    def test_regions_on_a_lane_never_overlap(self):
        state = _state()
        for lane in state.lanes:
            regions = sorted(
                (base, base + state._stride(s))
                for (s, l), base in state._base.items()
                if l == lane
            )
            for (_, end_a), (start_b, _) in zip(regions, regions[1:]):
                assert end_a <= start_b

    def test_delta_translates_layout_to_device_offset(self):
        state = _state()
        for (s, lane), base in state._base.items():
            off = state.layout.base_offset + 100
            assert off + state.delta(s, lane) == base + 100

    def test_alive_replicas_tracks_liveness(self):
        state = _state()
        s = 0
        full = state.alive_replicas(s)
        assert full == list(state.shard_map.replicas_of(s))
        state.mark_dead(full[0])
        assert state.alive_replicas(s) == full[1:]
        state.mark_alive(full[0])
        assert state.alive_replicas(s) == full

    def test_graft_and_standby_promotion(self):
        state = _state()
        s = 0
        standby = state.shard_map.standby(s)
        assert standby is not None
        end_before = state._devend[standby]
        base = state.graft(s, standby)
        assert base == end_before
        assert state.has_replica(s, standby)
        # Grafted but not yet promoted: not routable.
        assert standby not in state.alive_replicas(s)
        state.promote_standby(s, standby)
        assert state.alive_replicas(s)[-1] == standby
        # A replica rejoining retires the graft from routing.
        state.retire_standbys(state.shard_map.primary(s))
        assert standby not in state.alive_replicas(s)


# ---------------------------------------------------------------------------
# Front-end balancer
# ---------------------------------------------------------------------------

class _FakeFetch:
    def __init__(self, shard, offset=4096, nbytes=4096):
        self.shard = shard
        self.offset = offset
        self.nbytes = nbytes
        self.lane = None


class TestFrontEndBalancer:
    def test_route_least_loaded_with_lane_tiebreak(self):
        state = _state()
        fe = FrontEndBalancer(state)
        s = 0
        reps = state.shard_map.replicas_of(s)
        f1 = _FakeFetch(s)
        f1.lane = fe.route(f1)
        assert f1.lane == min(reps)  # all loads equal: lowest lane id
        f2 = _FakeFetch(s)
        f2.lane = fe.route(f2)
        assert f2.lane == [l for l in sorted(reps) if l != f1.lane][0]
        fe.fetch_done(f1)
        assert fe.loads[f1.lane] == 0

    def test_route_skips_dead_lane_and_reroute_fails_over(self):
        state = _state()
        fe = FrontEndBalancer(state)
        s = 0
        reps = list(state.shard_map.replicas_of(s))
        f = _FakeFetch(s)
        f.lane = fe.route(f)
        dead = f.lane
        fe.mark_dead(dead)
        assert fe.reroute(f)
        assert f.lane in reps and f.lane != dead
        assert fe.failovers == 1
        g = _FakeFetch(s)
        g.lane = fe.route(g)
        assert g.lane != dead

    def test_all_replicas_dead_parks_on_primary(self):
        state = _state()
        fe = FrontEndBalancer(state)
        s = 0
        for lane in state.shard_map.replicas_of(s):
            fe.mark_dead(lane)
        f = _FakeFetch(s)
        f.lane = fe.route(f)
        assert f.lane == state.shard_map.primary(s)
        assert not fe.reroute(f)  # nowhere to go

    def test_cache_aware_routing_prefers_resident_replica(self):
        state = _state(spec=ClusterSpec(replicas=2, read_cache_chunks=4))
        s = 0
        reps = state.shard_map.replicas_of(s)
        warm = max(reps)  # would lose the lane-id tiebreak if cold
        for lane in reps:
            state.read_caches[lane] = NodeReadCache(
                f"rc{lane}", capacity_chunks=4, chunk_size=256 * KB
            )
        fe = FrontEndBalancer(state)
        f = _FakeFetch(s, offset=8192, nbytes=4096)
        dev_off = f.offset + state.delta(s, warm)
        state.read_caches[warm].insert(dev_off, 4096)
        f.lane = fe.route(f)
        assert f.lane == warm
        assert fe.cache_routed == 1


# ---------------------------------------------------------------------------
# Node read cache (crash drops it; rejoin starts from an empty ledger)
# ---------------------------------------------------------------------------

class TestNodeReadCache:
    def test_lru_eviction_and_ledger_accounting(self):
        rc = NodeReadCache("rc", capacity_chunks=2, chunk_size=KB)
        assert rc.insert(0, KB) and rc.insert(KB, KB)
        assert rc.used_chunks == 2
        assert rc.lookup(0, KB)  # bumps LRU: (KB, KB) is now oldest
        assert rc.insert(2 * KB, KB)
        assert rc.evictions == 1
        assert not rc.peek(KB, KB)  # the bumped-past entry was evicted
        assert rc.peek(0, KB)
        assert rc.used_chunks == 2

    def test_oversized_span_served_uncached(self):
        rc = NodeReadCache("rc", capacity_chunks=2, chunk_size=KB)
        assert not rc.insert(0, 3 * KB)
        assert rc.used_chunks == 0

    def test_crash_empties_ledger_and_keeps_journal(self):
        """Satellite: rejoin starts from an empty ledger, then re-warms."""
        rc = NodeReadCache("rc", capacity_chunks=4, chunk_size=KB)
        rc.insert(0, KB)
        rc.insert(KB, 2 * KB)
        assert rc.used_chunks == 3
        rc.crash()
        assert rc.used_chunks == 0  # ledger fully uncharged
        assert rc.ledger.as_dict()["rc"]["used"] == 0
        assert not rc.peek(0, KB)
        assert rc.journal == ((0, KB), (KB, 2 * KB))
        # Rejoin-from-empty-ledger: the re-warm replay recharges cleanly.
        for offset, nbytes in rc.journal:
            assert rc.insert(offset, nbytes)
        assert rc.used_chunks == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            NodeReadCache("rc", capacity_chunks=0, chunk_size=KB)
        with pytest.raises(ConfigError):
            NodeReadCache("rc", capacity_chunks=1, chunk_size=0)


# ---------------------------------------------------------------------------
# Satellite: ChunkLedger reclaim edge cases (via CachePartition)
# ---------------------------------------------------------------------------

class _FakeCache:
    """Just enough of SampleCache for CachePartition: clean-slot LRU."""

    def __init__(self):
        self.clean = []
        self.on_free = None
        self.evictions = 0

    def clean_keys(self):
        return tuple(self.clean)

    def evict(self, key):
        self.clean.remove(key)
        self.evictions += 1
        self.on_free(key)


class TestReclaimEdgeCases:
    def test_quota_exactly_full_admits_via_exact_reclaim(self):
        """used == quota exactly: denied cold, admitted once the
        reservation can reclaim exactly the needed chunks."""
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.5),))
        part.attach(cache, 8)  # quota = 4
        part.reserve("a", "k1", 2)
        part.reserve("a", "k2", 2)
        assert part.ledger.used("a") == part.ledger.quota("a")
        assert not part.can_admit("a", 2)
        cache.clean.append("k2")
        assert part.can_admit("a", 2)
        part.reserve("a", "k3", 2)
        assert cache.evictions == 1
        # Still exactly full, never over.
        assert part.ledger.used("a") == 4

    def test_oversized_span_escape_under_concurrent_reclaim(self):
        """A span bigger than the quota must drain *all* the tenant's
        clean slots before charging, and never double-evicts when the
        reservation loop and the oversized limit interact."""
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.25),))
        part.attach(cache, 8)  # quota = 2
        part.reserve("a", "k1", 1)
        part.reserve("a", "k2", 1)
        cache.clean.extend(["k1", "k2"])
        # Oversized (5 > quota 2) and reclaimable-to-zero: admissible.
        assert part.can_admit("a", 5)
        part.reserve("a", "big", 5)
        # Both clean slots were reclaimed; only the big span is charged.
        assert cache.evictions == 2
        assert part.ledger.used("a") == 5
        # While the oversized span is resident nothing else fits ...
        assert not part.can_admit("a", 1)
        # ... and freeing it returns the ledger to exactly zero.
        part.on_free("big")
        assert part.ledger.used("a") == 0

    def test_oversized_span_denied_with_unreclaimable_residue(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.25),))
        part.attach(cache, 8)  # quota = 2
        part.reserve("a", "dirty", 1)  # referenced: not in clean_keys
        assert not part.can_admit("a", 5)
        assert part.denials == 1


# ---------------------------------------------------------------------------
# Config gates
# ---------------------------------------------------------------------------

def _mini_cluster(env, num_storage=2, devices_per_storage=1):
    cluster = Cluster(
        env, Testbed.paper_emulated(),
        num_nodes=1 + num_storage, devices_per_node=0,
    )
    placement = []
    for d in range(num_storage):
        node = cluster.node(1 + d)
        for i in range(devices_per_storage):
            node.add_device()
            placement.append((node.index, i))
    return cluster, placement


class TestConfigGates:
    def test_cluster_spec_validation(self):
        with pytest.raises(ConfigError):
            ClusterSpec(replicas=0).validate()
        with pytest.raises(ConfigError):
            ClusterSpec(hedge_delay=-1).validate()
        with pytest.raises(ConfigError):
            ClusterSpec(detect_delay=-1).validate()
        with pytest.raises(ConfigError):
            ClusterSpec(read_cache_chunks=-1).validate()
        with pytest.raises(ConfigError):
            ClusterSpec(handoff_chunk_bytes=100).validate()
        assert ClusterSpec(replicas=1, balancer=False).is_flat
        assert not ClusterSpec(replicas=2).is_flat

    def test_tenancy_sfq_and_cluster_mutually_exclusive(self):
        config = DLFSConfig(
            tenants=(TenantSpec(name="a"),), cluster=ClusterSpec(replicas=2)
        )
        with pytest.raises(ConfigError, match="mutually exclusive"):
            config.validate()
        # A flat spec is the plain datapath: tenancy stays allowed.
        DLFSConfig(
            tenants=(TenantSpec(name="a"),),
            cluster=ClusterSpec(replicas=1, balancer=False),
        ).validate()

    def test_node_crashes_require_cluster_spec(self):
        env = Environment()
        cluster, placement = _mini_cluster(env)
        ds = Dataset.fixed("gates", 64, 4 * KB, seed=1)
        config = DLFSConfig(
            batching="sample",
            fault_plan=FaultPlan(node_crashes=((0, 0.001, 0.002),)),
        )
        with pytest.raises(ConfigError, match="config.cluster"):
            DLFS.mount(cluster, ds, config, placement=placement)

    def test_cluster_rejects_placement_reusing_a_node(self):
        env = Environment()
        cluster, placement = _mini_cluster(
            env, num_storage=1, devices_per_storage=2
        )
        ds = Dataset.fixed("gates", 64, 4 * KB, seed=1)
        config = DLFSConfig(
            batching="sample", cluster=ClusterSpec(replicas=2)
        )
        with pytest.raises(ConfigError, match="reuses a node"):
            DLFS.mount(cluster, ds, config, placement=placement)

    def test_crash_on_unknown_lane_rejected(self):
        with pytest.raises(ConfigError):
            dlfs_cluster(
                num_storage=2, num_clients=1, num_samples=256,
                horizon=0.002, node_crashes=((9, 0.001, None),),
            )


# ---------------------------------------------------------------------------
# End-to-end: failover, determinism, pay-for-use
# ---------------------------------------------------------------------------

def _digest(samples: np.ndarray) -> str:
    return hashlib.sha1(bytes(samples.tobytes())).hexdigest()


def _flat_run(cluster_spec):
    """One small read_batch-driven run; returns the bit-identity witness."""
    env = Environment()
    cluster, placement = _mini_cluster(env, num_storage=2)
    ds = Dataset.fixed("flatid", 256, 4 * KB, seed=11)
    config = DLFSConfig(batching="sample", cluster=cluster_spec)
    fs = DLFS.mount(cluster, ds, config, placement=placement)
    client = fs.client(rank=0, num_ranks=1, node=cluster.node(0))

    def app(env):
        yield from client.read_batch(list(range(128)))
        yield from client.shutdown()
        return env.now

    t = env.run(until=env.process(app(env)))
    return t, client.reactor.samples_delivered


class TestEndToEnd:
    def test_flat_spec_bit_identical_to_no_spec(self):
        """Pay-for-use: replicas=1 + no balancer is the exact flat path."""
        assert _flat_run(None) == _flat_run(
            ClusterSpec(replicas=1, balancer=False)
        )

    def test_crash_rejoin_loses_zero_samples(self):
        r = dlfs_cluster(
            num_storage=4, num_clients=1, replicas=2, num_samples=2048,
            horizon=0.01, node_crashes=((1, 0.004, 0.008),),
        )
        assert r.failed == 0
        assert r.delivered == len(r.samples_read)
        assert r.lifecycle["crashes"] == 1
        assert r.lifecycle["rejoins"] == 1
        assert r.recovery["failovers"] > 0
        assert r.recovery["node_down"] >= 1
        assert r.recovery["node_up"] >= 1
        assert r.balancer["failovers"] == r.recovery["failovers"]

    def test_crash_rejoin_is_deterministic(self):
        runs = [
            dlfs_cluster(
                num_storage=4, num_clients=1, replicas=2, num_samples=2048,
                horizon=0.01, node_crashes=((1, 0.004, 0.008),),
            )
            for _ in range(2)
        ]
        a, b = runs
        assert a.sim_time == b.sim_time
        assert _digest(a.samples_read) == _digest(b.samples_read)
        assert a.lifecycle == b.lifecycle
        assert a.recovery == b.recovery

    def test_permanent_crash_survives_with_replicas(self):
        r = dlfs_cluster(
            num_storage=4, num_clients=1, replicas=2, num_samples=2048,
            horizon=0.008, node_crashes=((2, 0.003, None),),
        )
        assert r.failed == 0
        assert r.lifecycle["rejoins"] == 0
        # The dead lane's shards were handed off to ring standbys.
        assert r.lifecycle["handoffs_started"] > 0
        assert r.lifecycle["handoffs_completed"] > 0

    def test_crash_during_handoff_aborts_the_graft(self):
        # Rejoin at 8 ms races the 1 MiB-chunk handoff copy and wins.
        r = dlfs_cluster(
            num_storage=4, num_clients=1, replicas=2, num_samples=2048,
            horizon=0.01, node_crashes=((1, 0.004, 0.008),),
        )
        assert r.lifecycle["handoffs_started"] > 0
        assert r.lifecycle["handoffs_aborted"] == r.lifecycle["handoffs_started"]
        assert r.lifecycle["handoffs_completed"] == 0

    def test_hedged_reads_fire_and_dedupe(self):
        r = dlfs_cluster(
            num_storage=4, num_clients=1, replicas=2, num_samples=2048,
            horizon=0.006, hedge_delay=200e-6,
        )
        assert r.failed == 0
        assert r.recovery.get("hedges_posted", 0) > 0

    def test_read_cache_warms_and_routes(self):
        # Two clients: each client's own sample cache absorbs its
        # repeats, so node-cache residency hits come from the *other*
        # client having warmed the span.
        r = dlfs_cluster(
            num_storage=4, num_clients=2, replicas=2, num_samples=1024,
            horizon=0.008, read_cache_chunks=256,
        )
        assert r.failed == 0
        assert r.balancer["cache_routed"] > 0

    def test_tenant_accounting_merged_across_clients(self):
        specs, _ = cluster_tenants(2048)
        r = dlfs_cluster(
            num_storage=4, num_clients=2, replicas=2, num_samples=2048,
            horizon=0.006,
        )
        names = [row["tenant"] for row in r.per_tenant]
        assert names == sorted(s.name for s in specs)
        assert sum(row["samples"] for row in r.per_tenant) == r.delivered
        assert all(row["p99"] >= row["p50"] > 0 for row in r.per_tenant)


# ---------------------------------------------------------------------------
# A wedged flight is resolved by the qpair teardown, never by GC
# ---------------------------------------------------------------------------

class TestWedgedFlight:
    def test_wedged_flight_is_resolved_by_teardown_only(self):
        """A read posted to a dead node stops in the target's service
        chain, holding nothing, and stays in flight: no garbage
        collection and no further run delivers or drops it.  The client
        qpair's teardown is what resolves it, exactly like a real dead
        host.  (The process form parked a generator on an event the
        target had to pin: GC closing it ran the qpair's slot reclaim
        and dropped the request at nondeterministic times.)"""
        import gc

        from repro.hw import (
            STATUS_ABORTED_RESET, Fabric, NetworkSpec, NVMeDevice, NVMeSpec,
        )
        from repro.hw.memory import HugePagePool
        from repro.spdk import SPDKRequest
        from repro.spdk.qpair import IOQPair
        from repro.spdk.target import NVMeoFTarget

        env = Environment()
        fabric = Fabric(env, NetworkSpec())
        fabric.attach("client")
        fabric.attach("server")
        device = NVMeDevice(env, NVMeSpec(), name="nvme0")
        target = NVMeoFTarget(env, "server", device, fabric)
        qpair = IOQPair(env, "client", target, queue_depth=4)
        pool = HugePagePool(env, total_bytes=4096, chunk_size=4096)
        target.fail()
        request = SPDKRequest(offset=0, nbytes=4096, chunks=[pool.try_alloc()])
        qpair.post(request)
        env.run()  # queue drains; the wedged flight never completes
        gc.collect()
        env.run()
        assert qpair.inflight == 1 and len(qpair.completion_sink) == 0
        assert not fabric.nic("client").tx.busy
        assert qpair.teardown() == [request]
        assert request.status == STATUS_ABORTED_RESET
        assert list(qpair.completion_sink.items) == [request]
        assert qpair.inflight == 0
