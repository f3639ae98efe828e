"""Multi-tenant serving: admission, fair scheduling, partitioning, traffic.

Covers the tenancy subsystem's acceptance properties:

* token-bucket conformance (unit and end-to-end, with rejection
  accounting);
* SFQ weighted fairness — exact at the unit level, within 5% of the
  configured weights end to end under saturation;
* priority classes with bounded bypass (no starvation);
* per-tenant qpair-depth caps and cache quotas with self-only reclaim;
* noisy-neighbor isolation (victim p99 within 2x of solo);
* traffic-engine determinism across runs, under the SimSanitizer's
  same-timestamp arrival shuffles, and across the two device paths.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.perfcheck import run_perfcheck
from repro.analysis.sanitizer import run_sanitizer
from repro.bench.workloads import (
    demo_tenants,
    dlfs_tenancy,
    fair_tenants,
    preset,
    run_fleet,
)
from repro.cluster import Cluster
from repro.core import DLFS, DLFSConfig
from repro.core.reader import ReadJob
from repro.data import Dataset
from repro.errors import AdmissionRejected, AllocationError, ConfigError
from repro.faults import FaultPlan
from repro.hw import Testbed
from repro.hw.memory import ChunkLedger
from repro.sim import Environment
from repro.tenancy import (
    AdmissionController,
    CachePartition,
    FairScheduler,
    TenantAccounting,
    TenantSpec,
    TenantWorkload,
    TokenBucket,
)


def _fetch(tenant, nbytes, key=None):
    return SimpleNamespace(tenant=tenant, nbytes=nbytes, key=key)


def _part(tenant, nbytes):
    return SimpleNamespace(tag=SimpleNamespace(tenant=tenant), nbytes=nbytes)


def _row(report_rows, tenant):
    for row in report_rows:
        if row["tenant"] == tenant:
            return row
    raise AssertionError(f"no row for {tenant!r}")


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        b = TokenBucket(rate=1000.0, burst=10.0)
        assert b.try_take(10, 0.0)
        assert not b.try_take(1, 0.0)
        # A long quiet period refills to burst, never beyond.
        assert b.try_take(10, 100.0)
        assert not b.try_take(1, 100.0)

    def test_lazy_refill_is_exact(self):
        b = TokenBucket(rate=1000.0, burst=10.0)
        assert b.try_take(10, 0.0)
        assert b.eta(5, 0.0) == pytest.approx(5e-3)
        assert not b.try_take(5, 4e-3)  # only 4 tokens so far
        assert b.try_take(5, 5.001e-3)

    def test_conformance_bound_end_to_end(self):
        # Offered 16,000 samples/s against a 4,000/s bucket: the
        # delivered total can never exceed burst + rate * sim_time.
        spec = TenantSpec(name="limited", rate=4000.0, burst=32.0,
                          max_queued_jobs=256)
        wl = TenantWorkload(name="limited", kind="poisson", rate=2000.0,
                            batch=8, sample_lo=0, sample_hi=1024)
        r = dlfs_tenancy(specs=(spec,), workloads=(wl,),
                         horizon=0.02, warmup=0.004)
        row = _row(r.per_tenant, "limited")
        assert row["samples"] == r.delivered > 0
        assert r.delivered <= 32.0 + 4000.0 * r.sim_time + wl.batch

    def test_queue_overflow_rejects_with_accounting(self):
        spec = TenantSpec(name="burst", rate=1000.0, burst=8.0,
                          max_queued_jobs=2)
        wl = TenantWorkload(name="burst", kind="poisson", rate=5000.0,
                            batch=8, sample_lo=0, sample_hi=1024)
        r = dlfs_tenancy(specs=(spec,), workloads=(wl,),
                         horizon=0.01, warmup=0.002)
        assert r.rejected_jobs > 0
        row = _row(r.per_tenant, "burst")
        assert row["rejected"] == r.rejected_jobs
        # Rejected jobs are not in the witness; completed ones all are.
        assert len(r.samples_read) == r.delivered
        assert r.failed == 0

    def test_job_larger_than_burst_is_rejected_not_parked(self):
        # The bucket never holds more than ``burst`` tokens, so an
        # 8-sample job can never conform to burst=4.  Parked, it would
        # re-arm its drainer forever and wedge the tenant's later jobs.
        env = Environment()
        spec = TenantSpec(name="t", rate=100.0, burst=4.0)
        accounting = TenantAccounting(env, (spec,))
        submitted = []
        admission = AdmissionController(
            env, (spec,), submitted.append, accounting=accounting
        )
        big = ReadJob(samples=np.arange(8), done=env.event(), tenant="t")
        small = ReadJob(samples=np.arange(4), done=env.event(), tenant="t")
        assert not admission.submit_job(big)
        assert admission.submit_job(small)
        env.run(until=5.0)
        assert submitted == [small]
        assert big.done.processed and big.remaining == 0
        assert len(big.errors) == 8
        assert all(isinstance(e, AdmissionRejected) for e in big.errors)
        assert admission.rejected == 1
        assert accounting.row("t")["rejected"] == 1
        assert env.peek() == float("inf")  # no drainer left re-arming


# ---------------------------------------------------------------------------
# Fair scheduler (unit)
# ---------------------------------------------------------------------------

class TestFairScheduler:
    def test_backlogged_service_tracks_weights_exactly(self):
        sched = FairScheduler(
            (TenantSpec(name="a", weight=1.0), TenantSpec(name="b", weight=2.0)),
            queue_depth=64,
        )
        for _ in range(90):
            sched.push_part(0, _part("a", 1000))
            sched.push_part(0, _part("b", 1000))
        served = {"a": 0, "b": 0}
        for _ in range(60):
            entry = sched.select_part(0)
            sched.take(0, entry, "part")
            served[entry.tenant] += 1
        assert served == {"a": 20, "b": 40}
        assert sched.bytes_served["b"] == 2 * sched.bytes_served["a"]

    def test_priority_served_first_with_bounded_bypass(self):
        sched = FairScheduler(
            (
                TenantSpec(name="low", weight=1.0, priority=2),
                TenantSpec(name="high", weight=1.0, priority=1),
            ),
            queue_depth=64,
            max_bypass=3,
        )
        # The low-priority entry is the SFQ leader (enqueued first, so
        # the smallest start tag) but keeps being passed over ...
        sched.push_part(0, _part("low", 1000))
        for _ in range(10):
            sched.push_part(0, _part("high", 1000))
        order = []
        for _ in range(5):
            entry = sched.select_part(0)
            sched.take(0, entry, "part")
            order.append(entry.tenant)
        # ... until max_bypass forces it through (anti-starvation).
        assert order[:3] == ["high", "high", "high"]
        assert "low" in order
        assert order.index("low") == 3
        assert sched.forced_serves >= 1
        assert sched.preemptions >= 3

    def test_qpair_share_caps_inflight(self):
        sched = FairScheduler(
            (TenantSpec(name="a", weight=1.0, qpair_share=0.25),),
            queue_depth=8,
        )
        for _ in range(5):
            sched.push_part(0, _part("a", 1000))
        # cap = max(1, int(8 * 0.25)) = 2 concurrent posts.
        for _ in range(2):
            entry = sched.select_part(0)
            assert entry is not None
            sched.take(0, entry, "part")
            sched.on_posted("a", 0)
        assert sched.select_part(0) is None
        sched.on_complete("a", 0)
        assert sched.select_part(0) is not None

    def test_fetch_gate_filters_candidates(self):
        sched = FairScheduler((TenantSpec(name="a"), TenantSpec(name="b")),
                              queue_depth=8)
        sched.push_fetch(0, _fetch("a", 1000, key="ka"))
        sched.push_fetch(0, _fetch("b", 1000, key="kb"))
        sched.gate = lambda tenant, nbytes: tenant != "a"
        entry = sched.select_fetch(0)
        assert entry.tenant == "b"

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="").validate()
        with pytest.raises(ConfigError):
            TenantSpec(name="x", weight=0.0).validate()
        with pytest.raises(ConfigError):
            TenantSpec(name="x", qpair_share=0.0).validate()
        with pytest.raises(ConfigError):
            TenantSpec(name="x", cache_share=1.5).validate()
        with pytest.raises(ConfigError):
            FairScheduler((TenantSpec(name="x"), TenantSpec(name="x")), 8)


class _ScanScheduler(FairScheduler):
    """The linear scan the per-class heaps replaced, kept as the
    reference: every pick filters, gates and compares every queued
    entry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lists = {"fetch": {}, "part": {}}

    def _append(self, kind, shard, item, state, start):
        self._seq += 1
        self._lists[kind].setdefault(shard, []).append(SimpleNamespace(
            item=item, tenant=state.spec.name, priority=state.spec.priority,
            start=start, seq=self._seq, bypassed=0,
        ))

    def push_fetch(self, shard, fetch):
        state = self._state(fetch.tenant)
        start = self._tag(state, shard, fetch.nbytes)
        self._append("fetch", shard, fetch, state, start)

    def push_part(self, shard, req, start=None):
        state = self._state(req.tag.tenant)
        if start is None:
            start = self._tag(state, shard, req.nbytes)
        self._append("part", shard, req, state, start)

    def _pick(self, shard, kind, gate):
        eligible = []
        for e in self._lists[kind].get(shard, []):
            state = self.states[e.tenant]
            if state.inflight.get(shard, 0) >= state.cap:
                continue
            if gate is None or gate(e.tenant, e.item.nbytes):
                eligible.append(e)
        if not eligible:
            return None
        best = min(eligible, key=lambda e: (e.priority, e.start, e.tenant, e.seq))
        leader = min(eligible, key=lambda e: (e.start, e.tenant, e.seq))
        if leader is not best:
            self.preemptions += 1
            leader.bypassed += 1
            if leader.bypassed >= self.max_bypass:
                self.forced_serves += 1
                return leader
        return best

    def select_part(self, shard):
        return self._pick(shard, "part", None)

    def select_fetch(self, shard):
        return self._pick(shard, "fetch", self.gate)

    def take(self, shard, entry, kind):
        self._lists[kind][shard].remove(entry)
        if entry.start > self._vtime.setdefault(shard, 0.0):
            self._vtime[shard] = entry.start
        if kind == "part":
            self.bytes_served[entry.tenant] = (
                self.bytes_served.get(entry.tenant, 0) + entry.item.nbytes
            )
        return entry.item

    def popleft(self, shard, kind):
        entries = self._lists[kind].get(shard, [])
        first = min(range(len(entries)), key=lambda i: entries[i].seq)
        return entries.pop(first).item

    def count(self, shard, kind):
        return len(self._lists[kind].get(shard, []))


_SHARDS = (0, 1)
_NAMES = ("a", "b", "c", None)  # None rides the untagged lane
_SIZES = (4096, 16384, 65536)
_KINDS = ("fetch", "part")
_shard = st.sampled_from(_SHARDS)
_name = st.sampled_from(_NAMES)
_size = st.sampled_from(_SIZES)
_limits = st.tuples(*(st.sampled_from((0,) + _SIZES) for _ in _NAMES))
_select = st.tuples(st.just("select"), _shard, st.sampled_from(_KINDS),
                    st.booleans())
_SCHED_OPS = st.one_of(
    st.tuples(st.just("fetch"), _shard, _name, _size),
    st.tuples(st.just("charged"), _shard, _name, _size),
    st.tuples(st.just("inherit"), _shard, _name, _size, st.integers(0, 3)),
    st.tuples(st.just("posted"), _shard, _name),
    st.tuples(st.just("complete"), _shard, _name),
    st.tuples(st.just("gate"), _limits),
    _select,
    _select,  # picks are what is compared: draw them twice as often
    st.tuples(st.just("drain"), _shard, st.sampled_from(_KINDS)),
)


class TestClassHeapsMatchLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(_limits, st.lists(_SCHED_OPS, min_size=40, max_size=200))
    def test_same_picks_and_counters_as_the_linear_scan(self, limits, ops):
        specs = (
            TenantSpec(name="a", weight=1.0, priority=1, qpair_share=1.0),
            TenantSpec(name="b", weight=2.0, priority=2, qpair_share=0.5),
            TenantSpec(name="c", weight=0.5, priority=0, qpair_share=0.25),
        )
        heaps = FairScheduler(specs, queue_depth=4, max_bypass=2)
        scan = _ScanScheduler(specs, queue_depth=4, max_bypass=2)
        lanes = {"fetch": heaps._fetchq, "part": heaps._partq}
        # A size-dependent quota gate; "gate" steps move its limits.
        limit = dict(zip(("a", "b", "c", "_untagged"), limits))
        heaps.gate = scan.gate = lambda tenant, nbytes: nbytes <= limit[tenant]
        for op in ops:
            kind = op[0]
            if kind == "fetch":
                fetch = _fetch(op[2], op[3])
                heaps.push_fetch(op[1], fetch)
                scan.push_fetch(op[1], fetch)
            elif kind == "charged":
                part = _part(op[2], op[3])
                heaps.push_part(op[1], part)
                scan.push_part(op[1], part)
            elif kind == "inherit":
                part, start = _part(op[2], op[3]), op[4] * 4096.0
                heaps.push_part(op[1], part, start)
                scan.push_part(op[1], part, start)
            elif kind in ("posted", "complete"):
                getattr(heaps, f"on_{kind}")(op[2], op[1])
                getattr(scan, f"on_{kind}")(op[2], op[1])
            elif kind == "gate":
                limit.update(zip(("a", "b", "c", "_untagged"), op[1]))
            elif kind == "select":
                _, shard, lane, commit = op
                got = getattr(heaps, f"select_{lane}")(shard)
                want = getattr(scan, f"select_{lane}")(shard)
                assert getattr(got, "seq", None) == getattr(want, "seq", None)
                if commit and got is not None:
                    assert heaps.take(shard, got, lane) is scan.take(
                        shard, want, lane
                    )
            else:
                # Every queued item, in enqueue order.
                _, shard, lane = op
                want = [scan.popleft(shard, lane)
                        for _ in range(scan.count(shard, lane))]
                got = heaps.drain(shard, lane)
                assert len(got) == len(want)
                assert all(g is w for g, w in zip(got, want))
            assert heaps.preemptions == scan.preemptions
            assert heaps.forced_serves == scan.forced_serves
            assert heaps.bytes_served == scan.bytes_served
            for shard in _SHARDS:
                assert heaps._vtime.get(shard, 0.0) == scan._vtime.get(shard, 0.0)
                for lane in _KINDS:
                    queue = lanes[lane].get(shard)
                    size = 0 if queue is None else queue.size
                    assert size == scan.count(shard, lane)


# ---------------------------------------------------------------------------
# Cache partitioning
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


class TestCachePartition:
    def test_chunk_ledger_accounting(self):
        ledger = ChunkLedger()
        ledger.set_quota("a", 4)
        assert ledger.quota("a") == 4
        assert ledger.quota("unknown") == 0  # 0 = unlimited
        ledger.charge("a", 3)
        assert ledger.used("a") == 3
        ledger.uncharge("a", 2)
        assert ledger.used("a") == 1
        with pytest.raises(AllocationError):
            ledger.uncharge("a", 2)

    def test_quota_denial_and_self_reclaim(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.5),))
        part.attach(cache, 8)  # quota = 4 chunks
        part.reserve("a", "k1", 2)
        part.reserve("a", "k2", 2)
        # At quota with nothing clean: denied.
        assert not part.can_admit("a", 1)
        assert part.denials == 1
        # A clean slot of its own makes the same request admissible ...
        cache.clean.append("k1")
        assert part.can_admit("a", 2)
        part.reserve("a", "k3", 2)  # ... by evicting k1 (self-reclaim)
        assert cache.evictions == 1
        assert part.reclaims == 1
        assert part.ledger.used("a") == 4

    def test_unlimited_and_oversized_escape_hatch(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.25),))
        part.attach(cache, 8)  # quota = 2
        # Tenants without a share are unlimited.
        assert part.can_admit("other", 100)
        # A span bigger than the whole quota admits solo (no wedge) ...
        assert part.can_admit("a", 5)
        part.reserve("a", "big", 5)
        assert part.ledger.used("a") == 5
        # ... but blocks everything else until it is freed.
        assert not part.can_admit("a", 1)
        part.on_free("big")
        assert part.ledger.used("a") == 0
        assert part.can_admit("a", 1)

    def test_cancel_undoes_reservation(self):
        cache = _FakeCache()
        part = CachePartition((TenantSpec(name="a", cache_share=0.5),))
        part.attach(cache, 8)
        part.reserve("a", "k", 3)
        part.cancel("k")
        assert part.ledger.used("a") == 0
        part.cancel("k")  # idempotent


# ---------------------------------------------------------------------------
# End-to-end: fairness, isolation, tenant faults, pay-for-use
# ---------------------------------------------------------------------------

class TestServing:
    def test_weighted_fairness_within_5_percent(self):
        specs, workloads = fair_tenants(weights=(1.0, 2.0, 4.0))
        r = dlfs_tenancy(specs=specs, workloads=workloads,
                         horizon=0.02, warmup=0.004)
        total_w = sum(s.weight for s in specs)
        for s in specs:
            want = s.weight / total_w
            got = r.service_shares[s.name]
            assert got == pytest.approx(want, rel=0.05), s.name

    def test_promotions_follow_start_tags(self, monkeypatch):
        # Equal priorities, no quotas, no qpair_share caps: every fetch
        # promotion must take the smallest start tag, even while
        # completions wait in the SCQ (the post stage runs after every
        # message, so in-flight counts must free with the qpair slot).
        starts = []
        take = FairScheduler.take

        def spy(self, shard, entry, kind):
            if kind == "fetch":
                starts.append(entry.start)
            return take(self, shard, entry, kind)

        monkeypatch.setattr(FairScheduler, "take", spy)
        specs, workloads = fair_tenants(weights=(1.0, 3.0, 8.0))
        dlfs_tenancy(specs=specs, workloads=workloads,
                     horizon=0.02, warmup=0.004)
        assert len(starts) > 1000
        late = sum(1 for a, b in zip(starts, starts[1:]) if b < a)
        assert late == 0, f"{late} of {len(starts)} promotions out of order"

    def test_noisy_neighbor_isolation_p99_within_2x(self):
        specs = (
            TenantSpec(name="victim", weight=2.0),
            TenantSpec(name="noisy", weight=1.0, priority=2,
                       qpair_share=0.5, cache_share=0.25),
        )
        victim = TenantWorkload(name="victim", kind="train", batch=16,
                                concurrency=2, sample_lo=0, sample_hi=1024)
        noisy = TenantWorkload(name="noisy", kind="bursty", rate=2000.0,
                               batch=32, sample_lo=1024, sample_hi=3072)
        solo = dlfs_tenancy(specs=specs, workloads=(victim,),
                            horizon=0.02, warmup=0.004)
        duo = dlfs_tenancy(
            specs=specs, workloads=(victim, noisy),
            horizon=0.02, warmup=0.004,
            fault_plan=FaultPlan(seed=7, tenant_faults=(("noisy", 0.1),)),
        )
        p99_solo = _row(solo.window_rows, "victim")["p99"]
        p99_duo = _row(duo.window_rows, "victim")["p99"]
        assert p99_solo > 0
        assert p99_duo <= 2.0 * p99_solo

    def test_tenant_faults_stay_on_the_targeted_tenant(self):
        specs, workloads = demo_tenants()
        r = dlfs_tenancy(
            specs=specs, workloads=workloads, horizon=0.02, warmup=0.004,
            fault_plan=FaultPlan(seed=7, tenant_faults=(("scan", 0.9),)),
        )
        assert _row(r.per_tenant, "train_a")["failed"] == 0
        assert _row(r.per_tenant, "train_b")["failed"] == 0
        # At 90% per-delivery media errors the retry budget is overrun.
        assert _row(r.per_tenant, "scan")["failed"] > 0
        assert r.failed == _row(r.per_tenant, "scan")["failed"]

    def test_untagged_reads_coexist_with_tenants(self):
        # A plain bread() client on a tenancy-enabled mount rides the
        # UNTAGGED lane; nothing deadlocks or misaccounts.
        env = Environment()
        cluster = Cluster(env, Testbed.paper(), num_nodes=1,
                          devices_per_node=1)
        ds = Dataset.fixed("t", 512, 16 * 1024, seed=1)
        specs, _ = demo_tenants()
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="sample",
                                                tenants=specs))
        client = fs.client(rank=0, num_ranks=1)
        client.sequence(seed=3)

        def app(env):
            got = yield from client.bread(32)
            return got

        got = env.run(until=env.process(app(env)))
        assert len(got) == 32
        assert client.tenancy is not None
        assert client.tenancy.scheduler.bytes_served.get("_untagged", 0) > 0

    def test_tenancy_is_pay_for_use(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper(), num_nodes=1,
                          devices_per_node=1)
        ds = Dataset.fixed("t", 256, 16 * 1024, seed=1)
        fs = DLFS.mount(cluster, ds, DLFSConfig(batching="sample"))
        client = fs.client(rank=0, num_ranks=1)
        assert client.tenancy is None

    def test_config_rejects_duplicate_tenants(self):
        with pytest.raises(ConfigError):
            DLFSConfig(tenants=(TenantSpec(name="a"),
                                TenantSpec(name="a"))).validate()

    @pytest.mark.parametrize("name, fields", [
        ("serve", dict(horizon=0.01, warmup=0.002)),
        ("cluster", dict(num_storage=4, num_samples=2048, horizon=0.006)),
    ])
    def test_records_cover_every_completed_job(self, name, fields):
        # One completion record per admitted job, under the fair-queue
        # scheduler and the cluster balancer alike.
        r = run_fleet(preset(name, **fields))
        assert len(r.records) == r.jobs - r.rejected_jobs > 0
        assert sum(rec[3] for rec in r.records) == r.delivered
        assert list(r.records) == sorted(r.records)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _digest(report):
    return hashlib.sha1(report.samples_read.tobytes()).hexdigest()


class TestDeterminism:
    def test_traffic_engine_identical_across_runs(self):
        a = dlfs_tenancy(horizon=0.02, warmup=0.004)
        b = dlfs_tenancy(horizon=0.02, warmup=0.004)
        assert a.sim_time == b.sim_time
        assert _digest(a) == _digest(b)
        assert a.window_rows == b.window_rows
        assert a.service_bytes == b.service_bytes

    def test_seed_changes_the_arrival_script(self):
        a = dlfs_tenancy(horizon=0.02, warmup=0.004, seed=1)
        b = dlfs_tenancy(horizon=0.02, warmup=0.004, seed=2)
        assert _digest(a) != _digest(b)

    def test_sanitizer_same_instant_arrivals_from_two_tenants(self):
        # Both tenants' first jobs arrive at the same simulated instant
        # (start_offset pins them); the sanitizer shuffles the engine's
        # same-timestamp tiebreaks and the witness must not move.
        specs = (TenantSpec(name="x", weight=1.0),
                 TenantSpec(name="y", weight=3.0))
        workloads = (
            TenantWorkload(name="x", kind="poisson", rate=8000.0, batch=8,
                           sample_lo=0, sample_hi=1024, start_offset=5e-4),
            TenantWorkload(name="y", kind="poisson", rate=8000.0, batch=8,
                           sample_lo=1024, sample_hi=2048, start_offset=5e-4),
        )
        report = run_sanitizer(
            workload=lambda: dlfs_tenancy(
                specs=specs, workloads=workloads, horizon=0.01, warmup=0.002,
            ),
            runs=3,
        )
        assert report.ok, report.render()

    def test_perfcheck_tenancy_bit_identity(self):
        # Two perfcheck runs of one tenancy workload: identical witnesses,
        # metrics snapshot digest included.
        workloads = {
            "tenancy": lambda: dlfs_tenancy(
                horizon=0.01, warmup=0.002, metrics=True,
            ),
        }
        first, second = (run_perfcheck(workloads=workloads) for _ in range(2))
        assert first.ok and second.ok, first.render()
        assert "metrics_sha1" in first.witnesses["tenancy"]
        assert first.witnesses == second.witnesses
