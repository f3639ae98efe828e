"""Fault-injection subsystem: determinism, recovery, and drain semantics."""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DLFS, DLFSConfig
from repro.core.reader import ReadJob
from repro.data import Dataset
from repro.errors import (
    ConfigError,
    DeadlockError,
    FaultError,
    MediaError,
    QPairResetError,
    ReproError,
    RequestTimeout,
    SampleReadError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    ZERO_PLAN,
    parse_fault_plan,
)
from repro.hw import (
    KB,
    NetworkSpec,
    NVMeDevice,
    STATUS_ABORTED_RESET,
    STATUS_MEDIA_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Testbed,
)
from repro.obs import RecoveryStats
from repro.sim import Environment, Store
from repro.sim.engine import _Call
from repro.spdk import IOQPair, SPDKRequest
from repro.tenancy import TenantSpec


# ---------------------------------------------------------------------------
# Plans, policies, parsing
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        assert ZERO_PLAN.is_zero
        assert not FaultPlan(media_error_rate=0.1).is_zero
        assert not FaultPlan(qpair_reset_period=1e-3).is_zero

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(media_error_rate=-0.1).validate()
        with pytest.raises(ConfigError):
            FaultPlan(media_error_rate=1.5).validate()
        FaultPlan(media_error_rate=1.0).validate()

    def test_parse_inline_aliases(self):
        plan = parse_fault_plan("media=0.01, reset_period=0.05, seed=7")
        assert plan.media_error_rate == 0.01
        assert plan.qpair_reset_period == 0.05
        assert plan.seed == 7

    def test_parse_inline_json(self):
        plan = parse_fault_plan('{"media_error_rate": 0.05, "seed": 3}')
        assert plan.media_error_rate == 0.05
        assert plan.seed == 3

    def test_parse_json_file(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text('{"timeout_rate": 0.2}')
        assert parse_fault_plan(str(p)).timeout_rate == 0.2

    def test_parse_zero_and_errors(self):
        assert parse_fault_plan("") == ZERO_PLAN
        assert parse_fault_plan("zero") == ZERO_PLAN
        with pytest.raises(ConfigError):
            parse_fault_plan("bogus_field=1")
        with pytest.raises(ConfigError):
            parse_fault_plan("media")
        # Unparsable numbers surface as ConfigError (the CLI contract is a
        # one-line "error: --fault-plan: ..." + exit 2), never a bare
        # ValueError traceback.
        with pytest.raises(ConfigError):
            parse_fault_plan("media=bad")
        with pytest.raises(ConfigError):
            parse_fault_plan("tenant.alice=lots")
        with pytest.raises(ConfigError):
            parse_fault_plan("tenant.=0.1")

    def test_parse_tenant_faults(self):
        plan = parse_fault_plan("media=0.01,tenant.alice=0.02,tenant.bob=0.3")
        assert plan.tenant_faults == (("alice", 0.02), ("bob", 0.3))
        plan = parse_fault_plan('{"tenant_faults": {"alice": 0.02}}')
        assert plan.tenant_faults == (("alice", 0.02),)

    @pytest.mark.parametrize("text", [
        "xcrash.0=0.001:0.002",
        '{"xform_crashes": [[0, 0.001, 0.002]]}',
    ])
    def test_parse_rejects_worker_crashes(self, text):
        # Worker crashes have one schedule, FleetSpec.xform_crashes
        # (fleet --worker-crash); a plan never carries them.
        with pytest.raises(ConfigError, match="unknown fault-plan field"):
            parse_fault_plan(text)

    def test_parse_node_crashes(self):
        plan = parse_fault_plan("crash.3=0.01:0.03,crash.5=0.02")
        assert plan.node_crashes == ((3, 0.01, 0.03), (5, 0.02, None))
        plan = parse_fault_plan('{"node_crashes": [[3, 0.01, null]]}')
        assert plan.node_crashes == ((3, 0.01, None),)


class TestRecoveryPolicy:
    def test_backoff_schedule_doubles_to_cap(self):
        p = RecoveryPolicy(backoff_base=1e-3, backoff_cap=5e-3)
        assert p.backoff(1) == 1e-3
        assert p.backoff(2) == 2e-3
        assert p.backoff(3) == 4e-3
        assert p.backoff(4) == 5e-3  # capped
        assert p.backoff(10) == 5e-3
        with pytest.raises(ConfigError):
            p.backoff(0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RecoveryPolicy(deadline=0.0).validate()
        with pytest.raises(ConfigError):
            RecoveryPolicy(max_retries=-1).validate()
        with pytest.raises(ConfigError):
            RecoveryPolicy(backoff_base=2e-3, backoff_cap=1e-3).validate()


# ---------------------------------------------------------------------------
# Injector determinism
# ---------------------------------------------------------------------------

class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=9, media_error_rate=0.3, timeout_rate=0.1)
        a, b = FaultInjector(plan), FaultInjector(plan)
        da = [a.nvme_fault("nvme0", t * 1e-6) for t in range(200)]
        db = [b.nvme_fault("nvme0", t * 1e-6) for t in range(200)]
        assert da == db
        assert a.trace_signature() == b.trace_signature()
        assert a.counts.as_dict() == b.counts.as_dict()

    def test_sites_are_independent_substreams(self):
        """Interleaving order across sites must not change any site's
        decision sequence."""
        plan = FaultPlan(seed=4, media_error_rate=0.3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [a.nvme_fault("nvme0", 0.0) for _ in range(50)]
        # b interleaves another site's draws between nvme0's.
        seq_b = []
        for _ in range(50):
            seq_b.append(b.nvme_fault("nvme0", 0.0))
            b.nvme_fault("nvme1", 0.0)
        assert seq_a == seq_b

    def test_different_seed_differs(self):
        rolls = {}
        for seed in (1, 2):
            inj = FaultInjector(FaultPlan(seed=seed, media_error_rate=0.5))
            rolls[seed] = [
                inj.nvme_fault("nvme0", 0.0) is not None for _ in range(64)
            ]
        assert rolls[1] != rolls[2]

    def test_zero_rate_sites_draw_no_randomness(self):
        inj = FaultInjector(ZERO_PLAN)
        for _ in range(10):
            assert inj.nvme_fault("nvme0", 0.0) is None
            assert inj.link_fault("a", "b", 0.0) is None
            assert inj.nvmf_fault("t", 0.0) is None
        assert inj._streams == {}  # no substream ever instantiated
        assert inj.trace == []

    def test_reset_delay_is_jittered_period(self):
        plan = FaultPlan(seed=2, qpair_reset_period=1e-3, qpair_reset_jitter=0.5)
        inj = FaultInjector(plan)
        assert inj.resets_enabled
        delays = [inj.next_reset_delay("qp0") for _ in range(32)]
        assert all(1e-3 <= d <= 1.5e-3 for d in delays)
        assert len(set(delays)) > 1  # jitter engaged


# ---------------------------------------------------------------------------
# Device-level injection
# ---------------------------------------------------------------------------

class TestNVMeInjection:
    def _device(self, plan):
        env = Environment()
        dev = NVMeDevice(env, name="nvme0")
        dev.install_fault_injector(FaultInjector(plan))
        return env, dev

    def test_media_error_completes_with_status(self):
        env, dev = self._device(FaultPlan(media_error_rate=1.0))
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert cmd.status == STATUS_MEDIA_ERROR
        assert not cmd.ok
        assert dev.read_meter.bytes == 0  # failed reads move no data

    def test_timeout_stalls_then_completes(self):
        plan = FaultPlan(timeout_rate=1.0, timeout_stall=30e-3)
        env, dev = self._device(plan)
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert cmd.status == STATUS_TIMEOUT
        assert env.now >= 30e-3

    def test_hiccup_completes_ok_but_late(self):
        env0 = Environment()
        healthy = NVMeDevice(env0, name="nvme0")
        c0 = healthy.read(0, 4 * KB)
        env0.run(until=c0.completion)
        base = env0.now

        plan = FaultPlan(hiccup_rate=1.0, hiccup_duration=2e-3)
        env, dev = self._device(plan)
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert cmd.status == STATUS_OK
        assert env.now == pytest.approx(base + 2e-3)

    def test_healthy_device_unchanged_by_zero_plan(self):
        env0 = Environment()
        d0 = NVMeDevice(env0, name="nvme0")
        c0 = d0.read(0, 4 * KB)
        env0.run(until=c0.completion)

        env1, d1 = self._device(ZERO_PLAN)
        c1 = d1.read(0, 4 * KB)
        env1.run(until=c1.completion)
        assert c1.status == STATUS_OK
        assert env1.now == env0.now


# ---------------------------------------------------------------------------
# QPair reset lifecycle
# ---------------------------------------------------------------------------

class TestQPairReset:
    def _qpair(self, depth=8):
        env = Environment()
        from repro.hw import HugePagePool

        dev = NVMeDevice(env, name="nvme0")
        pool = HugePagePool(env, total_bytes=64 * 256 * KB, chunk_size=256 * KB)
        sink = Store(env, name="sink")
        qp = IOQPair(env, "c0", dev, queue_depth=depth, completion_sink=sink)
        return env, dev, pool, sink, qp

    def _request(self, pool, offset=0):
        chunk = pool.try_alloc()
        assert chunk is not None
        return SPDKRequest(offset=offset, nbytes=4 * KB, chunks=[chunk])

    def test_reset_aborts_inflight_to_sink(self):
        env, dev, pool, sink, qp = self._qpair()
        reqs = [self._request(pool, i * 8192) for i in range(3)]
        for r in reqs:
            qp.post(r)
        assert qp.inflight == 3
        aborted = qp.reset()
        assert sorted(r.request_id for r in aborted) == sorted(
            r.request_id for r in reqs
        )
        assert qp.inflight == 0
        assert not qp.connected
        assert qp.free_slots == 0
        for r in reqs:
            assert r.status == STATUS_ABORTED_RESET
        with pytest.raises(QPairResetError):
            qp.post(self._request(pool, 32768))

    def test_stale_device_completion_dropped_after_repost(self):
        """The device completion of an aborted command must not be
        double-counted against a re-posted request."""
        env, dev, pool, sink, qp = self._qpair()
        req = self._request(pool)
        qp.post(req)
        qp.reset()
        qp.reconnect()
        qp.post(req)  # re-post the very same request object
        assert qp.inflight == 1
        env.run()
        # Exactly one live completion: the abort + the repost's, not the
        # stale original.
        deliveries = [req.status]
        assert deliveries == [STATUS_OK]
        assert qp.inflight == 0
        assert qp.completed == 1
        # Sink saw the abort and the live completion, nothing else.
        assert len(sink) == 2

    def test_reconnect_restores_service(self):
        env, dev, pool, sink, qp = self._qpair()
        qp.reset()
        qp.reconnect()
        assert qp.connected
        with pytest.raises(ConfigError):
            qp.reconnect()  # double reconnect is a caller bug
        req = self._request(pool)
        qp.post(req)
        env.run()
        assert req.status == STATUS_OK

    def test_inflight_accounting_survives_fault_completions(self):
        """Satellite bugfix: the queue slot is reclaimed even when the
        service path completes with a fault status."""
        env = Environment()
        from repro.hw import HugePagePool

        dev = NVMeDevice(env, name="nvme0")
        dev.install_fault_injector(
            FaultInjector(FaultPlan(media_error_rate=1.0))
        )
        pool = HugePagePool(env, total_bytes=64 * 256 * KB, chunk_size=256 * KB)
        qp = IOQPair(env, "c0", dev, queue_depth=4)
        req = SPDKRequest(offset=0, nbytes=4 * KB, chunks=[pool.try_alloc()])
        qp.post(req)
        env.run()
        assert req.status == STATUS_MEDIA_ERROR
        assert qp.inflight == 0
        assert qp.free_slots == 4


# ---------------------------------------------------------------------------
# Recovery stats
# ---------------------------------------------------------------------------

class TestRecoveryStats:
    def test_counts_and_dict(self):
        env = Environment()
        stats = RecoveryStats(env, name="r")
        stats.incr("retries")
        stats.incr("retries")
        stats.incr("resets")
        assert stats["retries"] == 2
        assert stats["missing"] == 0
        d = stats.as_dict()
        assert d["retries"] == 2 and d["resets"] == 1
        assert d["degraded_time"] == 0.0

    def test_degraded_time_windows(self):
        env = Environment()
        stats = RecoveryStats(env, name="r")

        def proc(env):
            stats.enter_degraded()
            yield env.timeout(1.0)
            stats.exit_degraded()
            yield env.timeout(1.0)
            stats.enter_degraded()
            yield env.timeout(0.5)
            stats.exit_degraded()

        env.run(until=env.process(proc(env)))
        assert stats.degraded_time == pytest.approx(1.5)

    def test_nested_degraded_counts_overlap_once(self):
        env = Environment()
        stats = RecoveryStats(env, name="r")

        def proc(env):
            stats.enter_degraded()
            stats.enter_degraded()
            yield env.timeout(1.0)
            stats.exit_degraded()
            yield env.timeout(1.0)
            stats.exit_degraded()

        env.run(until=env.process(proc(env)))
        assert stats.degraded_time == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------

class TestErrorHierarchy:
    def test_fault_errors_are_repro_errors(self):
        for exc_type in (MediaError, RequestTimeout, QPairResetError):
            assert issubclass(exc_type, FaultError)
            assert issubclass(exc_type, ReproError)

    def test_sample_read_error_carries_key(self):
        exc = SampleReadError("span lost", key=("c", 7))
        assert exc.key == ("c", 7)
        assert isinstance(exc, FaultError)


# ---------------------------------------------------------------------------
# End-to-end recovery through the reactor
# ---------------------------------------------------------------------------

def _mount(env, n=128, size=4 * KB, mode="sample", plan=None, recovery=None,
           num_nodes=1, testbed=None, cluster_spec=None, tenants=()):
    if testbed is None:
        testbed = Testbed.paper() if num_nodes == 1 else Testbed.paper_emulated()
    cluster = Cluster(env, testbed, num_nodes=num_nodes, devices_per_node=1)
    ds = Dataset.fixed("faults", n, size, seed=3)
    fs = DLFS.mount(
        cluster, ds,
        DLFSConfig(batching=mode, fault_plan=plan, recovery=recovery,
                   cluster=cluster_spec, tenants=tenants),
    )
    return fs


class TestReactorRecovery:
    def test_transient_media_errors_are_retried_to_success(self):
        env = Environment()
        fs = _mount(
            env, plan=FaultPlan(seed=6, media_error_rate=0.2),
            recovery=RecoveryPolicy(max_retries=8),
        )
        client = fs.client()

        def app(env):
            got = yield from client.read_batch(list(range(64)))
            return got

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 64
        assert client.failed_samples == 0
        assert client.recovery_stats["retries"] > 0

    def test_budget_exhaustion_fails_sample_not_batch(self):
        env = Environment()
        fs = _mount(
            env, plan=FaultPlan(seed=1, media_error_rate=1.0),
            recovery=RecoveryPolicy(max_retries=1),
        )
        client = fs.client()

        def app(env):
            yield from client.read_batch(list(range(16)))

        env.run(until=env.process(app(env)))  # batch completes regardless
        assert client.samples_delivered == 0
        assert client.failed_samples == 16
        assert all(isinstance(e, SampleReadError) for e in client.error_log)
        assert client.recovery_stats["budget_exhausted"] == 16
        # retries = max_retries per request before giving up
        assert client.recovery_stats["retries"] == 16

    def test_forced_resets_requeue_without_duplicates(self):
        env = Environment()
        fs = _mount(
            env, n=256,
            plan=FaultPlan(seed=8, qpair_reset_period=5e-5),
            recovery=RecoveryPolicy(),
        )
        client = fs.client()
        seen = []

        def app(env):
            for start in range(0, 256, 32):
                got = yield from client.read_batch(
                    list(range(start, start + 32))
                )
                seen.append(got)

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 256
        assert client.failed_samples == 0
        assert client.recovery_stats["resets"] > 0
        assert client.recovery_stats["aborted"] > 0

    def test_stuck_command_recovered_via_deadline_reset(self):
        env = Environment()
        fs = _mount(
            env,
            plan=FaultPlan(seed=5, timeout_rate=0.2, timeout_stall=100e-3),
            recovery=RecoveryPolicy(deadline=2e-3, max_retries=8),
        )
        client = fs.client()

        def app(env):
            yield from client.read_batch(list(range(32)))

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 32
        assert client.recovery_stats["deadline_timeouts"] > 0
        assert client.recovery_stats["resets"] > 0
        # Recovery is far faster than waiting out the 100 ms stalls.
        assert env.now < 100e-3

    def test_remote_path_faults_recovered(self):
        env = Environment()
        fs = _mount(
            env, n=128, num_nodes=2,
            plan=FaultPlan(
                seed=10, media_error_rate=0.1, link_drop_rate=0.05,
                nvmf_drop_rate=0.05, link_stall=1e-4,
            ),
            recovery=RecoveryPolicy(max_retries=8),
        )
        client = fs.client(rank=0, num_ranks=1, node=fs.cluster.node(0))

        def app(env):
            yield from client.read_batch(list(range(128)))

        env.run(until=env.process(app(env)))
        assert client.samples_delivered == 128
        assert client.failed_samples == 0
        counts = fs.injector.counts.as_dict()
        assert counts.get("media_error", 0) > 0

    def test_nonzero_plan_without_recovery_resolves_defaults(self):
        env = Environment()
        fs = _mount(env, plan=FaultPlan(media_error_rate=0.01))
        assert fs.recovery == RecoveryPolicy()
        assert fs.injector is not None

    def test_zero_plan_builds_nothing(self):
        env = Environment()
        fs = _mount(env, plan=ZERO_PLAN)
        assert fs.injector is None
        assert fs.recovery is None
        for _, dev_idx in fs.placement:
            pass
        assert fs.cluster.fabric.injector is None


# ---------------------------------------------------------------------------
# Timer lanes: the reactor's deadline watchdogs and hedge timers
# ---------------------------------------------------------------------------

class _LaneTap:
    """Stands in for a timer lane's inbox.  Each check must be due —
    exactly ``delay`` after its request's post — and live when it is put;
    it is logged and, unless ``forward`` is False, passed on to the
    reactor."""

    def __init__(self, lane, forward=True):
        self.lane = lane
        self.inbox = lane.inbox
        self.forward = forward
        self.log = []
        lane.inbox = self

    def put_nowait(self, msg):
        req, now = msg.req, self.lane.env.now
        assert req.status is None and req.attempts == msg.attempt
        assert now == req.submit_time + self.lane.delay
        self.log.append((now, req, msg.attempt))
        if self.forward:
            self.inbox.put_nowait(msg)


def _most_pending(env, lane):
    """The most of ``lane``'s timed calls pending in the engine after any
    step, in the heap or in the run loop's slot (a one-item list, updated
    as the run goes)."""
    most = [0]

    def listener(_now, _event):
        pending = sum(
            isinstance(item[-1], _Call) and item[-1].fn == lane._fire
            for item in env._queue
        )
        slot = env._slot
        if slot and slot[2] == lane._fire:
            pending += 1
        most[0] = max(most[0], pending)

    env.add_step_listener(listener)
    return most


class TestTimerLanes:
    def _scripted_lane(self, env):
        """A recovery-enabled reactor's watchdog lane, tapped without
        forwarding, plus a ``post`` that does to a stand-in request what
        ``IOQPair.post`` does and then arms it as the reactor does."""
        fs = _mount(env, recovery=RecoveryPolicy(deadline=1e-3))
        lane = fs.client().reactor._watchdogs
        tap = _LaneTap(lane, forward=False)

        def post(req):
            req.status = None
            req.attempts += 1
            req.submit_time = env.now
            lane.arm(req)

        return lane, tap, post

    @staticmethod
    def _request():
        return SimpleNamespace(status=None, attempts=0, submit_time=0.0)

    def test_watchdog_checks_land_at_post_plus_deadline(self):
        # No doorbell cost: a burst of posts arms several watchdogs at
        # one instant, and their checks land together.
        env = Environment()
        testbed = replace(
            Testbed.paper(),
            network=replace(NetworkSpec(), rdma_post_overhead=0.0),
        )
        fs = _mount(
            env, testbed=testbed,
            plan=FaultPlan(seed=5, timeout_rate=0.2, timeout_stall=100e-3),
            recovery=RecoveryPolicy(deadline=2e-3, max_retries=8),
        )
        client = fs.client()
        lane = client.reactor._watchdogs
        tap = _LaneTap(lane)
        most = _most_pending(env, lane)

        def app(env):
            yield from client.read_batch(list(range(32)))

        env.run(until=env.process(app(env)))
        env.run()
        assert client.samples_delivered == 32
        assert client.recovery_stats["deadline_timeouts"] > 0
        assert tap.log
        assert max(Counter(t for t, _, _ in tap.log).values()) >= 2
        assert most[0] == 1

    def test_hedge_checks_land_at_post_plus_hedge_delay(self):
        env = Environment()
        fs = _mount(
            env, num_nodes=2,
            cluster_spec=ClusterSpec(replicas=2, hedge_delay=20e-6),
        )
        client = fs.client(rank=0, num_ranks=1, node=fs.cluster.node(0))
        lane = client.reactor._hedges
        tap = _LaneTap(lane)
        most = _most_pending(env, lane)

        def app(env):
            yield from client.read_batch(list(range(128)))

        env.run(until=env.process(app(env)))
        env.run()
        assert client.samples_delivered == 128
        assert tap.log
        assert client.recovery_stats["hedges_posted"] > 0
        assert most[0] == 1

    def test_settled_and_reposted_requests_get_no_check(self):
        env = Environment()
        lane, tap, post = self._scripted_lane(env)
        most = _most_pending(env, lane)
        a, b, c, d = (self._request() for _ in range(4))

        def script(env):
            post(a)
            post(b)
            post(c)  # three armed at one instant
            yield env.timeout(0.2e-3)
            b.status = "ok"  # settles before its deadline
            yield env.timeout(0.3e-3)
            post(d)
            yield env.timeout(0.2e-3)
            c.status = "aborted_reset"
            post(c)  # re-posted: its first attempt's entry is stale

        env.process(script(env))
        env.run()
        assert [(req, attempt) for _, req, attempt in tap.log] == [
            (a, 1), (d, 1), (c, 2),
        ]
        assert env.now == c.submit_time + lane.delay
        assert most[0] == 1

    def test_run_ends_at_newest_fire_time_when_all_settled(self):
        env = Environment()
        lane, tap, post = self._scripted_lane(env)
        most = _most_pending(env, lane)
        a, b = self._request(), self._request()

        def script(env):
            post(a)
            yield env.timeout(0.1e-3)
            post(b)
            yield env.timeout(0.1e-3)
            a.status = b.status = "ok"

        env.process(script(env))
        env.run()
        assert tap.log == []
        # The trailing timer still fires: env.run() ends where the
        # newest watchdog would have, as it did with one process each.
        assert env.now == b.submit_time + lane.delay
        assert most[0] == 1


# ---------------------------------------------------------------------------
# Shutdown / drain semantics (satellite: CopyPool + Reactor.stop deadlock)
# ---------------------------------------------------------------------------

#: The reactor's request posting queues: FIFO, or (with tenants) the
#: fair scheduler.  Stopping must drain queued work from either.
_STOP_QUEUES = ((), (TenantSpec(name="t"),))
_STOP_QUEUE_IDS = ("fifo", "fair")


class TestShutdownDrain:
    def test_engine_deadlock_raises_deadlock_error(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(DeadlockError, match="deadlock"):
            env.run(until=ev)

    @pytest.mark.parametrize("tenants", _STOP_QUEUES, ids=_STOP_QUEUE_IDS)
    def test_stop_with_inflight_job_does_not_deadlock(self, tenants):
        """Regression: stopping the reactor while a job's I/O is in
        flight used to orphan the fetches — awaiting the job then hit
        the engine's deadlock detector.  The drain must complete it."""
        env = Environment()
        fs = _mount(env, tenants=tenants)
        client = fs.client()
        job = ReadJob(
            samples=np.arange(16, dtype=np.int64), done=env.event()
        )

        def app(env):
            client.reactor.submit(job)
            # Give the reactor a moment to post real I/O, then stop it
            # with that I/O still in flight.
            yield env.timeout(20e-6)
            yield client.reactor.stop()
            result = yield job.done  # must fire, not deadlock
            return result

        env.run(until=env.process(app(env)))
        assert job.remaining == 0
        delivered = 16 - len(job.errors)
        assert client.reactor.samples_delivered == delivered
        assert all(isinstance(e, SampleReadError) for e in job.errors)

    @pytest.mark.parametrize("tenants", _STOP_QUEUES, ids=_STOP_QUEUE_IDS)
    def test_stop_before_any_posting_fails_all_samples(self, tenants):
        env = Environment()
        fs = _mount(env, tenants=tenants)
        client = fs.client()
        job = ReadJob(samples=np.arange(8, dtype=np.int64), done=env.event())

        def app(env):
            client.reactor.submit(job)
            stopped = client.reactor.stop()  # same-instant shutdown
            yield stopped
            yield job.done
            return True

        assert env.run(until=env.process(app(env)))
        assert job.remaining == 0
        assert len(job.errors) + client.reactor.samples_delivered == 8

    def test_copy_pool_shut_down_with_reactor(self):
        env = Environment()
        testbed = Testbed.paper()
        cluster = Cluster(env, testbed, num_nodes=1, devices_per_node=1)
        ds = Dataset.fixed("faults", 64, 4 * KB, seed=3)
        fs = DLFS.mount(
            cluster, ds, DLFSConfig(batching="sample", copy_cores=(1, 2))
        )
        client = fs.client()

        def app(env):
            yield from client.read_batch(list(range(32)))
            yield from client.shutdown()

        env.run(until=env.process(app(env)))
        env.run()  # nothing left: copy workers exited, no deadlock
        assert client.reactor.copy_pool._shut_down
        assert client.samples_delivered == 32

    def test_copy_pool_double_shutdown_is_idempotent(self):
        env = Environment()
        from repro.core.reader import CopyPool
        from repro.hw import CPU, CPUSpec

        cpu = CPU(env, CPUSpec(), node_name="cpu")
        pool = CopyPool(env, [cpu.core(0), cpu.core(1)], kick=lambda: None)
        pool.shutdown()
        pool.shutdown()  # no extra sentinels queued
        env.run()
        assert len(pool.tasks) == 0


def _chaos_witness(r) -> tuple:
    """Everything a chaos run reports, as comparable values."""
    return (r.sim_time, r.delivered, r.failed, r.expected,
            r.sample_throughput, r.recovery, r.fault_counts,
            r.samples_read.tobytes())


def _chaos(plan):
    """One epoch of 256 samples on 2 nodes under ``plan``."""
    from repro.bench.workloads import Readers, dlfs_readers

    return dlfs_readers(Readers(epochs=1), num_clients=2, num_samples=256,
                        sample_bytes=4096, fault_plan=plan)


class TestChaosDeterminism:
    def test_full_chaos_run_reproducible(self):
        plan = FaultPlan(
            seed=13, media_error_rate=0.02, timeout_rate=0.004,
            qpair_reset_period=1e-3,
        )
        assert _chaos_witness(_chaos(plan)) == _chaos_witness(_chaos(plan))

    def test_zero_plan_bit_identical_to_no_injector(self):
        rz = _chaos(ZERO_PLAN)
        rn = _chaos(None)
        assert _chaos_witness(rz) == _chaos_witness(rn)
        assert rz.failed == 0 and rz.delivered == rz.expected
