"""Kernel and datapath fast-path equivalence tests.

Every optimization — the analytic NVMe completion path, the qpair
callback flight, tombstoned interrupts, O(N) conditions, fire-and-forget
store puts — must be *invisible* in simulation results.  These tests
pin that down at the kernel level (processing-order traces) and at the
model level (device/qpair timings compared event-for-event between the
injector-free paths and the reference paths a zero-rate fault injector
selects).
"""

import random

import pytest

from repro.analysis.perfcheck import zero_rate_injectors
from repro.errors import InterruptedProcess, ResourceError, SimulationError
from repro.faults import ZERO_PLAN, FaultInjector
from repro.hw import STATUS_OK, NVMeDevice
from repro.hw.memory import HugePagePool
from repro.sim import AllOf, AnyOf, Environment, Event, Resource, Store
from repro.sim import engine as sim_engine
from repro.sim.engine import Condition, set_tiebreak_factory


@pytest.fixture(autouse=True)
def _restore_hooks():
    """Tests may install engine hooks; always clear them afterwards."""
    yield
    set_tiebreak_factory(None)
    sim_engine.set_lifecycle_audit(None)


class _ConstantRank:
    """Tiebreak stream whose every rank ties: insertion order decides."""

    def random(self):
        return 0.0


class _DescendingRanks:
    """Tiebreak stream that reverses the insertion order of ties."""

    def __init__(self):
        self._rank = 1.0

    def random(self):
        self._rank /= 2
        return self._rank


# ---------------------------------------------------------------------------
# Property-style: the ranked heap keeps insertion order on rank ties.
# ---------------------------------------------------------------------------

def _trace_workload(seed: int) -> tuple[list, float]:
    """Run a randomized process mix; return (processing trace, end time).

    The action script is drawn *before* the run so the trace depends
    only on the kernel's event ordering.  Actions mix zero and nonzero
    timeouts, FIFO resource holds, store puts/gets, and composite
    conditions — many events share an instant, so the trace pins the
    same-instant order.
    """
    rng = random.Random(seed)
    scripts = []
    for pid in range(10):
        script = []
        for _ in range(rng.randrange(4, 10)):
            roll = rng.random()
            if roll < 0.40:
                delay = 0.0 if rng.random() < 0.5 else rng.randrange(1, 40) * 1e-6
                script.append(("timeout", delay))
            elif roll < 0.60:
                script.append(("hold", rng.randrange(0, 20) * 1e-6))
            elif roll < 0.75:
                script.append(("put", rng.randrange(1000)))
            elif roll < 0.90:
                script.append(("get", None))
            else:
                script.append(("anyof", rng.randrange(0, 30) * 1e-6))
        scripts.append(script)

    env = Environment()
    res = Resource(env, capacity=2, name="shared")
    store = Store(env, name="mailbox")
    trace: list = []

    def worker(pid: int, script: list):
        for k, (kind, arg) in enumerate(script):
            if kind == "timeout":
                yield env.timeout(arg)
            elif kind == "hold":
                yield from res.hold(arg)
            elif kind == "put":
                store.put((pid, arg))
            elif kind == "get":
                if len(store):
                    got = yield store.get()
                    trace.append(("got", pid, got))
            else:
                value = yield AnyOf(env, [env.timeout(0.0), env.timeout(arg)])
                trace.append(("any", pid, len(value)))
            trace.append((env.now, pid, k))

    for pid, script in enumerate(scripts):
        env.process(worker(pid, script), name=f"w{pid}")
    env.run()
    return trace, env.now


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_constant_rank_tiebreak_keeps_insertion_order(seed):
    """A tiebreak stream that always ties reproduces production order:
    the sanitizer's ranked posts differ from production only in rank."""
    ref_trace, ref_end = _trace_workload(seed)
    set_tiebreak_factory(_ConstantRank)
    ranked_trace, ranked_end = _trace_workload(seed)
    assert ranked_trace == ref_trace
    assert ranked_end == ref_end


def _same_instant_order() -> list:
    """Fire order of four events due at t=1.0: two posted at the instant
    (succeed) interleaved with two timeouts whose delay is absorbed by
    the float addition (also at exactly t=1.0)."""
    env = Environment(initial_time=1.0)
    fired = []
    for name in ("due-a", "absorbed-b", "due-c", "absorbed-d"):
        event = env.timeout(1e-20) if name.startswith("absorbed") else env.event()
        event.callbacks.append(lambda _e, name=name: fired.append(name))
        if name.startswith("due"):
            event.succeed()
    env.run()
    assert env.now == 1.0
    return fired


def test_same_instant_posts_and_absorbed_timeouts_fire_in_insertion_order():
    assert _same_instant_order() == ["due-a", "absorbed-b", "due-c", "absorbed-d"]


def test_sanitizer_ranks_order_posts_and_absorbed_timeouts():
    set_tiebreak_factory(_DescendingRanks)
    assert _same_instant_order() == ["absorbed-d", "due-c", "absorbed-b", "due-a"]


# ---------------------------------------------------------------------------
# Interrupt: tombstone detach among many waiters.
# ---------------------------------------------------------------------------

class TestInterruptTombstone:
    def _run(self, waiters: int, interrupted: list[int]) -> list:
        env = Environment()
        evt = Event(env)
        results = []

        def waiter(i: int):
            try:
                value = yield evt
                results.append(("ok", i, value))
            except InterruptedProcess as exc:
                results.append(("int", i, exc.cause))
                yield env.timeout(5e-6)  # stale firing arrives while alive

        procs = [env.process(waiter(i), name=f"p{i}") for i in range(waiters)]

        def driver():
            yield env.timeout(1e-6)
            for i in interrupted:
                procs[i].interrupt(cause=i)
            yield env.timeout(1e-6)
            evt.succeed("payload")

        env.process(driver(), name="driver")
        env.run()
        return results

    def test_interrupt_among_many_waiters(self):
        results = self._run(50, interrupted=[7, 23, 48])
        # Every waiter resumed exactly once: no lost wakeups, and the
        # stale firing of the shared event must not re-enter the
        # interrupted generators (a double resume would raise inside
        # _resume or duplicate entries here).
        assert len(results) == 50
        assert sorted(i for kind, i, _ in results if kind == "int") == [7, 23, 48]
        assert all(v == "payload" for kind, _, v in results if kind == "ok")

    def test_tombstones_identical_in_both_modes(self):
        """Production and sanitizer-perturbed scheduling swallow the same
        stale firings: only same-instant interrupt order may differ."""
        ref = self._run(20, interrupted=[0, 19])
        set_tiebreak_factory(_DescendingRanks)
        perturbed = self._run(20, interrupted=[0, 19])
        assert perturbed != ref
        assert sorted(perturbed, key=repr) == sorted(ref, key=repr)

    def test_stale_list_drains(self):
        env = Environment()
        evt = Event(env)
        seen = []

        def waiter():
            try:
                yield evt
            except InterruptedProcess:
                seen.append("int")
                yield env.timeout(5e-6)

        proc = env.process(waiter())

        def driver():
            yield env.timeout(1e-6)
            proc.interrupt()
            evt.succeed()

        env.process(driver())
        env.run()
        assert seen == ["int"]
        assert proc._stale is None  # tombstone consumed, not leaked

    def test_interrupt_not_waiting_still_rejected(self):
        env = Environment()

        def idle():
            return
            yield

        proc = env.process(idle())
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


# ---------------------------------------------------------------------------
# Conditions: _collect runs exactly once, at success.
# ---------------------------------------------------------------------------

class TestConditionCollectOnce:
    @pytest.fixture
    def counted_collect(self, monkeypatch):
        calls = {"n": 0}
        orig = Condition._collect

        def counting(self):
            calls["n"] += 1
            return orig(self)

        monkeypatch.setattr(Condition, "_collect", counting)
        return calls

    def test_allof_collects_once(self, counted_collect):
        env = Environment()
        events = [env.timeout(i * 1e-6) for i in range(40)]
        cond = AllOf(env, events)
        env.run()
        assert counted_collect["n"] == 1
        assert len(cond.value) == 40

    def test_anyof_collects_once(self, counted_collect):
        env = Environment()
        events = [env.timeout((i + 1) * 1e-6) for i in range(40)]
        cond = AnyOf(env, events)
        env.run()
        assert counted_collect["n"] == 1
        assert list(cond.value.values()) == [None]

    def test_anyof_over_processed_children(self):
        env = Environment()
        first = env.timeout(0.0)
        env.run(until=1e-9)  # process the timeout
        cond = AnyOf(env, [first, env.timeout(1e-6)])
        env.run()
        assert first in cond.value

    def test_empty_conditions_fire_immediately(self):
        env = Environment()
        assert AnyOf(env, []).triggered
        assert AllOf(env, []).triggered


# ---------------------------------------------------------------------------
# Model layer: analytic NVMe path vs the generator chain.
# ---------------------------------------------------------------------------

def _device_trace(fast: bool, pattern: list[tuple[float, int]]):
    """Submit (gap, nbytes) commands; return completion records + stats.

    ``fast=False`` installs a zero-rate injector, which routes every
    command through the per-command service process.
    """
    env = Environment()
    dev = NVMeDevice(env)
    if not fast:
        dev.install_fault_injector(FaultInjector(ZERO_PLAN))
    records = []

    def on_done(completion):
        cmd = completion.value
        records.append((env.now, cmd.nbytes, cmd.status))

    def driver():
        offset = 0
        for gap, nbytes in pattern:
            if gap > 0.0:
                yield env.timeout(gap)
            cmd = dev.read(offset, nbytes)
            cmd.completion.callbacks.append(on_done)
            offset += nbytes

    env.process(driver())
    env.run()
    return records, env.now, dev.bandwidth_utilization(), dev.outstanding


class TestAnalyticNVMe:
    PATTERNS = {
        "burst": [(0.0, 128 * 1024)] * 16,
        "trickle": [(5e-6, 4096)] * 12,
        "mixed": [(0.0, 4096), (0.0, 128 * 1024), (2e-6, 512),
                  (0.0, 64 * 1024), (1e-7, 4096), (0.0, 256 * 1024)],
    }

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_completion_times_bit_identical(self, name):
        pattern = self.PATTERNS[name]
        ref = _device_trace(False, pattern)
        opt = _device_trace(True, pattern)
        assert opt == ref  # exact float equality, by design
        assert all(status == STATUS_OK for _, _, status in opt[0])
        assert len(opt[0]) == len(pattern)

    def test_completion_order_is_submit_order(self):
        records, _, _, _ = _device_trace(True, self.PATTERNS["mixed"])
        sizes = [nbytes for _, nbytes, _ in records]
        assert sizes == [nbytes for _, nbytes in self.PATTERNS["mixed"]]
        times = [t for t, _, _ in records]
        assert times == sorted(times)


def _qpair_burst(fast: bool, requests: int = 64, depth: int = 8):
    from repro.spdk import SPDKRequest
    from repro.spdk.qpair import IOQPair

    env = Environment()
    device = NVMeDevice(env)
    if not fast:
        device.install_fault_injector(FaultInjector(ZERO_PLAN))
    pool = HugePagePool(env, total_bytes=depth * 256 * 1024, chunk_size=256 * 1024)
    qpair = IOQPair(env, "host", device, queue_depth=depth)
    nbytes = 128 * 1024
    finished = []

    def driver():
        posted = 0
        while len(finished) < requests:
            while posted < requests and qpair.free_slots > 0:
                req = SPDKRequest(offset=posted * nbytes, nbytes=nbytes,
                                  chunks=[pool.try_alloc()])
                qpair.post(req)
                posted += 1
            req = yield qpair.completion_sink.get()
            finished.append((env.now, req.status))
            pool.free(req.chunks[0])

    env.process(driver())
    env.run()
    return finished, env.now, qpair.completed, qpair.stale_drops


def test_qpair_callback_flight_matches_fly_process():
    ref = _qpair_burst(False)
    opt = _qpair_burst(True)
    assert opt == ref


class TestInjectorChoosesPath:
    """The fault injector is the only switch between the two paths."""

    def test_device_without_injector_takes_analytic_path(self):
        env = Environment()
        dev = NVMeDevice(env)
        dev.read(0, 4096)
        assert len(dev._fp_pending) == 1
        env.run()
        assert dev.outstanding == 0

    def test_zero_rate_injector_takes_process_path(self):
        env = Environment()
        dev = NVMeDevice(env)
        dev.install_fault_injector(FaultInjector(ZERO_PLAN))
        cmd = dev.read(0, 4096)
        assert not dev._fp_pending
        env.run()
        assert cmd.status == STATUS_OK
        assert dev.injector.trace == []  # nothing injected, nothing drawn

    def test_zero_rate_injectors_hook_covers_new_devices_only(self):
        outside = NVMeDevice(Environment())
        with zero_rate_injectors():
            inside = NVMeDevice(Environment())
        after = NVMeDevice(Environment())
        assert inside.injector is not None
        assert inside.injector.plan.is_zero
        assert outside.injector is None and after.injector is None
        assert sim_engine._LIFECYCLE_AUDIT is None


# ---------------------------------------------------------------------------
# Store: preload and put_nowait.
# ---------------------------------------------------------------------------

class TestStoreFastOps:
    def test_preload_serves_fifo(self):
        env = Environment()
        store = Store(env, name="s")
        store.preload(["a", "b", "c"])
        got = []

        def getter():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(getter())
        env.run()
        assert got == ["a", "b", "c"]

    def test_preload_refuses_blocked_getters(self):
        env = Environment()
        store = Store(env, name="s")

        def getter():
            yield store.get()

        env.process(getter())
        env.run()
        with pytest.raises(ResourceError):
            store.preload([1])

    def test_preload_respects_capacity(self):
        env = Environment()
        store = Store(env, capacity=2, name="s")
        with pytest.raises(ResourceError):
            store.preload([1, 2, 3])

    def test_put_nowait_wakes_getter(self):
        env = Environment()
        store = Store(env, name="s")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        env.process(getter())
        store.put_nowait("x")
        env.run()
        assert got == ["x"]

    def test_put_nowait_full_store_falls_back_to_blocking_put(self):
        env = Environment()
        store = Store(env, capacity=1, name="s")
        store.put_nowait("a")
        store.put_nowait("b")  # full: must queue, not drop
        assert len(store) == 1
        got = []

        def getter():
            for _ in range(2):
                item = yield store.get()
                got.append(item)

        env.process(getter())
        env.run()
        assert got == ["a", "b"]

    def test_put_nowait_reference_mode_identical(self):
        """``put`` is the reference: same items, same getter wakeups."""
        results = []
        for nowait in (False, True):
            env = Environment()
            store = Store(env, name="s")
            got = []

            def getter():
                item = yield store.get()
                got.append((env.now, item))

            env.process(getter())
            env.run()
            for item in ("x", "y"):
                if nowait:
                    store.put_nowait(item)
                else:
                    store.put(item)
            env.run()
            results.append((store.items, got))
        assert results[0] == results[1] == (("y",), [(0.0, "x")])
