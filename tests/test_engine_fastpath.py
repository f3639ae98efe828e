"""Kernel and datapath fast-path equivalence tests.

Every optimization — the closed-form NVMe service, the qpair callback
flight, O(N) conditions, fire-and-forget store puts — must be
*invisible* in simulation results.  These tests pin that
down at the kernel level (processing-order traces) and at the model
level: device and qpair timings are compared with the per-command
service process and the per-request flight process they replaced,
which are kept here as oracles (``ProcessNVMe``, ``ProcessFlightQPair``).
"""

import collections
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import Readers, preset, run_fleet
from repro.faults import ZERO_PLAN, FaultInjector, FaultPlan, parse_fault_plan
from repro.hw import (
    MB, READ, STATUS_ABORTED_RESET, STATUS_MEDIA_ERROR, STATUS_OK,
    STATUS_TIMEOUT, NVMeDevice, NVMeSpec,
)
from repro.hw.memory import HugePagePool
from repro.spdk import SPDKRequest
from repro.spdk.qpair import IOQPair
from repro.sim import AllOf, Environment, Resource, Store
from repro.sim import engine as sim_engine
from repro.sim.engine import set_tiebreak_factory


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
                script.append(("allof", rng.randrange(0, 30) * 1e-6))
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
                store.put_nowait((pid, arg))
            elif kind == "get":
                if len(store):
                    got = yield store.get()
                    trace.append(("got", pid, got))
            else:
                value = yield AllOf(env, [env.timeout(0.0), env.timeout(arg)])
                trace.append(("all", pid, len(value)))
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
# Conditions: _collect runs exactly once, at success.
# ---------------------------------------------------------------------------

class TestConditionCollectOnce:
    @pytest.fixture
    def counted_collect(self, monkeypatch):
        calls = {"n": 0}
        orig = AllOf._collect

        def counting(self):
            calls["n"] += 1
            return orig(self)

        monkeypatch.setattr(AllOf, "_collect", counting)
        return calls

    def test_allof_collects_once(self, counted_collect):
        env = Environment()
        events = [env.timeout(i * 1e-6) for i in range(40)]
        cond = AllOf(env, events)
        env.run()
        assert counted_collect["n"] == 1
        assert len(cond.value) == 40

    def test_empty_conditions_fire_immediately(self):
        env = Environment()
        assert AllOf(env, []).triggered


# ---------------------------------------------------------------------------
# Model layer: the closed-form NVMe service vs the per-command process.
# ---------------------------------------------------------------------------

class ProcessNVMe(NVMeDevice):
    """Reference device: one service process per command.

    This is the generator chain ``NVMeDevice._time`` reproduces in
    closed form: ``Resource.hold`` on the command processor, the media
    latency, ``hold`` on the data pipe, with the fault drawn when the
    process starts.  Pipe arrivals at one instant are granted here in
    event insertion order, in submit order by the closed form, so the
    oracle comparisons below keep arrivals from tying.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cmd_proc = Resource(self.env, capacity=1, name=f"{self.name}.cmdproc")
        self._data_pipe = Resource(self.env, capacity=1, name=f"{self.name}.data")

    def _time(self, cmd):
        self.env.process(self._service(cmd), name=f"{self.name}.cmd")

    def _service(self, cmd):
        fault = None
        if self.injector is not None and cmd.op == READ:
            fault = self.injector.nvme_fault(self.name, self.env.now)
        if fault is not None and cmd.span is not None:
            cmd.span.event("fault_injected", kind=fault[0])
        yield from self._cmd_proc.hold(self.effective_cmd_overhead)
        if fault is not None:
            kind, extra = fault
            if kind == "media_error":
                yield self.env.timeout(self.spec.read_latency)
                self._complete(cmd, STATUS_MEDIA_ERROR)
                return
            if kind == "timeout":
                yield self.env.timeout(self.spec.read_latency + extra)
                self._complete(cmd, STATUS_TIMEOUT)
                return
            yield self.env.timeout(extra)
        yield self.env.timeout(self.spec.read_latency)
        yield from self._data_pipe.hold(self.spec.transfer_time(cmd.nbytes))
        self._complete(cmd, STATUS_OK)


class CountingInjector(FaultInjector):
    """A fault injector that counts the draws made at each site."""

    def __init__(self, plan):
        super().__init__(plan)
        self.draws = collections.Counter()

    def _roll(self, site, rate):
        if rate > 0.0:
            self.draws[site] += 1
        return super()._roll(site, rate)


def _device_trace(device_cls, pattern, plan=None):
    """Submit (gap, nbytes) reads; return what the device did.

    -> (per-command (completion time, status) in submit order, the
    completion order, end time, command-processor and data-pipe busy
    integrals, outstanding commands, per-site draws, fault trace).
    """
    env = Environment()
    dev = device_cls(env, name="nvme0")
    injector = None
    if plan is not None:
        injector = CountingInjector(plan)
        dev.install_fault_injector(injector)
    done = {}
    order = []

    def on_done(completion):
        cmd = completion.value
        done[cmd.tag] = (cmd.complete_time, cmd.status)
        order.append(cmd.tag)

    def driver():
        offset = 0
        for k, (gap, nbytes) in enumerate(pattern):
            if gap > 0.0:
                yield env.timeout(gap)
            dev.read(offset, nbytes, tag=k).completion.callbacks.append(on_done)
            offset += nbytes

    env.process(driver())
    env.run()
    if isinstance(dev, ProcessNVMe):
        busy = (dev._cmd_proc._busy_integral, dev._data_pipe._busy_integral)
    else:
        busy = (dev._proc_busy, dev._pipe_busy)
    return (
        [done[k] for k in range(len(pattern))], order, env.now, *busy,
        dev.outstanding,
        dict(injector.draws) if injector else {},
        injector.trace_signature() if injector else [],
    )


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
        ref = _device_trace(ProcessNVMe, pattern)
        opt = _device_trace(NVMeDevice, pattern)
        assert opt == ref  # exact float equality, by design
        assert all(status == STATUS_OK for _, status in opt[0])
        assert len(opt[0]) == len(pattern)

    def test_completion_order_is_submit_order(self):
        completions, order, _, _, _, _, _, _ = _device_trace(
            NVMeDevice, self.PATTERNS["mixed"])
        assert order == list(range(len(self.PATTERNS["mixed"])))
        times = [t for t, _ in completions]
        assert times == sorted(times)

    # Gaps are whole command-processor slots and the fault delays sit a
    # fraction of a slot off that grid, so no two pipe arrivals (and no
    # fault completion and processing boundary) can fall on one instant.
    @settings(max_examples=60, deadline=None)
    @given(
        cmds=st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 256)),
            min_size=1, max_size=60,
        ),
        media=st.sampled_from([0.0, 0.1, 0.4]),
        timeout=st.sampled_from([0.0, 0.05, 0.2]),
        hiccup=st.sampled_from([0.0, 0.1, 0.5]),
        hiccup_slots=st.integers(0, 40),
        stall_slots=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_closed_form_matches_process_model(
        self, cmds, media, timeout, hiccup, hiccup_slots, stall_slots, seed,
    ):
        slot = NVMeDevice(Environment()).effective_cmd_overhead
        pattern = [(gap * slot, blocks * 512) for gap, blocks in cmds]
        plan = FaultPlan(
            seed=seed, media_error_rate=media, timeout_rate=timeout,
            hiccup_rate=hiccup, hiccup_duration=(hiccup_slots + 0.5) * slot,
            timeout_stall=(stall_slots + 0.25) * slot,
        )
        ref = _device_trace(ProcessNVMe, pattern, plan)
        opt = _device_trace(NVMeDevice, pattern, plan)
        assert opt[0] == ref[0]  # per command: completion time and status
        assert opt[2:] == ref[2:]  # end time, integrals, draws, trace
        assert opt[5] == 0

    def test_media_error_overtakes_commands_queued_at_the_pipe(self):
        env = Environment()
        dev = NVMeDevice(env, name="nvme0")
        dev.install_fault_injector(_ScriptedFaults(
            [None, None, ("media_error", 0.0)]))
        cmds = [dev.read(k * MB, MB) for k in range(3)]
        env.run()
        assert [c.status for c in cmds] == [
            STATUS_OK, STATUS_OK, STATUS_MEDIA_ERROR]
        assert cmds[2].complete_time < cmds[1].complete_time


class _ScriptedFaults:
    """Injector stand-in: hands out a fixed list of NVMe fault draws."""

    def __init__(self, faults):
        self._faults = list(faults)

    def nvme_fault(self, device, now):
        return self._faults.pop(0)


def test_pipe_arrival_ties_are_served_in_submit_order():
    """A hiccup's late arrival ties exactly with a later healthy read.

    With dyadic spec values every sum is exact: read A (hiccup of one
    command slot) and read B (healthy), both submitted at t=0, reach the
    pipe at the same instant.  The earlier-submitted A moves first.
    """
    spec = NVMeSpec(read_bandwidth=2.0 ** 30, cmd_overhead=2.0 ** -20,
                    read_latency=2.0 ** -17, queue_arbitration_penalty=0.0)
    env = Environment()
    dev = NVMeDevice(env, spec=spec, name="nvme0")
    dev.install_fault_injector(_ScriptedFaults([("hiccup", 2.0 ** -20), None]))
    a = dev.read(0, 4096)
    b = dev.read(4096, 4096)
    env.run()
    arrival = 2.0 ** -19 + 2.0 ** -17
    transfer = 2.0 ** -18
    assert (a.complete_time, b.complete_time) == (
        arrival + transfer, arrival + 2 * transfer)


class TestInjectorChoosesPath:
    """The fault injector is no path switch: every command is timed in
    closed form, and an injector only decides each READ's fault."""

    def test_device_without_injector_takes_analytic_path(self):
        env = Environment()
        dev = NVMeDevice(env)
        dev.read(0, 4096)
        assert len(dev._pending) == 1
        env.run()
        assert dev.outstanding == 0

    def test_zero_rate_injector_takes_analytic_path(self):
        env = Environment()
        dev = NVMeDevice(env)
        injector = CountingInjector(ZERO_PLAN)
        dev.install_fault_injector(injector)
        cmd = dev.read(0, 4096)
        assert len(dev._pending) == 1
        env.run()
        assert cmd.status == STATUS_OK
        assert injector.trace == [] and not injector.draws
        assert injector._streams == {}  # nothing drawn


class ProcessFlightQPair(IOQPair):
    """Reference qpair: every local request flies as its own process.

    ``post`` launches remote flights only from ``_launch``; this qpair
    takes that branch for its local device and flies the request as a
    process, the way the device completion callback reproduces.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.is_remote = True

    def _launch(self, request, generation):
        self.env.process(self._fly(request, generation), name=f"{self.name}.io")

    def _fly(self, request, generation):
        status = STATUS_OK
        stale = False
        try:
            cmd = self.target.read(
                request.offset, request.nbytes, parent=request.span
            )
            yield cmd.completion
            status = cmd.status
        finally:
            stale = self._live.get(request) != generation
            if not stale:
                del self._live[request]
                self._inflight -= 1
        if stale:
            self.stale_drops += 1
            return
        self._deliver(request, generation, status)


def _qpair_burst(reference: bool, requests: int = 64, depth: int = 8):
    """Reads through one qpair under media errors, hiccups, tenant
    faults and one reset; failed and aborted reads are posted again."""
    env = Environment()
    plan = FaultPlan(seed=3, media_error_rate=0.15, hiccup_rate=0.1,
                     tenant_faults=(("t1", 0.1),))
    device = (ProcessNVMe if reference else NVMeDevice)(env, name="nvme0")
    device.install_fault_injector(FaultInjector(plan))
    pool = HugePagePool(env, total_bytes=requests * 128 * 1024,
                        chunk_size=128 * 1024)
    qpair = (ProcessFlightQPair if reference else IOQPair)(
        env, "host", device, queue_depth=depth)
    qpair.injector = FaultInjector(plan)
    nbytes = 128 * 1024
    todo = collections.deque(
        SPDKRequest(offset=k * nbytes, nbytes=nbytes, chunks=[pool.try_alloc()],
                    tag=types.SimpleNamespace(k=k, tenant=f"t{k % 2}"))
        for k in range(requests)
    )
    finished = []

    def resetter():
        yield env.timeout(150e-6)
        qpair.reset()
        yield env.timeout(20e-6)
        qpair.reconnect()
        qpair.completion_sink.put_nowait(None)  # wake the driver

    def driver():
        left = requests
        while left:
            while todo and qpair.free_slots > 0:
                qpair.post(todo.popleft())
            req = yield qpair.completion_sink.get()
            if req is None:
                continue
            finished.append((env.now, req.tag.k, req.status, req.attempts))
            if req.status == STATUS_OK:
                left -= 1
            else:
                todo.append(req)

    env.process(resetter())
    env.process(driver())
    env.run()
    return (finished, env.now, qpair.completed, qpair.stale_drops,
            qpair.inflight, device.injector.trace_signature(),
            qpair.injector.trace_signature())


def test_qpair_callback_flight_matches_fly_process():
    ref = _qpair_burst(True)
    opt = _qpair_burst(False)
    assert opt == ref
    finished, _, _, stale_drops, inflight, device_faults, tenant_faults = opt
    statuses = {status for _, _, status, _ in finished}
    assert {STATUS_MEDIA_ERROR, STATUS_ABORTED_RESET} <= statuses
    assert stale_drops > 0 and inflight == 0
    assert {kind for _, _, kind in device_faults} == {"media_error", "hiccup"}
    assert tenant_faults


@pytest.mark.parametrize("batching, bound", [("sample", 8.0), ("chunk", 1.0)])
def test_faulted_reader_fleet_events_per_sample(monkeypatch, batching, bound):
    """A fault plan no longer buys a process per NVMe command and per
    qpair flight: events scheduled per delivered sample stay bounded
    (16.46 in sample mode and 1.42 in chunk mode with those processes)."""
    envs = []
    init = Environment.__init__

    def recording_init(env, *args, **kwargs):
        init(env, *args, **kwargs)
        envs.append(env)

    monkeypatch.setattr(Environment, "__init__", recording_init)
    r = run_fleet(preset(
        "readers", readers=Readers(reads=1000), num_samples=2000,
        batching=batching,
        fault_plan=parse_fault_plan("media=0.02,reset_period=0.002"),
    ))
    assert r.delivered + r.failed == 1000
    assert sum(env._eid for env in envs) / r.delivered <= bound


# ---------------------------------------------------------------------------
# Store: put_nowait.
# ---------------------------------------------------------------------------

class TestStoreFastOps:
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
