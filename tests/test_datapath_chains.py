"""Timed calls and the datapath's callback chains against their process forms.

``Environment.call_at`` runs a call directly from the run loop when it is
still the earliest ``(time, key)``; :class:`AlwaysPostEnvironment` posts
every call as an event, and the two kernels must process the same steps
in the same order, ties, sanitizer ranks, ``run(until=...)`` and step
listeners included; a faulted reader fleet and a hedged cluster fleet
with a crash must give the same witnesses and counters on both.

A fabric transfer, a transfer-engine move and a remote qpair flight are
callback chains on timed calls.  Their generator forms are kept here as
oracles (:class:`ProcessFabric`, :class:`ProcessTransferEngine`,
:class:`ProcessTarget`, :class:`ProcessRemoteQPair`): every completion,
its time and status, every link's accounting, the fault trace and the
kernel's event count must come out the same, with link and capsule
faults, media errors, a node crash, the target read cache and credit
contention.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.sanitizer import LifecycleAudit, _witness
from repro.bench import workloads
from repro.bench.workloads import Readers, preset, run_fleet
from repro.cluster.serving import NodeReadCache
from repro.errors import DeadlockError, ResourceError
from repro.faults import FaultInjector, FaultPlan, parse_fault_plan
from repro.hw import STATUS_OK, Fabric, NetworkSpec, NVMeDevice, NVMeSpec
from repro.hw.memory import HugePagePool
from repro.hw.network import Pipe
from repro.sim import Environment, Resource
from repro.sim import rng as sim_rng
from repro.sim.engine import _call_event, set_lifecycle_audit, set_tiebreak_factory
from repro.spdk import SPDKRequest
from repro.spdk.qpair import IOQPair
from repro.spdk.target import CAPSULE_BYTES, NVMeoFTarget
from repro.xform.transfer import TransferEngine

USEC = 1e-6


@pytest.fixture(autouse=True)
def _restore_hooks():
    yield
    set_tiebreak_factory(None)
    set_lifecycle_audit(None)


# ---------------------------------------------------------------------------
# call_at against a kernel that always posts
# ---------------------------------------------------------------------------

class AlwaysPostEnvironment(Environment):
    """Reference kernel: every timed call is an event in the heap."""

    def call_at(self, time, fn):
        self._post_at(_call_event(self, fn), time)


class _TiedRanks:
    """Seeded sanitizer ranks drawn from three values, so ranks tie."""

    def __init__(self, seed):
        self._rng = sim_rng("test.tied_ranks", seed)

    def random(self):
        return 0.25 * int(self._rng.integers(3))


DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0))

PROGRAMS = st.fixed_dictionaries({
    # chain i: steps of (delay to the next step, side call delay or None)
    "chains": st.lists(
        st.lists(st.tuples(DELAYS, st.none() | DELAYS), min_size=1,
                 max_size=6),
        min_size=1, max_size=4),
    "starts": st.lists(DELAYS, min_size=4, max_size=4),
    # process k: waits (a timeout delay, or None for its chain's gate)
    "procs": st.lists(st.lists(st.none() | DELAYS, max_size=5), max_size=3),
    "mode": st.sampled_from(("drain", "times", "event")),
    "stops": st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.5)), min_size=1,
                      max_size=3),
    "ranked": st.booleans(),
    "seed": st.integers(0, 2**16),
    "listen": st.booleans(),
})


def _run_program(env_cls, p):
    if p["ranked"]:
        set_tiebreak_factory(lambda: _TiedRanks(p["seed"]))
    try:
        env = env_cls()
    finally:
        set_tiebreak_factory(None)
    trace, steps = [], []
    gates = [env.event() for _ in p["chains"]]

    def chain(i, j):
        def step():
            trace.append((env.now, "chain", i, j))
            if j == 1 and not gates[i].triggered:
                gates[i].succeed(j)
            if j < len(p["chains"][i]):
                delay, side = p["chains"][i][j]
                env.call_at(env.now + delay, chain(i, j + 1))
                if side is not None:
                    env.call_at(env.now + side,
                                lambda: trace.append((env.now, "side", i, j)))
        return step

    def proc(k):
        for j, wait in enumerate(p["procs"][k]):
            if wait is None:
                value = yield gates[k % len(gates)]
            else:
                value = yield env.timeout(wait, value=j)
            trace.append((env.now, "proc", k, j, value))
            if j == 0:
                env.call_at(env.now, lambda: trace.append((env.now, "pcall", k)))
        return k

    if p["listen"]:
        env.add_step_listener(
            lambda now, event: steps.append((now, type(event).__name__)))
    for i in range(len(p["chains"])):
        env.call_at(p["starts"][i], chain(i, 0))  # outside run(): posted
    procs = [env.process(proc(k)) for k in range(len(p["procs"]))]
    if p["mode"] == "times":
        for t in sorted(p["stops"]):
            if t >= env.now:
                env.run(until=t)
                trace.append(("until", env.now))
    elif p["mode"] == "event" and procs:
        try:
            trace.append(("value", env.run(until=procs[0])))
        except DeadlockError:
            trace.append(("deadlock", env.now))
    env.run()
    return trace, steps, env.now, env._eid, env._queue


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_call_at_matches_always_posting_kernel(p):
    assert _run_program(Environment, p) == _run_program(AlwaysPostEnvironment, p)


def test_direct_calls_skip_the_heap_and_take_keys():
    env = Environment()
    seen = []

    def hop(n):
        seen.append((env.now, n))
        if n:
            env.call_at(env.now + 1.0, lambda: hop(n - 1))

    env.call_at(0.0, lambda: hop(3))  # outside run(): posted
    assert len(env._queue) == 1
    env.run()
    assert seen == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]
    assert env._eid == 4 and env._queue == [] and env.now == 3.0


def test_a_call_behind_an_earlier_event_is_posted():
    env = Environment()
    order = []
    env.timeout(1.0).callbacks.append(lambda _e: order.append("timeout"))

    def caller():
        env.call_at(2.0, lambda: order.append("call"))
        yield env.timeout(0.0)
        order.append("resumed")

    env.process(caller())
    env.run()
    assert order == ["resumed", "timeout", "call"]
    assert env._eid == 5  # start, call, two timeouts, process end


def test_run_from_inside_a_step_keeps_the_pending_call():
    env = Environment()
    seen = []

    def outer():
        env.call_at(1.0, lambda: seen.append(("call", env.now)))
        env.timeout(0.5).callbacks.append(lambda _e: seen.append(("inner", env.now)))
        env.run(until=2.0)

    env.call_at(0.0, outer)
    env.run()
    assert seen == [("inner", 0.5), ("call", 1.0)]
    assert env._queue == [] and env._eid == 3


def test_peek_sees_the_slot():
    env = Environment()
    peeks = []
    env.timeout(5.0)

    def first():
        env.call_at(1.0, lambda: None)
        peeks.append(env.peek())

    env.call_at(0.0, first)
    env.run()
    assert peeks == [1.0]


def test_ten_thousand_chunk_move_does_not_recurse():
    env = Environment()
    fabric = Fabric(env, NetworkSpec())
    fabric.attach("a")
    fabric.attach("b")
    engine = TransferEngine(env, fabric, chunk_bytes=1, inflight_per_dst=1)
    env.process(engine.move("a", "b", 10_000))
    env.run()
    (row,) = engine.link_rows()
    assert row["chunks"] == 10_000 and row["bytes"] == 10_000


# ---------------------------------------------------------------------------
# Whole fleets on both kernels
# ---------------------------------------------------------------------------

#: A reader fleet whose media errors, wedged commands and forced qpair
#: resets fire the watchdog lane, and a 4-storage cluster fleet whose
#: hedge lane fires and whose crash/rejoin runs failover and handoff.
FLEETS = {
    "readers": preset(
        "readers", readers=Readers(reads=600), num_samples=1200,
        batching="sample",
        fault_plan=parse_fault_plan("media=0.02,timeout=0.01,reset_period=0.03"),
    ),
    "cluster": preset(
        "cluster", num_storage=4, hedge_delay=20e-6, horizon=0.008,
        num_samples=4096, node_crashes=((1, 0.002, 0.005),),
    ),
}


def _fleet_on(monkeypatch, env_cls, spec):
    """Run ``spec`` on ``env_cls``: the sanitizer's result witness, the
    cluster and recovery counters, and the kernel's event count."""
    envs = []

    class Recording(env_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(self)

    monkeypatch.setattr(workloads, "Environment", Recording)
    report = run_fleet(spec)
    (env,) = envs
    return (_witness(report), report.lifecycle, report.balancer,
            report.recovery, report.fault_counts, env._eid)


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_fleet_matches_always_posting_kernel(monkeypatch, name):
    got = _fleet_on(monkeypatch, Environment, FLEETS[name])
    assert got == _fleet_on(monkeypatch, AlwaysPostEnvironment, FLEETS[name])
    _, lifecycle, _, recovery, faults, _ = got
    if name == "readers":
        assert recovery["deadline_timeouts"] > 0 and recovery["media_error"] > 0
        assert faults["timeout"] > 0 and faults["qpair_reset"] > 0
    else:
        assert recovery["hedges_posted"] > 0 and recovery["failovers"] > 0
        assert lifecycle["crashes"] == lifecycle["rejoins"] == 1


# ---------------------------------------------------------------------------
# NIC pipes
# ---------------------------------------------------------------------------

def test_pipe_grants_in_fifo_order_through_timed_calls():
    env = Environment()
    pipe = Pipe(env, "n.tx")
    log = []

    def claim(tag, hold):
        def granted():
            log.append((env.now, tag))
            env.call_at(env.now + hold, pipe.release)
        pipe.acquire(granted)

    env.call_at(0.0, lambda: (claim("a", 1.0), claim("b", 1.0), claim("c", 0.5)))
    env.run()
    assert log == [(0.0, "a"), (1.0, "b"), (2.0, "c")]
    assert not pipe.busy
    with pytest.raises(ResourceError, match="idle pipe"):
        pipe.release()


def test_audit_reports_a_nic_pipe_left_busy():
    audit = LifecycleAudit()
    set_lifecycle_audit(audit)
    try:
        env = Environment()
        fabric = Fabric(env, NetworkSpec())
        fabric.attach("a")
        fabric.attach("b")
    finally:
        set_lifecycle_audit(None)
    fabric.nic("a").tx.acquire(lambda: None)
    env.run()
    assert audit.finish() == ["a.tx: pipe still busy at end of run"]


# ---------------------------------------------------------------------------
# The process forms the chains replace
# ---------------------------------------------------------------------------

class ProcessFabric(Fabric):
    """Reference fabric: ``Resource`` NIC pipes and a transfer process."""

    def attach(self, name):
        nic = super().attach(name)
        nic.tx = Resource(self.env, capacity=1, name=f"{name}.tx")
        nic.rx = Resource(self.env, capacity=1, name=f"{name}.rx")
        return nic

    def transfer(self, src, dst, nbytes, parent=None):
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst or nbytes == 0:
            return
        t0 = self.env.now
        span = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "fabric.transfer", track=f"link:{src}->{dst}", parent=parent,
                cat="fabric", nbytes=nbytes,
            )
        if self.injector is not None:
            stall = self.injector.link_fault(src, dst, self.env.now)
            if stall is not None:
                if span is not None:
                    span.event("retransmit_stall", stall=stall)
                yield self.env.timeout(stall)
        src_nic, dst_nic = self.nic(src), self.nic(dst)
        wire_time = self.spec.transfer_time(nbytes)
        tx_req = src_nic.tx.request()
        yield tx_req
        rx_req = dst_nic.rx.request()
        yield rx_req
        try:
            yield self.env.timeout(wire_time)
        finally:
            src_nic.tx.release(tx_req)
            dst_nic.rx.release(rx_req)
        yield self.env.timeout(self.spec.propagation_latency)
        src_nic.tx_meter.record(nbytes=nbytes)
        dst_nic.rx_meter.record(nbytes=nbytes)
        self._h_latency.observe(self.env.now - t0)
        if span is not None:
            span.finish()


class ProcessTransferEngine(TransferEngine):
    """Reference engine: the chunk loop as a generator."""

    def move(self, src, dst, nbytes, parent=None):
        stats = self._stats(src, dst)
        stats.transfers += 1
        if nbytes <= 0 or src == dst:
            return
        t0 = self.env.now
        credit = self._credit(dst)
        remaining = int(nbytes)
        while remaining > 0:
            chunk = min(remaining, self.chunk_bytes)
            req = credit.try_request()
            if req is None:
                req = credit.request()
                wait0 = self.env.now
                yield req
                stats.credit_wait += self.env.now - wait0
            try:
                yield from self.fabric.transfer(src, dst, chunk, parent=parent)
            finally:
                credit.release(req)
            stats.chunks += 1
            self._c_chunks.incr()
            remaining -= chunk
        elapsed = self.env.now - t0
        stats.nbytes += int(nbytes)
        stats.busy += elapsed
        self._c_bytes.incr(int(nbytes))
        self._h_latency.observe(elapsed)


class ProcessTarget(NVMeoFTarget):
    """Reference target: ``serve_read`` as a process helper."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Events black-holed services wait on, pinned so that garbage
        #: collection cannot close their generators.
        self._wedged = []

    def _black_hole(self, span):
        if span is not None:
            span.event("node_dead")
        wedge = self.env.event()
        self._wedged.append(wedge)
        yield wedge

    def serve_read(self, client_host, offset, nbytes, parent=None):
        spec = self.fabric.spec
        span = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "nvmf.serve", track=self.name, parent=parent, cat="nvmf",
                client=client_host, nbytes=nbytes,
            )
        if self.failed:
            yield from self._black_hole(span)
        if self.injector is not None:
            stall = self.injector.nvmf_fault(self.name, self.env.now)
            if stall is not None:
                if span is not None:
                    span.event("capsule_retransmit", stall=stall)
                yield self.env.timeout(stall)
        yield from self.fabric.transfer(
            client_host, self.host, CAPSULE_BYTES, parent=span
        )
        yield self.env.timeout(spec.nvmf_added_latency)
        if self.failed:
            yield from self._black_hole(span)
        if self.cmd_overhead > 0:
            yield from self._reactor.hold(self.cmd_overhead)
        if self.read_cache is not None and self.read_cache.lookup(offset, nbytes):
            if span is not None:
                span.event("node_cache_hit")
        else:
            cmd = self.device.read(offset, nbytes, parent=span)
            yield cmd.completion
            if cmd.status != STATUS_OK:
                if span is not None:
                    span.finish(status=cmd.status)
                return cmd.status
            if self.read_cache is not None:
                self.read_cache.insert(offset, nbytes)
        if self.failed:
            yield from self._black_hole(span)
        yield from self.fabric.transfer(
            self.host, client_host, nbytes, parent=span
        )
        self.meter.record(nbytes=nbytes)
        if span is not None:
            span.finish(status=STATUS_OK)
        return STATUS_OK


class ProcessRemoteQPair(IOQPair):
    """Reference qpair: every remote request flies as its own process."""

    def _launch(self, request, generation):
        self.env.process(self._fly(request, generation), name=f"{self.name}.io")

    def _fly(self, request, generation):
        status = STATUS_OK
        stale = False
        try:
            status = yield from self.target.serve_read(
                self.client_host, request.offset, request.nbytes,
                parent=request.span,
            )
            status = status or STATUS_OK
        finally:
            stale = self._live.get(request) != generation
            if not stale:
                del self._live[request]
                self._inflight -= 1
        if stale:
            self.stale_drops += 1
            return
        self._deliver(request, generation, status)


# ---------------------------------------------------------------------------
# The chains against the process forms
# ---------------------------------------------------------------------------

CLIENTS = ("c0", "c1")
SERVERS = ("s0", "s1")
GRID = 4 * USEC

WORLDS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "link_drop": st.sampled_from((0.0, 0.15)),
    "nvmf_drop": st.sampled_from((0.0, 0.15)),
    "media": st.sampled_from((0.0, 0.15)),
    "cache": st.booleans(),
    # server s0: (fail at, teardown delay, rejoin delay), in grid steps
    "crash": st.none() | st.tuples(st.integers(2, 20), st.integers(0, 10),
                                   st.integers(1, 30)),
    "credits": st.integers(1, 2),
    "chunk": st.sampled_from((1024, 4096)),
    # per qpair: requests of (grid start, offset slot)
    "reads": st.lists(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)),
                               max_size=6), min_size=4, max_size=4),
    # transfer-engine moves and raw transfers: (grid start, src, dst, bytes)
    "moves": st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3),
                                st.integers(0, 3), st.integers(0, 12_000)),
                      max_size=8),
    "raw": st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3),
                              st.integers(0, 3), st.integers(0, 6_000)),
                    max_size=4),
})


def _datapath(reference, w):
    env = Environment()
    hosts = CLIENTS + SERVERS
    fabric = (ProcessFabric if reference else Fabric)(env, NetworkSpec())
    for host in hosts:
        fabric.attach(host)
    plan = FaultPlan(seed=w["seed"], link_drop_rate=w["link_drop"],
                     nvmf_drop_rate=w["nvmf_drop"], media_error_rate=w["media"],
                     link_stall=3 * USEC)
    injector = FaultInjector(plan)
    fabric.install_fault_injector(injector)
    targets = []
    for i, host in enumerate(SERVERS):
        device = NVMeDevice(env, NVMeSpec(), name=f"nvme{i}")
        device.install_fault_injector(injector)
        target = (ProcessTarget if reference else NVMeoFTarget)(
            env, host, device, fabric)
        target.install_fault_injector(injector)
        if w["cache"]:
            target.read_cache = NodeReadCache(f"{host}.cache", 4, 4096)
        targets.append(target)
    qpairs = [
        (ProcessRemoteQPair if reference else IOQPair)(
            env, client, target, queue_depth=2)
        for client in CLIENTS for target in targets
    ]
    pool = HugePagePool(env, total_bytes=64 * 4096, chunk_size=4096)
    done = []

    def driver(q, qpair, reads):
        todo = []
        for k, (start, slot) in enumerate(sorted(reads)):
            if start * GRID > env.now:
                yield env.timeout(start * GRID - env.now)
            todo.append(SPDKRequest(offset=slot * 4096, nbytes=4096,
                                    chunks=[pool.try_alloc()], tag=k))
            while todo and qpair.free_slots > 0:
                qpair.post(todo.pop(0))
        left = len(reads)
        while left:
            while todo and qpair.free_slots > 0:
                qpair.post(todo.pop(0))
            req = yield qpair.completion_sink.get()
            if req is None:
                continue
            done.append((env.now, q, req.tag, req.status, req.attempts))
            if req.status == STATUS_OK or req.attempts >= 3:
                left -= 1
            else:
                todo.append(req)

    for q, qpair in enumerate(qpairs):
        env.process(driver(q, qpair, w["reads"][q]))

    if w["crash"] is not None:
        fail_at, detect, rejoin = w["crash"]

        def crash():
            yield env.timeout(fail_at * GRID)
            targets[0].fail()
            yield env.timeout(detect * GRID)
            dead = [qp for qp in qpairs if qp.target is targets[0]]
            for qp in dead:
                qp.teardown()
            yield env.timeout(rejoin * GRID)
            targets[0].restore()
            for qp in dead:
                qp.rejoin()
                qp.completion_sink.put_nowait(None)  # wake its driver

        env.process(crash())

    engine = (ProcessTransferEngine if reference else TransferEngine)(
        env, fabric, chunk_bytes=w["chunk"], inflight_per_dst=w["credits"])
    moved = []

    def mover(k, start, src, dst, nbytes, raw):
        yield env.timeout(start * GRID)
        if raw:
            yield from fabric.transfer(hosts[src], hosts[dst], nbytes)
        else:
            yield from engine.move(hosts[src], hosts[dst], nbytes)
        moved.append((env.now, raw, k))

    for k, m in enumerate(w["moves"]):
        env.process(mover(k, *m, raw=False))
    for k, m in enumerate(w["raw"]):
        env.process(mover(k, *m, raw=True))
    env.run()
    nics = [(n.tx_meter.completions, n.tx_meter.bytes, n.rx_meter.bytes)
            for n in (fabric.nic(h) for h in hosts)]
    return (
        done, moved, env.now, env._eid, engine.link_rows(), nics,
        [(qp.completed, qp.stale_drops, qp.inflight) for qp in qpairs],
        [(t.meter.bytes, t.reactor_utilization(),
          t.read_cache.hits if t.read_cache is not None else None)
         for t in targets],
        injector.trace_signature(),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(WORLDS)
def test_chains_match_process_forms(w):
    assert _datapath(False, w) == _datapath(True, w)


def test_chain_oracle_world_exercises_every_branch():
    """One fixed world that hits faults, the crash, cache hits and
    credit waits, so the property above is known to reach them."""
    w = {
        "seed": 7, "link_drop": 0.15, "nvmf_drop": 0.15, "media": 0.15,
        "cache": True, "crash": (7, 0, 8), "credits": 1, "chunk": 1024,
        "reads": [[(0, 0), (0, 1), (1, 0), (9, 2), (12, 0)],
                  [(0, 3), (2, 3), (20, 3)],
                  [(1, 4), (3, 4), (15, 5)],
                  [(0, 0), (8, 0), (25, 1)]],
        "moves": [(0, 2, 0, 9000), (0, 3, 0, 5000), (1, 2, 0, 4096),
                  (5, 0, 1, 3000)],
        "raw": [(0, 2, 0, 4000), (3, 1, 3, 100)],
    }
    ref = _datapath(True, w)
    assert _datapath(False, w) == ref
    done, moved, _now, _eid, links, _nics, qps, targets, faults = ref
    statuses = {status for *_, status, _attempts in done}
    assert {"ok", "aborted_reset", "media_error"} <= statuses
    assert {kind for _, _, kind in faults} >= {"link_drop", "nvmf_drop",
                                                 "media_error"}
    assert any(row["credit_wait"] > 0 for row in links)
    assert sum(stale for _, stale, _ in qps) > 0
    assert all(hits for _, _, hits in targets)
    assert len(moved) == 6
