"""The DLFS backend reactor: prep / post / poll / copy (paper §III-C, Fig 4).

One reactor per DLFS client runs pinned to a core (SPDK busy-polling).
Its inbox is the **shared completion queue (SCQ)**: every I/O qpair's
completion sink points at it, and frontend read jobs arrive through it
too, so a single poll loop balances progress across all NVMe targets —
exactly the design of Fig 4(b).

Flow per the paper's four stages:

* **prep** — a job's samples are resolved through the in-memory sample
  directory; misses become fetch intents on the per-device *request
  posting queue* (RPQ), each allocated hugepage cache chunks (one data
  chunk per sample by default; larger spans are disassembled into
  chunk-size SPDK requests);
* **post** — intents are posted to the device's I/O qpair up to its
  queue depth;
* **poll** — the reactor consumes the SCQ one message at a time (while
  holding its core: busy-poll semantics) and runs the post stage after
  each;
* **copy** — delivered samples are copied from the sample cache to the
  application buffer, inline on the reactor core or by the copy-thread
  pool, and the directory V bit is set.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

import numpy as np

from ..cluster.serving import NodeDown, NodeUp
from ..errors import (
    ConfigError,
    MediaError,
    NotMounted,
    RequestTimeout,
    SampleReadError,
)
from ..faults import FaultInjector, RecoveryPolicy
from ..hw import STATUS_ABORTED_RESET, STATUS_MEDIA_ERROR, STATUS_OK
from ..hw.cpu import BoundThread, Core
from ..hw.platform import CPUSpec, NetworkSpec
from ..obs import NULL_METRICS, NULL_TRACER
from ..sim import Environment, Event, RecoveryStats, Store, ThroughputMeter
from ..sim import rng as sim_rng
from ..spdk import IOQPair, SPDKRequest, aligned_span
from .batching import REQ_CHUNK, ChunkPlan
from .cache import RESIDENT, SampleCache
from .directory import LocalValidBits, SampleDirectory

__all__ = ["Reactor", "ReadJob", "LookupJob", "CopyPool", "SHUTDOWN"]

#: Inbox sentinel: stop the reactor.
SHUTDOWN = object()
#: Inbox sentinel: re-run the pump (memory freed by a copy worker).
KICK = object()
#: Delay before a reset qpair reconnects and requeued I/O reposts.
RECONNECT_DELAY = 1e-3
#: Per-sample cost of the copy stage beyond the memcpy itself:
#: selecting the next valid sample, V-bit bookkeeping, and handing the
#: buffer across the API (calibrated against Fig 6's DLFS/Ext4-MC ratio).
SELECT_OVERHEAD = 0.60e-6
#: Per-completion handling beyond the raw poll iteration.
COMPLETION_OVERHEAD = 0.20e-6


class _DeadlineCheck:
    """A posted request's deadline timer fired; check if it is stuck."""

    __slots__ = ("req", "attempt")

    def __init__(self, req: SPDKRequest, attempt: int) -> None:
        self.req = req
        self.attempt = attempt


class _HedgeCheck:
    """A posted request's hedge timer fired; maybe post a replica twin."""

    __slots__ = ("req", "attempt")

    def __init__(self, req: SPDKRequest, attempt: int) -> None:
        self.req = req
        self.attempt = attempt


class _TimerLane:
    """One reactor's constant-delay per-request timers of one kind.

    A posted request is armed as ``(fire_at, req, attempt)`` in a FIFO;
    the delay is constant and time only moves forward, so the FIFO is
    sorted by ``fire_at`` and at most one engine event — at the head's
    fire time, posted with ``_post_at`` — serves the whole lane.  When it
    fires, each due entry still live (``status is None`` and the attempt
    not bumped by a re-post) puts a ``check(req, attempt)`` message in
    the inbox.  An entry that is not live never becomes live again, so
    settled entries are dropped from the head before re-arming — all but
    the newest: ``env.run()`` drains trailing timers, and the newest
    entry's fire time is the run's end instant (its ``sim_time``), as it
    was when every request had its own timer process.
    """

    __slots__ = ("env", "delay", "inbox", "check", "entries", "armed")

    def __init__(self, env: Environment, delay: float, inbox: Store,
                 check: type) -> None:
        self.env = env
        self.delay = delay
        self.inbox = inbox
        self.check = check
        self.entries: deque[tuple[float, SPDKRequest, int]] = deque()
        self.armed = False

    def arm(self, req: SPDKRequest) -> None:
        fire_at = self.env._now + self.delay
        self.entries.append((fire_at, req, req.attempts))
        if not self.armed:
            self._schedule(fire_at)

    def _schedule(self, when: float) -> None:
        timer = Event(self.env)
        timer._value = None
        timer.callbacks.append(self._fire)
        self.env._post_at(timer, when)
        self.armed = True

    def _fire(self, _timer: Event) -> None:
        entries = self.entries
        now = self.env._now
        while entries:
            fire_at, req, attempt = entries[0]
            live = req.status is None and req.attempts == attempt
            if fire_at <= now:
                entries.popleft()
                if live:
                    self.inbox.put_nowait(self.check(req, attempt))
            elif live or len(entries) == 1:
                break
            else:
                entries.popleft()
        if entries:
            self._schedule(entries[0][0])
        else:
            self.armed = False


class _RetryRequest:
    """A backoff timer elapsed; the request is ready to repost."""

    __slots__ = ("req",)

    def __init__(self, req: SPDKRequest) -> None:
        self.req = req


class _QPairReset:
    """Forced (plan-injected) reset of one shard's qpair."""

    __slots__ = ("shard",)

    def __init__(self, shard: int) -> None:
        self.shard = shard


class _QPairUp:
    """A disconnected qpair finished reconnecting."""

    __slots__ = ("shard",)

    def __init__(self, shard: int) -> None:
        self.shard = shard


class _FifoQueues:
    """The reactor's per-shard request posting queues, first come first
    served: ready fetches wait for a cache slot, parts for a qpair slot.

    :class:`repro.tenancy.FairScheduler` answers the same calls in SFQ
    order; ``start`` (a part's inherited fair-queueing tag) and
    ``on_posted`` only matter there, and only it has ``on_complete``,
    which the qpairs call as a slot frees.
    """

    __slots__ = ("_fetches", "_parts")

    def __init__(self, shards) -> None:
        self._fetches: dict[int, deque] = {shard: deque() for shard in shards}
        self._parts: dict[int, deque] = {shard: deque() for shard in shards}

    def push_fetch(self, shard: int, fetch: "_PendingFetch") -> None:
        self._fetches[shard].append(fetch)

    def push_part(self, shard: int, req: SPDKRequest,
                  start: Optional[float] = None) -> None:
        self._parts[shard].append(req)

    def queued(self, shard: int) -> int:
        return len(self._fetches[shard]) + len(self._parts[shard])

    def take_part(self, shard: int) -> Optional[SPDKRequest]:
        parts = self._parts[shard]
        return parts.popleft() if parts else None

    def promote(self, shard: int, cache: SampleCache) -> Optional[tuple]:
        """Give the oldest fetch a cache slot: ``(fetch, slot, None)``,
        or None when none is queued or memory is short."""
        fetches = self._fetches[shard]
        if not fetches:
            return None
        fetch = fetches[0]
        slot = cache.try_insert(fetch.key, fetch.nbytes)
        if slot is None:
            return None
        fetches.popleft()
        return fetch, slot, None

    def drain(self, shard: int, kind: str) -> list:
        """Empty one queue (``kind`` is "fetch" or "part"), oldest first."""
        queue = (self._fetches if kind == "fetch" else self._parts)[shard]
        items = list(queue)
        queue.clear()
        return items

    def on_posted(self, tenant: Optional[str], shard: int) -> None:
        pass


@dataclass(eq=False)
class ReadJob:
    """A frontend read request: deliver these samples, then fire ``done``."""

    samples: np.ndarray
    done: Event
    #: Chunk-mode requirement per sample: (kind, id); None => per-sample
    #: fetches through the directory (base / sample-level batching).
    requirements: Optional[list[tuple[int, int]]] = None
    #: Chunk-mode lookahead: requirement keys to prefetch with no waiter.
    prefetch: tuple = ()
    submit_time: float = 0.0
    remaining: int = field(init=False)
    #: Zero-copy mode: cache keys handed to the application, released
    #: only when it moves on to the next batch.
    retained: list = field(default_factory=list)
    #: Per-sample failures (:class:`repro.errors.SampleReadError`): the
    #: job still completes — graceful degradation — with the losses here.
    errors: list = field(default_factory=list)
    #: Observability: the batch span covering this job (None = untraced).
    span: Optional[object] = None
    #: Multi-tenant serving: owning tenant name (None = untagged, which
    #: the FairScheduler schedules at weight 1).
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        self.remaining = len(self.samples)
        if self.requirements is not None and len(self.requirements) != len(self.samples):
            raise ConfigError("requirements must align with samples")


@dataclass(eq=False)
class LookupJob:
    """A metadata-only job (``dlfs_open``): resolve a name or index."""

    done: Event
    name: Optional[str] = None
    index: Optional[int] = None


class _PendingFetch:
    """One in-flight span: its cache slot, parts, and waiting deliveries."""

    __slots__ = ("key", "shard", "lane", "offset", "nbytes", "samples",
                 "parts_remaining", "waiters", "posted", "failed", "span",
                 "tenant", "done_parts", "hedged_parts")

    def __init__(self, key, shard: int, offset: int, nbytes: int,
                 samples: np.ndarray, tenant: Optional[str] = None) -> None:
        self.key = key
        self.shard = shard
        #: Serving lane (storage node) the fetch is routed to.  Equal to
        #: ``shard`` outside cluster mode; the front-end balancer picks
        #: it at creation and rewrites it on failover.
        self.lane = shard
        self.offset = offset          # aligned layout offset
        self.nbytes = nbytes          # aligned span size
        self.samples = samples        # samples validated on completion
        self.parts_remaining = 0
        self.waiters: list[tuple[ReadJob, int]] = []
        self.posted = False
        #: Set to the first unrecoverable error; once set, remaining
        #: parts only count down so the span can be retired exactly once.
        self.failed: Optional[BaseException] = None
        #: Observability: trace span covering the fetch (None = untraced).
        self.span: Optional[object] = None
        #: Tenant that first requested the span (charged for it by the
        #: fair scheduler); later cross-tenant waiters share it free.
        self.tenant = tenant
        #: Cluster mode only (set by the balancer at routing): layout
        #: offsets of parts already settled — landed or terminally
        #: failed exactly once; a hedge twin's later completion is
        #: dropped on membership — and of parts already hedged.
        self.done_parts: Optional[set] = None
        self.hedged_parts: Optional[set] = None


class CopyPool:
    """Copy threads (paper Fig 4a): memcpy offload to extra cores."""

    def __init__(self, env: Environment, cores: list[Core], kick: Callable[[], None]) -> None:
        if not cores:
            raise ConfigError("CopyPool needs at least one core")
        self.env = env
        self.tasks: Store = Store(env, name="copypool.tasks")
        self._kick = kick
        self.num_workers = len(cores)
        self._shut_down = False
        for core in cores:
            env.process(self._worker(core), name=f"copy@{core.name}")

    def submit(self, cost: float, callback: Callable[[], None]) -> None:
        self.tasks.put_nowait((cost, callback))

    def _worker(self, core: Core) -> Generator[Event, Any, None]:
        while True:
            task = yield self.tasks.get()
            if task is SHUTDOWN:
                return
            cost, callback = task
            yield from core.execute(cost)
            callback()
            self._kick()

    def shutdown(self, workers: Optional[int] = None) -> None:
        """Stop the copy workers (all of them by default).

        Idempotent with no ``workers`` argument, so the owning reactor
        can call it unconditionally at drain time without double-killing
        a pool the application already shut down.
        """
        if workers is None:
            if self._shut_down:
                return
            workers = self.num_workers
        self._shut_down = True
        for _ in range(workers):
            self.tasks.put_nowait(SHUTDOWN)


class Reactor:
    """The per-client DLFS backend loop."""

    def __init__(
        self,
        env: Environment,
        thread: BoundThread,
        qpairs: dict[int, IOQPair],
        cache: SampleCache,
        vbits: LocalValidBits,
        directory: SampleDirectory,
        plan: ChunkPlan,
        cpu_spec: CPUSpec,
        net_spec: NetworkSpec,
        injected_compute: float = 0.0,
        inbox: Optional[Store] = None,
        use_scq: bool = True,
        zero_copy: bool = False,
        injector: Optional[FaultInjector] = None,
        recovery: Optional[RecoveryPolicy] = None,
        tenancy: Optional[object] = None,
        balancer: Optional[object] = None,
        name: str = "dlfs.reactor",
    ) -> None:
        self.env = env
        self.thread = thread
        self.qpairs = qpairs
        self.cache = cache
        self.vbits = vbits
        self.directory = directory
        self.plan = plan
        self.cpu = cpu_spec
        self.net = net_spec
        self.injected_compute = injected_compute
        #: The copy-thread pool (set by the client when ``copy_cores``
        #: are configured); ``None`` copies inline on the reactor core.
        self.copy_pool: Optional[CopyPool] = None
        #: §III-C2 ablation: with the shared completion queue (SCQ)
        #: disabled, every completion pays a scan over all per-qpair
        #: completion queues instead of one consolidated check.
        self.use_scq = use_scq
        #: Paper future work: hand out cache references instead of
        #: copying into application buffers.
        self.zero_copy = zero_copy
        self.name = name

        #: The SCQ: completions from every qpair plus frontend jobs.
        self.inbox: Store = (
            inbox if inbox is not None else Store(env, name=f"{name}.scq")
        )
        #: Multi-tenant serving (pay-for-use: None keeps the single-job
        #: datapath bit-identical).  When set, the runtime's fair
        #: scheduler is the request posting queues (RPQ) instead of FIFOs.
        self.tenancy = tenancy
        self._queues = (
            _FifoQueues(qpairs) if tenancy is None else tenancy.scheduler
        )
        if tenancy is not None:
            tenancy.attach(self)
            for qp in qpairs.values():
                qp.on_release = self._on_slot_freed
        #: Cluster serving tier (pay-for-use: None keeps the single-node
        #: datapath bit-identical).  A :class:`FrontEndBalancer` routes
        #: each fetch to a replica lane, fails it over when the lane
        #: dies, and supplies deadline-driven hedged reads.
        self.balancer = balancer
        if balancer is not None and tenancy is not None:
            raise ConfigError(
                "cluster balancer and tenancy SFQ lanes are mutually "
                "exclusive (the balancer arbitrates in cluster mode)"
            )
        self._pending: dict[object, _PendingFetch] = {}
        self.read_meter = ThroughputMeter(env, name=f"{name}.delivered")
        self.samples_delivered = 0
        self._inline_copy_cost = 0.0
        self._inline_done_list: list[Callable[[], None]] = []
        self._stopped = env.event()
        self._stopping = False

        #: Observability (null objects until install_observability).
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self._layers = NULL_METRICS.layers("")
        self._h_job = NULL_METRICS.histogram("")
        self._c_delivered = NULL_METRICS.counter("")

        #: Fault injection + recovery (pay-for-use: both default off and
        #: the healthy datapath is bit-identical with them unset).
        self.injector = injector
        self.recovery = recovery
        if injector is not None and not injector.plan.is_zero and recovery is None:
            raise ConfigError(
                "a non-zero fault plan needs a RecoveryPolicy "
                "(pass recovery=RecoveryPolicy())"
            )
        self.recovery_stats = RecoveryStats(env, name=f"{name}.recovery")
        self._pending_retries = 0
        self._jitter_rng: Optional[np.random.Generator] = None
        #: Deadline watchdogs (recovery) and hedge timers (cluster).
        self._watchdogs: Optional[_TimerLane] = None
        self._hedges: Optional[_TimerLane] = None
        if balancer is not None and balancer.hedge_delay > 0.0:
            self._hedges = _TimerLane(
                env, balancer.hedge_delay, self.inbox, _HedgeCheck
            )
        if recovery is not None:
            recovery.validate()
            self._watchdogs = _TimerLane(
                env, recovery.deadline, self.inbox, _DeadlineCheck
            )
            self._jitter_rng = sim_rng(
                f"recovery.jitter.{name}",
                [recovery.seed, zlib.crc32(name.encode())],
            )
        if injector is not None and injector.resets_enabled:
            for shard in qpairs:
                env.process(
                    self._reset_driver(shard), name=f"{name}.reset[{shard}]"
                )

        self._process = env.process(self._run(), name=name)

    def install_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle.

        Call before the simulation runs: recovery accounting is re-homed
        onto the shared registry, which only works while all counts are
        still zero.
        """
        self.tracer = obs.tracer
        self.metrics = obs.metrics
        self._layers = obs.metrics.layers(self.name)
        self._h_job = obs.metrics.histogram("reactor.job_latency")
        self._c_delivered = obs.metrics.counter("reactor.samples_delivered")
        if obs.metrics.enabled:
            self.recovery_stats = RecoveryStats(
                self.env, name=f"{self.name}.recovery", registry=obs.metrics
            )

    # -- frontend entry points (called from application processes) -------------
    def submit(self, job) -> None:
        self.inbox.put_nowait(job)

    def stop(self) -> Event:
        """Request shutdown; returns an event firing once the core is freed."""
        self.inbox.put_nowait(SHUTDOWN)
        return self._stopped

    # -- main loop -----------------------------------------------------------------
    def _run(self) -> Generator[Event, Any, None]:
        yield from self.thread.acquire()  # busy-polling: core held for life
        try:
            while True:
                # Analytic idle fast-forward: the Store-backed SCQ wakes
                # us exactly when work lands, so empty poll iterations
                # are never simulated one by one — but the core *is*
                # spinning for that whole gap, so charge it to the layer
                # breakdown as poll_idle busy-time.
                idle_from = self.env.now
                msg = yield self.inbox.get()
                if self.env.now > idle_from:
                    self._layers.add("poll_idle", self.env.now - idle_from)
                # Completions dominate the SCQ: dispatch them without
                # the _dispatch generator hop.
                if type(msg) is SPDKRequest:
                    yield from self._on_completion(msg)
                elif (yield from self._dispatch(msg)):
                    yield from self._drain_on_stop()
                    return
                # Post after every message: a backlogged SCQ must not
                # keep freed qpair slots idle.
                if self._pump_needed():
                    yield from self._pump()
        finally:
            self.thread.release()
            self._stopped.succeed()

    def _dispatch(self, msg) -> Generator[Event, Any, bool]:
        if isinstance(msg, SPDKRequest):
            yield from self._on_completion(msg)
        elif isinstance(msg, ReadJob):
            yield from self._on_job(msg)
        elif isinstance(msg, LookupJob):
            yield from self._on_lookup(msg)
        elif isinstance(msg, _RetryRequest):
            self._on_retry_ready(msg.req)
        elif isinstance(msg, _DeadlineCheck):
            self._on_deadline(msg)
        elif isinstance(msg, _QPairReset):
            self._reset_qpair(msg.shard, forced=True)
        elif isinstance(msg, _QPairUp):
            self._on_qpair_up(msg.shard)
        elif isinstance(msg, _HedgeCheck):
            self._on_hedge(msg)
        elif isinstance(msg, NodeDown):
            self._on_node_down(msg.lane)
        elif isinstance(msg, NodeUp):
            self._on_node_up(msg.lane)
        elif msg is KICK:
            pass
        elif msg is SHUTDOWN:
            self._stopping = True
            return True
        else:
            raise ConfigError(f"unknown reactor message: {msg!r}")
        return False

    # -- job intake (prep stage) -----------------------------------------------------
    def _on_lookup(self, job: LookupJob) -> Generator[Event, Any, None]:
        try:
            if job.index is not None:
                result = self.directory.lookup_index(job.index)
            elif job.name is not None:
                result = self.directory.lookup_name(job.name)
            else:
                raise ConfigError("LookupJob needs a name or an index")
        except Exception as exc:
            # Failed lookups surface at the caller, not in the reactor.
            self._layers.add("prep", self.cpu.hash_cost)
            if self.cpu.hash_cost > 0.0:
                yield self.thread.delay(self.cpu.hash_cost)
            job.done.fail(exc)
            return
        cost = self.cpu.hash_cost + result.visits * self.cpu.tree_node_visit
        self._layers.add("prep", cost)
        if cost > 0.0:
            yield self.thread.delay(cost)
        job.done.succeed(result)

    def _on_job(self, job: ReadJob) -> Generator[Event, Any, None]:
        job.submit_time = self.env.now
        if self.tracer.enabled:
            job.span = self.tracer.start(
                "reactor.batch", track=self.name, cat="reactor",
                samples=len(job.samples),
            )
        if len(job.samples) == 0:
            if job.span is not None:
                job.span.finish(delivered=0)
            job.done.succeed(job)
            return
        if job.requirements is None:
            yield from self._intake_samples(job)
        else:
            yield from self._intake_requirements(job)
        # Cache hits at intake queued copies; charge them now.
        yield from self._flush_inline_copies()
        if self.injected_compute > 0.0:
            # Fig 7(b): application compute folded into the polling loop,
            # once per batch of samples, on the reactor's core.  Devices
            # and the fabric keep making progress; only completion
            # *processing* waits.
            yield from self._pump()
            self._layers.add("compute", self.injected_compute)
            yield from self.thread.run(self.injected_compute)

    def _intake_samples(self, job: ReadJob) -> Generator[Event, Any, None]:
        """Base / sample-level batching: per-sample directory lookups."""
        cost = 0.0
        for s in job.samples:
            s = int(s)
            result = self.directory.lookup_index(s)
            cost += (
                self.cpu.hash_cost
                + result.visits * self.cpu.tree_node_visit
                + self.cpu.request_setup
            )
            key = ("s", s)
            if self.vbits.is_valid(s) and self.cache.lookup(key) is not None:
                self._start_delivery(job, key, result.length)
                continue
            fetch = self._pending.get(key)
            if fetch is None:
                offset, nbytes = aligned_span(result.offset, result.length)
                fetch = _PendingFetch(
                    key, result.shard, offset, nbytes,
                    samples=np.array([s], dtype=np.int64),
                    tenant=job.tenant,
                )
                if self.tracer.enabled:
                    fetch.span = self.tracer.start(
                        "reactor.fetch", track=self.name, parent=job.span,
                        cat="reactor", key=str(key), nbytes=nbytes,
                    )
                self._pending[key] = fetch
                if self.balancer is not None:
                    fetch.lane = self.balancer.route(fetch)
                self._queues.push_fetch(fetch.lane, fetch)
            fetch.waiters.append((job, result.length))
        self._layers.add("prep", cost)
        if cost > 0.0:
            yield self.thread.delay(cost)

    def _intake_requirements(self, job: ReadJob) -> Generator[Event, Any, None]:
        """Chunk-level batching: samples arrive via chunk / edge fetches."""
        cost = self.cpu.request_setup  # one bread dispatch
        sizes = self.directory.dataset.sizes
        for s, (kind, rid) in zip(job.samples, job.requirements):
            s = int(s)
            key = ("c", rid) if kind == REQ_CHUNK else ("e", rid)
            slot = self.cache.slot(key)
            if slot is not None and slot.state == RESIDENT:
                self.cache.hits += 1
                self._start_delivery(job, key, int(sizes[s]))
                continue
            self.cache.misses += 1
            fetch = self._ensure_fetch(
                key, kind, rid, parent=job.span, tenant=job.tenant
            )
            fetch.waiters.append((job, int(sizes[s])))
        for kind, rid in job.prefetch:
            key = ("c", rid) if kind == REQ_CHUNK else ("e", rid)
            slot = self.cache.slot(key)
            if slot is None and key not in self._pending:
                self._ensure_fetch(
                    key, kind, rid, parent=job.span, tenant=job.tenant
                )
        self._layers.add("prep", cost)
        if cost > 0.0:
            yield self.thread.delay(cost)

    def _ensure_fetch(
        self,
        key,
        kind: int,
        rid: int,
        parent: Optional[object] = None,
        tenant: Optional[str] = None,
    ) -> _PendingFetch:
        fetch = self._pending.get(key)
        if fetch is not None:
            return fetch
        if kind == REQ_CHUNK:
            shard, offset, nbytes = self.plan.chunk_span(rid)
            offset, nbytes = aligned_span(offset, nbytes)
            samples = self.plan.members(rid)
        else:
            loc = self.directory.layout.location(rid)
            shard = loc.shard
            offset, nbytes = aligned_span(loc.offset, loc.length)
            samples = np.array([rid], dtype=np.int64)
        fetch = _PendingFetch(key, shard, offset, nbytes, samples, tenant=tenant)
        if self.tracer.enabled:
            fetch.span = self.tracer.start(
                "reactor.fetch", track=self.name, parent=parent,
                cat="reactor", key=str(key), nbytes=nbytes,
            )
        self._pending[key] = fetch
        if self.balancer is not None:
            fetch.lane = self.balancer.route(fetch)
        self._queues.push_fetch(fetch.lane, fetch)
        return fetch

    # -- post stage -------------------------------------------------------------------
    def _pump_needed(self) -> bool:
        """Cheap pre-check so the per-message loop can skip ``_pump``.

        ``_pump`` yields (and mutates state) only when it can post: some
        shard has queued work *and* a free qpair slot.  When that holds
        for no shard, the call is a no-op generator — skip the frame.
        """
        queues = self._queues
        for shard, qp in self.qpairs.items():
            if qp.free_slots > 0 and queues.queued(shard):
                return True
        return False

    def _pump(self) -> Generator[Event, Any, None]:
        """Post stage: fill each qpair from its request posting queues.

        The queues decide the order (FIFO, or the fair scheduler's SFQ
        with priority classes, in-flight caps and the cache-quota gate);
        the reactor promotes fetches into parts and posts them.
        """
        queues = self._queues
        cost = 0.0
        for shard, qp in self.qpairs.items():
            while qp.free_slots > 0:
                req = queues.take_part(shard)
                if req is None:
                    promoted = queues.promote(shard, self.cache)
                    if promoted is None:
                        break  # none ready, or memory pressure: retried on next message
                    fetch, slot, start = promoted
                    chunk_size = self.cache.pool.chunk_size
                    # Cluster mode: the part's device offset is the
                    # layout offset shifted to where this lane maps the
                    # shard; ``rel`` keeps the layout offset so failover
                    # and hedging can re-translate for another replica.
                    delta = (
                        0 if self.balancer is None
                        else self.balancer.delta(fetch.shard, fetch.lane)
                    )
                    offset = fetch.offset
                    remaining = fetch.nbytes
                    ci = 0
                    while remaining > 0:
                        part = min(chunk_size, remaining)
                        queues.push_part(
                            shard,
                            SPDKRequest(
                                offset=offset + delta,
                                nbytes=part,
                                chunks=[slot.chunks[ci]],
                                tag=fetch,
                                parent_span=fetch.span,
                                rel=offset,
                            ),
                            start,
                        )
                        fetch.parts_remaining += 1
                        offset += part
                        remaining -= part
                        ci += 1
                    cost += self.cpu.request_setup * fetch.parts_remaining
                    continue
                if req.tag.failed is not None:
                    # A sibling part already doomed this span; don't
                    # waste a queue slot on it.
                    self._req_failed(req, req.tag.failed)
                    continue
                if self._already_settled(req):
                    continue  # hedge twin whose part already landed
                qp.post(req)
                queues.on_posted(req.tag.tenant, shard)
                if self._watchdogs is not None:
                    self._watchdogs.arm(req)
                if self._hedges is not None:
                    self._hedges.arm(req)
                # Each doorbell write is serialized work on this core,
                # paid *between* posts: a submission burst therefore
                # never lands at one instant, and downstream FIFO
                # arrival order (NIC, target reactor, device command
                # processor) is fixed by post order — not by
                # same-timestamp event tiebreaks (SimSanitizer
                # invariant).
                self._layers.add("post", self.net.rdma_post_overhead)
                if self.net.rdma_post_overhead > 0.0:
                    yield self.thread.delay(self.net.rdma_post_overhead)
        if cost > 0.0:
            self._layers.add("post", cost)
            yield self.thread.delay(cost)

    def _on_slot_freed(self, req: SPDKRequest) -> None:
        """Tenancy: give a part's qpair slot back to its tenant.

        Called by the qpair as the slot frees, not from the SCQ poll: the
        fair scheduler's per-tenant in-flight caps count qpair slots, and
        the post stage runs while completions still sit in the SCQ.
        Retried and reset-aborted parts are re-posted, and re-counted,
        later.
        """
        fetch: _PendingFetch = req.tag
        self._queues.on_complete(fetch.tenant, fetch.shard)

    # -- poll + copy stages -----------------------------------------------------------
    def _on_completion(self, req: SPDKRequest) -> Generator[Event, Any, None]:
        poll_cost = self.cpu.poll_iteration
        if not self.use_scq:
            # No SCQ: each completion round scans every qpair's CQ.
            poll_cost *= max(len(self.qpairs), 1)
        poll_cost += COMPLETION_OVERHEAD
        self._layers.add("poll", poll_cost)
        if poll_cost > 0.0:
            yield self.thread.delay(poll_cost)
        fetch: _PendingFetch = req.tag
        if self.recovery is not None and req.status != STATUS_OK:
            self._recover(req)
            return
        if self._already_settled(req):
            return  # hedge twin: the other copy of this part landed first
        self._settle_part(req)
        fetch.parts_remaining -= 1
        if fetch.failed is not None:
            if fetch.parts_remaining == 0:
                self._finalize_failed(fetch)
            return
        if fetch.parts_remaining > 0:
            return
        # All parts of the span have landed: mark resident, set V bits.
        self.cache.mark_resident(fetch.key)
        self.vbits.set_valid_many(fetch.samples)
        if fetch.span is not None:
            fetch.span.finish(status="ok")
        del self._pending[fetch.key]
        if self.balancer is not None:
            self.balancer.fetch_done(fetch)
        for job, nbytes in fetch.waiters:
            self._start_delivery(job, fetch.key, nbytes)
        fetch.waiters.clear()
        # Copy work for this completion happens via _start_delivery; the
        # inline path charges it on this core inside the loop below.
        yield from self._flush_inline_copies()

    # -- failure recovery --------------------------------------------------------------
    def _already_settled(self, req: SPDKRequest) -> bool:
        """Cluster hedging: has this (fetch, part) already been accounted?

        Each layout part settles — lands or terminally fails — exactly
        once; the losing copy of a hedged pair is dropped here.  Always
        False outside cluster mode (``done_parts`` is None).
        """
        fetch: _PendingFetch = req.tag
        if fetch.done_parts is None or req.rel not in fetch.done_parts:
            return False
        self.recovery_stats.incr("hedges_dropped")
        return True

    def _settle_part(self, req: SPDKRequest) -> None:
        fetch: _PendingFetch = req.tag
        if fetch.done_parts is not None:
            fetch.done_parts.add(req.rel)

    def _req_failed(self, req: SPDKRequest, exc: BaseException) -> None:
        """Settle one part as failed (hedge-aware: a pair settles once)."""
        if self._already_settled(req):
            return
        self._settle_part(req)
        self._part_failed(req.tag, exc)

    def _requeue_part(self, req: SPDKRequest) -> None:
        """Put an aborted or backed-off part back on a post queue.

        Flat mode: back to the fetch's (only) lane.  Cluster mode: if
        the fetch's lane died, fail the whole fetch over to a surviving
        replica, then re-translate this part's device offset for
        wherever the fetch now points.  With every replica dead the part
        parks on the dead lane (zero free slots) until a rejoin.
        """
        fetch: _PendingFetch = req.tag
        if self.balancer is not None:
            if not self.balancer.is_alive(fetch.lane) and self.balancer.reroute(fetch):
                self.recovery_stats.incr("failovers")
                if fetch.span is not None:
                    fetch.span.event("failover", lane=fetch.lane)
            req.offset = req.rel + self.balancer.delta(fetch.shard, fetch.lane)
        self._queues.push_part(fetch.lane, req)

    def _recover(self, req: SPDKRequest) -> None:
        """Route one failed part: requeue, retry with backoff, or give up."""
        fetch: _PendingFetch = req.tag
        recovery = self.recovery
        status = req.status
        if self._already_settled(req):
            return  # hedge twin of a part that already settled
        self.recovery_stats.incr(
            "aborted" if status == STATUS_ABORTED_RESET else status
        )
        if self._stopping:
            self._settle_part(req)
            self._part_failed(
                fetch,
                SampleReadError(
                    f"sample span {fetch.key!r} aborted: reactor stopping",
                    key=fetch.key,
                ),
            )
        elif fetch.failed is not None:
            # Span already doomed by a sibling part; just count down.
            self._settle_part(req)
            self._part_failed(fetch, fetch.failed)
        elif status == STATUS_ABORTED_RESET:
            # Reset aborts are a recovery action, not a device fault:
            # requeue at no cost against the retry budget.
            if fetch.span is not None:
                fetch.span.event("requeued_after_reset")
            self._requeue_part(req)
        elif req.retries >= recovery.max_retries:
            self.recovery_stats.incr("budget_exhausted")
            exc_type = MediaError if status == STATUS_MEDIA_ERROR else RequestTimeout
            self._settle_part(req)
            self._part_failed(
                fetch,
                exc_type(f"{fetch.key!r}: {status} after {req.retries} retries"),
            )
        else:
            req.retries += 1
            self.recovery_stats.incr("retries")
            self._pending_retries += 1
            delay = self._backoff_delay(req.retries)
            if fetch.span is not None:
                fetch.span.event(
                    "retry_backoff", status=status, retry=req.retries,
                    delay=delay,
                )
            self.env.process(
                self._retry_later(req, delay), name=f"{self.name}.retry"
            )

    def _part_failed(self, fetch: _PendingFetch, exc: BaseException) -> None:
        if fetch.failed is None:
            fetch.failed = exc
        fetch.parts_remaining -= 1
        if fetch.parts_remaining == 0:
            self._finalize_failed(fetch)

    def _finalize_failed(self, fetch: _PendingFetch) -> None:
        """Retire a doomed span: free its cache slot, fail its waiters.

        Graceful degradation (ISSUE acceptance): each waiting job records
        a :class:`SampleReadError` and still completes — one lost sample
        never wedges a batch.
        """
        self._pending.pop(fetch.key, None)
        if self.balancer is not None and fetch.done_parts is not None:
            self.balancer.fetch_done(fetch)
        if self.cache.slot(fetch.key) is not None:
            self.cache.discard(fetch.key)
        if fetch.span is not None:
            fetch.span.finish(status="failed", error=str(fetch.failed))
        for job, _nbytes in fetch.waiters:
            exc = SampleReadError(
                f"sample span {fetch.key!r} failed: {fetch.failed}",
                key=fetch.key,
            )
            exc.__cause__ = fetch.failed
            job.errors.append(exc)
            self.recovery_stats.incr("failed_samples")
            job.remaining -= 1
            if job.remaining == 0:
                self._h_job.observe(self.env.now - job.submit_time)
                if job.span is not None:
                    job.span.finish(errors=len(job.errors))
                job.done.succeed(job)
        fetch.waiters.clear()

    def _backoff_delay(self, retry: int) -> float:
        """Capped exponential backoff with seeded jitter."""
        delay = self.recovery.backoff(retry)
        if self.recovery.jitter > 0.0:
            delay *= 1.0 + self.recovery.jitter * float(self._jitter_rng.random())
        return delay

    def _retry_later(
        self, req: SPDKRequest, delay: float
    ) -> Generator[Event, Any, None]:
        yield self.env.timeout(delay)
        self.inbox.put_nowait(_RetryRequest(req))

    def _on_retry_ready(self, req: SPDKRequest) -> None:
        self._pending_retries -= 1
        fetch: _PendingFetch = req.tag
        if fetch.failed is not None or self._stopping:
            self._req_failed(
                req,
                fetch.failed
                or SampleReadError(
                    f"sample span {fetch.key!r} aborted: reactor stopping",
                    key=fetch.key,
                ),
            )
            return
        if self._already_settled(req):
            return  # the hedge twin settled this part during the backoff
        self._requeue_part(req)

    def _on_hedge(self, msg: _HedgeCheck) -> None:
        """Deadline-driven hedged read: post a twin on another replica.

        The slow original keeps running; whichever copy completes first
        settles the part and the loser is dropped by the ``done_parts``
        dedup.  Each part is hedged at most once per post attempt.
        """
        req = msg.req
        fetch: _PendingFetch = req.tag
        if req.status is not None or req.attempts != msg.attempt:
            return  # completed (or reposted) since the timer was armed
        if fetch.failed is not None or self._stopping:
            return
        if req.rel in fetch.done_parts or req.rel in fetch.hedged_parts:
            return
        alt = self.balancer.pick_hedge(fetch, exclude=fetch.lane)
        if alt is None:
            return  # no other live replica holds the shard
        fetch.hedged_parts.add(req.rel)
        twin = SPDKRequest(
            offset=req.rel + self.balancer.delta(fetch.shard, alt),
            nbytes=req.nbytes,
            chunks=req.chunks,
            tag=fetch,
            parent_span=fetch.span,
            rel=req.rel,
        )
        self._queues.push_part(alt, twin)
        self.recovery_stats.incr("hedges_posted")
        if fetch.span is not None:
            fetch.span.event("hedged", lane=alt)

    def _on_deadline(self, msg: _DeadlineCheck) -> None:
        req = msg.req
        if req.status is not None or req.attempts != msg.attempt:
            return  # completed (or reposted) since the timer was armed
        fetch: _PendingFetch = req.tag
        self.recovery_stats.incr("deadline_timeouts")
        if self.tracer.enabled:
            self.tracer.instant(
                "deadline_miss", track=self.name, key=str(fetch.key),
                attempt=msg.attempt,
            )
        req.retries += 1
        if req.retries > self.recovery.max_retries and fetch.failed is None:
            fetch.failed = RequestTimeout(
                f"{fetch.key!r}: missed {req.retries} deadlines"
            )
        # A stuck command is recovered NVMe-style: reset the qpair, which
        # aborts everything in flight back to us for requeueing.  The
        # request flies on the fetch's *lane* (== shard in flat mode;
        # the routed replica in cluster mode).
        self._reset_qpair(fetch.lane, forced=False)

    def _reset_qpair(self, shard: int, forced: bool) -> None:
        qp = self.qpairs[shard]
        if not qp.connected:
            return  # reset already in progress
        if forced and self.injector is not None:
            self.injector.record(self.env.now, qp.name, "qpair_reset")
        qp.reset()
        self.recovery_stats.incr("resets")
        self.recovery_stats.enter_degraded()
        self.env.process(
            self._reconnect_later(shard), name=f"{self.name}.reconnect"
        )

    def _reconnect_later(self, shard: int) -> Generator[Event, Any, None]:
        yield self.env.timeout(RECONNECT_DELAY)
        self.inbox.put_nowait(_QPairUp(shard))

    def _on_qpair_up(self, shard: int) -> None:
        qp = self.qpairs[shard]
        if qp.torn_down:
            return  # node died mid-reset; only a NodeUp revives the lane
        if not qp.connected:
            qp.reconnect()
            self.recovery_stats.exit_degraded()

    # -- cluster node lifecycle ---------------------------------------------------
    def _on_node_down(self, lane: int) -> None:
        """A serving node died: tear the lane down, route around it.

        The teardown aborts in-flight parts back to us as
        ``ABORTED_RESET`` (re-routed by :meth:`_recover`); queued work —
        ready fetches and promoted parts — fails over immediately.  With
        every replica of a shard dead its work parks on the dead lane
        and resumes on rejoin.
        """
        qp = self.qpairs[lane]
        self.balancer.mark_dead(lane)
        was_connected = qp.connected
        qp.teardown()
        if was_connected:
            self.recovery_stats.enter_degraded()
        self.recovery_stats.incr("node_down")
        if self.tracer.enabled:
            self.tracer.instant("node_down", track=self.name, lane=lane)
        for fetch in self._queues.drain(lane, "fetch"):
            if self.balancer.reroute(fetch):
                self.recovery_stats.incr("failovers")
                if fetch.span is not None:
                    fetch.span.event("failover", lane=fetch.lane)
                self._queues.push_fetch(fetch.lane, fetch)
            else:
                self._queues.push_fetch(lane, fetch)  # every replica dead: park here
        for req in self._queues.drain(lane, "part"):
            if self._already_settled(req):
                continue  # orphaned hedge twin; drop it
            self._requeue_part(req)

    def _on_node_up(self, lane: int) -> None:
        """A crashed node rejoined the fleet: revive its lane."""
        qp = self.qpairs[lane]
        if not qp.torn_down:
            return  # duplicate NodeUp
        self.balancer.mark_alive(lane)
        qp.rejoin()
        self.recovery_stats.exit_degraded()
        self.recovery_stats.incr("node_up")
        if self.tracer.enabled:
            self.tracer.instant("node_up", track=self.name, lane=lane)

    def _reset_driver(self, shard: int) -> Generator[Event, Any, None]:
        """Plan-driven periodic qpair resets (chaos injection)."""
        qp = self.qpairs[shard]
        while True:
            delay = self.injector.next_reset_delay(qp.name)
            yield self.env.timeout(delay)
            if self._stopping:
                return
            self.inbox.put_nowait(_QPairReset(shard))

    def _drain_on_stop(self) -> Generator[Event, Any, None]:
        """Shutdown drain: abort queued work, await in-flight completions.

        Leaving in-flight requests orphaned at stop time wedges the
        simulation (their completions land in an inbox nobody reads,
        while cache slots stay FILLING forever) — the CopyPool/stop
        deadlock of the ISSUE.  Instead: fail everything not yet posted,
        then keep servicing the inbox until the qpairs and retry timers
        are quiet.
        """

        def stop_error(fetch: _PendingFetch) -> SampleReadError:
            return SampleReadError(
                f"sample span {fetch.key!r} aborted: reactor stopped",
                key=fetch.key,
            )

        def fail_queued_parts() -> None:
            for shard in self.qpairs:
                for req in self._queues.drain(shard, "part"):
                    self._req_failed(req, req.tag.failed or stop_error(req.tag))

        for shard in self.qpairs:
            for fetch in self._queues.drain(shard, "fetch"):
                fetch.failed = stop_error(fetch)
                self._finalize_failed(fetch)
        fail_queued_parts()
        while (
            any(qp.inflight for qp in self.qpairs.values())
            or self._pending_retries > 0
        ):
            idle_from = self.env.now
            msg = yield self.inbox.get()
            if self.env.now > idle_from:
                self._layers.add("poll_idle", self.env.now - idle_from)
            if isinstance(
                msg,
                (SPDKRequest, _RetryRequest, _DeadlineCheck, _QPairUp,
                 NodeDown, NodeUp),
            ):
                yield from self._dispatch(msg)
                fail_queued_parts()
            elif isinstance(msg, ReadJob):
                # Late job during teardown: fail every sample, but let
                # the caller's await complete.
                msg.submit_time = self.env.now
                for s in msg.samples:
                    msg.errors.append(
                        SampleReadError(
                            f"sample {int(s)} rejected: reactor stopped",
                            key=int(s),
                        )
                    )
                    self.recovery_stats.incr("failed_samples")
                msg.remaining = 0
                msg.done.succeed(msg)
            elif isinstance(msg, LookupJob):
                msg.done.fail(NotMounted("reactor is stopped"))
            # KICK / _QPairReset / SHUTDOWN: ignored during drain.
        yield from self._flush_inline_copies()
        if self.copy_pool is not None:
            self.copy_pool.shutdown()

    def _start_delivery(self, job: ReadJob, key, nbytes: int) -> None:
        """Hand one sample from the cache to the application: a copy to
        its buffer, or (zero-copy mode) a retained cache reference."""
        self.cache.acquire(key)
        if self.zero_copy:
            cost = SELECT_OVERHEAD  # no memcpy: buffer is the cache
        else:
            cost = SELECT_OVERHEAD + nbytes / self.cpu.memcpy_bandwidth
        span = None
        if self.tracer.enabled:
            track = (
                f"{self.name}.copy" if self.copy_pool is not None else self.name
            )
            span = self.tracer.start(
                "deliver", track=track, parent=job.span, cat="reactor",
                key=str(key), nbytes=nbytes,
            )

        def finish() -> None:
            if self.zero_copy:
                job.retained.append(key)
            else:
                self.cache.release(key)
            self.samples_delivered += 1
            self._c_delivered.incr()
            self.read_meter.record(nbytes=nbytes)
            if span is not None:
                span.finish()
            job.remaining -= 1
            if job.remaining == 0:
                self._h_job.observe(self.env.now - job.submit_time)
                if job.span is not None:
                    job.span.finish(errors=len(job.errors))
                job.done.succeed(job)

        self._layers.add("copy", cost)
        if self.copy_pool is not None:
            self.copy_pool.submit(cost, finish)
        else:
            # Inline copies accumulate; charged in one run() per batch.
            self._inline_copy_cost += cost
            self._inline_done_list.append(finish)

    def _flush_inline_copies(self) -> Generator[Event, Any, None]:
        if self.copy_pool is not None:
            return
        pending = self._inline_done_list
        if not pending:
            return
        cost = self._inline_copy_cost
        self._inline_copy_cost = 0.0
        self._inline_done_list = []
        if cost > 0.0:
            yield self.thread.delay(cost)
        for finish in pending:
            finish()

    def _kick(self) -> None:
        """Wake the loop after an off-reactor event freed resources."""
        self.inbox.put_nowait(KICK)

    def __repr__(self) -> str:
        return f"<Reactor {self.name!r} pending={len(self._pending)}>"
