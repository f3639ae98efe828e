"""Weighted-fair I/O scheduling for multi-tenant serving.

The :class:`FairScheduler` is the reactor's request posting queues
under multi-tenant serving.  It holds two queues per shard — ready
fetches and disassembled NVMe parts — and answers the reactor's post
stage (``take_part``, ``promote``) by tenant weight using start-time
fair queueing (SFQ):

* each shard keeps a virtual time ``v``;
* a fetch enqueued by tenant *t* gets start tag ``S = max(v, finish[t])``
  and finish tag ``F = S + nbytes / weight[t]``; ``finish[t] = F``;
* the scheduler serves the smallest start tag, and advances ``v`` to it.

Parts inherit the start tag of their parent fetch (the fetch was charged
once, at fetch granularity).  Retried or reset-requeued parts re-enter
through the part lane and are charged *again* at part granularity — a
tenant whose injected faults force retries pays for those retries out of
its own share, which is the fault-isolation property.

Priority classes sit in front of the SFQ order: a lower ``priority``
number is served first.  To bound starvation, whenever the overall SFQ
leader (smallest start tag) is passed over for a higher-priority entry
its bypass counter is bumped; after ``max_bypass`` bypasses the leader
is served regardless of class.  Preemption only ever reorders *queued*
work — requests already posted to a qpair are never recalled.

All tie-breaks are on ``(priority, start, tenant name, seq)`` where
``seq`` is a global enqueue counter, so the service order never depends
on dict insertion order across tenants — the property the SimSanitizer
tiebreak sweep checks.

Each lane keeps one heap per ``(tenant, nbytes)`` class, ordered by
``(start, seq)``.  Eligibility (the tenant's in-flight cap) and the
quota gate read only the tenant and the size, so a class passes or
fails as a whole, and within a class both the tie-break order and the
SFQ leader order reduce to ``(start, seq)``: the minimum over eligible
class heads is the minimum over eligible entries, and a pick costs one
look per class instead of one per queued entry.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConfigError

__all__ = ["TenantSpec", "FairScheduler"]


@dataclass(frozen=True)
class TenantSpec:
    """Static per-tenant serving policy (weights, quotas, rate limits)."""

    name: str
    #: Relative bandwidth weight for fair queueing.
    weight: float = 1.0
    #: Priority class; lower is served first (with bounded bypass).
    priority: int = 1
    #: Token-bucket admission rate in samples/second (0 = unlimited).
    rate: float = 0.0
    #: Token-bucket depth in samples.
    burst: float = 64.0
    #: Max jobs parked awaiting tokens before rejection.
    max_queued_jobs: int = 64
    #: Fraction of the hugepage sample cache this tenant may hold
    #: (0 = unlimited).
    cache_share: float = 0.0
    #: Fraction of each qpair's depth this tenant may occupy in flight.
    qpair_share: float = 1.0
    #: Per-job latency SLO in seconds (0 = no SLO tracking).
    slo_latency: float = 0.0

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name!r}: weight must be > 0")
        if self.rate < 0:
            raise ConfigError(f"tenant {self.name!r}: rate must be >= 0")
        if self.burst <= 0:
            raise ConfigError(f"tenant {self.name!r}: burst must be > 0")
        if self.max_queued_jobs < 0:
            raise ConfigError(
                f"tenant {self.name!r}: max_queued_jobs must be >= 0"
            )
        if not 0.0 <= self.cache_share <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: cache_share must be in [0, 1]"
            )
        if not 0.0 < self.qpair_share <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: qpair_share must be in (0, 1]"
            )
        if self.slo_latency < 0:
            raise ConfigError(f"tenant {self.name!r}: slo_latency must be >= 0")


#: Tenant name used for work with no tenant tag (e.g. direct submits).
UNTAGGED = "_untagged"


class _TenantState:
    __slots__ = ("spec", "inv_weight", "finish", "inflight", "cap")

    def __init__(self, spec: TenantSpec, queue_depth: int) -> None:
        self.spec = spec
        self.inv_weight = 1.0 / spec.weight
        #: Per-shard SFQ finish tag of the last charged request.
        self.finish: dict[int, float] = {}
        #: Per-shard requests currently posted to the qpair.
        self.inflight: dict[int, int] = {}
        self.cap = max(1, int(queue_depth * spec.qpair_share))


class _Entry:
    """One queued fetch or part with its SFQ tags."""

    __slots__ = ("item", "tenant", "nbytes", "priority", "start", "seq",
                 "bypassed")

    def __init__(
        self, item: object, tenant: str, nbytes: int, priority: int,
        start: float, seq: int,
    ) -> None:
        self.item = item
        self.tenant = tenant
        self.nbytes = nbytes
        self.priority = priority
        self.start = start
        self.seq = seq
        self.bypassed = 0


class _Class:
    """The queued entries of one ``(tenant, nbytes)`` class."""

    __slots__ = ("state", "nbytes", "heap")

    def __init__(self, state: _TenantState, nbytes: int) -> None:
        self.state = state
        self.nbytes = nbytes
        #: ``(start, seq, entry)``; ``seq`` is unique, so entries are
        #: never compared.
        self.heap: list[tuple[float, int, _Entry]] = []


class _Queue:
    """One shard's fetch or part queue, as per-class heaps."""

    __slots__ = ("classes", "size")

    def __init__(self) -> None:
        self.classes: dict[tuple[str, int], _Class] = {}
        self.size = 0

    def push(self, state: _TenantState, entry: _Entry) -> None:
        key = (entry.tenant, entry.nbytes)
        cls = self.classes.get(key)
        if cls is None:
            cls = self.classes[key] = _Class(state, entry.nbytes)
        heapq.heappush(cls.heap, (entry.start, entry.seq, entry))
        self.size += 1

    def remove(self, entry: _Entry) -> None:
        key = (entry.tenant, entry.nbytes)
        heap = self.classes[key].heap
        if heap[0][2] is entry:
            heapq.heappop(heap)
        else:
            heap.remove((entry.start, entry.seq, entry))
            heapq.heapify(heap)
        if not heap:
            del self.classes[key]
        self.size -= 1


class FairScheduler:
    """SFQ + priority arbitration over the reactor's per-shard queues.

    It answers the calls of the reactor's FIFO queues
    (``repro.core.reader``); ``partition``, when given, is charged for
    each fetch it promotes into the sample cache.
    """

    def __init__(
        self,
        specs: tuple,
        queue_depth: int,
        max_bypass: int = 8,
        partition: Optional[object] = None,
    ) -> None:
        if max_bypass < 1:
            raise ConfigError("max_bypass must be >= 1")
        self.queue_depth = queue_depth
        self.max_bypass = max_bypass
        self.states: dict[str, _TenantState] = {}
        for spec in specs:
            spec.validate()
            if spec.name in self.states:
                raise ConfigError(f"duplicate tenant {spec.name!r}")
            self.states[spec.name] = _TenantState(spec, queue_depth)
        #: Per-shard virtual time.
        self._vtime: dict[int, float] = {}
        self._fetchq: dict[int, _Queue] = {}
        self._partq: dict[int, _Queue] = {}
        self._seq = 0
        #: Optional quota gate on fetch promotion: callable(tenant,
        #: nbytes) -> bool.  It may read only these two arguments (and
        #: tenant state), so it passes or fails a whole class.
        self.gate: Optional[Callable[[str, int], bool]] = None
        self.partition = partition
        # Counters surfaced through tenancy accounting.
        self.preemptions = 0
        self.forced_serves = 0
        #: Device-service bytes per tenant, counted when a part is taken
        #: for posting.  This is the honest SFQ fairness metric: job-level
        #: byte accounting over-credits backlogged tenants whose jobs hit
        #: already-pending fetches (dedup), but every device byte passes
        #: through exactly one part take.
        self.bytes_served: dict[str, int] = {}

    def _state(self, tenant: Optional[str]) -> _TenantState:
        name = tenant if tenant is not None else UNTAGGED
        state = self.states.get(name)
        if state is None:
            state = _TenantState(TenantSpec(name=name), self.queue_depth)
            self.states[name] = state
        return state

    def _tag(self, state: _TenantState, shard: int, nbytes: int) -> float:
        v = self._vtime.setdefault(shard, 0.0)
        start = max(v, state.finish.get(shard, 0.0))
        state.finish[shard] = start + nbytes * state.inv_weight
        return start

    # -- enqueue --------------------------------------------------------------
    def _push(
        self, queues: dict[int, _Queue], shard: int, state: _TenantState,
        item: object, start: float,
    ) -> None:
        self._seq += 1
        queue = queues.get(shard)
        if queue is None:
            queue = queues[shard] = _Queue()
        queue.push(state, _Entry(item, state.spec.name, item.nbytes,
                                 state.spec.priority, start, self._seq))

    def push_fetch(self, shard: int, fetch: object) -> None:
        """Charge a whole fetch and queue it for promotion."""
        state = self._state(getattr(fetch, "tenant", None))
        start = self._tag(state, shard, fetch.nbytes)
        self._push(self._fetchq, shard, state, fetch, start)

    def push_part(
        self, shard: int, req: object, start: Optional[float] = None
    ) -> None:
        """Queue a part under its promoted fetch's ``start`` tag, or,
        with no tag (a retried, reset or hedged part), charge it at part
        granularity.

        This is the fault-isolation rule: a tenant whose faults force
        retries buys that extra device time out of its own SFQ share.
        """
        state = self._state(getattr(req.tag, "tenant", None))
        if start is None:
            start = self._tag(state, shard, req.nbytes)
        self._push(self._partq, shard, state, req, start)

    # -- selection ------------------------------------------------------------
    def _select(
        self, shard: int, queue: Optional[_Queue],
        gate: Optional[Callable[[str, int], bool]],
    ) -> Optional[_Entry]:
        """Pick the next entry among eligible ones (peek; no removal).

        ``best`` is the (priority, start, tenant, seq) minimum; ``leader``
        the pure SFQ (start, tenant, seq) minimum, both over the heads of
        the classes whose tenant is under its in-flight cap and which
        pass ``gate``.  Passing over the leader bumps its bypass counter;
        at ``max_bypass`` it wins anyway.
        """
        if queue is None or not queue.size:
            return None
        best: Optional[_Entry] = None
        leader: Optional[_Entry] = None
        for cls in queue.classes.values():
            state = cls.state
            if state.inflight.get(shard, 0) >= state.cap:
                continue
            if gate is not None and not gate(state.spec.name, cls.nbytes):
                continue
            e = cls.heap[0][2]
            if best is None or (
                (e.priority, e.start, e.tenant, e.seq)
                < (best.priority, best.start, best.tenant, best.seq)
            ):
                best = e
            if leader is None or (
                (e.start, e.tenant, e.seq) < (leader.start, leader.tenant, leader.seq)
            ):
                leader = e
        if best is None or leader is None:
            return None
        if leader is not best:
            self.preemptions += 1
            leader.bypassed += 1
            if leader.bypassed >= self.max_bypass:
                self.forced_serves += 1
                return leader
        return best

    def select_part(self, shard: int) -> Optional[_Entry]:
        return self._select(shard, self._partq.get(shard), None)

    def select_fetch(self, shard: int) -> Optional[_Entry]:
        return self._select(shard, self._fetchq.get(shard), self.gate)

    def take(self, shard: int, entry: _Entry, kind: str) -> object:
        """Commit a peeked selection: remove it and advance virtual time."""
        queue = self._fetchq[shard] if kind == "fetch" else self._partq[shard]
        queue.remove(entry)
        v = self._vtime.setdefault(shard, 0.0)
        if entry.start > v:
            self._vtime[shard] = entry.start
        if kind == "part":
            self.bytes_served[entry.tenant] = (
                self.bytes_served.get(entry.tenant, 0) + entry.nbytes
            )
        return entry.item

    # -- the reactor's post stage ---------------------------------------------
    def take_part(self, shard: int) -> Optional[object]:
        """Remove and return the next part to post, or None."""
        entry = self.select_part(shard)
        return None if entry is None else self.take(shard, entry, "part")

    def promote(self, shard: int, cache: object) -> Optional[tuple]:
        """Give the next fetch a cache slot: ``(fetch, slot, start)``.

        None when no fetch is eligible, or when the cache is out of
        memory (not a quota denial: the partition's reservation is
        undone and the fetch stays queued).
        """
        entry = self.select_fetch(shard)
        if entry is None:
            return None
        fetch = entry.item
        partition = self.partition
        if partition is not None:
            partition.reserve(
                fetch.tenant, fetch.key, cache.chunks_needed(fetch.nbytes)
            )
        slot = cache.try_insert(fetch.key, fetch.nbytes)
        if slot is None:
            if partition is not None:
                partition.cancel(fetch.key)
            return None
        self.take(shard, entry, "fetch")
        return fetch, slot, entry.start

    def drain(self, shard: int, kind: str) -> list:
        """Empty one queue (``kind`` is "fetch" or "part"), oldest first.

        Enqueue order, not SFQ order: the reactor drains to fail work at
        stop or to move it off a dead lane, where fairness no longer
        matters and determinism does.
        """
        queue = (self._fetchq if kind == "fetch" else self._partq).pop(
            shard, None
        )
        if queue is None:
            return []
        entries = sorted(
            (item for cls in queue.classes.values() for item in cls.heap),
            key=lambda item: item[1],
        )
        return [entry.item for _start, _seq, entry in entries]

    def service_shares(self) -> dict[str, float]:
        """Fraction of device-service bytes each tenant has received."""
        total = sum(self.bytes_served.values())
        if total == 0:
            return {}
        return {
            t: self.bytes_served[t] / total for t in sorted(self.bytes_served)
        }

    # -- in-flight tracking ---------------------------------------------------
    def on_posted(self, tenant: Optional[str], shard: int) -> None:
        state = self._state(tenant)
        state.inflight[shard] = state.inflight.get(shard, 0) + 1

    def on_complete(self, tenant: Optional[str], shard: int) -> None:
        state = self._state(tenant)
        held = state.inflight.get(shard, 0)
        if held > 0:
            state.inflight[shard] = held - 1

    # -- introspection --------------------------------------------------------
    def queued(self, shard: Optional[int] = None) -> int:
        """Fetches and parts queued on ``shard`` (default: every shard)."""
        if shard is None:
            return sum(
                queue.size
                for queues in (self._fetchq, self._partq)
                for queue in queues.values()
            )
        fetchq = self._fetchq.get(shard)
        partq = self._partq.get(shard)
        return (0 if fetchq is None else fetchq.size) + (
            0 if partq is None else partq.size
        )

    def __repr__(self) -> str:
        return (
            f"<FairScheduler tenants={len(self.states)} "
            f"queued={self.queued()}>"
        )
