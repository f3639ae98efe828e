"""The disaggregated fetch/transform tier.

A :class:`XformTier` is a pool of simulated CPU worker nodes sitting
between the storage tier and the trainer, mirroring the prefill/decode
split of PD disaggregation: fetch is I/O-bound and lives on the storage
nodes; decode/transform is CPU-bound and lives here.  Per fetched job:

1. the :class:`~repro.xform.stages.PushdownPolicy` boundary splits the
   stage pipeline — the pushdown prefix runs on the *storage* node's
   cores (OffloadFS-style, shipping fewer bytes at the price of
   storage-side CPU);
2. the job's boundary bytes ship storage→worker through the
   :class:`~repro.xform.transfer.TransferEngine` (chunked, credit
   backpressured), one group per storage node holding its records;
3. the suffix runs on the client's affinity lane — a static hash of the
   client rank over the worker pool, with a dead lane failed over to
   the next live index;
4. the output bytes ship worker→trainer, and only then does the job's
   ``done`` fire.

Backpressure chain: trainer jobs hold a tier-wide inflight slot from
submission to transform completion (:class:`XformRuntime`), worker
inboxes are depth-bounded, and transfer credits bound the bytes in
flight — a saturated transform tier therefore stalls *submission* into
the fair-queue scheduler rather than queueing unboundedly behind it.

Worker crashes are fail-stop at task granularity: queued and in-service
tasks on the dead lane are lost and re-dispatched (re-shipping their
boundary bytes from the storage nodes) to a surviving worker; CPU
already burned on a lost task is sunk cost.  Crash schedules come from
``FleetSpec.xform_crashes`` (``fleet --worker-crash``).

Determinism is structural, per the SimSanitizer contract.  Each
client's transforms run strictly serialized in submission order — at
most one of its jobs is inside the tier at a time, with the *next*
job's fetch overlapping the current job's transform, the same
fetch/decode pipelining DLFS runs between its reader and the training
loop.  Lane choice is static client affinity (a hash of the client
rank plus the failover attempt), never a read of live queue depths
shared across clients, and the pushdown boundary is an analytic
decision made once per run.  Fetch completion times are already
tiebreak-invariant, so every tier decision is a pure function of run
configuration and absolute crash times — nothing rides on
same-timestamp event ordering.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..obs import NULL_METRICS
from ..sim import Store
from .stages import pipeline_bytes, pipeline_cost, stages_with_packing
from .transfer import TransferEngine

__all__ = ["XformSpec", "XformTier", "XformRuntime", "TransformWorker"]


_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """SplitMix64 finalizer: a stable integer hash for lane affinity."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class XformSpec:
    """Configuration of the transform tier (pay-for-use: empty
    ``stages`` builds nothing and keeps the flat datapath)."""

    #: The decode/transform pipeline, in execution order.
    stages: tuple = ()
    #: Transform worker nodes.
    workers: int = 2
    #: Service cores (and concurrent tasks) per worker.
    worker_cores: int = 2
    #: Pending-task bound per worker inbox (backpressure).
    queue_depth: int = 16
    #: Tier-wide jobs in flight between submission and transform
    #: completion; further submissions park FIFO (backpressure into the
    #: fair-queue scheduler).
    max_inflight_jobs: int = 16
    #: TransferEngine chunk size.
    chunk_bytes: int = 256 * 1024
    #: Pushdown mode: "worker" | "storage" | "cost".
    placement: str = "cost"
    #: Storage-node cores usable for pushdown stages (per node).
    storage_cores: int = 1
    #: FanStore-style packed on-node format: records leave the device
    #: ``packed_ratio`` times smaller and an unpack stage (selectivity =
    #: ratio) is prefixed to the pipeline.
    packed_ratio: float = 1.0

    def validate(self, num_storage_cores: int = 0) -> None:
        if self.workers < 1:
            raise ConfigError("xform needs at least one worker")
        if self.worker_cores < 1 or self.queue_depth < 1:
            raise ConfigError("worker_cores and queue_depth must be >= 1")
        if self.max_inflight_jobs < 1:
            raise ConfigError("max_inflight_jobs must be >= 1")
        if self.storage_cores < 1:
            raise ConfigError("storage_cores must be >= 1")
        if not math.isfinite(self.packed_ratio) or self.packed_ratio < 1.0:
            raise ConfigError("packed_ratio must be finite and >= 1")
        if self.placement not in ("worker", "storage", "cost"):
            raise ConfigError(f"unknown placement {self.placement!r}")
        if num_storage_cores and self.storage_cores > num_storage_cores:
            raise ConfigError(
                f"storage_cores={self.storage_cores} exceeds the "
                f"{num_storage_cores} cores a storage node has"
            )

    @property
    def enabled(self) -> bool:
        return bool(self.stages)


class _Task:
    """One job's transform-suffix work, bound for a transform lane."""

    __slots__ = (
        "tenant", "accounting", "dst", "worker_cost", "out_bytes",
        "ready_t", "wait_recorded",
    )

    def __init__(self, tenant, accounting, dst, worker_cost, out_bytes):
        self.tenant = tenant
        self.accounting = accounting
        self.dst = dst
        self.worker_cost = worker_cost
        self.out_bytes = out_bytes
        self.ready_t = 0.0
        self.wait_recorded = False


class _Attempt:
    """One dispatch of a task onto one worker.

    A crashed worker's in-service generator may only resume *after* the
    task has been re-dispatched elsewhere, so the loss flag must live on
    the attempt, never on the (reused) task — otherwise the stale lane
    would double-complete it.
    """

    __slots__ = ("task", "done", "lost", "remaining")

    def __init__(self, task: _Task, done, slices: int) -> None:
        self.task = task
        self.done = done
        self.lost = False
        #: Service slices not yet finished; the last one delivers.
        self.remaining = slices


class TransformWorker:
    """One transform lane: an inbox, service cores, fail-stop crashes."""

    def __init__(self, tier: "XformTier", index: int, node) -> None:
        self.tier = tier
        self.env = tier.env
        self.index = index
        self.node = node
        self.alive = True
        self.routed = 0
        self._inbox = Store(tier.env, name=f"xform.w{index}.inbox")
        self._slots_used = 0
        self._slot_waiters: list = []
        #: Attempts accepted and not yet finished (queued or in
        #: service); insertion-ordered, so crash loss order is
        #: deterministic.
        self._open: dict[int, _Attempt] = {}
        self._task_seq = 0
        for c in range(tier.spec.worker_cores):
            tier.env.process(
                self._serve(c), name=f"xform.w{index}.serve{c}"
            )

    @property
    def load(self) -> int:
        return self._slots_used

    # -- admission ------------------------------------------------------------
    def acquire_slot(self):
        """Process helper: wait for an inbox slot.  Returns False if the
        worker crashed while we waited (caller re-routes)."""
        while self.alive and self._slots_used >= self.tier.spec.queue_depth:
            ev = self.env.event()
            self._slot_waiters.append(ev)
            ok = yield ev
            if not ok:
                return False
        if not self.alive:
            return False
        self._slots_used += 1
        return True

    def _release_slot(self) -> None:
        self._slots_used -= 1
        if self._slot_waiters:
            self._slot_waiters.pop(0).succeed(True)

    def dispatch(self, task: _Task) -> _Attempt:
        """Hand a task (whose bytes have already shipped here) to the
        service cores.  Caller holds an inbox slot.

        The task is enqueued as ``worker_cores`` *equal* service slices
        so one job's transform spreads across the lane's cores — the
        data-parallel decode the real tier would run.  Equal slices
        matter for the SimSanitizer contract: which core pulls which
        slice is tiebreak-order dependent, but identical durations plus
        the all-slices barrier make the outcome invariant.
        """
        slices = self.tier.spec.worker_cores
        attempt = _Attempt(task, self.env.event(), slices)
        self._task_seq += 1
        self._open[self._task_seq] = attempt
        for _ in range(slices):
            self._inbox.put_nowait((self._task_seq, attempt))
        return attempt

    # -- service --------------------------------------------------------------
    def _serve(self, core_index: int):
        core = self.node.cpu.core(core_index)
        while True:
            seq, attempt = yield self._inbox.get()
            if attempt.lost:
                continue
            task = attempt.task
            if not task.wait_recorded:
                task.wait_recorded = True
                self.tier.record_wait(
                    task.tenant, self.env.now - task.ready_t, task.accounting
                )
            slice_cost = task.worker_cost / self.tier.spec.worker_cores
            if slice_cost > 0:
                yield from core.execute(slice_cost)
                self.tier.layers.add("xform.worker", slice_cost)
            if attempt.lost:
                continue  # crashed mid-service: work is sunk cost
            attempt.remaining -= 1
            if attempt.remaining:
                continue  # a sibling slice delivers
            yield from self.tier.engine.move(
                self.node.name, task.dst, task.out_bytes
            )
            if attempt.lost:
                continue
            self._open.pop(seq, None)
            self._release_slot()
            self.tier.tasks_done += 1
            attempt.done.succeed("ok")

    # -- lifecycle ------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: every open task is lost; waiters are bounced."""
        if not self.alive:
            return
        self.alive = False
        self.tier.crashes += 1
        lost = list(self._open.values())
        self._open.clear()
        self._slots_used = 0
        for attempt in lost:
            attempt.lost = True
            attempt.done.succeed("down")
        waiters, self._slot_waiters = self._slot_waiters, []
        for ev in waiters:
            ev.succeed(False)

    def rejoin(self) -> None:
        if self.alive:
            return
        self.alive = True
        self.tier.rejoins += 1
        self.tier._wake_alive_waiters()

    def __repr__(self) -> str:
        return (
            f"<TransformWorker {self.index} {'up' if self.alive else 'DOWN'} "
            f"load={self._slots_used}>"
        )


class XformTier:
    """The transform-worker pool plus the per-run pushdown plan."""

    def __init__(
        self,
        env,
        spec: XformSpec,
        fs,
        worker_nodes: list,
        crashes: tuple = (),
        registry=None,
    ) -> None:
        if len(worker_nodes) != spec.workers:
            raise ConfigError(
                f"spec names {spec.workers} workers but {len(worker_nodes)} "
                "nodes were provided"
            )
        spec.validate(num_storage_cores=len(worker_nodes[0].cpu))
        self.env = env
        self.spec = spec
        self.fs = fs
        self.registry = registry if registry is not None and registry.enabled \
            else NULL_METRICS
        self.layers = self.registry.layers("xform")
        self._h_wait = self.registry.histogram("xform.queue_wait")
        self.engine = TransferEngine(
            env, fs.cluster.fabric,
            chunk_bytes=spec.chunk_bytes,
            registry=registry,
        )
        #: The effective pipeline (packed-format unpack prefixed).
        self.stages = stages_with_packing(spec.stages, spec.packed_ratio)
        #: Mean-record boundary: stages[:k] on storage, stages[k:] here.
        from .stages import PushdownPolicy

        sizes = fs.dataset.sizes
        mean_bytes = int(sizes.mean()) if len(sizes) else 0
        # Budgets are the cores ONE job's work traverses, not tier
        # totals: its per-node pushdown group runs on a single keyed
        # storage core (shared by every client), its transform suffix
        # on one affinity lane's dedicated cores.
        self.policy = PushdownPolicy(
            mode=spec.placement,
            fabric_bandwidth=fs.cluster.fabric.spec.bandwidth,
            storage_core_budget=float(spec.storage_cores),
            worker_core_budget=float(spec.worker_cores),
        )
        self.boundary = self.policy.boundary(
            self.stages, self._scaled(mean_bytes)
        )
        self.workers = [
            TransformWorker(self, i, node)
            for i, node in enumerate(worker_nodes)
        ]
        self._alive_waiters: list = []
        # Counters (also mirrored on the registry when metrics are on).
        self.tasks_done = 0
        self.direct_ships = 0
        self.redispatches = 0
        self.crashes = 0
        self.rejoins = 0
        for entry in crashes:
            if len(entry) != 3:
                raise ConfigError(
                    "xform crash entries must be (worker, crash, rejoin|None)"
                )
            widx, t1, t2 = entry
            if not 0 <= widx < len(self.workers):
                raise ConfigError(f"xform crash worker {widx} out of range")
            env.process(
                self._crash_proc(self.workers[widx], t1, t2),
                name=f"xform.crash.w{widx}",
            )

    def _scaled(self, nbytes: int) -> int:
        """Device bytes -> packed bytes entering the pipeline."""
        if self.spec.packed_ratio == 1.0:
            return int(nbytes)
        return int(round(nbytes / self.spec.packed_ratio))

    # -- accounting -----------------------------------------------------------
    def record_wait(self, tenant: Optional[str], wait: float,
                    accounting=None) -> None:
        """Charge one task's transform-queue wait to its tenant (on the
        accounting of the client that submitted it — the tier is shared,
        the charge is not)."""
        self._h_wait.observe(wait)
        if tenant is not None and accounting is not None:
            accounting.on_xform_wait(tenant, wait)

    # -- routing --------------------------------------------------------------
    def route(self, key: int, attempt: int = 0) -> Optional[TransformWorker]:
        """Affinity-hash the client key onto a live lane.

        Lane choice is a pure function of ``(key, attempt)`` and the
        alive set — never of live queue depths, which are shared across
        clients and therefore tiebreak-order dependent.  A dead home
        lane fails over to the next live index; a re-dispatch bumps
        ``attempt`` so the retry re-hashes instead of hammering the
        same lane.  Returns ``None`` when every lane is down.
        """
        n = len(self.workers)
        start = _mix(key ^ (attempt * 0x9E3779B97F4A7C15)) % n
        for off in range(n):
            w = self.workers[(start + off) % n]
            if w.alive:
                return w
        return None

    def _wake_alive_waiters(self) -> None:
        waiters, self._alive_waiters = self._alive_waiters, []
        for ev in waiters:
            ev.succeed(True)

    # -- job planning ---------------------------------------------------------
    def plan_job(self, job) -> list[tuple]:
        """Aggregate a fetched job into per-storage-node groups.

        Returns ``(src_node, pushdown_cost, ship_bytes, worker_cost,
        out_bytes, n_samples)`` tuples in shard order — each group is
        the job's records resident on one storage node.  Samples that
        failed their fetch are excluded — there is nothing to
        transform.
        """
        failed = set()
        for exc in job.errors:
            key = getattr(exc, "key", None)
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "s":
                failed.add(int(key[1]))
        layout = self.fs.layout
        sizes = self.fs.dataset.sizes
        k = self.boundary
        groups: dict[int, list[float]] = {}
        for idx in job.samples:
            idx = int(idx)
            if idx in failed:
                continue
            shard = layout.shard_of(idx)
            acc = groups.get(shard)
            if acc is None:
                acc = groups[shard] = [0.0, 0, 0.0, 0, 0]
            nbytes = self._scaled(int(sizes[idx]))
            cut_sizes = pipeline_bytes(self.stages, nbytes)
            costs = pipeline_cost(self.stages, nbytes)
            acc[0] += sum(costs[:k])
            acc[1] += cut_sizes[k]
            acc[2] += sum(costs[k:])
            acc[3] += cut_sizes[-1]
            acc[4] += 1
        plans = []
        for shard in sorted(groups):
            node_idx, _dev = self.fs.placement[shard]
            src = self.fs.cluster.node(node_idx)
            pd, ship, wc, out, n = groups[shard]
            plans.append((src, pd, int(ship), wc, int(out), n))
        return plans

    def _storage_core(self, node, key: int):
        """Content-keyed pick over the node's pushdown cores (FIFO
        contention on each core models storage-side CPU saturation;
        clients spread across cores by hash, not by arrival order)."""
        return node.cpu.core(_mix(key) % self.spec.storage_cores)

    # -- the per-job pipeline -------------------------------------------------
    def _pushdown_proc(self, src, cost: float, key: int):
        core = self._storage_core(src, key)
        yield from core.execute(cost)
        self.layers.add("xform.pushdown", cost)

    def _ship_proc(self, src, nbytes: int, dst: str):
        yield from self.engine.move(src.name, dst, nbytes)

    def process_job(self, job, dst: str, key: int, accounting=None):
        """Process helper: pushdown -> ship -> transform -> deliver.

        Runs one fetched job through the tier: the pushdown prefix on
        each group's storage node (groups in parallel — the nodes are
        distinct), the boundary ship (also per-group parallel), one
        lane task for the transform suffix, the output ship.  Callers
        serialize their jobs (one per client inside the tier at a
        time); each fan-out below is consumed only by its barrier, so
        sibling ordering can never leak into downstream timing.
        """
        tenant = job.tenant
        groups = self.plan_job(job)
        if not groups:
            return
        pushdowns = [
            self.env.process(
                self._pushdown_proc(src, pd, key),
                name=f"xform.pushdown.{src.name}",
            )
            for src, pd, _ship, _wc, _out, _n in groups if pd > 0
        ]
        if pushdowns:
            yield self.env.all_of(pushdowns)
        if self.boundary == len(self.stages):
            # Full pushdown: transformed bytes ship straight to the
            # trainer; the worker pool is not involved.
            ships = [
                self.env.process(
                    self._ship_proc(src, ship, dst),
                    name=f"xform.ship.{src.name}",
                )
                for src, _pd, ship, _wc, _out, _n in groups
            ]
            yield self.env.all_of(ships)
            self.direct_ships += len(groups)
            self.record_wait(tenant, 0.0, accounting)
            return
        task = _Task(
            tenant, accounting, dst,
            sum(g[3] for g in groups), sum(g[4] for g in groups),
        )
        task.ready_t = self.env.now
        tries = 0
        while True:
            w = self.route(key, tries)
            if w is None:
                ev = self.env.event()
                self._alive_waiters.append(ev)
                yield ev
                continue
            ok = yield from w.acquire_slot()
            if not ok:
                tries += 1
                continue
            w.routed += 1
            ships = [
                self.env.process(
                    self._ship_proc(src, ship, w.node.name),
                    name=f"xform.ship.{src.name}",
                )
                for src, _pd, ship, _wc, _out, _n in groups
            ]
            yield self.env.all_of(ships)
            if not w.alive:
                # Crashed while the bytes were on the wire; the crash
                # reset the slot accounting, so just re-route.
                self.redispatches += 1
                tries += 1
                continue
            attempt = w.dispatch(task)
            result = yield attempt.done
            if result == "ok":
                return
            self.redispatches += 1
            tries += 1

    def _crash_proc(self, worker: TransformWorker, t1: float, t2):
        yield self.env.timeout(t1)
        worker.crash()
        if t2 is not None:
            yield self.env.timeout(t2 - t1)
            worker.rejoin()

    # -- reporting ------------------------------------------------------------
    def counters(self) -> dict:
        return {
            "tasks": self.tasks_done,
            "direct_ships": self.direct_ships,
            "redispatches": self.redispatches,
            "crashes": self.crashes,
            "rejoins": self.rejoins,
            "boundary": self.boundary,
            "stages": len(self.stages),
        }

    def routed(self) -> dict:
        return {w.index: w.routed for w in self.workers}

    def utilization_rows(self) -> list[dict]:
        """Per-tier CPU utilization over the cores each tier spends on
        transforms (the obs per-tier panel)."""
        rows = []
        storage_nodes = sorted(
            {n for n, _d in self.fs.placement}
        )
        for node_idx in storage_nodes:
            node = self.fs.cluster.node(node_idx)
            cores = self.spec.storage_cores
            util = sum(
                node.cpu.core(i).utilization() for i in range(cores)
            ) / cores
            rows.append({
                "tier": "storage", "node": node.name,
                "cores": cores, "cpu": util,
            })
        for w in self.workers:
            cores = self.spec.worker_cores
            util = sum(
                w.node.cpu.core(i).utilization() for i in range(cores)
            ) / cores
            rows.append({
                "tier": "xform", "node": w.node.name,
                "cores": cores, "cpu": util,
            })
        return rows

    def __repr__(self) -> str:
        return (
            f"<XformTier workers={len(self.workers)} "
            f"boundary={self.boundary}/{len(self.stages)}>"
        )


class XformRuntime:
    """Tenant-runtime facade that splices the transform tier into the
    job path.

    The traffic engine submits jobs here; each job's fetch runs through
    the *inner* runtime (tenancy SFQ or cluster balancer) as a shadow
    job, and the original ``job.done`` only fires after the transform
    pipeline delivers.  A bounded number of jobs is in flight through
    the tier; the overflow parks FIFO *before* the fetch is submitted,
    which is what pushes transform-tier saturation back into the
    fair-queue scheduler's arrival stream.

    Transforms are strictly serialized per client, in submission order:
    a single loop waits each job's fetch, runs it through the tier, and
    only then fires its ``done``.  Fetches still overlap transforms
    (and each other, up to the inflight bound) — the DLFS reader's
    fetch/decode pipelining — but the tier never sees two jobs from the
    same client at once, which is what keeps its shared queues off the
    event-queue tiebreak (see the module docstring).
    """

    def __init__(self, env, inner, tier: XformTier, client_name: str,
                 rank: int = 0) -> None:
        self.env = env
        self.inner = inner
        self.tier = tier
        self.client_name = client_name
        self.rank = rank
        self._inflight = 0
        self._pending: deque = deque()
        #: (job, shadow) pairs in submission order, consumed by the
        #: transform loop.
        self._fetches = Store(env, name=f"xform.{client_name}.fetched")
        env.process(self._transform_loop(), name=f"xform.{client_name}.loop")

    @property
    def accounting(self):
        return self.inner.accounting

    def submit(self, job) -> bool:
        if self._inflight < self.tier.spec.max_inflight_jobs:
            self._inflight += 1
            self._forward(job)
        else:
            self._pending.append(job)
        return True

    def _forward(self, job) -> None:
        from ..core.reader import ReadJob

        shadow = ReadJob(
            samples=job.samples, done=self.env.event(), tenant=job.tenant
        )
        self._fetches.put_nowait((job, shadow))
        self.inner.submit(shadow)

    def _transform_loop(self):
        from ..errors import AdmissionRejected

        while True:
            job, shadow = yield self._fetches.get()
            yield shadow.done  # no-op if the fetch already completed
            job.errors.extend(shadow.errors)
            job.retained = shadow.retained
            rejected = any(
                isinstance(exc, AdmissionRejected) for exc in job.errors
            )
            if not rejected:
                yield from self.tier.process_job(
                    job, self.client_name, self.rank,
                    getattr(self.inner, "accounting", None),
                )
            job.done.succeed(job)
            if self._pending:
                self._forward(self._pending.popleft())
            else:
                self._inflight -= 1
