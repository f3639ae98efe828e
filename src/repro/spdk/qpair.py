"""SPDK I/O queue pairs.

A QPair couples a submission queue with a completion queue under a
fixed queue depth (§III-C2).  ``post`` is non-blocking and cheap (a
doorbell write); completions land in a *completion sink* — by default a
per-qpair queue, but DLFS points every qpair at one shared completion
queue (SCQ) so a single reactor can balance progress across all targets
with one poll loop.

The sink is a :class:`~repro.sim.Store`; a busy-polling reactor that
holds its core and blocks on ``sink.get()`` is observationally
equivalent to SPDK's poll loop (core pegged, completion seen
immediately) without simulating every empty poll iteration.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional, Union

from ..errors import ConfigError, QPairResetError, QueueFullError
from ..hw import NVMeDevice, STATUS_ABORTED_RESET, STATUS_MEDIA_ERROR, STATUS_OK
from ..obs import NULL_METRICS, NULL_TRACER
from ..sim import Environment, Event, Store
from ..sim.engine import audit_register
from .request import SPDKRequest
from .target import NVMeoFTarget

__all__ = ["IOQPair", "DEFAULT_QUEUE_DEPTH"]

DEFAULT_QUEUE_DEPTH = 128


class IOQPair:
    """One I/O queue pair from a client host to a local or remote device."""

    def __init__(
        self,
        env: Environment,
        client_host: str,
        target: Union[NVMeDevice, NVMeoFTarget],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        completion_sink: Optional[Store] = None,
    ) -> None:
        if queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        self.env = env
        self.client_host = client_host
        self.target = target
        self.queue_depth = queue_depth
        self.is_remote = isinstance(target, NVMeoFTarget)
        self.target_name = target.name
        # Each qpair opens one more submission queue at the device; extra
        # active queues cost controller arbitration (Fig 7a).
        device = target.device if self.is_remote else target
        device.register_queue()
        self.name = f"qp:{client_host}->{self.target_name}"
        # NB: an empty Store is falsy (len 0), so test against None.
        self.completion_sink = (
            completion_sink
            if completion_sink is not None
            else Store(env, name=f"{self.name}.cq")
        )
        self._inflight = 0
        self.posted = 0
        self.completed = 0
        #: Tenant-keyed fault injection (:attr:`FaultPlan.tenant_faults`):
        #: installed by DLFSClient when the plan targets tenants; draws
        #: one extra media-error roll per delivered completion.
        self.injector = None
        #: Device completions dropped because a reset made them stale
        #: (generation mismatch) — audited by the SimSanitizer.
        self.stale_drops = 0
        #: Disconnect/reset lifecycle: a reset disconnects the qpair,
        #: aborts everything in flight back to the sink, and bumps the
        #: generation so stale device completions are dropped.
        self.connected = True
        #: Node-death lifecycle (cluster serving tier): while torn down
        #: the qpair stays disconnected across reconnect attempts — only
        #: :meth:`rejoin` (node back in the fleet) revives it.
        self.torn_down = False
        self._generation = 0
        #: request -> generation for every live in-flight request.
        self._live: dict[SPDKRequest, int] = {}
        #: Called with each request as its slot frees (device completion
        #: or reset abort), before the request reaches the sink: slot
        #: accounting kept by the poster must not wait for the poll.
        self.on_release: Optional[Callable[[SPDKRequest], None]] = None
        #: Observability (null objects until install_observability).
        self.tracer = NULL_TRACER
        self._h_latency = NULL_METRICS.histogram("")
        #: SimSanitizer hook: checks every delivery against the current
        #: generation (None outside sanitized runs — zero cost).
        self.audit = None
        audit_register(self)

    def install_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle."""
        self.tracer = obs.tracer
        self._h_latency = obs.metrics.histogram("qpair.latency")

    # -- introspection --------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def free_slots(self) -> int:
        if not self.connected:
            return 0
        return self.queue_depth - self._inflight

    @property
    def generation(self) -> int:
        return self._generation

    # -- submission -------------------------------------------------------------
    def post(self, request: SPDKRequest) -> None:
        """Submit one request; completions appear in ``completion_sink``.

        Raises :class:`QueueFullError` at the queue-depth limit — SPDK
        returns ``-ENOMEM`` and the caller must pace itself, which the
        DLFS backend does via ``free_slots``.  Raises
        :class:`QPairResetError` while disconnected.
        """
        if not self.connected:
            raise QPairResetError(f"{self.name}: qpair is disconnected")
        if self._inflight >= self.queue_depth:
            raise QueueFullError(
                f"{self.name}: queue depth {self.queue_depth} reached"
            )
        self._inflight += 1
        self.posted += 1
        request.submit_time = self.env.now
        request.status = None
        request.attempts += 1
        if self.tracer.enabled:
            request.span = self.tracer.start(
                "qpair.io", track=self.name, parent=request.parent_span,
                cat="spdk", offset=request.offset, nbytes=request.nbytes,
                attempt=request.attempts,
            )
        self._live[request] = self._generation
        if (
            not self.is_remote
            and self.target.injector is None
            and self.injector is None
        ):
            # Local flight with no injector: submit now and deliver from the
            # device's completion callback.  The process path submits at
            # the same sim instant (its Initialize event fires before any
            # later-time event) and resumes inside the same completion
            # event this callback rides, so timings are identical — the
            # per-request Initialize/process-end events simply never
            # exist.  With an injector installed, the process path keeps
            # the fault-draw call order bit-identical to the seed.
            cmd = self.target.read(
                request.offset, request.nbytes, parent=request.span
            )
            cmd.completion.callbacks.append(
                partial(self._on_device_complete, request, self._generation)
            )
        else:
            self.env.process(
                self._fly(request, self._generation), name=f"{self.name}.io"
            )

    def _on_device_complete(
        self, request: SPDKRequest, generation: int, completion: Event
    ) -> None:
        """Completion callback for local flights with no injector."""
        cmd = completion._value
        # Same slot-reclaim contract as _fly's finally block.
        if self._live.get(request) != generation:
            self.stale_drops += 1
            return  # reset already delivered ABORTED_RESET for it
        del self._live[request]
        self._inflight -= 1
        self._deliver(request, generation, cmd.status)

    def _fly(
        self, request: SPDKRequest, generation: int
    ) -> Generator[Event, Any, None]:
        status = STATUS_OK
        stale = False
        try:
            if self.is_remote:
                status = yield from self.target.serve_read(
                    self.client_host, request.offset, request.nbytes,
                    parent=request.span,
                )
                status = status or STATUS_OK
            else:
                cmd = self.target.read(
                    request.offset, request.nbytes, parent=request.span
                )
                yield cmd.completion
                status = cmd.status
        finally:
            # Depth accounting must survive faults: whether the service
            # path returned, raised, or was aborted by a reset, this
            # request's queue slot is reclaimed exactly once.  A reset
            # reclaims it eagerly (generation mismatch marks this
            # completion stale) — and if the request was *re-posted* by
            # then, the live entry belongs to the new attempt, so only a
            # generation match may remove it.
            stale = self._live.get(request) != generation
            if not stale:
                del self._live[request]
                self._inflight -= 1
        if stale:
            self.stale_drops += 1
            return  # reset already delivered ABORTED_RESET for it
        self._deliver(request, generation, status)

    def _deliver(
        self, request: SPDKRequest, generation: int, status: str
    ) -> None:
        """Record a non-stale completion and hand it to the sink."""
        if status == STATUS_OK and self.injector is not None:
            # Tenant-keyed chaos: a targeted tenant's span may fail at
            # delivery even though the device read was healthy.
            if self.injector.tenant_fault(
                getattr(request.tag, "tenant", None), self.env.now
            ):
                status = STATUS_MEDIA_ERROR
        request.status = status
        request.complete_time = self.env.now
        if status == STATUS_OK:
            # Data valid in the request's hugepage chunks.
            remaining = request.nbytes
            for chunk in request.chunks:
                filled = min(chunk.size, remaining)
                chunk.valid_bytes = filled
                remaining -= filled
        self.completed += 1
        self._h_latency.observe(request.latency)
        if request.span is not None:
            request.span.finish(status=status)
        if self.audit is not None:
            self.audit.check_delivery(self, generation)
        if self.on_release is not None:
            self.on_release(request)
        self.completion_sink.put_nowait(request)

    # -- reset / reconnect lifecycle ---------------------------------------------
    def reset(self) -> list[SPDKRequest]:
        """Disconnect and abort all in-flight requests.

        Every aborted request is delivered to the completion sink with
        ``STATUS_ABORTED_RESET`` so the reactor can requeue it; the
        underlying device/fabric activity keeps running but its eventual
        completion is dropped as stale (generation mismatch).  The qpair
        accepts no new posts until :meth:`reconnect`.
        """
        aborted = list(self._live)
        self._live.clear()
        self._generation += 1
        self.connected = False
        now = self.env.now
        if self.tracer.enabled:
            self.tracer.instant(
                "qpair_reset", track=self.name, aborted=len(aborted)
            )
        for request in aborted:
            self._inflight -= 1
            request.status = STATUS_ABORTED_RESET
            request.complete_time = now
            if request.span is not None:
                request.span.event("aborted_by_reset")
                request.span.finish(status=STATUS_ABORTED_RESET)
            if self.on_release is not None:
                self.on_release(request)
            self.completion_sink.put_nowait(request)
        return aborted

    def reconnect(self) -> None:
        """Bring a disconnected qpair back into service."""
        if self.connected:
            raise ConfigError(f"{self.name}: qpair is already connected")
        if self.torn_down:
            raise QPairResetError(f"{self.name}: target node is down")
        self.connected = True

    def teardown(self) -> list[SPDKRequest]:
        """Target node died: abort in-flight I/O, refuse reconnects.

        Unlike a plain :meth:`reset` (which the recovery driver undoes
        after a fixed reconnect delay), a torn-down qpair stays disconnected
        until :meth:`rejoin` — the balancer must route around it.
        Idempotent; returns the requests aborted by this call.
        """
        aborted = self.reset() if self.connected else []
        self.torn_down = True
        return aborted

    def rejoin(self) -> None:
        """Node back in the fleet: allow service again."""
        self.torn_down = False
        if not self.connected:
            self.reconnect()

    def __repr__(self) -> str:
        state = "" if self.connected else " DISCONNECTED"
        return f"<IOQPair {self.name!r} {self._inflight}/{self.queue_depth}{state}>"
