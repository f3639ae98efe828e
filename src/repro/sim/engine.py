"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy.  Every
hardware and software component in this reproduction is a *process*: a
Python generator that yields :class:`Event` objects to suspend itself until
the event fires.  The kernel owns simulated time (``env.now``, in seconds)
and never consults the wall clock, so every run is reproducible.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import DeadlockError, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "PENDING",
    "set_tiebreak_factory",
    "set_lifecycle_audit",
    "audit_register",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Allocates an instance without running ``__init__``: event
#: constructors below fill every slot in their own frame.
_new = object.__new__

# --------------------------------------------------------------------------
# Harness hooks (repro.analysis.sanitizer).
#
# Both default to None and cost the hot path a single falsy check.  They
# are *harness* knobs: production code must never set them — the
# sanitizer installs them around a run and restores None afterwards.
# --------------------------------------------------------------------------

#: When set, every new Environment calls the factory once and uses the
#: returned object's ``random()`` to draw a tiebreak rank per scheduled
#: event — a seeded shuffle of same-timestamp event order.  The engine's
#: *contract* (docs: DESIGN.md, "determinism") is that component-level
#: outcomes must not depend on the insertion-order tiebreak; this knob
#: is how the sanitizer falsifies that claim.
_TIEBREAK_FACTORY: Optional[Callable[[], Any]] = None

#: When set, Resources, NIC pipes and qpairs register themselves here
#: at construction so the sanitizer can check lifecycle invariants
#: (leak-on-stop, stale completions) after a run.  Must expose
#: ``register(obj)``.
_LIFECYCLE_AUDIT: Optional[Any] = None


def set_tiebreak_factory(factory: Optional[Callable[[], Any]]) -> None:
    """Install (or clear, with ``None``) the sanitizer tiebreak factory."""
    global _TIEBREAK_FACTORY
    _TIEBREAK_FACTORY = factory


def set_lifecycle_audit(audit: Optional[Any]) -> None:
    """Install (or clear, with ``None``) the sanitizer lifecycle audit."""
    global _LIFECYCLE_AUDIT
    _LIFECYCLE_AUDIT = audit


def audit_register(obj: Any) -> None:
    """Register a lifecycle-checked object with the active audit, if any."""
    if _LIFECYCLE_AUDIT is not None:
        _LIFECYCLE_AUDIT.register(obj)


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three states: *untriggered* (just created),
    *triggered* (scheduled for processing; value fixed), and *processed*
    (callbacks have run).  Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined _post_at(self, now): succeed() dominates datapath posts.
        env = self.env
        env._eid += 1
        key = env._eid if env._tiebreak is None else env._ranked_key()
        heapq.heappush(env._queue, (env.now, key, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._post_at(self, self.env.now)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Built and posted by :meth:`Environment.timeout`; it has no
    constructor.
    """

    __slots__ = ("delay",)


class Initialize(Event):
    """Internal event used to start a freshly created process.

    Built by :class:`Process` in its own frame; it has no constructor.
    """

    __slots__ = ()


class _Call(Event):
    """A timed call (:meth:`Environment.call_at`) that went to the heap:
    its one callback calls ``fn``."""

    __slots__ = ("fn",)


def _fire_call(event: _Call) -> None:
    event.fn()


def _call_event(env: "Environment", fn: Callable[[], None]) -> _Call:
    event = _new(_Call)
    event.env = env
    event.callbacks = [_fire_call]
    event._value = None
    event._ok = True
    event._defused = False
    event.fn = fn
    return event


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The process's value is the generator's return value; if the generator
    raises, the process fails with that exception (propagated to waiters).
    """

    __slots__ = ("_generator", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: ``_resume`` bound once: every wait subscribes this object.
        self._resume_cb = self._resume
        # The start event (an Initialize), built and posted inline.
        init = _new(Initialize)
        init.env = env
        init.callbacks = [self._resume_cb]
        init._value = None
        init._ok = True
        init._defused = False
        env._eid += 1
        key = env._eid if env._tiebreak is None else env._ranked_key()
        heapq.heappush(env._queue, (env.now, key, init))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        # (ok, payload): payload is a value when ok, an exception otherwise.
        ok, payload = event._ok, event._value
        if not ok:
            event._defused = True
        while True:
            try:
                if ok:
                    next_event = self._generator.send(payload)
                else:
                    next_event = self._generator.throw(payload)
            except StopIteration as stop:
                self._value = stop.value
                env = self.env
                env._eid += 1
                key = env._eid if env._tiebreak is None else env._ranked_key()
                heapq.heappush(env._queue, (env.now, key, self))
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._post_at(self, self.env.now)
                break

            if not isinstance(next_event, Event):
                ok, payload = False, SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                continue
            if next_event.env is not self.env:
                ok, payload = False, SimulationError(
                    f"process {self.name!r} yielded an event from a "
                    "different environment"
                )
                continue

            if next_event.callbacks is not None:
                # Event still pending: subscribe and suspend.
                next_event.callbacks.append(self._resume_cb)
                break
            # Event already processed: continue synchronously.
            ok, payload = next_event._ok, next_event._value
            if not ok:
                next_event._defused = True

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"


class AllOf(Event):
    """Fires when *all* child events have fired; value maps event -> value.

    A failed child fails the condition with its exception.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._events = events = list(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("condition spans multiple environments")
        # Subscribe after validation so a foreign event cannot leave a
        # partially subscribed condition behind.
        self._remaining = 0
        for event in events:
            if event.callbacks is not None:
                event.callbacks.append(self._child_fired)
                self._remaining += 1
            elif not event._ok:
                # An already processed failure fails the condition now.
                event._defused = True
                self.fail(event._value)
                return
        if self._remaining == 0:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* children count as fired: a Timeout carries its
        # value from construction, so checking ``_value`` would wrongly
        # include timeouts that have not elapsed yet.  Called exactly
        # once per condition, at success — child firings only bump the
        # O(1) ``_remaining`` counter, so an AllOf over N events does
        # O(N) total bookkeeping, not O(N^2).
        return {e: e._value for e in self._events if e.processed}

    def _child_fired(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Environment:
    """Owns the event queue and simulated time.

    Time is a float in **seconds**.  Ties are broken by insertion order,
    which makes runs fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  Only the kernel writes it.
        self.now = float(initial_time)
        #: One heap of (time, tiebreak key, event); events fire in
        #: (time, key) order.  The key is the insertion id in normal
        #: runs, so ties fall back to insertion order; under the
        #: SimSanitizer it is (seeded random rank, insertion id),
        #: shuffling same-timestamp event order in the same heap every
        #: run uses.  One environment never mixes the two key types.
        self._queue: list[tuple[float, Any, Event]] = []
        self._eid = 0
        self._tiebreak = (
            _TIEBREAK_FACTORY() if _TIEBREAK_FACTORY is not None else None
        )
        #: Observability hooks called after each processed event; ``None``
        #: (the default) keeps the run loop at a single falsy check.
        self._step_listeners: Optional[list[Callable[[float, Event], None]]] = None
        #: Fluid lanes registered for epoch stepping (repro.sim.fluid);
        #: ``None`` (the default) keeps run_epoch() pay-for-use.
        self._lanes: Optional[list[Any]] = None
        #: The timed-call slot: ``None`` while :meth:`run` runs with it
        #: empty, a ``(time, key, fn)`` call waiting ahead of the heap,
        #: or ``False`` outside ``run``, where every call is posted.
        self._slot: Any = False

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        event = _new(Event)
        event.env = self
        event.callbacks = []
        event._value = PENDING
        event._ok = True
        event._defused = False
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        Built and posted here in one frame: one per compute charge in
        the datapath.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        event = _new(Timeout)
        event.env = self
        event.callbacks = []
        event._defused = False
        event.delay = delay
        event._ok = True
        event._value = value
        self._eid += 1
        key = self._eid if self._tiebreak is None else self._ranked_key()
        heapq.heappush(self._queue, (self.now + delay, key, event))
        return event

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _ranked_key(self) -> tuple[float, int]:
        """Sanitizer tiebreak key for the event just numbered ``_eid``."""
        return (float(self._tiebreak.random()), self._eid)

    def _post_at(self, event: Event, time: float) -> None:
        """Schedule ``event`` at the *absolute* time ``time``.

        Kernel-internal: failures post here at ``now``, and model paths
        that compute fire times in closed form post here to hit the
        exact float the reference event chain would have produced
        (``now + delay`` is not bit-identical to a precomputed absolute
        time under IEEE 754).
        """
        self._eid += 1
        key = self._eid if self._tiebreak is None else self._ranked_key()
        heapq.heappush(self._queue, (time, key, event))

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` at the absolute time ``time``, as an event would.

        The call takes the key a post takes (the next insertion id, and
        a sanitizer rank under a tiebreak factory), so it runs exactly
        where an event posted here would be processed.  While
        :meth:`run` runs, the first call of a step waits in a one-entry
        slot ahead of the heap: once the step's callbacks have returned,
        the run loop calls it directly if it is still the earliest
        ``(time, key)``, and posts it as an event otherwise.  Any other
        call, and every call outside ``run``, is posted at once.
        """
        self._eid += 1
        key = self._eid if self._tiebreak is None else self._ranked_key()
        if self._slot is None:
            self._slot = (time, key, fn)
        else:
            heapq.heappush(self._queue, (time, key, _call_event(self, fn)))

    def peek(self) -> float:
        """Time of the next scheduled event or call, or ``inf`` if none."""
        head = self._queue[0][0] if self._queue else math.inf
        slot = self._slot
        return slot[0] if slot and slot[0] < head else head

    def add_step_listener(self, listener: Callable[[float, Event], None]) -> None:
        """Register an observability hook run after every processed event.

        Listeners must be purely observational: they see ``(now, event)``
        and must not create, trigger, or cancel simulation events, so a
        monitored run stays bit-identical to an unmonitored one.  A
        timed call the run loop makes directly is a step too; listeners
        see it as a processed :class:`_Call` event.
        """
        if self._step_listeners is None:
            self._step_listeners = []
        self._step_listeners.append(listener)

    # -- epoch stepping (hybrid-fidelity lanes) ------------------------------
    def register_lane(self, lane: Any) -> None:
        """Register a fluid lane for epoch stepping.

        Registered lanes get ``lane.epoch_end(t0, t1)`` after every
        :meth:`run_epoch`, with the epoch bounds passed explicitly —
        fluid epoch bodies must not read ``env.now`` (lint rule SL111).
        """
        if self._lanes is None:
            self._lanes = []
        self._lanes.append(lane)

    @property
    def lanes(self) -> tuple:
        """The registered fluid lanes, in registration order."""
        return tuple(self._lanes) if self._lanes is not None else ()

    def run_epoch(self, until: float) -> None:
        """Run events up to ``until``, then close the epoch on every lane.

        The event phase is a plain :meth:`run`, so anything scheduled in
        ``[now, until]`` (tagged flows, fault windows) is processed with
        full event fidelity; the epoch hook then lets each registered
        lane charge its bulk traffic for the window analytically.
        """
        t0 = self.now
        self.run(until=float(until))
        if self._lanes is not None:
            for lane in self._lanes:
                lane.epoch_end(t0, self.now)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run until simulated time reaches it), or an :class:`Event` (run
        until that event is processed, returning its value).
        """
        stop = None
        horizon = math.inf
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(
                    f"until={horizon!r} is in the past (now={self.now!r})"
                )
        queue = self._queue
        heappop = heapq.heappop
        slot = self._slot
        if slot:
            # run() from inside a step: the outer step's call goes first.
            heapq.heappush(queue, (slot[0], slot[1], _call_event(self, slot[2])))
        self._slot = None
        try:
            # `stop.callbacks is None` is `stop.processed` without the
            # property descriptor.
            while stop is None or stop.callbacks is not None:
                slot = self._slot
                if slot:
                    # A timed call from the last step: call it now if
                    # nothing in the heap comes first, else post it.
                    self._slot = None
                    t, key, fn = slot
                    if t <= horizon and (
                        not queue or t < queue[0][0]
                        or (t == queue[0][0] and key < queue[0][1])
                    ):
                        self.now = t
                        fn()
                        if self._step_listeners is not None:
                            event = _call_event(self, fn)
                            event.callbacks = None
                            for listener in self._step_listeners:
                                listener(t, event)
                        continue
                    heapq.heappush(queue, (t, key, _call_event(self, fn)))
                if not queue or queue[0][0] > horizon:
                    break
                self.now, _, event = heappop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure nobody waited on must not pass silently.
                    raise event._value
                if self._step_listeners is not None:
                    for listener in self._step_listeners:
                        listener(self.now, event)
        finally:
            slot = self._slot
            if slot:
                heapq.heappush(queue, (slot[0], slot[1], _call_event(self, slot[2])))
            self._slot = False

        if stop is not None:
            if stop._value is PENDING:
                raise DeadlockError(
                    "run(until=event): event queue drained before the "
                    "target event fired (deadlock?)"
                )
            if not stop._ok:
                stop._defused = True
                raise stop._value
            return stop._value
        if until is not None:
            self.now = horizon
        return None
