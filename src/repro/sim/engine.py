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
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import DeadlockError, SimulationError, InterruptedProcess

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "PENDING",
    "set_tiebreak_factory",
    "set_lifecycle_audit",
    "audit_register",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

# --------------------------------------------------------------------------
# Harness hooks (repro.analysis.sanitizer, repro.analysis.perfcheck).
#
# Both default to None and cost the hot path a single falsy check.  They
# are *harness* knobs: production code must never set them — the
# sanitizer and perfcheck install them around a run and restore None
# afterwards.
# --------------------------------------------------------------------------

#: When set, every new Environment calls the factory once and uses the
#: returned object's ``random()`` to draw a tiebreak rank per scheduled
#: event — a seeded shuffle of same-timestamp event order.  The engine's
#: *contract* (docs: DESIGN.md, "determinism") is that component-level
#: outcomes must not depend on the insertion-order tiebreak; this knob
#: is how the sanitizer falsifies that claim.
_TIEBREAK_FACTORY: Optional[Callable[[], Any]] = None

#: When set, Resources/Stores/qpairs/NVMe devices register themselves
#: here at construction so the sanitizer can check lifecycle invariants
#: (leak-on-stop, stale completions) after a run, and perfcheck can put
#: new devices on their reference paths.  Must expose ``register(obj)``.
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
        # Inlined zero-delay _post: succeed() dominates datapath posts.
        env = self.env
        env._eid += 1
        key = env._eid if env._tiebreak is None else env._ranked_key()
        heapq.heappush(env._queue, (env._now, key, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._post(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def _resolve(self) -> None:
        """Run callbacks.  Called by the environment, exactly once."""
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            # A failure nobody waited on must not pass silently.
            raise self._value

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__: timeouts are the most-constructed
        # event type (one per compute charge in the datapath).
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        # Inlined _post.
        env._eid += 1
        key = env._eid if env._tiebreak is None else env._ranked_key()
        heapq.heappush(env._queue, (env._now + delay, key, self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._post(self)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The process's value is the generator's return value; if the generator
    raises, the process fails with that exception (propagated to waiters).
    """

    __slots__ = ("_generator", "_target", "name", "_stale")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None when running).
        self._target: Optional[Event] = None
        #: Events abandoned by interrupt(); their firings are tombstoned:
        #: _resume drops them instead of paying an O(n) callbacks.remove
        #: at interrupt time.  None (no check at all) in the common case.
        self._stale: Optional[list[Event]] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptedProcess` into the process.

        The process must currently be suspended on an event; the event is
        abandoned (its firing will be ignored by this process).
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None:
            raise SimulationError(f"{self!r} is not waiting on an event")
        # Detach from the old target: O(1) tombstone instead of an O(n)
        # callbacks.remove — the subscription stays in place and _resume
        # discards the stale firing when it arrives.
        target = self._target
        self._target = None
        if target.callbacks is not None:
            if self._stale is None:
                self._stale = [target]
            else:
                self._stale.append(target)
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = InterruptedProcess(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._post(interrupt_event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        stale = self._stale
        if stale is not None and event in stale:
            # Firing of an event abandoned by interrupt(): swallow it.
            stale.remove(event)
            if not stale:
                self._stale = None
            return
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
                self._target = None
                self._ok = True
                self._value = stop.value
                self.env._post(self)
                break
            except BaseException as exc:
                self._target = None
                self._ok = False
                self._value = exc
                self.env._post(self)
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
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: continue synchronously.
            ok, payload = next_event._ok, next_event._value
            if not ok:
                next_event._defused = True

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"


class Condition(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        fired = None
        remaining = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition spans multiple environments")
            if event.callbacks is None:
                if fired is None:
                    fired = [event]
                else:
                    fired.append(event)
            else:
                remaining += 1
        self._remaining = remaining
        # Subscribe after validation so a foreign event cannot leave a
        # partially subscribed condition behind.
        callback = self._child_fired
        for event in self._events:
            if event.callbacks is not None:
                event.callbacks.append(callback)
        if fired is not None:
            for event in fired:
                self._child_fired(event, immediate=True)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* children count as fired: a Timeout carries its
        # value from construction, so checking ``_value`` would wrongly
        # include timeouts that have not elapsed yet.  Called exactly
        # once per condition, at success — child firings only bump the
        # O(1) ``_remaining`` counter, so an AllOf/AnyOf over N events
        # does O(N) total bookkeeping, not O(N^2).
        return {e: e._value for e in self._events if e.processed}

    def _child_fired(self, event: Event, immediate: bool = False) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when *all* child events have fired; value maps event -> value."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events)
        if self._value is PENDING and self._remaining == 0:
            self.succeed(self._collect())

    def _child_fired(self, event: Event, immediate: bool = False) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        if not immediate:
            self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires when *any* child event fires; value maps fired events -> values."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, events)
        # An empty AnyOf fires immediately (any-of-nothing is vacuous);
        # non-empty already-fired children were handled by _child_fired.
        if self._value is PENDING and not self._events:
            self.succeed({})

    def _child_fired(self, event: Event, immediate: bool = False) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """Owns the event queue and simulated time.

    Time is a float in **seconds**.  Ties are broken by insertion order,
    which makes runs fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
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
        #: (the default) keeps step() at a single falsy check.
        self._step_listeners: Optional[list[Callable[[float, Event], None]]] = None
        #: Fluid lanes registered for epoch stepping (repro.sim.fluid);
        #: ``None`` (the default) keeps run_epoch() pay-for-use.
        self._lanes: Optional[list[Any]] = None

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _ranked_key(self) -> tuple[float, int]:
        """Sanitizer tiebreak key for the event just numbered ``_eid``."""
        return (float(self._tiebreak.random()), self._eid)

    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event`` for processing ``delay`` seconds from now."""
        self._post_at(event, self._now + delay)

    def _post_at(self, event: Event, time: float) -> None:
        """Schedule ``event`` at the *absolute* time ``time``.

        Kernel-internal: used by analytic model paths that compute
        fire times in closed form and must hit the exact float the
        reference event chain would have produced (``now + delay`` is not
        bit-identical to a precomputed absolute time under IEEE 754).
        """
        self._eid += 1
        key = self._eid if self._tiebreak is None else self._ranked_key()
        heapq.heappush(self._queue, (time, key, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def add_step_listener(self, listener: Callable[[float, Event], None]) -> None:
        """Register an observability hook run after every processed event.

        Listeners must be purely observational: they see ``(now, event)``
        and must not create, trigger, or cancel simulation events, so a
        monitored run stays bit-identical to an unmonitored one.
        """
        if self._step_listeners is None:
            self._step_listeners = []
        self._step_listeners.append(listener)

    def step(self) -> None:
        """Process exactly one event: the minimum by (time, key)."""
        try:
            self._now, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("step() on an empty event queue") from None
        # Inlined Event._resolve — this is the hottest loop in the repo.
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on must not pass silently.
            raise event._value
        if self._step_listeners is not None:
            for listener in self._step_listeners:
                listener(self._now, event)

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
        t0 = self._now
        self.run(until=float(until))
        if self._lanes is not None:
            for lane in self._lanes:
                lane.epoch_end(t0, self._now)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run until simulated time reaches it), or an :class:`Event` (run
        until that event is processed, returning its value).
        """
        step = self.step
        if until is None:
            while self._queue:
                step()
            return None

        if isinstance(until, Event):
            stop = until
            # `stop.callbacks is None` is `stop.processed` without the
            # property descriptor — this loop brackets every driver run.
            while stop.callbacks is not None and self._queue:
                step()
            if not stop.triggered:
                raise DeadlockError(
                    "run(until=event): event queue drained before the "
                    "target event fired (deadlock?)"
                )
            if not stop._ok:
                stop._defused = True
                raise stop._value
            return stop._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon!r} is in the past (now={self._now!r})")
        while self.peek() <= horizon:
            step()
        self._now = horizon
        return None
