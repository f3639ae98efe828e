"""Shared-resource primitives for the DES kernel.

Two primitives cover every contention point in the simulated testbed:

:class:`Resource`
    FIFO semaphore with fixed capacity — CPU cores, target reactors,
    transfer credits.
:class:`Store`
    Unbounded FIFO queue of items — reactor inboxes, completion sinks,
    copy-pool task queues.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, Optional

from ..errors import ResourceError
from .engine import PENDING, Environment, Event, audit_register

#: Allocates an event without running ``__init__``: the methods below
#: fill every slot in their own frame.
_new = object.__new__

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable directly as a yielded event.  Once granted, pass it back to
    :meth:`Resource.release`.  Built by :meth:`Resource.request` and
    :meth:`Resource.try_request`; it has no constructor.
    """

    __slots__ = ("resource",)


class Resource:
    """A FIFO semaphore with ``capacity`` identical slots.

    >>> def proc(env, core):
    ...     req = core.request()
    ...     yield req
    ...     yield env.timeout(1.0)      # hold the core for 1 s
    ...     core.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiters: Deque[Request] = deque()
        # Usage accounting for utilization reporting.
        self._busy_integral = 0.0
        self._last_change = env.now
        audit_register(self)

    # -- accounting ----------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._waiters)

    def _account(self) -> None:
        now = self.env.now
        self._busy_integral += len(self._users) * (now - self._last_change)
        self._last_change = now

    def utilization(self) -> float:
        """Time-weighted mean fraction of capacity in use since t=0."""
        self._account()
        elapsed = self.env.now
        if elapsed <= 0.0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    # -- protocol --------------------------------------------------------------
    # The busy accounting (``_account``) and the grant are inlined below:
    # these run for every CPU slice and transfer credit.
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        env = self.env
        req = _new(Request)
        req.env = env
        req.callbacks = []
        req._ok = True
        req._defused = False
        req.resource = self
        users = self._users
        if len(users) < self.capacity and not self._waiters:
            now = env.now
            self._busy_integral += len(users) * (now - self._last_change)
            self._last_change = now
            users.add(req)
            req._value = req
            env._eid += 1
            key = env._eid if env._tiebreak is None else env._ranked_key()
            heapq.heappush(env._queue, (now, key, req))
        else:
            req._value = PENDING
            self._waiters.append(req)
        return req

    def try_request(self) -> Optional[Request]:
        """Claim a slot now if one is free and nobody waits, else ``None``.

        The returned request already holds its slot, with the busy
        accounting :meth:`request` would book, but no event is scheduled:
        the caller goes on without suspending, where ``request()`` plus
        ``yield`` resumes it later in the same instant.  Pass it to
        :meth:`release` as usual.
        """
        users = self._users
        if len(users) >= self.capacity or self._waiters:
            return None
        env = self.env
        req = _new(Request)
        req.env = env
        req.callbacks = None
        req._value = req
        req._ok = True
        req._defused = False
        req.resource = self
        now = env.now
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        users.add(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        users = self._users
        if request not in users:
            raise ResourceError(
                f"release of a request not holding {self.name or 'resource'}"
            )
        now = self.env.now
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        users.discard(request)
        if self._waiters:
            self._dispatch()

    def cancel(self, request: Request) -> None:
        """Withdraw a request that has not been granted yet."""
        if request in self._users:
            raise ResourceError("cannot cancel a granted request; release it")
        try:
            self._waiters.remove(request)
        except ValueError:
            raise ResourceError("request is not waiting") from None

    def _grant(self, req: Request) -> None:
        if req in self._users or req._value is not PENDING:
            # Double-acquire: a request granted twice corrupts the slot
            # accounting (SimSanitizer lifecycle invariant).
            raise ResourceError(
                f"double grant of {req!r} on {self.name or 'resource'}"
            )
        self._account()
        self._users.add(req)
        req.succeed(req)

    def _dispatch(self) -> None:
        while len(self._users) < self.capacity and self._waiters:
            self._grant(self._waiters.popleft())

    # -- convenience ------------------------------------------------------------
    def hold(self, duration: float) -> Generator[Event, Any, None]:
        """Process helper: acquire one slot, keep it ``duration``, release.

        Use as ``yield from resource.hold(t)``.  If the caller is thrown
        into (or closed) at any point, the slot is released or the pending
        claim withdrawn.
        """
        req = self.request()
        try:
            yield req
            yield self.env.timeout(duration)
        finally:
            if req in self._users:
                self.release(req)
            elif not req.triggered:
                self.cancel(req)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} {self.count}/{self.capacity} "
            f"({self.queue_length} waiting)>"
        )


class StoreGet(Event):
    __slots__ = ()


class Store:
    """An unbounded FIFO queue of arbitrary items with a blocking ``get``.

    ``put_nowait`` never blocks: it hands the item to the oldest waiting
    getter, or buffers it.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put_nowait(self, item: Any) -> None:
        """Append ``item``, or hand it straight to the oldest getter.

        A getter waits only while the store is empty, so a waiting
        getter takes this item at once.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item."""
        env = self.env
        event = _new(StoreGet)
        event.env = env
        event.callbacks = []
        event._ok = True
        event._defused = False
        if self._items:
            # Inlined succeed(): a get on a filled inbox fires at once.
            event._value = self._items.popleft()
            env._eid += 1
            key = env._eid if env._tiebreak is None else env._ranked_key()
            heapq.heappush(env._queue, (env.now, key, event))
        else:
            event._value = PENDING
            self._getters.append(event)
        return event

    def __repr__(self) -> str:
        return f"<Store {self.name!r} {len(self._items)} item(s)>"
