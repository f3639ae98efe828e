"""Shared-resource primitives for the DES kernel.

Two primitives cover every contention point in the simulated testbed:

:class:`Resource`
    FIFO semaphore with fixed capacity — CPU cores, NIC directions,
    NVMe channel slots.
:class:`Store`
    Unbounded-or-bounded FIFO queue of items — request queues,
    submission/completion queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Iterable, Optional

from ..errors import ResourceError
from .engine import Environment, Event, audit_register

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable directly as a yielded event.  Once granted, pass it back to
    :meth:`Resource.release`.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


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
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self._users) < self.capacity and not self._waiters:
            self._grant(req)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if request not in self._users:
            raise ResourceError(
                f"release of a request not holding {self.name or 'resource'}"
            )
        self._account()
        self._users.discard(request)
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
        if req in self._users or req.triggered:
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


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    __slots__ = ()


class Store:
    """A FIFO queue of arbitrary items with blocking ``get``/``put``.

    ``capacity`` bounds the number of buffered items; ``put`` on a full
    store blocks until a ``get`` makes room.  ``capacity=None`` means
    unbounded (puts always succeed immediately).
    """

    def __init__(
        self,
        env: Environment,
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()
        audit_register(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def preload(self, items: Iterable[Any]) -> None:
        """Seed buffered items without creating accepted-put events.

        Construction-time bulk loading: a pool that pre-populates
        thousands of free buffers with ``put`` floods the t=0 event
        queue with StorePut events nobody waits on.  ``preload``
        side-steps the event machinery entirely, which is only sound
        while nothing is blocked on the store — it refuses otherwise.
        """
        batch = list(items)
        if self._getters or self._putters:
            raise ResourceError(
                f"{self.name or 'store'}: preload with blocked getters/putters"
            )
        if self.capacity is not None and len(self._items) + len(batch) > self.capacity:
            raise ResourceError(
                f"{self.name or 'store'}: preload of {len(batch)} item(s) "
                f"exceeds capacity {self.capacity}"
            )
        self._items.extend(batch)

    def put_nowait(self, item: Any) -> None:
        """Fire-and-forget ``put`` for callers that discard the event.

        ``put`` on a non-full store accepts the item and serves waiting
        getters *synchronously, inside the call* — the StorePut event it
        returns is already resolved state-wise and exists only so the
        caller may yield it.  When the caller throws it away (the SCQ
        datapath puts thousands per run), the event is pure queue load,
        so this skips creating it; timing and wakeup order of every
        other event are unchanged.  When the put would block (bounded
        store full), this falls back to ``put``.
        """
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            self._serve_getters()
        else:
            self.put(item)

    def put(self, item: Any) -> StorePut:
        """Append ``item``; the event fires once the item is accepted."""
        event = StorePut(self.env, item)
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)
        return event

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item."""
        event = StoreGet(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._serve_putters()
        else:
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        while self._getters and self._items:
            self._getters.popleft().succeed(self._items.popleft())
            self._serve_putters()

    def _serve_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            put = self._putters.popleft()
            self._items.append(put.item)
            put.succeed()
            self._serve_getters()

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {self.name!r} {len(self._items)}/{cap}>"
