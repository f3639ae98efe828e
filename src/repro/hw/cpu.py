"""CPU model: cores as contended resources.

Every software activity in the simulation — syscalls, metadata walks,
memcpys, busy-poll loops — executes *on a core*.  A thread that blocks on
interrupt-driven I/O releases its core (the kernel path); a thread that
busy-polls keeps the core for the whole wait (the SPDK path).  That
difference is exactly what the paper's CPU-utilization experiment
(Fig 7) measures.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import ConfigError
from ..sim import Environment, Event, Request, Resource
from .platform import CPUSpec

__all__ = ["Core", "CPU", "BoundThread"]


class Core(Resource):
    """One physical core.  Capacity-1 FIFO resource with busy accounting."""

    def __init__(self, env: Environment, index: int, spec: CPUSpec) -> None:
        super().__init__(env, capacity=1, name=f"core{index}")
        self.index = index
        self.spec = spec

    def execute(self, duration: float) -> Generator[Event, Any, None]:
        """Run ``duration`` seconds of computation (acquire/hold/release).

        Use as ``yield from core.execute(t)``.
        """
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        if duration == 0:
            return
        yield from self.hold(duration)

    def memcpy(self, nbytes: int) -> Generator[Event, Any, None]:
        """Copy ``nbytes`` through this core at the spec'd copy bandwidth."""
        yield from self.execute(nbytes / self.spec.memcpy_bandwidth)


class CPU:
    """The set of cores on one node."""

    def __init__(self, env: Environment, spec: CPUSpec, node_name: str = "") -> None:
        spec.validate()
        self.env = env
        self.spec = spec
        self.node_name = node_name
        self.cores = [Core(env, i, spec) for i in range(spec.cores)]

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> Core:
        """Core by index; raises ConfigError when out of range."""
        if not 0 <= index < len(self.cores):
            raise ConfigError(
                f"core index {index} out of range on node "
                f"{self.node_name!r} with {len(self.cores)} cores"
            )
        return self.cores[index]

    def utilization(self) -> float:
        """Mean utilization across all cores."""
        return sum(c.utilization() for c in self.cores) / len(self.cores)

    def busiest(self) -> Core:
        return max(self.cores, key=lambda c: c.utilization())

    def __repr__(self) -> str:
        return f"<CPU {self.node_name!r} {len(self.cores)} cores>"


class BoundThread:
    """A software thread pinned to one core.

    Provides the two occupancy disciplines the paper contrasts:

    * :meth:`run` — compute segments that occupy the core (both stacks).
    * :meth:`pinned` context — acquire the core once and keep it across
      many segments (the SPDK busy-poll reactor).
    * :meth:`block` — release the core while waiting on an event (the
      kernel interrupt-driven path).
    """

    def __init__(self, core: Core, name: str = "") -> None:
        self.core = core
        self.env = core.env
        self.name = name or f"thread@{core.name}"
        self._held: Optional[Request] = None

    # -- pinned discipline (busy polling) -----------------------------------
    def acquire(self) -> Generator[Event, Any, None]:
        """Take the core and keep it until :meth:`release` is called."""
        if self._held is not None:
            raise ConfigError(f"{self.name} already holds its core")
        req = self.core.request()
        yield req
        self._held = req

    def release(self) -> None:
        """Give the core back."""
        if self._held is None:
            raise ConfigError(f"{self.name} does not hold its core")
        self.core.release(self._held)
        self._held = None

    def run(self, duration: float) -> Generator[Event, Any, None]:
        """Compute for ``duration``; transparently pinned-or-not."""
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        if duration == 0:
            return
        if self._held is not None:
            yield self.env.timeout(duration)
        else:
            yield from self.core.execute(duration)

    def delay(self, duration: float) -> Event:
        """One pinned compute segment as a directly yieldable event.

        Equivalent to ``yield from thread.run(duration)`` for a thread
        holding its core, minus one generator frame per segment — the
        reactor charges thousands of doorbell/poll segments per run.
        Callers must skip zero durations themselves (``run`` yields no
        event for them) and must hold the core.
        """
        if duration <= 0:
            raise ValueError(f"delay() needs a positive duration: {duration}")
        if self._held is None:
            raise ConfigError(f"{self.name} does not hold its core")
        return self.env.timeout(duration)

    def memcpy(self, nbytes: int) -> Generator[Event, Any, None]:
        yield from self.run(nbytes / self.core.spec.memcpy_bandwidth)

    # -- blocking discipline (interrupt-driven I/O) --------------------------
    def block(self, event: Event) -> Generator[Event, Any, Any]:
        """Wait for ``event`` with the core released (kernel-style sleep).

        Returns the event's value.  If the thread holds its core, the core
        is released for the duration of the wait and re-acquired after, so
        other threads can run while this one sleeps.
        """
        was_pinned = self._held is not None
        if was_pinned:
            self.release()
        value = yield event
        if was_pinned:
            yield from self.acquire()
        return value
