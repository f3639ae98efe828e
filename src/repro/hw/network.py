"""RDMA fabric model (FDR InfiniBand, ConnectX-3).

Each node owns a NIC with independent transmit and receive pipes; the
switch is non-blocking, so a transfer contends only at the two endpoint
NICs.  A transfer occupies the source TX pipe and the destination RX
pipe for ``nbytes / bandwidth`` seconds and completes one propagation
latency later — a cut-through model that matches RDMA behaviour at the
microsecond scale the paper cares about.

One-sided primitives move payload without involving remote CPU: a
write is a plain transfer, ``rdma_read`` adds the request's one-way
latency.  ``rpc`` models a two-sided message pair with server-side
processing, which is what Octopus metadata lookups pay.

A transfer runs as a chain of timed calls (:meth:`Fabric.send`), not as
a process: each step runs at the ``(time, key)`` where the process form
resumed, and takes the key its event took, so event counts, sanitizer
ranks and every outcome are those of the process form.  The process
helper :meth:`Fabric.transfer` starts the same chain and resumes on its
propagation event.  The process form is kept as a test oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, Union

from ..errors import ConfigError, ResourceError
from ..obs import NULL_METRICS, NULL_TRACER
from ..sim import Environment, Event, ThroughputMeter
from ..sim.engine import audit_register
from .platform import NetworkSpec

__all__ = ["NIC", "Fabric", "Pipe"]


class Pipe:
    """One NIC direction: a one-slot FIFO whose grants are timed calls.

    :meth:`acquire` hands the pipe to ``then`` (a zero-argument callable)
    at once if it is idle, or when every earlier claimant has released
    it.  A grant is :meth:`Environment.call_at` at the granting instant,
    so it takes the key that a capacity-1 ``Resource``'s grant event
    took, in the same FIFO order.
    """

    __slots__ = ("env", "name", "busy", "_waiters")

    def __init__(self, env: Environment, name: str) -> None:
        self.env = env
        self.name = name
        #: True from a grant to its release (the lifecycle audit reports
        #: a pipe still busy at the end of a run).
        self.busy = False
        self._waiters: Deque[Callable[[], None]] = deque()
        audit_register(self)

    def acquire(self, then: Callable[[], None]) -> None:
        """Claim the pipe; ``then()`` runs at the grant."""
        if self.busy:
            self._waiters.append(then)
        else:
            self.busy = True
            self.env.call_at(self.env.now, then)

    def release(self) -> None:
        """Hand the pipe to the next claimant, or leave it idle."""
        if not self.busy:
            raise ResourceError(f"release of idle pipe {self.name}")
        if self._waiters:
            self.env.call_at(self.env.now, self._waiters.popleft())
        else:
            self.busy = False

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"<Pipe {self.name!r} {state} ({len(self._waiters)} waiting)>"


class NIC:
    """One host adapter: a TX pipe and an RX pipe of equal bandwidth."""

    def __init__(self, env: Environment, spec: NetworkSpec, name: str) -> None:
        self.env = env
        self.spec = spec
        self.name = name
        self.tx = Pipe(env, name=f"{name}.tx")
        self.rx = Pipe(env, name=f"{name}.rx")
        self.tx_meter = ThroughputMeter(env, name=f"{name}.tx")
        self.rx_meter = ThroughputMeter(env, name=f"{name}.rx")

    def __repr__(self) -> str:
        return f"<NIC {self.name!r}>"


class Fabric:
    """A set of NICs joined by a non-blocking switch."""

    def __init__(self, env: Environment, spec: Optional[NetworkSpec] = None) -> None:
        self.env = env
        self.spec = spec or NetworkSpec()
        self.spec.validate()
        self._nics: dict[str, NIC] = {}
        #: Optional fault injector (see :mod:`repro.faults`); ``None``
        #: keeps the healthy fast path with zero overhead.
        self.injector = None
        #: Observability (null objects until install_observability).
        self.tracer = NULL_TRACER
        self._h_latency = NULL_METRICS.histogram("")

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this fabric."""
        self.injector = injector

    def install_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle."""
        self.tracer = obs.tracer
        self._h_latency = obs.metrics.histogram("fabric.latency")

    # -- topology ----------------------------------------------------------
    def attach(self, name: str) -> NIC:
        """Create and register the NIC for host ``name``."""
        if name in self._nics:
            raise ConfigError(f"host {name!r} already attached to fabric")
        nic = NIC(self.env, self.spec, name)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> NIC:
        try:
            return self._nics[name]
        except KeyError:
            raise ConfigError(f"host {name!r} is not attached to fabric") from None

    def __len__(self) -> int:
        return len(self._nics)

    # -- data movement -------------------------------------------------------
    def send(
        self, src: str, dst: str, nbytes: int,
        then: Union[Callable[[], None], Event],
        parent: Optional[object] = None,
    ) -> Optional["_Transfer"]:
        """Move ``nbytes`` from ``src`` to ``dst`` as a callback chain.

        ``then()`` runs once the payload has landed: at once for a local
        (``src == dst``) or empty transfer, which does not touch the
        fabric, since RDMA to self is served from memory, as the paper
        treats node-local NVMe access.  A process caller passes an
        untriggered :class:`Event` instead; it is posted at the landing
        instant, and after resuming on it the caller books the transfer
        with the returned chain's :meth:`_Transfer.finish`.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst or nbytes == 0:
            then()
            return None
        return _Transfer(self, src, dst, nbytes, parent, then)

    def transfer(
        self, src: str, dst: str, nbytes: int, parent: Optional[object] = None
    ) -> Generator[Event, Any, None]:
        """Move ``nbytes`` from ``src`` to ``dst`` (process helper).

        Runs :meth:`send`'s chain and resumes on its propagation event.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst or nbytes == 0:
            return
        landed = Event(self.env)
        xfer = self.send(src, dst, nbytes, landed, parent)
        yield landed
        xfer.finish()

    def rdma_read(
        self, reader: str, target: str, nbytes: int,
        parent: Optional[object] = None,
    ) -> Generator[Event, Any, None]:
        """One-sided read: payload flows ``target -> reader``.

        The doorbell (work-request post) costs CPU at the *reader*; that
        charge is the caller's responsibility (it knows which core posts).
        Here we pay the request's one-way latency plus the data transfer.
        """
        if reader != target:
            # Request message travels to the target first.
            yield self.env.timeout(self.spec.propagation_latency)
        yield from self.transfer(target, reader, nbytes, parent=parent)

    def rpc(
        self,
        client: str,
        server: str,
        request_bytes: int,
        response_bytes: int,
        server_time: float = 0.0,
        server_work: Optional[Callable[[], Generator[Event, Any, Any]]] = None,
    ) -> Generator[Event, Any, Any]:
        """Two-sided request/response exchange (process helper).

        ``server_time`` charges a fixed service delay; ``server_work``
        runs an arbitrary server-side process between the two messages
        (e.g. a metadata lookup on the server's core).  Returns the value
        of ``server_work`` if given.
        """
        yield from self.transfer(client, server, request_bytes)
        result = None
        if server_time > 0:
            yield self.env.timeout(server_time)
        if server_work is not None:
            result = yield from server_work()
        yield from self.transfer(server, client, response_bytes)
        return result


class _Transfer:
    """One fabric transfer as a chain of timed calls.

    The process form waited on, in turn: a retransmit stall (faulted
    links only), the TX grant, the RX grant, the wire time and the
    propagation latency.  Each step here runs where that process
    resumed and takes the key its event took.  Cut-through: both
    endpoint pipes are busy for the wire time.  TX is claimed before
    RX (one order everywhere, and the two pools are disjoint, so no
    deadlock is possible).
    """

    __slots__ = ("fabric", "src_nic", "dst_nic", "nbytes", "t0", "span", "then")

    def __init__(self, fabric: Fabric, src: str, dst: str, nbytes: int,
                 parent: Optional[object], then) -> None:
        """Start the transfer now."""
        env = fabric.env
        self.fabric = fabric
        self.nbytes = nbytes
        self.t0 = env.now
        self.then = then
        span = None
        if fabric.tracer.enabled:
            span = fabric.tracer.start(
                "fabric.transfer", track=f"link:{src}->{dst}", parent=parent,
                cat="fabric", nbytes=nbytes,
            )
        self.span = span
        if fabric.injector is not None:
            # A dropped transfer is re-driven after a detection stall
            # (go-back-N at the reliable-connection layer).
            stall = fabric.injector.link_fault(src, dst, env.now)
        else:
            stall = None
        try:
            self.src_nic = fabric._nics[src]
            self.dst_nic = fabric._nics[dst]
        except KeyError as missing:
            raise ConfigError(
                f"host {missing.args[0]!r} is not attached to fabric"
            ) from None
        if stall is not None:
            if span is not None:
                span.event("retransmit_stall", stall=stall)
            env.call_at(env.now + stall, self._claim_tx)
        else:
            self.src_nic.tx.acquire(self._claim_rx)

    def _claim_tx(self) -> None:
        self.src_nic.tx.acquire(self._claim_rx)

    def _claim_rx(self) -> None:
        self.dst_nic.rx.acquire(self._wire)

    def _wire(self) -> None:
        env = self.fabric.env
        env.call_at(
            env.now + self.fabric.spec.transfer_time(self.nbytes),
            self._wire_end,
        )

    def _wire_end(self) -> None:
        self.src_nic.tx.release()
        self.dst_nic.rx.release()
        env = self.fabric.env
        then = self.then
        if isinstance(then, Event):
            # A process resumes here, on the propagation event itself.
            then._value = None
            env._post_at(then, env.now + self.fabric.spec.propagation_latency)
        else:
            env.call_at(
                env.now + self.fabric.spec.propagation_latency, self.finish
            )

    def finish(self) -> None:
        """Book the landed payload (meters, latency and span) and run a
        callback ``then``; a process caller calls this once it resumed."""
        nbytes = self.nbytes
        self.src_nic.tx_meter.record(nbytes=nbytes)
        self.dst_nic.rx_meter.record(nbytes=nbytes)
        self.fabric._h_latency.observe(self.fabric.env.now - self.t0)
        if self.span is not None:
            self.span.finish()
        if not isinstance(self.then, Event):
            self.then()
