"""RDMA fabric model (FDR InfiniBand, ConnectX-3).

Each node owns a NIC with independent transmit and receive pipes; the
switch is non-blocking, so a transfer contends only at the two endpoint
NICs.  A transfer occupies the source TX pipe and the destination RX
pipe for ``nbytes / bandwidth`` seconds and completes one propagation
latency later — a cut-through model that matches RDMA behaviour at the
microsecond scale the paper cares about.

The one-sided primitives (``rdma_read`` / ``rdma_write``) move payload
without involving remote CPU; ``rpc`` models a two-sided message pair
with server-side processing, which is what Octopus metadata lookups pay.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..errors import ConfigError
from ..obs import NULL_METRICS, NULL_TRACER
from ..sim import Environment, Event, Resource, ThroughputMeter
from .platform import NetworkSpec

__all__ = ["NIC", "Fabric"]


class NIC:
    """One host adapter: a TX pipe and an RX pipe of equal bandwidth."""

    def __init__(self, env: Environment, spec: NetworkSpec, name: str) -> None:
        self.env = env
        self.spec = spec
        self.name = name
        self.tx = Resource(env, capacity=1, name=f"{name}.tx")
        self.rx = Resource(env, capacity=1, name=f"{name}.rx")
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
    def transfer(
        self, src: str, dst: str, nbytes: int, parent: Optional[object] = None
    ) -> Generator[Event, Any, None]:
        """Move ``nbytes`` from ``src`` to ``dst`` (process helper).

        Local transfers (``src == dst``) do not touch the fabric: RDMA to
        self is served from memory, consistent with how the paper treats
        node-local NVMe access.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst or nbytes == 0:
            return
        t0 = self.env.now
        span = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "fabric.transfer", track=f"link:{src}->{dst}", parent=parent,
                cat="fabric", nbytes=nbytes,
            )
        if self.injector is not None:
            # A dropped transfer is re-driven after a detection stall
            # (go-back-N at the reliable-connection layer).
            stall = self.injector.link_fault(src, dst, self.env.now)
            if stall is not None:
                if span is not None:
                    span.event("retransmit_stall", stall=stall)
                yield self.env.timeout(stall)
        src_nic, dst_nic = self.nic(src), self.nic(dst)
        wire_time = self.spec.transfer_time(nbytes)
        # Cut-through: both endpoint pipes are busy for the wire time.
        # Acquire TX first, then RX (uniform order; the two pools are
        # disjoint so no deadlock is possible).
        tx_req = src_nic.tx.request()
        yield tx_req
        rx_req = dst_nic.rx.request()
        yield rx_req
        try:
            yield self.env.timeout(wire_time)
        finally:
            src_nic.tx.release(tx_req)
            dst_nic.rx.release(rx_req)
        yield self.env.timeout(self.spec.propagation_latency)
        src_nic.tx_meter.record(nbytes=nbytes)
        dst_nic.rx_meter.record(nbytes=nbytes)
        self._h_latency.observe(self.env.now - t0)
        if span is not None:
            span.finish()

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

    def rdma_write(
        self, writer: str, target: str, nbytes: int,
        parent: Optional[object] = None,
    ) -> Generator[Event, Any, None]:
        """One-sided write: payload flows ``writer -> target``."""
        yield from self.transfer(writer, target, nbytes, parent=parent)

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
