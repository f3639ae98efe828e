"""SPDK NVMe-over-Fabrics target.

One target exports one NVMe device to remote clients over RDMA
(§II-A: an NVMe-oF Target makes the device "directly accessible to all
connected remote clients through RDMA" with zero-copy, OS-bypass
transfers).  The target's reactor is a busy-polling SPDK thread; its
per-command handling is cheap and far above the device's IOPS ceiling,
so the device — not the target CPU — is the bottleneck, as in the paper.

A command's service is a chain of callbacks (:class:`_Service`) on timed
calls and events; each step runs where the process form
(``serve_read``, kept as a test oracle) resumed and takes the key its
event took.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ConfigError
from ..hw import Fabric, NVMeDevice, STATUS_OK
from ..hw.platform import USEC
from ..obs import NULL_TRACER
from ..sim import Environment, Resource, ThroughputMeter

__all__ = ["NVMeoFTarget"]

#: On-wire size of an NVMe-oF command capsule.
CAPSULE_BYTES = 64
#: Target-side per-command handling (SPDK reactor dequeue + NVMe submit).
TARGET_CMD_OVERHEAD = 0.5 * USEC


class NVMeoFTarget:
    """Exports ``device`` on ``host`` to fabric clients."""

    def __init__(
        self,
        env: Environment,
        host: str,
        device: NVMeDevice,
        fabric: Fabric,
        cmd_overhead: float = TARGET_CMD_OVERHEAD,
    ) -> None:
        if cmd_overhead < 0:
            raise ConfigError("cmd_overhead must be >= 0")
        self.env = env
        self.host = host
        self.device = device
        self.fabric = fabric
        self.cmd_overhead = cmd_overhead
        self.name = f"{device.name}.nvmf"
        #: The target reactor handles one command capsule at a time.
        self._reactor = Resource(env, capacity=1, name=f"{self.name}.reactor")
        self.meter = ThroughputMeter(env, name=f"{self.name}.served")
        #: Optional fault injector (see :mod:`repro.faults`).
        self.injector = None
        #: Observability (null object until install_observability).
        self.tracer = NULL_TRACER
        #: Node-crash state (cluster serving tier): while failed, new
        #: capsules and every in-flight service stop at the next stage
        #: boundary — the client's qpair teardown (generation bump) is
        #: what resolves them, exactly like a real dead host.
        self.failed = False
        #: Optional :class:`repro.cluster.NodeReadCache`; a hit skips
        #: the device read (None = pay-for-use off).
        self.read_cache = None

    def fail(self) -> None:
        """Node crash: stop serving (in-flight work wedges)."""
        self.failed = True

    def restore(self) -> None:
        """Node rejoin: serve again."""
        self.failed = False

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this target."""
        self.injector = injector

    def install_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle."""
        self.tracer = obs.tracer

    def serve(
        self,
        client_host: str,
        offset: int,
        nbytes: int,
        then: Callable[[str], None],
        parent: Optional[object] = None,
    ) -> None:
        """Full remote-read service: capsule in, device read, RDMA data out.

        Starts now, from the client qpair's in-flight command.
        ``then(status)`` runs when the data has landed in the client's
        buffer, or the device reported a failure.  A service that meets
        a failed node stops there and never calls ``then``.
        """
        _Service(self, client_host, offset, nbytes, parent, then).start()

    def reactor_utilization(self) -> float:
        return self._reactor.utilization()

    def __repr__(self) -> str:
        return f"<NVMeoFTarget {self.name!r} on {self.host!r}>"


class _Service:
    """One remote read's service as a chain of callbacks.

    The process form waited on, in turn: a capsule retransmit stall
    (faulted targets only), the capsule's fabric transfer, the NVMe-oF
    added latency, the reactor's grant and its per-command hold, the
    device completion (unless the read cache hits), and the data's
    RDMA write.  A failed node is checked at the same three stage
    boundaries; a service that meets it stops, holding nothing.
    """

    __slots__ = ("target", "client", "offset", "nbytes", "span", "then",
                 "req", "cmd")

    def __init__(self, target: NVMeoFTarget, client: str, offset: int,
                 nbytes: int, parent: Optional[object],
                 then: Callable[[str], None]) -> None:
        self.target = target
        self.client = client
        self.offset = offset
        self.nbytes = nbytes
        self.then = then
        self.req = None
        self.cmd = None
        span = None
        if target.tracer.enabled:
            span = target.tracer.start(
                "nvmf.serve", track=target.name, parent=parent, cat="nvmf",
                client=client, nbytes=nbytes,
            )
        self.span = span

    def _stop(self) -> None:
        """The node is gone: nothing completes, nothing is held."""
        if self.span is not None:
            self.span.event("node_dead")

    def start(self) -> None:
        target = self.target
        if target.failed:
            return self._stop()
        if target.injector is not None:
            # A lost command capsule is retransmitted after a stall.
            env = target.env
            stall = target.injector.nvmf_fault(target.name, env.now)
            if stall is not None:
                if self.span is not None:
                    self.span.event("capsule_retransmit", stall=stall)
                env.call_at(env.now + stall, self._capsule)
                return
        self._capsule()

    def _capsule(self) -> None:
        # Command capsule travels client -> target.
        target = self.target
        target.fabric.send(
            self.client, target.host, CAPSULE_BYTES, self._capsule_landed,
            parent=self.span,
        )

    def _capsule_landed(self) -> None:
        # NVMe-oF protocol adds a few microseconds over raw RDMA.
        target = self.target
        env = target.env
        env.call_at(
            env.now + target.fabric.spec.nvmf_added_latency, self._submit
        )

    def _submit(self) -> None:
        target = self.target
        if target.failed:
            return self._stop()
        # Target reactor picks the capsule up and submits to the device.
        if target.cmd_overhead > 0:
            self.req = req = target._reactor.request()
            req.callbacks.append(self._reactor_granted)
            return
        self._read()

    def _reactor_granted(self, _event) -> None:
        env = self.target.env
        env.call_at(env.now + self.target.cmd_overhead, self._reactor_done)

    def _reactor_done(self) -> None:
        self.target._reactor.release(self.req)
        self._read()

    def _read(self) -> None:
        target = self.target
        cache = target.read_cache
        if cache is not None and cache.lookup(self.offset, self.nbytes):
            # Serving-cache hit: data already in target hugepages.
            if self.span is not None:
                self.span.event("node_cache_hit")
            return self._respond()
        self.cmd = cmd = target.device.read(
            self.offset, self.nbytes, parent=self.span
        )
        completion = cmd.completion
        if completion.callbacks is None:
            self._read_done(completion)
        else:
            completion.callbacks.append(self._read_done)

    def _read_done(self, _event) -> None:
        status = self.cmd.status
        if status != STATUS_OK:
            # No data to return; the error status rides the response
            # capsule back to the client qpair.
            if self.span is not None:
                self.span.finish(status=status)
            return self.then(status)
        if self.target.read_cache is not None:
            self.target.read_cache.insert(self.offset, self.nbytes)
        self._respond()

    def _respond(self) -> None:
        target = self.target
        if target.failed:
            return self._stop()
        # Data is RDMA-written straight into the client's hugepages.
        target.fabric.send(
            target.host, self.client, self.nbytes, self._landed,
            parent=self.span,
        )

    def _landed(self) -> None:
        self.target.meter.record(nbytes=self.nbytes)
        if self.span is not None:
            self.span.finish(status=STATUS_OK)
        self.then(STATUS_OK)
