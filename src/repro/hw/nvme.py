"""NVMe device model.

The controller is reduced to the three features the paper's evaluation
exercises:

* a serialized **command processor** — fixed cost per command, which
  caps IOPS and is what chunk-level batching amortizes;
* a shared **data pipe** — the device's read bandwidth;
* a constant **media latency** per command, paid concurrently by
  outstanding commands (the device's internal parallelism).

A command's solo latency is ``cmd_overhead + read_latency +
nbytes/bandwidth``; sustained small-command throughput approaches
``1/cmd_overhead``; sustained large-command throughput approaches
``bandwidth``.  Those are the published envelope numbers for the
paper's Intel Optane device.

Every command is timed in closed form at submit: both serialized stages
are FIFO, so each is one "next free" instant, and timed calls
(``Environment.call_at``), one per completion instant, deliver the
completions.  A fault injector changes only what a READ's timing is
(media error, timeout or hiccup), drawn at submit.

For multi-node experiments the paper emulates NVMe with RAMdisk plus an
injected delay; ``NVMeSpec.emulated_ramdisk()`` mirrors that by keeping
the same envelope and tagging the spec, exactly as the paper intends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from typing import Optional

from ..errors import ConfigError, HardwareError, QueueFullError
from ..obs import NULL_METRICS, NULL_TRACER
from ..sim import Environment, Event, ThroughputMeter
from .platform import GB, NVMeSpec

__all__ = [
    "NVMeCommand",
    "NVMeDevice",
    "READ",
    "WRITE",
    "STATUS_OK",
    "STATUS_MEDIA_ERROR",
    "STATUS_TIMEOUT",
    "STATUS_ABORTED_RESET",
]

READ = "read"
WRITE = "write"

#: Completion statuses shared by NVMe commands and SPDK requests.
STATUS_OK = "ok"
STATUS_MEDIA_ERROR = "media_error"
STATUS_TIMEOUT = "timeout"
STATUS_ABORTED_RESET = "aborted_reset"

#: Logical block size used for address validation.
BLOCK_SIZE = 512


@dataclass(eq=False)
class NVMeCommand:
    """One NVMe I/O command."""

    op: str
    offset: int
    nbytes: int
    #: Fires (with the command as value) when the device completes it.
    completion: Event = field(repr=False)
    #: Opaque tag the submitter can use to route completions.
    tag: Optional[object] = None
    submit_time: float = 0.0
    complete_time: float = 0.0
    #: Completion status (``STATUS_OK`` unless a fault was injected).
    status: str = STATUS_OK
    #: Observability context: causal parent span of this command and the
    #: device-side span opened while servicing it (``None`` = untraced).
    parent_span: Optional[object] = None
    span: Optional[object] = None

    @property
    def latency(self) -> float:
        return self.complete_time - self.submit_time

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class NVMeDevice:
    """One NVMe SSD (real or paper-style RAMdisk emulation)."""

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        spec: Optional[NVMeSpec] = None,
        name: Optional[str] = None,
        capacity: int = 480 * GB,
    ) -> None:
        self.env = env
        self.spec = spec or NVMeSpec.intel_optane_480g()
        self.spec.validate()
        if capacity <= 0:
            raise ConfigError("device capacity must be positive")
        self.name = name or f"nvme{next(self._ids)}"
        self.capacity = capacity
        #: Optional fault injector (see :mod:`repro.faults`): each READ
        #: draws its fault (media error, timeout, hiccup) at submit.
        self.injector = None
        self._outstanding = 0
        self._active_queues = 0
        self.read_meter = ThroughputMeter(env, name=f"{self.name}.read")
        self.write_meter = ThroughputMeter(env, name=f"{self.name}.write")
        #: Observability (null objects until install_observability).
        self.tracer = NULL_TRACER
        self._h_latency = NULL_METRICS.histogram("")
        #: Closed-form service state (see _time): the next instant each
        #: serialized stage (command processor, data pipe) is free, and
        #: each stage's busy-time integral.
        self._proc_free = 0.0
        self._pipe_free = 0.0
        self._proc_busy = 0.0
        self._pipe_busy = 0.0
        self._seq = 0
        #: Commands on their way to the data pipe, (arrival, seq, cmd).
        self._arrivals: list[tuple[float, int, NVMeCommand]] = []
        #: Timed completions, (complete_time, seq, cmd, status).  Not in
        #: submit order: a media error overtakes commands queued at the
        #: pipe, and a hiccup reaches it late.
        self._pending: list[tuple[float, int, NVMeCommand, str]] = []
        #: Fire times of the pending delivery calls (a heap).
        self._timers: list[float] = []

    def install_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` bundle."""
        self.tracer = obs.tracer
        self._h_latency = obs.metrics.histogram("nvme.latency")

    # -- introspection -------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Commands submitted but not yet completed."""
        return self._outstanding

    def bandwidth_utilization(self) -> float:
        """Fraction of the data pipe kept busy since t=0."""
        elapsed = self.env.now
        if elapsed <= 0.0:
            return 0.0
        return self._pipe_busy / elapsed

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to this device."""
        self.injector = injector

    def register_queue(self) -> None:
        """Declare one more active submission queue.

        The controller arbitrates round-robin across queues; each extra
        active queue adds ``spec.queue_arbitration_penalty`` to the
        per-command processing cost (the Fig 7a high-core-count dip).
        """
        self._active_queues += 1

    @property
    def effective_cmd_overhead(self) -> float:
        extra_queues = max(0, self._active_queues - 1)
        return (
            self.spec.cmd_overhead
            + self.spec.queue_arbitration_penalty * extra_queues
        )

    # -- command submission ----------------------------------------------------
    def submit(
        self,
        op: str,
        offset: int,
        nbytes: int,
        tag: Optional[object] = None,
        parent: Optional[object] = None,
    ) -> NVMeCommand:
        """Queue one command; returns it with a live ``completion`` event.

        Raises :class:`QueueFullError` beyond ``spec.max_outstanding`` —
        queue-depth pacing is the submitter's job (the SPDK QPair and the
        kernel block layer both do it).
        """
        if op not in (READ, WRITE):
            raise HardwareError(f"unsupported NVMe opcode: {op!r}")
        if nbytes <= 0:
            raise HardwareError(f"command size must be positive, got {nbytes}")
        if offset < 0 or offset + nbytes > self.capacity:
            raise HardwareError(
                f"command [{offset}, {offset + nbytes}) outside device "
                f"capacity {self.capacity}"
            )
        if offset % BLOCK_SIZE:
            raise HardwareError(
                f"offset {offset} not aligned to {BLOCK_SIZE}-byte blocks"
            )
        if self._outstanding >= self.spec.max_outstanding:
            raise QueueFullError(
                f"{self.name}: {self._outstanding} commands outstanding "
                f"(max {self.spec.max_outstanding})"
            )
        cmd = NVMeCommand(
            op=op,
            offset=offset,
            nbytes=nbytes,
            completion=self.env.event(),
            tag=tag,
            submit_time=self.env.now,
            parent_span=parent,
        )
        if self.tracer.enabled:
            cmd.span = self.tracer.start(
                "nvme.cmd", track=self.name, parent=parent, cat="nvme",
                op=op, nbytes=nbytes,
            )
        self._outstanding += 1
        self._time(cmd)
        return cmd

    def read(
        self,
        offset: int,
        nbytes: int,
        tag: Optional[object] = None,
        parent: Optional[object] = None,
    ) -> NVMeCommand:
        return self.submit(READ, offset, nbytes, tag, parent=parent)

    def write(
        self,
        offset: int,
        nbytes: int,
        tag: Optional[object] = None,
        parent: Optional[object] = None,
    ) -> NVMeCommand:
        return self.submit(WRITE, offset, nbytes, tag, parent=parent)

    # -- service timing ---------------------------------------------------------
    def _time(self, cmd: NVMeCommand) -> None:
        """Time one command in closed form at submit.

        The reference is a per-command process (kept as the oracle
        ``ProcessNVMe`` in ``tests/test_engine_fastpath.py``); this
        reproduces its timing with the *same float operations in the
        same order*, so every completion lands at the bit-identical
        instant:

        1. serialized command processing — FIFO grant of the command
           processor at ``max(now, proc_free)``, released
           ``cmd_overhead`` later;
        2. media latency — paid concurrently, ``read_latency`` after
           processing (plus the fault's extra delay, see below);
        3. serialized data movement — FIFO grant of the data pipe in
           arrival order, ties in submit order (a model key, not event
           insertion order).

        A READ on a device with an injector draws its fault here, at
        submit: a media error completes ``read_latency`` after
        processing and never uses the pipe, a timeout completes
        ``read_latency + extra`` after it, and a hiccup reaches the pipe
        ``extra`` late.  Busy-time integrals get the same per-hold
        summands in the same (release) order the oracle's resources
        would accumulate, so ``bandwidth_utilization()`` is exact at the
        end of a run (it is booked ahead of time, so a mid-flight
        reading runs slightly ahead).
        """
        now = self.env.now
        spec = self.spec
        fault = None
        if self.injector is not None and cmd.op == READ:
            fault = self.injector.nvme_fault(self.name, now)
            if fault is not None and cmd.span is not None:
                cmd.span.event("fault_injected", kind=fault[0])
        proc_start = self._proc_free if self._proc_free > now else now
        proc_done = proc_start + self.effective_cmd_overhead
        self._proc_free = proc_done
        self._proc_busy += proc_done - proc_start
        seq = self._seq
        self._seq = seq + 1
        # Healthy arrival at the pipe, and the admission frontier: no
        # later command can reach the pipe before it.
        ready = proc_done + spec.read_latency
        if fault is None:
            heappush(self._arrivals, (ready, seq, cmd))
        else:
            kind, extra = fault
            if kind == "media_error":
                # The media access fails after its latency; no data moves.
                heappush(self._pending, (ready, seq, cmd, STATUS_MEDIA_ERROR))
            elif kind == "timeout":
                # The command wedges inside the controller before it
                # surfaces — far past any sane client deadline.
                heappush(self._pending, (
                    proc_done + (spec.read_latency + extra), seq, cmd,
                    STATUS_TIMEOUT,
                ))
            else:
                # Hiccup: a latency spike on an otherwise-healthy read.
                heappush(self._arrivals, (
                    (proc_done + extra) + spec.read_latency, seq, cmd,
                ))
        self._advance(ready)

    def _advance(self, frontier: float) -> None:
        """Move pipe arrivals at or before ``frontier`` onto the pipe, then
        time a delivery call for the earliest need no pending call covers.

        A need is a pending completion or an arrival not yet on the
        pipe.  Calls run in time order and each one serves every need
        due by then, so a new call is needed only for a need earlier
        than every pending one (a media error overtaking reads queued at
        the pipe, a healthy read overtaking a hiccup); an earlier call
        is never withdrawn, it serves the next need when it runs.
        """
        arrivals = self._arrivals
        pending = self._pending
        while arrivals and arrivals[0][0] <= frontier:
            arrival, seq, cmd = heappop(arrivals)
            start = self._pipe_free if self._pipe_free > arrival else arrival
            complete = start + self.spec.transfer_time(cmd.nbytes)
            self._pipe_free = complete
            self._pipe_busy += complete - start
            heappush(pending, (complete, seq, cmd, STATUS_OK))
        due = pending[0][0] if pending else inf
        if arrivals and arrivals[0][0] < due:
            due = arrivals[0][0]
        timers = self._timers
        if due < (timers[0] if timers else inf):
            heappush(timers, due)
            self.env.call_at(due, self._on_timer)

    def _on_timer(self) -> None:
        """Complete every command due now, then admit arrivals due now.

        One timed call per completion *instant*: a same-instant burst
        is completed in (time, submit) order under a single call.  An
        arrival admitted now completes a transfer later, so completing
        first changes nothing.
        """
        heappop(self._timers)
        now = self.env.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            _, _, cmd, status = heappop(pending)
            self._complete(cmd, status)
        self._advance(now)

    def _complete(self, cmd: NVMeCommand, status: str) -> None:
        cmd.status = status
        cmd.complete_time = self.env.now
        self._outstanding -= 1
        self._h_latency.observe(cmd.latency)
        if cmd.span is not None:
            cmd.span.finish(status=status)
        if status == STATUS_OK:
            meter = self.read_meter if cmd.op == READ else self.write_meter
            meter.record(nbytes=cmd.nbytes)
        cmd.completion.succeed(cmd)

    def __repr__(self) -> str:
        kind = "emulated" if self.spec.emulated else "real"
        return f"<NVMeDevice {self.name!r} ({kind}, {self.capacity // GB} GB)>"
