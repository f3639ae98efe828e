"""Chunked fabric transfer engine with per-link accounting.

The transform tier never calls :meth:`repro.hw.Fabric.transfer` raw:
every storage→worker and worker→trainer movement goes through a
:class:`TransferEngine`, which

* splits payloads into RDMA-friendly chunks so a multi-megabyte
  span cannot monopolize a NIC pipe for its whole wire time;
* caps the chunks in flight *toward each destination* with a credit
  resource — the model of bounded receive buffers.  When a worker's
  inbox is full the sender blocks holding its tier job slot, which in
  turn stalls new submissions into the fair-queue scheduler: genuine
  end-to-end backpressure, not a dropped byte count;
* attributes bytes, chunk counts, queue (credit) wait, and wire+credit
  latency to every ``(src, dst)`` link, for the obs per-tier panels.

A move's chunk loop is a callback chain (:class:`_Move`) on the
fabric's timed-call transfers: only the calling process's last wait,
the last chunk's propagation event, is an event it resumes on.  The
generator loop it replaces is kept as a test oracle.

The engine is pay-for-use: it is only constructed when the transform
tier is configured, and it creates metrics instruments only on an
enabled registry.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import ConfigError
from ..obs import NULL_METRICS
from ..sim import Event, Resource

__all__ = ["TransferEngine", "fabric_fluid_rate"]


def fabric_fluid_rate(
    bandwidth: float, chunk_bytes: int, propagation_latency: float = 0.0
) -> float:
    """Effective bytes/s of a chunked fabric link, for fluid lane models.

    A saturated chunked link moves one ``chunk_bytes`` payload per
    ``wire + propagation`` period (credits keep the pipe full but each
    chunk still pays the one-way latency), so the steady-state rate is
    slightly below raw ``bandwidth``.  This is the fabric stage the
    hybrid-fidelity engine (:mod:`repro.sim.fluid`) rate-balances
    against NVMe and transform stages.
    """
    if bandwidth <= 0 or chunk_bytes < 1 or propagation_latency < 0:
        raise ConfigError(
            "fabric_fluid_rate needs bandwidth > 0, chunk_bytes >= 1, "
            "propagation_latency >= 0"
        )
    return chunk_bytes / (chunk_bytes / bandwidth + propagation_latency)


class _LinkStats:
    """Byte/latency attribution for one directed fabric link."""

    __slots__ = ("nbytes", "chunks", "transfers", "credit_wait", "busy")

    def __init__(self) -> None:
        self.nbytes = 0
        self.chunks = 0
        self.transfers = 0
        self.credit_wait = 0.0
        self.busy = 0.0


class TransferEngine:
    """Moves spans between tiers in chunked, credit-limited transfers."""

    def __init__(
        self,
        env,
        fabric,
        chunk_bytes: int = 256 * 1024,
        inflight_per_dst: int = 4,
        registry=None,
    ) -> None:
        if chunk_bytes < 1:
            raise ConfigError("chunk_bytes must be >= 1")
        if inflight_per_dst < 1:
            raise ConfigError("inflight_per_dst must be >= 1")
        self.env = env
        self.fabric = fabric
        self.chunk_bytes = chunk_bytes
        self.inflight_per_dst = inflight_per_dst
        self._credits: dict[str, Resource] = {}
        self._links: dict[tuple[str, str], _LinkStats] = {}
        metrics = registry if registry is not None and registry.enabled \
            else NULL_METRICS
        self._c_bytes = metrics.counter("xform.net.bytes")
        self._c_chunks = metrics.counter("xform.net.chunks")
        self._h_latency = metrics.histogram("xform.net.transfer_latency")

    def _credit(self, dst: str) -> Resource:
        credit = self._credits.get(dst)
        if credit is None:
            credit = Resource(
                self.env, capacity=self.inflight_per_dst,
                name=f"xform.rxcredit.{dst}",
            )
            self._credits[dst] = credit
        return credit

    def _stats(self, src: str, dst: str) -> _LinkStats:
        stats = self._links.get((src, dst))
        if stats is None:
            stats = self._links[(src, dst)] = _LinkStats()
        return stats

    # -- data movement --------------------------------------------------------
    def move(
        self, src: str, dst: str, nbytes: int, parent: Optional[object] = None
    ) -> Generator[Any, Any, None]:
        """Process helper: ship ``nbytes`` from ``src`` to ``dst``.

        Chunks go out sequentially, each under one destination credit,
        so a single ``move`` holds at most one credit at a time while
        concurrent senders to the same destination share the cap.
        Zero-byte and loopback moves are free (selectivity-0 stages,
        trainer-local workers) but still counted as a transfer.
        """
        stats = self._stats(src, dst)
        stats.transfers += 1
        if nbytes <= 0 or src == dst:
            return
        move = _Move(self, src, dst, int(nbytes), parent, stats)
        move.next_chunk()
        yield move.landed
        move.finish()

    # -- reporting ------------------------------------------------------------
    def link_rows(self) -> list[dict]:
        """Per-link attribution rows, sorted by (src, dst)."""
        rows = []
        for (src, dst) in sorted(self._links):
            s = self._links[(src, dst)]
            rows.append({
                "src": src,
                "dst": dst,
                "bytes": s.nbytes,
                "chunks": s.chunks,
                "transfers": s.transfers,
                "credit_wait": s.credit_wait,
                "busy": s.busy,
            })
        return rows

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._links.values())

    def __repr__(self) -> str:
        return (
            f"<TransferEngine links={len(self._links)} "
            f"bytes={self.total_bytes}>"
        )


class _Move:
    """One :meth:`TransferEngine.move` as a chain of callbacks.

    Chunks go out in turn, each under one destination credit: a free
    credit is taken on the spot, otherwise the chunk waits for the
    credit's grant event.  Every chunk but the last lands through a
    timed call that releases its credit and starts the next one; the
    last posts :attr:`landed`, which the calling process resumes on
    before :meth:`finish` books the move.
    """

    __slots__ = (
        "engine", "src", "dst", "nbytes", "parent", "stats", "credit",
        "remaining", "chunk", "req", "wait0", "t0", "landed", "xfer",
    )

    def __init__(self, engine: TransferEngine, src: str, dst: str,
                 nbytes: int, parent, stats: _LinkStats) -> None:
        self.engine = engine
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.parent = parent
        self.stats = stats
        self.credit = engine._credit(dst)
        self.remaining = nbytes
        self.chunk = 0
        self.req = None
        self.wait0 = 0.0
        self.t0 = engine.env.now
        self.landed = Event(engine.env)
        self.xfer = None

    def next_chunk(self) -> None:
        self.chunk = min(self.remaining, self.engine.chunk_bytes)
        req = self.credit.try_request()
        if req is None:
            # Out of credits: the chunk waits for the grant event, and
            # this chain owns the claim from here on.
            req = self.credit.request()
            self.req = req
            self.wait0 = self.engine.env.now
            req.callbacks.append(self._granted)
            return
        self._send(req)

    def _granted(self, req) -> None:
        self.stats.credit_wait += self.engine.env.now - self.wait0
        self._send(req)

    def _send(self, req) -> None:
        self.req = req
        last = self.chunk == self.remaining
        self.xfer = self.engine.fabric.send(
            self.src, self.dst, self.chunk,
            self.landed if last else self._landed, parent=self.parent,
        )

    def _chunk_done(self) -> None:
        self.credit.release(self.req)
        self.stats.chunks += 1
        self.engine._c_chunks.incr()
        self.remaining -= self.chunk

    def _landed(self) -> None:
        self._chunk_done()
        self.next_chunk()

    def finish(self) -> None:
        """Book the last chunk and the whole move (in the process)."""
        self.xfer.finish()
        self._chunk_done()
        engine = self.engine
        elapsed = engine.env.now - self.t0
        stats = self.stats
        stats.nbytes += self.nbytes
        stats.busy += elapsed
        engine._c_bytes.incr(self.nbytes)
        engine._h_latency.observe(elapsed)
