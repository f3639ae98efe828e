"""Memory models: the SPDK hugepage pool and DRAM buffers.

SPDK mandates that every I/O buffer live on hugepages (§III-C of the
paper).  The pool hands out fixed-size *chunks* (the DLFS sample cache is
built from 256 KB chunks by default); exhaustion makes allocators wait,
which back-pressures the read pipeline exactly like the real system.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import AllocationError, ConfigError
from ..sim import Environment, Event, Store

__all__ = ["HugePageChunk", "HugePagePool", "ChunkLedger", "chunk_quotas"]


def chunk_quotas(num_chunks: int, shares: dict[str, float]) -> dict[str, int]:
    """Absolute chunk quotas for fractional shares, never oversubscribed.

    Each share is floored (minimum 1 chunk so every tenant can make
    progress); because flooring never rounds *up* past a share, quotas
    summing to <= 1.0 of the pool always fit.  Oversubscription — from
    shares summing past 1.0, or from many sub-chunk shares each bumped
    to the 1-chunk minimum — raises :class:`ConfigError` up front
    instead of letting tenants deadlock against a pool that cannot hold
    everyone's minimum.
    """
    if num_chunks < 1:
        raise ConfigError("chunk_quotas needs a pool of at least one chunk")
    quotas: dict[str, int] = {}
    for name in sorted(shares):
        share = shares[name]
        if not 0.0 < share <= 1.0:
            raise ConfigError(
                f"cache share for {name!r} must be in (0, 1], got {share}"
            )
        quotas[name] = max(1, int(num_chunks * share))
    total = sum(quotas.values())
    if total > num_chunks:
        raise ConfigError(
            f"cache shares oversubscribe the pool: {total} chunks needed "
            f"for {len(quotas)} tenants, pool holds {num_chunks}"
        )
    return quotas


class ChunkLedger:
    """Per-owner chunk accounting against optional quotas.

    The multi-tenant cache partition (:mod:`repro.tenancy.partition`)
    charges every tenant's sample-cache slots here; ``quota == 0`` means
    unlimited.  Pure bookkeeping — the ledger never touches the pool, so
    it adds nothing to the single-tenant fast path.
    """

    def __init__(self) -> None:
        self._charged: dict[str, int] = {}
        self._quota: dict[str, int] = {}

    def set_quota(self, owner: str, chunks: int) -> None:
        if chunks < 0:
            raise ConfigError(f"quota for {owner!r} must be >= 0")
        self._quota[owner] = chunks

    def quota(self, owner: str) -> int:
        """Chunk quota for ``owner`` (0 = unlimited)."""
        return self._quota.get(owner, 0)

    def used(self, owner: str) -> int:
        return self._charged.get(owner, 0)

    def charge(self, owner: str, chunks: int) -> None:
        self._charged[owner] = self._charged.get(owner, 0) + chunks

    def uncharge(self, owner: str, chunks: int) -> None:
        held = self._charged.get(owner, 0)
        if chunks > held:
            raise AllocationError(
                f"ledger uncharge of {chunks} chunks exceeds {owner!r}'s {held}"
            )
        self._charged[owner] = held - chunks

    def as_dict(self) -> dict[str, dict[str, int]]:
        owners = sorted({*self._charged, *self._quota})
        return {
            o: {"used": self.used(o), "quota": self.quota(o)} for o in owners
        }

    def __repr__(self) -> str:
        return f"<ChunkLedger owners={len(self._charged)}>"


class HugePageChunk:
    """One pinned, physically contiguous buffer from the hugepage pool.

    A plain ``__slots__`` class rather than a dataclass: a 2 GB pool
    materializes 8192 of these per node at mount time, where dataclass
    ``__init__`` overhead is measurable.
    """

    __slots__ = ("index", "size", "pool", "valid_bytes", "owner")

    def __init__(
        self,
        index: int,
        size: int,
        pool: "HugePagePool",
        valid_bytes: int = 0,
        owner: Optional[object] = None,
    ) -> None:
        self.index = index
        self.size = size
        self.pool = pool
        #: Bytes of valid data currently in the chunk (set by the I/O path).
        self.valid_bytes = valid_bytes
        #: Opaque owner tag for debugging (e.g. which cache slot holds it).
        self.owner = owner

    def __repr__(self) -> str:
        return f"<HugePageChunk #{self.index} {self.valid_bytes}/{self.size}B>"


class HugePagePool:
    """Fixed population of equal-size hugepage chunks.

    ``alloc`` blocks (FIFO) when the pool is empty; ``free`` returns a
    chunk.  ``try_alloc`` is the non-blocking variant used by
    opportunistic paths.
    """

    def __init__(
        self,
        env: Environment,
        total_bytes: int,
        chunk_size: int,
        name: str = "hugepages",
    ) -> None:
        if chunk_size <= 0:
            raise ConfigError("chunk_size must be positive")
        if total_bytes < chunk_size:
            raise ConfigError(
                f"pool of {total_bytes} B cannot hold one {chunk_size} B chunk"
            )
        self.env = env
        self.name = name
        self.chunk_size = chunk_size
        self.num_chunks = total_bytes // chunk_size
        self._free = Store(env, name=f"{name}-free")
        # Chunks are materialized on demand instead of up front: a 2 GB
        # pool is 8192 objects at mount time, of which a workload
        # typically touches under 1%.  Allocation order is that of an
        # eagerly filled FIFO free list — fresh chunks 0..N-1 before any
        # freed one — because _materialize front-pushes fresh chunks in
        # index order until the population is complete.
        #: Next never-materialized chunk index.
        self._fresh = 0
        self._outstanding = 0

    def _materialize(self) -> None:
        """Front-push the next fresh chunk onto the free list."""
        self._free._items.appendleft(
            HugePageChunk(index=self._fresh, size=self.chunk_size, pool=self)
        )
        self._fresh += 1

    # -- introspection -------------------------------------------------------
    @property
    def free_chunks(self) -> int:
        return len(self._free) + (self.num_chunks - self._fresh)

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def total_bytes(self) -> int:
        return self.num_chunks * self.chunk_size

    # -- allocation ----------------------------------------------------------
    def alloc(self) -> Event:
        """Blocking allocation; the event's value is a :class:`HugePageChunk`."""
        self._outstanding += 1
        if self._fresh < self.num_chunks:
            self._materialize()
        return self._free.get()

    def alloc_many(self, count: int) -> Generator[Event, Any, list[HugePageChunk]]:
        """Process helper: allocate ``count`` chunks (may block per chunk)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > self.num_chunks:
            raise AllocationError(
                f"request for {count} chunks exceeds pool of {self.num_chunks}"
            )
        chunks = []
        for _ in range(count):
            chunk = yield self.alloc()
            chunks.append(chunk)
        return chunks

    def try_alloc(self) -> Optional[HugePageChunk]:
        """Non-blocking allocation; ``None`` when the pool is empty."""
        if self._fresh < self.num_chunks:
            self._materialize()
        elif len(self._free) == 0:
            return None
        self._outstanding += 1
        event = self._free.get()
        assert event.triggered
        return event.value

    def free(self, chunk: HugePageChunk) -> None:
        """Return a chunk to the pool."""
        if chunk.pool is not self:
            raise AllocationError(f"{chunk!r} does not belong to pool {self.name!r}")
        if self._outstanding <= 0:
            raise AllocationError(f"double free of {chunk!r}")
        chunk.valid_bytes = 0
        chunk.owner = None
        self._outstanding -= 1
        self._free.put_nowait(chunk)

    def __repr__(self) -> str:
        return (
            f"<HugePagePool {self.name!r} {self.free_chunks}/{self.num_chunks} "
            f"free x {self.chunk_size}B>"
        )
