"""The DLFS sample cache (paper §III-C1).

Hugepage-backed staging memory for data arriving from NVMe devices.
The cache is organized in fixed-size chunks (256 KB by default) from the
node's :class:`~repro.hw.memory.HugePagePool`; a *slot* is the set of
chunks backing one fetched span (a sample, an edge sample, or a data
chunk).

Slots move through three states:

* ``FILLING`` — I/O in flight;
* ``RESIDENT`` with references — consumers not yet served;
* ``RESIDENT`` clean (zero refs) — retained for reuse (the V bit in the
  sample directory stays set) until memory pressure evicts it, oldest
  first, at which point the eviction callback clears the V bits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from ..errors import AllocationError, DirectoryError
from ..hw.memory import HugePageChunk, HugePagePool

__all__ = ["SampleCache", "CacheSlot", "FILLING", "RESIDENT"]

FILLING = "filling"
RESIDENT = "resident"


class CacheSlot:
    """One cached span and its hugepage chunks."""

    __slots__ = ("key", "chunks", "nbytes", "state", "refs")

    def __init__(self, key: object, chunks: list[HugePageChunk], nbytes: int) -> None:
        self.key = key
        self.chunks = chunks
        self.nbytes = nbytes
        self.state = FILLING
        self.refs = 0

    def __repr__(self) -> str:
        return (
            f"<CacheSlot {self.key!r} {self.state} refs={self.refs} "
            f"{self.nbytes}B x{len(self.chunks)}>"
        )


class SampleCache:
    """Slot map over a hugepage pool with clean-slot eviction."""

    def __init__(
        self,
        pool: HugePagePool,
        on_evict: Optional[Callable[[object], None]] = None,
        on_free: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.pool = pool
        self.on_evict = on_evict
        # Fires whenever a slot's chunks return to the pool (eviction AND
        # discard) — unlike on_evict, which only marks V-bit invalidation.
        # The tenancy cache partition uncharges quotas here.
        self.on_free = on_free
        self._slots: dict[object, CacheSlot] = {}
        # Clean (evictable) slots in eviction order, oldest first.
        self._clean: OrderedDict[object, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- introspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: object) -> bool:
        return key in self._slots

    @property
    def clean_slots(self) -> int:
        return len(self._clean)

    def slot(self, key: object) -> Optional[CacheSlot]:
        """Raw slot access without hit/miss accounting."""
        return self._slots.get(key)

    # -- lookup ------------------------------------------------------------------
    def lookup(self, key: object) -> Optional[CacheSlot]:
        """Resident-slot lookup (the V-bit fast path); counts hit/miss.

        A ``FILLING`` slot does not count as a hit — the caller must
        attach to the pending fetch instead.
        """
        slot = self._slots.get(key)
        if slot is not None and slot.state == RESIDENT:
            self.hits += 1
            return slot
        self.misses += 1
        return None

    # -- allocation / state ---------------------------------------------------------
    def chunks_needed(self, nbytes: int) -> int:
        return -(-nbytes // self.pool.chunk_size)

    def try_insert(self, key: object, nbytes: int) -> Optional[CacheSlot]:
        """Start a fetch: allocate chunks (evicting clean slots if needed).

        Returns the FILLING slot, or ``None`` if memory cannot be found
        without touching in-use slots (caller retries after completions
        free memory).
        """
        if key in self._slots:
            raise DirectoryError(f"cache slot {key!r} already exists")
        if nbytes <= 0:
            raise AllocationError("cannot cache an empty span")
        need = self.chunks_needed(nbytes)
        if need > self.pool.num_chunks:
            raise AllocationError(
                f"span of {nbytes} B needs {need} chunks; pool has only "
                f"{self.pool.num_chunks}"
            )
        while self.pool.free_chunks < need and self._clean:
            self._evict_one()
        if self.pool.free_chunks < need:
            return None
        chunks = []
        for _ in range(need):
            chunk = self.pool.try_alloc()
            assert chunk is not None  # guaranteed by the free_chunks check
            chunk.owner = key
            chunks.append(chunk)
        slot = CacheSlot(key, chunks, nbytes)
        self._slots[key] = slot
        return slot

    def mark_resident(self, key: object) -> CacheSlot:
        """Fetch completed: data is valid in the slot's chunks."""
        slot = self._require(key)
        if slot.state != FILLING:
            raise DirectoryError(f"slot {key!r} is not filling")
        slot.state = RESIDENT
        if slot.refs == 0:
            self._clean[key] = None
        return slot

    def acquire(self, key: object) -> CacheSlot:
        """Register one consumer (undelivered sample) on a slot."""
        slot = self._require(key)
        slot.refs += 1
        self._clean.pop(key, None)
        return slot

    def release(self, key: object) -> None:
        """Consumer served; slot becomes clean at zero refs."""
        slot = self._require(key)
        if slot.refs <= 0:
            raise DirectoryError(f"release of unreferenced slot {key!r}")
        slot.refs -= 1
        if slot.refs == 0 and slot.state == RESIDENT:
            self._clean[key] = None

    def acquire_many(self, keys: list) -> None:
        """:meth:`acquire` each entry of ``keys`` in turn (repeats
        count), with no call per key."""
        slots, clean = self._slots, self._clean
        for key in keys:
            if key not in slots:
                raise DirectoryError(f"no cache slot {key!r}")
            slots[key].refs += 1
            if key in clean:
                del clean[key]

    def release_many(self, keys: list) -> None:
        """:meth:`release` each entry of ``keys`` in turn, with no call
        per key.  A slot turns clean at its last release in ``keys``,
        so slots join the eviction order as one-at-a-time releases put
        them."""
        slots, clean = self._slots, self._clean
        for key in keys:
            if key not in slots:
                raise DirectoryError(f"no cache slot {key!r}")
            slot = slots[key]
            if slot.refs <= 0:
                raise DirectoryError(f"release of unreferenced slot {key!r}")
            slot.refs -= 1
            if slot.refs == 0 and slot.state == RESIDENT:
                clean[key] = None

    def clean_keys(self) -> tuple:
        """Keys of evictable slots, oldest (next-to-evict) first."""
        return tuple(self._clean)

    def evict(self, key: object) -> None:
        """Targeted eviction of one clean slot (tenant quota reclaim)."""
        slot = self._require(key)
        if slot.refs or slot.state != RESIDENT or key not in self._clean:
            raise DirectoryError(f"slot {key!r} is not clean; cannot evict")
        self._clean.pop(key)
        self.evictions += 1
        self._free_slot(slot)
        if self.on_evict is not None:
            self.on_evict(key)

    def discard(self, key: object) -> None:
        """Forcibly drop a slot (abort path); must be unreferenced."""
        slot = self._require(key)
        if slot.refs:
            raise DirectoryError(f"cannot discard referenced slot {key!r}")
        self._clean.pop(key, None)
        self._free_slot(slot)

    # -- internals ----------------------------------------------------------------
    def _require(self, key: object) -> CacheSlot:
        slot = self._slots.get(key)
        if slot is None:
            raise DirectoryError(f"no cache slot {key!r}")
        return slot

    def _evict_one(self) -> None:
        key, _ = self._clean.popitem(last=False)
        slot = self._slots[key]
        self.evictions += 1
        self._free_slot(slot)
        if self.on_evict is not None:
            self.on_evict(key)

    def _free_slot(self, slot: CacheSlot) -> None:
        del self._slots[slot.key]
        for chunk in slot.chunks:
            self.pool.free(chunk)
        slot.chunks = []
        if self.on_free is not None:
            self.on_free(slot.key)

    def __repr__(self) -> str:
        return (
            f"<SampleCache slots={len(self._slots)} clean={self.clean_slots} "
            f"free_chunks={self.pool.free_chunks}>"
        )
