"""Opportunistic chunk-level batching (paper §III-D2).

At mount time the packed shard ranges are divided into fixed-size *data
chunks* (256 KB by default).  Samples fully inside one chunk are
*interior*; samples crossing a chunk boundary are *edge samples* and are
fetched individually.  ``dlfs_sequence`` shuffles a **data-chunk access
list** (chunk id + key of its first complete sample) and an **edge
sample access list**; ``dlfs_bread`` then serves samples by repeatedly
picking a random in-cache chunk (or the edge stream) and delivering its
next valid sample — the discipline of Fig 5(b).

Everything here is pure (no simulation): the same order generator
drives both the simulated reader and the training-accuracy experiment
(Fig 13), so the accuracy result really reflects the I/O path's
ordering.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat, tee
from operator import and_, ge, mul, rshift
from typing import Iterator

import numpy as np

from ..data import DatasetLayout
from ..errors import ConfigError
from ..sim import rng as sim_rng

__all__ = [
    "ChunkPlan",
    "ChunkEpoch",
    "DeliveryPlan",
    "DEFAULT_CHUNK_BYTES",
]

DEFAULT_CHUNK_BYTES = 256 * 1024

#: 32-bit words drawn per numpy call by :func:`_uint32_words`.  The
#: picks do not depend on it; it only trades numpy calls for overdraw.
_WORD_BLOCK = 4096


class ChunkPlan:
    """Static chunking of a mounted layout: chunks, members, edge samples."""

    def __init__(self, layout: DatasetLayout, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if chunk_bytes < 4096 or chunk_bytes % 512:
            raise ConfigError("chunk_bytes must be >= 4096 and 512-aligned")
        self.layout = layout
        self.chunk_bytes = chunk_bytes
        dataset = layout.dataset
        n = dataset.num_samples
        base = layout.base_offset

        # Chunks are numbered globally: shard s contributes
        # ceil(shard_bytes / chunk_bytes) chunks after prefix offsets.
        per_shard = np.array(
            [
                -(-layout.shard_bytes(s) // chunk_bytes)
                for s in range(layout.num_shards)
            ],
            dtype=np.int64,
        )
        self.chunks_per_shard = per_shard
        self._gid_base = np.concatenate(([0], np.cumsum(per_shard)))
        self.num_chunks = int(per_shard.sum())
        self.chunk_shard = np.repeat(
            np.arange(layout.num_shards, dtype=np.int32), per_shard
        )
        self.chunk_local = np.concatenate(
            [np.arange(c, dtype=np.int64) for c in per_shard]
        ) if self.num_chunks else np.empty(0, dtype=np.int64)

        # Classify samples (vectorized).
        rel_start = layout.offsets - base
        rel_end = rel_start + dataset.sizes - 1
        first_chunk = rel_start // chunk_bytes
        last_chunk = rel_end // chunk_bytes
        interior = first_chunk == last_chunk
        gid = self._gid_base[layout.shard_ids] + first_chunk
        self.sample_chunk = np.where(interior, gid, -1).astype(np.int64)
        self.sample_chunk.setflags(write=False)
        self.edge_samples = np.flatnonzero(~interior).astype(np.int64)
        self.edge_samples.setflags(write=False)

        # Interior members per chunk, in on-device (offset) order — for
        # packed layouts index order coincides, but batched-file layouts
        # can permute samples within a file, so sort by offset explicitly.
        interior_idx = np.flatnonzero(interior)
        order = np.lexsort(
            (layout.offsets[interior_idx], self.sample_chunk[interior_idx])
        )
        self._sorted = interior_idx[order]
        self._sorted.setflags(write=False)
        self._starts = np.searchsorted(
            self.sample_chunk[self._sorted], np.arange(self.num_chunks + 1)
        )

    def members(self, gid: int) -> np.ndarray:
        """Chunk ``gid``'s interior samples in on-device order (a view)."""
        return self._sorted[self._starts[gid]:self._starts[gid + 1]]

    def count_members(self, gids: np.ndarray) -> int:
        """Interior samples of the chunks ``gids``, summed."""
        gids = np.asarray(gids, dtype=np.int64)
        return int((self._starts[gids + 1] - self._starts[gids]).sum())

    # -- access-list construction ------------------------------------------------
    def nonempty_chunks(self) -> np.ndarray:
        """Chunk ids with at least one complete (interior) sample — the
        candidates for the data-chunk access list."""
        return np.flatnonzero(np.diff(self._starts)).astype(np.int64)

    def access_list_entries(self, keys: np.ndarray) -> list[tuple[int, int]]:
        """(chunk id, key of first complete sample) pairs (paper Fig 5b)."""
        return [
            (int(g), int(keys[self.members(g)[0]]))
            for g in self.nonempty_chunks()
        ]

    # -- geometry -----------------------------------------------------------------
    def chunk_span(self, gid: int) -> tuple[int, int, int]:
        """-> (shard, device offset, nbytes) of one chunk, clipped to the
        shard's packed extent."""
        if not 0 <= gid < self.num_chunks:
            raise ConfigError(f"chunk id {gid} out of range")
        shard = int(self.chunk_shard[gid])
        local = int(self.chunk_local[gid])
        start, end = self.layout.shard_extent(shard)
        offset = start + local * self.chunk_bytes
        nbytes = min(self.chunk_bytes, end - offset)
        return shard, offset, nbytes

    @property
    def num_edge_samples(self) -> int:
        return len(self.edge_samples)

    def __repr__(self) -> str:
        return (
            f"<ChunkPlan chunks={self.num_chunks} "
            f"edges={self.num_edge_samples} chunk={self.chunk_bytes}B>"
        )


class ChunkEpoch:
    """One epoch's shuffled chunk + edge access lists, split across ranks.

    The same ``seed`` on every rank produces the same lists; rank r
    consumes every ``num_ranks``-th entry, so collectively each chunk
    (and edge sample) is read exactly once per epoch.
    """

    def __init__(self, plan: ChunkPlan, seed: int, num_ranks: int = 1) -> None:
        if num_ranks < 1:
            raise ConfigError("num_ranks must be >= 1")
        self.plan = plan
        self.seed = seed
        self.num_ranks = num_ranks
        rng = sim_rng("dlfs.epoch.chunks", seed)
        self.chunk_list = rng.permutation(plan.nonempty_chunks())
        self.edge_list = rng.permutation(plan.edge_samples.copy())
        self.chunk_list.setflags(write=False)
        self.edge_list.setflags(write=False)

    def rank_chunks(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return self.chunk_list[rank::self.num_ranks]

    def rank_edges(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return self.edge_list[rank::self.num_ranks]

    def rank_sample_count(self, rank: int) -> int:
        """Samples rank r will deliver this epoch."""
        return (self.plan.count_members(self.rank_chunks(rank))
                + len(self.rank_edges(rank)))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ConfigError(f"rank {rank} out of range ({self.num_ranks})")

    def __repr__(self) -> str:
        return (
            f"<ChunkEpoch seed={self.seed} chunks={len(self.chunk_list)} "
            f"edges={len(self.edge_list)} ranks={self.num_ranks}>"
        )


def _uint32_words(rng: np.random.Generator) -> Iterator[int]:
    """``rng``'s ``next_uint32`` stream as one iterator of Python ints,
    drawn ``_WORD_BLOCK`` words per numpy call.

    ``integers(0, 2**32, dtype=uint32)`` returns the generator's 32-bit
    words unchanged.  The last block overdraws ``rng``, so the caller
    must own ``rng`` and draw nothing else from it.
    """
    return chain.from_iterable(iter(
        lambda: rng.integers(0, 1 << 32, size=_WORD_BLOCK, dtype=np.uint32).tolist(),
        None,
    ))


def _uniform_picks(words: Iterator[int], n: int) -> Iterator[int]:
    """Successive ``int(rng.integers(n))`` draws, for ``1 <= n <= 2**32``,
    bit for bit, where ``words`` is ``_uint32_words(rng)``.

    numpy draws ``integers(n)`` by Lemire's multiply-and-reject on the
    ``next_uint32`` stream: ``m = word * n``; while the low 32 bits of
    ``m`` are below ``(2**32 - n) % n``, ``m`` is remade from the next
    word; the draw is ``m >> 32``.  ``n == 1`` draws no word.

    The iterator is built from C-level iterators, so a pick costs no
    Python call, and it is lazy: after each pick it has read ``words``
    exactly through the accepted word.  A new ``_uniform_picks`` on the
    same ``words`` therefore continues numpy's stream for another ``n``.
    """
    if n == 1:
        return repeat(0)
    threshold = ((1 << 32) - n) % n
    products, leftovers = tee(map(mul, words, repeat(n)))
    return compress(
        map(rshift, products, repeat(32)),
        map(ge, map(and_, leftovers, repeat(0xFFFFFFFF)), repeat(threshold)),
    )


class DeliveryPlan:
    """One rank-epoch's DLFS-determined sample order (paper Fig 5b),
    generated as it is read.

    A window of up to ``window`` chunks is "in cache"; each step picks a
    uniformly random active cursor — one per in-window chunk, plus one
    for the edge-sample stream — and delivers that cursor's next sample.
    An exhausted chunk leaves the window and the next chunk from the
    access list enters.

    Each entry is a sample and its *requirement*, the cache key that
    must be resident before the sample is delivered: ``("c", gid)`` for
    a member of chunk ``gid`` (one key object per chunk cursor) or
    ``("e", sample)`` for an edge sample.

    The walk runs only as far as :meth:`take` and :meth:`lookahead` have
    read, and taken entries are dropped.  ``len()`` counts the entries
    not yet taken; before the first pick it is the epoch's length, the
    members of ``chunks`` plus ``edges``.

    Each pick is ``integers(len(cursors))`` of the
    ``dlfs.delivery.window`` generator seeded with ``seed``, computed by
    :func:`_uniform_picks` from blocks of that generator's words, with
    the picks iterator carried from one extension of the walk to the
    next; the order is bit-identical to the one-call-per-pick loop the
    tests keep as the oracle.
    """

    def __init__(
        self,
        plan: ChunkPlan,
        chunks: np.ndarray,
        edges: np.ndarray,
        seed: int,
        window: int = 8,
    ) -> None:
        if window < 1:
            raise ConfigError("window must be >= 1")
        chunks = np.asarray(chunks, dtype=np.int64)
        self._plan = plan
        self._window = window
        self._left = plan.count_members(chunks) + len(edges)
        self._words = _uint32_words(sim_rng("dlfs.delivery.window", seed))
        self._chunk_iter = iter(chunks.tolist())
        # Each cursor: [key, members, position]; the edge stream's key is
        # None (each edge sample is its own requirement).
        self._cursors: list[list] = []
        self._chunk_cursors = 0
        self._n = 0
        self._picks: Iterator[int] = iter(())
        # Walked entries not yet taken.
        self._samples: list[int] = []
        self._keys: list[tuple] = []
        if len(edges):
            self._cursors.append([None, list(map(int, edges)), 0])
        self._refill()

    def __len__(self) -> int:
        return self._left

    def take(self, count: int) -> tuple[np.ndarray, list]:
        """Remove the next ``count`` entries (all that are left, if
        fewer) and return their samples and requirement keys."""
        count = min(count, self._left)
        if count > len(self._samples):
            self._walk(count - len(self._samples))
        samples, keys = self._samples, self._keys
        taken = np.array(samples[:count], dtype=np.int64)
        taken_keys = keys[:count]
        del samples[:count], keys[:count]
        self._left -= count
        return taken, taken_keys

    def lookahead(self, depth: int) -> tuple:
        """The first ``depth`` distinct requirement keys of the entries
        not yet taken (fewer near the epoch's end), in order of first
        occurrence."""
        keys = self._keys
        seen = dict.fromkeys(keys)
        while len(seen) < depth and self._cursors:
            # A window's worth of distinct requirements usually lies
            # within a few window lengths of entries.
            walked = len(keys)
            self._walk(4 * depth)
            seen.update(dict.fromkeys(keys[walked:]))
        return tuple(islice(seen, depth))

    def _refill(self) -> None:
        while self._chunk_cursors < self._window:
            gid = next(self._chunk_iter, None)
            if gid is None:
                return
            # Plain-list members: per-sample indexing in the walk then
            # yields Python ints directly instead of numpy scalars.
            members = self._plan.members(gid).tolist()
            if members:
                self._cursors.append([("c", gid), members, 0])
                self._chunk_cursors += 1

    def _walk(self, count: int) -> None:
        """Append up to ``count`` more entries (fewer if the walk ends)."""
        cursors = self._cursors
        samples, keys = self._samples, self._keys
        n, picks = self._n, self._picks
        for _ in range(count):
            if not cursors:
                break
            if len(cursors) != n:
                n = len(cursors)
                picks = _uniform_picks(self._words, n)
            pick = next(picks)
            cursor = cursors[pick]
            key, members, pos = cursor
            sample = members[pos]
            samples.append(sample)
            keys.append(key or ("e", sample))
            pos += 1
            cursor[2] = pos
            if pos == len(members):
                cursors.pop(pick)
                if key is not None:
                    self._chunk_cursors -= 1
                    self._refill()
        self._n, self._picks = n, picks
