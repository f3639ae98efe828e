"""In-memory tree-based sample directory (paper §III-B).

The directory is an array of balanced search trees, one per storage
shard, keyed by the 48-bit hash of each sample's name.  Entries are the
real 128-bit packed records of :mod:`repro.core.entry`, held in two
uint64 numpy columns; tree payloads are ``(sample_index, check)`` pairs
so key collisions resolve by the 16-bit check hash.

A shard's tree is only ever bulk-built from its sorted keys and then
searched, so :class:`ShardTree` holds it implicitly: the sorted keys,
their payloads, and each key's depth in the tree whose every subtree is
rooted at its middle key.  A search is a bisection plus one depth read,
and costs the same node visits as a descent of that tree.

Construction mirrors the paper: every node builds the tree for *its*
shard from its uploaded samples (:meth:`build_shard`), then one
allgather replicates all trees everywhere
(:func:`aggregate_directory`).  In the simulation the replicas share
one Python object — the replicas are bit-identical by construction —
except for the **V bit**, which tracks presence in each node's *local*
sample cache and therefore lives in a per-client
:class:`LocalValidBits` overlay rather than in the shared entry words.

Memory check (paper §III-B2): 16 bytes/entry -> 0.8 GB for 50 M
samples; :meth:`SampleDirectory.entry_bytes` reports exactly that.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Generator, Optional

import numpy as np

from ..cluster import Communicator
from ..data import Dataset, DatasetLayout
from ..errors import DirectoryError, FileNotFound
from ..sim import Event
from .entry import hash_sample_name, len_of, nid_of, offset_of, pack_entries

__all__ = [
    "SampleDirectory",
    "ShardTree",
    "LocalValidBits",
    "LookupResult",
    "aggregate_directory",
]

#: Wire size of one directory entry (two 64-bit units).
ENTRY_BYTES = 16


def _midpoint_depths(n: int) -> np.ndarray:
    """Depth (root = 1) of each of ``n`` sorted positions in the tree
    whose subtree over positions ``[lo, hi)`` is rooted at
    ``(lo + hi) // 2``; computed one tree level per numpy pass."""
    depths = np.zeros(n, dtype=np.int64)
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    level = 0
    while (live := lo < hi).any():
        lo, hi = lo[live], hi[live]
        level += 1
        mid = (lo + hi) // 2
        depths[mid] = level
        lo, hi = np.concatenate((lo, mid + 1)), np.concatenate((mid, hi))
    return depths


class ShardTree:
    """One shard's balanced search tree, held as sorted lists.

    The tree is the perfectly balanced one a bulk build from sorted keys
    gives: the subtree over sorted distinct keys ``[lo, hi)`` is rooted
    at ``(lo + hi) // 2``.  Nothing inserts into or rebalances a built
    tree, so no node objects are kept: only the distinct keys in order,
    each key's payloads — positions in the aligned ``ids`` and
    ``checks`` lists (equal keys chain, in input order) — and each key's
    depth, the nodes a descent to it visits.
    """

    __slots__ = ("keys", "depths", "ids", "checks", "_starts")

    def __init__(self, keys: np.ndarray, ids: np.ndarray, checks: np.ndarray) -> None:
        """Build from aligned columns in any order; ``ids[i]`` and
        ``checks[i]`` form the payload of ``keys[i]``."""
        order = np.argsort(keys, kind="stable")
        distinct, starts = np.unique(keys[order], return_index=True)
        self.keys: list[int] = distinct.tolist()
        self.depths: list[int] = _midpoint_depths(len(distinct)).tolist()
        self._starts: list[int] = starts.tolist() + [len(order)]
        self.ids: list[int] = ids[order].tolist()
        self.checks: list[int] = checks[order].tolist()

    def __len__(self) -> int:
        """Payload count (>= the number of distinct keys)."""
        return len(self.ids)

    @property
    def height(self) -> int:
        return max(self.depths, default=0)

    def search(self, key: int) -> tuple[range, int]:
        """-> (positions of the key's payloads in ``ids``/``checks``,
        empty on a miss; nodes visited by the descent).

        A miss ends below whichever of its in-order neighbours is the
        other's descendant, that is, the deeper of the two.
        """
        keys, depths = self.keys, self.depths
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return range(self._starts[i], self._starts[i + 1]), depths[i]
        return range(0), max(depths[max(i - 1, 0):i + 1], default=0)


class LookupResult:
    """Resolved sample: identity, location, and the lookup's tree cost."""

    __slots__ = ("sample_index", "shard", "offset", "length", "visits")

    def __init__(self, sample_index: int, shard: int, offset: int,
                 length: int, visits: int) -> None:
        self.sample_index = sample_index
        self.shard = shard
        self.offset = offset
        self.length = length
        self.visits = visits

    def __repr__(self) -> str:
        return (
            f"<LookupResult sample={self.sample_index} shard={self.shard} "
            f"[{self.offset}, {self.offset + self.length})>"
        )


class SampleDirectory:
    """The replicated sample directory for one mounted dataset."""

    def __init__(self, dataset: Dataset, layout: DatasetLayout) -> None:
        if layout.dataset is not dataset:
            raise DirectoryError("layout was built for a different dataset")
        self.dataset = dataset
        self.layout = layout
        self.num_shards = layout.num_shards
        n = dataset.num_samples
        keys, checks = dataset.hash_all_names()
        self.keys = keys
        self.checks = checks
        self.unit1, self.unit2 = pack_entries(
            nids=layout.shard_ids.astype(np.uint64),
            keys=keys,
            offsets=layout.offsets.astype(np.uint64),
            lengths=dataset.sizes.astype(np.uint64),
        )
        self._trees: list[Optional[ShardTree]] = [None] * self.num_shards
        self._built_shards: set[int] = set()
        # Batched-file entries (§III-B1: "there is also an entry taken by
        # the batched file for file-oriented access"):
        # name -> (shard, offset, length, key, check).
        self._file_entries: dict[str, tuple[int, int, int, int, int]] = {}

    # -- construction ------------------------------------------------------------
    def build_shard(self, shard: int) -> ShardTree:
        """Build the tree for one shard (each node does its own) over its
        samples and the whole-file entries registered on it."""
        if not 0 <= shard < self.num_shards:
            raise DirectoryError(f"shard {shard} out of range")
        ids = self.layout.shard_samples(shard)
        keys, checks = self.keys[ids], self.checks[ids]
        files = [
            (-(n + 1), key, check)  # negative id: not a sample
            for n, (s, _off, _len, key, check) in enumerate(self._file_entries.values())
            if s == shard
        ]
        if files:
            file_ids, file_keys, file_checks = np.array(files, dtype=np.int64).T
            ids = np.concatenate((ids, file_ids))
            keys = np.concatenate((keys, file_keys.astype(np.uint64)))
            checks = np.concatenate((checks, file_checks.astype(np.uint64)))
        tree = ShardTree(keys, ids, checks)
        self._trees[shard] = tree
        self._built_shards.add(shard)
        return tree

    def build_all_shards(self) -> None:
        for shard in range(self.num_shards):
            if shard not in self._built_shards:
                self.build_shard(shard)

    @property
    def is_complete(self) -> bool:
        """True once every shard's tree is present (post-allgather state)."""
        return len(self._built_shards) == self.num_shards

    def tree(self, shard: int) -> ShardTree:
        t = self._trees[shard]
        if t is None:
            raise DirectoryError(f"shard {shard} tree not built/aggregated yet")
        return t

    # -- size accounting --------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self.dataset.num_samples

    @property
    def entry_bytes(self) -> int:
        """In-memory size of the packed entries (16 B per sample)."""
        return self.num_entries * ENTRY_BYTES

    def shard_entry_bytes(self, shard: int) -> int:
        return len(self.layout.shard_samples(shard)) * ENTRY_BYTES

    # -- lookups ---------------------------------------------------------------
    def lookup_index(self, sample_index: int) -> LookupResult:
        """Directory lookup by sample index (the common fast path).

        Resolves through the owning shard's tree so the returned
        ``visits`` reflects the true descent cost.
        """
        if not 0 <= sample_index < self.dataset.num_samples:
            raise FileNotFound(f"sample index {sample_index}")
        unit1 = int(self.unit1[sample_index])
        shard = nid_of(unit1)
        key = int(self.keys[sample_index])
        tree = self.tree(shard)
        found, visits = tree.search(key)
        for j in found:
            if tree.ids[j] == sample_index:
                unit2 = int(self.unit2[sample_index])
                return LookupResult(
                    sample_index, shard, offset_of(unit2), len_of(unit2), visits
                )
        raise DirectoryError(
            f"directory corrupt: sample {sample_index} missing from its tree"
        )

    def register_file_entry(
        self, name: str, shard: int, offset: int, length: int
    ) -> None:
        """Add a whole-file entry alongside the sample entries.

        The batched file becomes addressable by name for file-oriented
        access while every contained sample keeps its own entry.  The
        entry joins its shard's tree when the shard is built, so it must
        be registered before that.
        """
        if name in self._file_entries:
            raise DirectoryError(f"file entry {name!r} already registered")
        if not 0 <= shard < self.num_shards:
            raise DirectoryError(f"shard {shard} out of range")
        if shard in self._built_shards:
            raise DirectoryError(
                f"shard {shard} is already built; register {name!r} before it"
            )
        key, check = hash_sample_name(name)
        self._file_entries[name] = (shard, offset, length, key, check)

    @property
    def num_file_entries(self) -> int:
        return len(self._file_entries)

    def lookup_file(self, name: str) -> LookupResult:
        """Resolve a batched file by name (file-oriented access).

        Walks the owning shard's tree like any lookup, so ``visits``
        carries the real descent cost; ``sample_index`` is -1.
        """
        record = self._file_entries.get(name)
        if record is None:
            raise FileNotFound(name)
        shard, offset, length, key, _check = record
        _found, visits = self.tree(shard).search(key)
        return LookupResult(-1, shard, offset, length, visits)

    def lookup_name(self, name: str) -> LookupResult:
        """Directory lookup by sample name (``dlfs_open`` path).

        The shard is not known a priori, so trees are probed in order —
        matching the paper's partition-by-name scheme where the client
        derives the partition from the hash.  With the canonical naming
        scheme the key determines candidate entries directly.
        """
        key, check = hash_sample_name(name)
        total_visits = 0
        for shard in range(self.num_shards):
            tree = self.tree(shard)
            found, visits = tree.search(key)
            total_visits += visits
            for j in found:
                idx = tree.ids[j]
                if idx < 0:
                    continue  # whole-file entry, not a sample
                if tree.checks[j] == check and self.dataset.sample_name(idx) == name:
                    unit2 = int(self.unit2[idx])
                    return LookupResult(
                        idx, nid_of(int(self.unit1[idx])),
                        offset_of(unit2), len_of(unit2), total_visits,
                    )
        raise FileNotFound(name)

    def __repr__(self) -> str:
        state = "complete" if self.is_complete else f"{len(self._built_shards)} shards"
        return (
            f"<SampleDirectory {self.dataset.name!r} entries={self.num_entries} "
            f"shards={self.num_shards} ({state})>"
        )


class LocalValidBits:
    """Per-client V bits: which samples have a copy in the local cache.

    Semantically these are the V fields of the client's directory
    replica (paper Fig 3b); they live in a bitmap overlay because in the
    simulation the replicas share one entry table.
    """

    def __init__(self, directory: SampleDirectory) -> None:
        self.directory = directory
        self._bits = np.zeros(directory.num_entries, dtype=bool)

    def is_valid(self, sample_index: int) -> bool:
        return bool(self._bits[sample_index])

    def set_valid(self, sample_index: int) -> None:
        self._bits[sample_index] = True

    def set_valid_many(self, sample_indices) -> None:
        self._bits[np.asarray(sample_indices, dtype=np.int64)] = True

    def clear_valid_many(self, sample_indices) -> None:
        self._bits[np.asarray(sample_indices, dtype=np.int64)] = False

    def clear_valid(self, sample_index: int) -> None:
        self._bits[sample_index] = False

    @property
    def valid_count(self) -> int:
        return int(self._bits.sum())


def aggregate_directory(
    comm: Communicator, directory: SampleDirectory
) -> Generator[Event, Any, SampleDirectory]:
    """Collective construction of the replicated directory (§III-B2).

    Each rank builds its own shard tree locally, then one ring allgather
    moves every shard's packed entries (16 B each) to every node.
    Process helper: yields simulated transfer events; returns the
    completed directory.
    """
    if comm.size != directory.num_shards:
        raise DirectoryError(
            f"communicator size {comm.size} != shards {directory.num_shards}"
        )
    for shard in range(directory.num_shards):
        directory.build_shard(shard)
    payload_bytes = [
        directory.shard_entry_bytes(s) for s in range(directory.num_shards)
    ]
    yield from comm.allgather(
        values=list(range(directory.num_shards)), nbytes_each=payload_bytes
    )
    return directory
