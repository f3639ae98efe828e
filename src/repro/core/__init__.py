"""DLFS core: the paper's primary contribution.

Sub-modules:

* :mod:`entry` — 128-bit packed sample entries + name hashing;
* :mod:`directory` — partitioned, replicated in-memory sample directory,
  one balanced tree per shard held as sorted key, payload and depth lists;
* :mod:`sequence` — seeded global sample sequences (``dlfs_sequence``);
* :mod:`batching` — chunk plans, access lists, DLFS-determined ordering;
* :mod:`cache` — the hugepage sample cache;
* :mod:`reader` — the prep/post/poll/copy reactor (RPQ + shared CQ);
* :mod:`api` — ``DLFS`` / ``DLFSClient`` public surface.
"""

from .api import DLFS, DLFSClient, DLFSConfig, DLFSFile, MountReport
from .batching import ChunkEpoch, ChunkPlan, DEFAULT_CHUNK_BYTES, delivery_order
from .cache import CacheSlot, SampleCache
from .directory import (
    LocalValidBits,
    LookupResult,
    SampleDirectory,
    ShardTree,
    aggregate_directory,
)
from .entry import (
    hash_sample_name,
    hash_sample_names,
    pack_entries,
    pack_unit1,
    pack_unit2,
    unpack_unit1,
    unpack_unit2,
)
from .reader import CopyPool, LookupJob, Reactor, ReadJob
from .sequence import GlobalSequence

__all__ = [
    "DLFS",
    "DLFSClient",
    "DLFSConfig",
    "DLFSFile",
    "MountReport",
    "ChunkPlan",
    "ChunkEpoch",
    "DEFAULT_CHUNK_BYTES",
    "delivery_order",
    "SampleCache",
    "CacheSlot",
    "SampleDirectory",
    "ShardTree",
    "LocalValidBits",
    "LookupResult",
    "aggregate_directory",
    "GlobalSequence",
    "Reactor",
    "ReadJob",
    "LookupJob",
    "CopyPool",
    "pack_unit1",
    "pack_unit2",
    "unpack_unit1",
    "unpack_unit2",
    "pack_entries",
    "hash_sample_name",
    "hash_sample_names",
]
