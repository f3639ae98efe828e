"""Octopus distributed metadata service.

Octopus (Lu et al., ATC'17) hash-partitions its namespace across server
nodes; every file lookup is an RPC to the owning node.  The DLFS paper
attributes Octopus's losses to exactly this: "frequent inter-node
communication for sample lookup" (§IV-B1) and a serialized metadata
service that cannot exploit added nodes linearly (Fig 10).  The model
keeps both structural properties: ownership by path hash, and a
capacity-1 metadata processor per server.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..cluster import Cluster
from ..errors import ConfigError, FileNotFound
from ..hw.platform import USEC
from ..sim import Event, Resource

__all__ = ["OctopusSpec", "FileMeta", "DistributedMetadata"]


@dataclass(frozen=True)
class OctopusSpec:
    """Calibration constants for the Octopus client/metadata path."""

    #: Client-library dispatch per operation (request marshalling,
    #: completion handling).
    client_overhead: float = 2.0 * USEC
    #: Server-side metadata service per lookup (hash bucket walk, inode
    #: read from persistent memory, permission check) — serialized per
    #: server.  Octopus metadata involves several dependent PM reads.
    metadata_service_time: float = 38.0 * USEC
    #: Wire size of a lookup request / reply.
    lookup_msg_bytes: int = 64
    #: Extra round trips in the lookup protocol beyond the main RPC
    #: (Octopus resolves directory entry and inode separately).
    extra_round_trips: int = 2
    #: Ablation knob: pretend the metadata were replicated on every
    #: node (DLFS-style), turning each lookup into a local table probe —
    #: isolates how much of Octopus's loss is metadata locality.
    replicated: bool = False
    #: Delay injected on every data access so remote memory behaves like
    #: an NVMe device — the paper's own emulation method (§IV): the
    #: device's media latency, without a flash bandwidth pipe (payload
    #: streams at fabric speed).
    emulated_nvme_delay: float = 10.0 * USEC

    def validate(self) -> None:
        if self.client_overhead < 0 or self.metadata_service_time < 0:
            raise ConfigError("Octopus overheads must be >= 0")
        if self.lookup_msg_bytes < 1:
            raise ConfigError("lookup_msg_bytes must be >= 1")
        if self.extra_round_trips < 0:
            raise ConfigError("extra_round_trips must be >= 0")


@dataclass(frozen=True)
class FileMeta:
    """Resolved location of one file's data."""

    path: str
    data_node: int
    offset: int
    length: int


class DistributedMetadata:
    """Hash-partitioned metadata over all nodes of a cluster."""

    def __init__(self, cluster: Cluster, spec: Optional[OctopusSpec] = None) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.spec = spec or OctopusSpec()
        self.spec.validate()
        self.num_servers = len(cluster)
        self._tables: list[dict[str, FileMeta]] = [
            {} for _ in range(self.num_servers)
        ]
        self._service = [
            Resource(cluster.env, capacity=1, name=f"octopus.md{n}")
            for n in range(self.num_servers)
        ]
        self.remote_lookups = 0
        self.local_lookups = 0

    # -- placement ----------------------------------------------------------
    def owner_of(self, path: str) -> int:
        """Which server owns the metadata of ``path``."""
        return zlib.crc32(path.encode()) % self.num_servers

    def insert(self, meta: FileMeta) -> None:
        """Populate (mount-time; not a timed operation)."""
        self._tables[self.owner_of(meta.path)][meta.path] = meta

    @property
    def num_files(self) -> int:
        return sum(len(t) for t in self._tables)

    # -- timed lookup --------------------------------------------------------
    def lookup(
        self, client_rank: int, path: str
    ) -> Generator[Event, Any, FileMeta]:
        """Resolve ``path`` from ``client_rank`` (process helper).

        Pays the client dispatch, the RPC to the owner (plus the extra
        protocol round trips), and the serialized server-side service.
        """
        spec = self.spec
        owner = self.owner_of(path)
        meta = self._tables[owner].get(path)
        if meta is None:
            raise FileNotFound(path)
        yield self.env.timeout(spec.client_overhead)
        if spec.replicated:
            # Ablation: replicated metadata -> a local hash probe.
            self.local_lookups += 1
            yield self.env.timeout(1e-6)
            return meta
        fabric = self.cluster.fabric
        client = self.cluster.node(client_rank).name
        server = self.cluster.node(owner).name
        if owner == client_rank:
            self.local_lookups += 1
        else:
            self.remote_lookups += 1

        def served() -> Generator[Event, Any, None]:
            yield from self._service[owner].hold(spec.metadata_service_time)

        # Preliminary round trips (directory entry, then inode).
        for _ in range(spec.extra_round_trips):
            yield from fabric.rpc(
                client, server, spec.lookup_msg_bytes, spec.lookup_msg_bytes
            )
        # Main lookup RPC with serialized server-side work.
        yield from fabric.rpc(
            client,
            server,
            spec.lookup_msg_bytes,
            spec.lookup_msg_bytes,
            server_work=served,
        )
        return meta

    def __repr__(self) -> str:
        return (
            f"<DistributedMetadata servers={self.num_servers} "
            f"files={self.num_files}>"
        )
