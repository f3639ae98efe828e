"""Octopus-style RDMA distributed file system client.

The comparison target of §IV: a general-purpose distributed FS over
RDMA with memory emulating NVMe devices (delay injected on data access,
exactly the paper's methodology).  Reads are synchronous and per-file:

    lookup (RPC to metadata owner)  ->  one-sided RDMA data read
    (+ emulated NVMe delay at the data node)  ->  done.

RDMA lands data directly in the client buffer (no extra copy — the
reason Octopus beats Ext4 on small samples in Fig 8), but there is no
sample batching and every lookup crosses the fabric, which is why DLFS
wins everywhere.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from ..cluster import Cluster
from ..data import Dataset, DatasetLayout
from ..errors import NotMounted
from ..sim import Event, ThroughputMeter
from ..spdk.request import aligned_span
from .metadata import DistributedMetadata, FileMeta, OctopusSpec

__all__ = ["OctopusFS"]


class OctopusFS:
    """One Octopus namespace spanning a cluster (data on every node)."""

    def __init__(self, cluster: Cluster, spec: Optional[OctopusSpec] = None) -> None:
        # Data lives in each node's (persistent) memory; the injected
        # delay in the spec emulates NVMe, so no block devices are
        # required — matching the paper's Octopus configuration.
        self.cluster = cluster
        self.env = cluster.env
        self.metadata = DistributedMetadata(cluster, spec)
        self.spec = self.metadata.spec
        self.dataset: Optional[Dataset] = None
        self.layout: Optional[DatasetLayout] = None
        self.read_meter = ThroughputMeter(cluster.env, name="octopus.reads")

    # -- mount ----------------------------------------------------------------
    def mount(self, dataset: Dataset, interleaved: bool = False) -> DatasetLayout:
        """Distribute ``dataset`` over all nodes and register metadata.

        Untimed (mount cost is not part of any figure); one shard per
        node, data packed on each node's first device.
        """
        layout = DatasetLayout(dataset, num_shards=len(self.cluster),
                               interleaved=interleaved)
        for i in range(dataset.num_samples):
            loc = layout.location(i)
            self.metadata.insert(
                FileMeta(
                    path=dataset.sample_name(i),
                    data_node=loc.shard,
                    offset=loc.offset,
                    length=loc.length,
                )
            )
        self.dataset = dataset
        self.layout = layout
        return layout

    def _require_mounted(self) -> None:
        if self.dataset is None:
            raise NotMounted("OctopusFS.mount() has not been called")

    # -- reads ----------------------------------------------------------------
    def lookup(
        self, client_rank: int, sample_index: int
    ) -> Generator[Event, Any, FileMeta]:
        """Timed metadata lookup of one sample."""
        self._require_mounted()
        path = self.dataset.sample_name(sample_index)
        meta = yield from self.metadata.lookup(client_rank, path)
        return meta

    def read_sample(
        self, client_rank: int, sample_index: int
    ) -> Generator[Event, Any, int]:
        """Synchronous full-sample read from ``client_rank``."""
        meta = yield from self.lookup(client_rank, sample_index)
        yield from self._read_data(client_rank, meta)
        self.read_meter.record(nbytes=meta.length)
        return meta.length

    def _read_data(
        self, client_rank: int, meta: FileMeta
    ) -> Generator[Event, Any, None]:
        """One-sided RDMA data read with the emulated-NVMe delay.

        Octopus keeps data in (persistent) memory; the paper injects a
        delay on each access so the memory behaves like an NVMe device.
        The payload itself streams at fabric speed through the data
        node's NIC — which is where multi-client contention shows up.
        """
        yield self.env.timeout(self.spec.client_overhead)
        data_node = self.cluster.node(meta.data_node)
        yield self.env.timeout(self.spec.emulated_nvme_delay)
        offset, nbytes = aligned_span(meta.offset, meta.length)
        # RDMA the payload back (no fabric cost when the data is local).
        client = self.cluster.node(client_rank).name
        yield from self.cluster.fabric.rdma_read(client, data_node.name, nbytes)

    def read_batch(
        self, client_rank: int, sample_indices: np.ndarray | list[int]
    ) -> Generator[Event, Any, int]:
        """Sequential batch read — Octopus has no batching optimization,
        so a mini-batch is simply one synchronous read after another."""
        total = 0
        for index in sample_indices:
            total += yield from self.read_sample(client_rank, int(index))
        return total

    def __repr__(self) -> str:
        state = "mounted" if self.dataset is not None else "unmounted"
        return f"<OctopusFS over {len(self.cluster)} nodes ({state})>"
