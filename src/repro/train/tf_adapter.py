"""TensorFlow-style dataset ingest adapters (Fig 12 harness).

The paper integrates each file system under TensorFlow through a
customized input op (§IV-E).  These adapters model that integration: a
framework thread drives per-batch ingest, paying a per-batch dispatch
cost and a per-sample tensor-conversion cost on top of whatever the
underlying file system charges.  One adapter per system:

* :class:`DLFSTFAdapter` — wraps a :class:`~repro.core.DLFSClient`
  (``dlfs_sequence`` / ``dlfs_bread`` underneath);
* :class:`Ext4TFAdapter` — open/read/close per sample against the
  kernel FS;
* :class:`OctopusTFAdapter` — per-sample distributed reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from ..core import DLFSClient, GlobalSequence
from ..errors import ConfigError
from ..hw.cpu import BoundThread
from ..hw.platform import USEC
from ..kernelfs import Ext4FileSystem
from ..octopus import OctopusFS
from ..sim import Event, ThroughputMeter

__all__ = [
    "TFIngestSpec",
    "DLFSTFAdapter",
    "Ext4TFAdapter",
    "OctopusTFAdapter",
]


@dataclass(frozen=True)
class TFIngestSpec:
    """Framework-side ingest costs (identical across file systems)."""

    #: Tensor conversion + Python/C++ boundary per sample.
    per_sample_overhead: float = 0.8 * USEC
    #: Iterator dispatch per get_next() batch.
    per_batch_overhead: float = 15.0 * USEC

    def validate(self) -> None:
        if self.per_sample_overhead < 0 or self.per_batch_overhead < 0:
            raise ConfigError("TF ingest overheads must be >= 0")


class _AdapterBase:
    """Shared epoch bookkeeping + framework cost charging."""

    def __init__(self, thread: BoundThread, spec: Optional[TFIngestSpec]) -> None:
        self.thread = thread
        self.spec = spec or TFIngestSpec()
        self.spec.validate()
        self.meter = ThroughputMeter(thread.env, name="tf.ingest")

    def _charge(self, batch_size: int) -> Generator[Event, Any, None]:
        yield from self.thread.run(
            self.spec.per_batch_overhead
            + batch_size * self.spec.per_sample_overhead
        )

    def ingest_rate(self) -> float:
        """Samples ingested per simulated second."""
        return self.meter.rate()


class DLFSTFAdapter(_AdapterBase):
    """tf.data over DLFS: get_next() maps to ``dlfs_bread``."""

    def __init__(
        self,
        client: DLFSClient,
        thread: BoundThread,
        spec: Optional[TFIngestSpec] = None,
    ) -> None:
        super().__init__(thread, spec)
        self.client = client
        self._seed = 0
        self._epoch = 0

    def start_epoch(self, seed: int) -> None:
        self._seed = seed
        self._epoch = 0
        self.client.sequence(seed)

    def next_batch(self, batch_size: int) -> Generator[Event, Any, np.ndarray]:
        parts = []
        need = batch_size
        while need > 0:
            if self.client.epoch_remaining == 0:
                # Roll into the next epoch, as a training loop would.
                self._epoch += 1
                self.client.sequence(self._seed + self._epoch)
            take = min(need, self.client.epoch_remaining)
            parts.append((yield from self.client.bread(take)))
            need -= take
        samples = parts[0] if len(parts) == 1 else np.concatenate(parts)
        yield from self._charge(len(samples))
        sizes = self.client.fs.dataset.sizes[samples]
        self.meter.record(nbytes=int(sizes.sum()), count=len(samples))
        return samples


class _PerSampleAdapter(_AdapterBase):
    """tf.data over a file system ``fs`` read one sample at a time, in
    this rank's share of the global sequence; subclasses supply the
    dataset size and the read."""

    def __init__(
        self,
        fs: Ext4FileSystem | OctopusFS,
        thread: BoundThread,
        rank: int = 0,
        num_ranks: int = 1,
        spec: Optional[TFIngestSpec] = None,
    ) -> None:
        super().__init__(thread, spec)
        self.fs = fs
        self.rank = rank
        self.num_ranks = num_ranks
        self._order: Optional[np.ndarray] = None
        self._pos = 0

    def _num_samples(self) -> int:
        raise NotImplementedError

    def _read(self, idx: int) -> Generator[Event, Any, int]:
        """Read sample ``idx``; return its bytes."""
        raise NotImplementedError

    def start_epoch(self, seed: int) -> None:
        self._seed = seed
        self._epoch = 0
        self._arm()

    def _arm(self) -> None:
        seq = GlobalSequence(
            self._num_samples(), self._seed + self._epoch,
            num_ranks=self.num_ranks, batch_per_rank=32,
        )
        self._order = seq.epoch_order_for_rank(self.rank)
        self._pos = 0

    def next_batch(self, batch_size: int) -> Generator[Event, Any, np.ndarray]:
        if self._order is None:
            raise ConfigError("call start_epoch() first")
        if self._pos >= len(self._order):
            self._epoch += 1
            self._arm()
        end = min(self._pos + batch_size, len(self._order))
        batch = self._order[self._pos:end]
        self._pos = end
        total = 0
        for idx in batch:
            total += yield from self._read(int(idx))
        yield from self._charge(len(batch))
        self.meter.record(nbytes=total, count=len(batch))
        return batch


class Ext4TFAdapter(_PerSampleAdapter):
    """tf.data over the kernel FS: one open/read/close per sample."""

    def __init__(
        self,
        fs: Ext4FileSystem,
        dataset,
        thread: BoundThread,
        rank: int = 0,
        num_ranks: int = 1,
        spec: Optional[TFIngestSpec] = None,
        file_layer_overhead: float = 60.0 * USEC,
    ) -> None:
        super().__init__(fs, thread, rank, num_ranks, spec)
        self.dataset = dataset
        #: TF reaches kernel files through its generic Env/GFile layer
        #: (per-file object construction, stat, locking) — absent in the
        #: custom zero-copy ops used for DLFS/Octopus.  Calibrated so
        #: Fig 12's Ext4-TF degradation versus raw Ext4 (Fig 9) holds.
        self.file_layer_overhead = file_layer_overhead

    def _num_samples(self) -> int:
        return self.dataset.num_samples

    def _read(self, idx: int) -> Generator[Event, Any, int]:
        yield from self.thread.run(self.file_layer_overhead)
        return (yield from self.fs.read_sample(
            self.thread, self.dataset.sample_name(idx)
        ))


class OctopusTFAdapter(_PerSampleAdapter):
    """tf.data over Octopus: one distributed read per sample."""

    def _num_samples(self) -> int:
        if self.fs.dataset is None:
            raise ConfigError("OctopusFS must be mounted first")
        return self.fs.dataset.num_samples

    def _read(self, idx: int) -> Generator[Event, Any, int]:
        # The Octopus client path charges its own costs; the TF thread
        # is occupied for the duration of the synchronous op.
        return (yield from self.fs.read_sample(self.rank, idx))
