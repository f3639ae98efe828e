"""Ext4-over-NVMe baseline: the kernel I/O stack DLFS is compared against.

Models the costs Fig 2(b) of the paper attributes to the generic stack:

* **syscall boundary** — mode-switch pair per open/read/close;
* **VFS** — per-component dentry walk, with a bounded dentry cache whose
  misses read a directory block from the device;
* **inode/extent management** — bounded inode cache; misses read an
  inode-table block; every read pays an extent-tree walk;
* **page cache** — 4 KB pages, LRU; missing runs become block requests;
* **block layer + interrupts** — request construction per missing run,
  the issuing thread *blocks* (releases its core, two context switches)
  and an interrupt fires on completion;
* **copy_to_user** — kernel-to-user copy of the payload.

Large reads are served in ``read_segment_bytes`` slices, sequentially,
as the synchronous read path does for uncached random I/O.  All CPU
costs execute on the caller's :class:`~repro.hw.cpu.BoundThread`, so
core contention and Ext4's multi-core scaling (Ext4-MC) emerge from the
simulation rather than being assumed.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..errors import ConfigError, FileNotFound, InvalidHandle
from ..hw import NVMeDevice
from ..hw.cpu import BoundThread
from ..hw.platform import GB, KB, OSSpec
from ..sim import Environment, Event
from .pagecache import PAGE_SIZE, PageCache
from .lru import LRUCache

__all__ = ["Ext4FileSystem", "Ext4File", "Ext4FD"]

#: Sync read path slice size (kernel readahead window for ext4 default).
READ_SEGMENT_BYTES = 128 * KB
#: Metadata region reserved at the top of the device for directory and
#: inode-table blocks.
META_REGION_BYTES = 1 * GB


@dataclass(frozen=True)
class Ext4File:
    """One regular file: a single contiguous extent (mkfs-time layout)."""

    path: str
    inode: int
    device_offset: int
    length: int


@dataclass(eq=False)
class Ext4FD:
    """An open file descriptor."""

    _ids = itertools.count(3)  # 0-2 are stdio, as tradition demands

    file: Ext4File
    fd: int = field(default_factory=lambda: next(Ext4FD._ids))
    closed: bool = False


class Ext4FileSystem:
    """A kernel file system instance over one NVMe device."""

    def __init__(
        self,
        env: Environment,
        device: NVMeDevice,
        os_spec: Optional[OSSpec] = None,
        page_cache_bytes: int = 4 * GB,
        dentry_cache_entries: int = 262_144,
        inode_cache_entries: int = 262_144,
    ) -> None:
        self.env = env
        self.device = device
        self.os = os_spec or OSSpec()
        self.os.validate()
        if device.capacity <= META_REGION_BYTES:
            raise ConfigError("device too small for the metadata region")
        self.page_cache = PageCache(page_cache_bytes, name=f"{device.name}.pc")
        self.dentries: LRUCache[str, int] = LRUCache(
            dentry_cache_entries, name=f"{device.name}.dentries"
        )
        self.inodes: LRUCache[int, Ext4File] = LRUCache(
            inode_cache_entries, name=f"{device.name}.inodes"
        )
        self._files: dict[str, Ext4File] = {}
        self._next_inode = 16
        self._meta_base = device.capacity - META_REGION_BYTES
        self._meta_blocks = META_REGION_BYTES // PAGE_SIZE

    # -- namespace ----------------------------------------------------------
    def register_file(self, path: str, device_offset: int, length: int) -> Ext4File:
        """Create a file whose data already sits at ``device_offset``.

        Ingest-time helper: the benchmarks lay data out via
        :class:`~repro.data.DatasetLayout` and register the resulting
        extents here, mirroring a staged dataset.
        """
        if path in self._files:
            raise ConfigError(f"file {path!r} already exists")
        if length <= 0:
            raise ConfigError("file length must be positive")
        if device_offset % PAGE_SIZE:
            raise ConfigError(
                "ext4 allocates whole 4 KB blocks; extents must be "
                f"page-aligned (got {device_offset})"
            )
        if device_offset < 0 or device_offset + length > self._meta_base:
            raise ConfigError(
                f"extent [{device_offset}, {device_offset + length}) "
                "overlaps the metadata region or exceeds the device"
            )
        f = Ext4File(path, self._next_inode, device_offset, length)
        self._next_inode += 1
        self._files[path] = f
        return f

    @property
    def num_files(self) -> int:
        return len(self._files)

    def _meta_block_offset(self, key: str) -> int:
        """Device offset of the directory/inode block backing ``key``."""
        block = zlib.crc32(key.encode()) % self._meta_blocks
        return self._meta_base + block * PAGE_SIZE

    # -- metadata reads -------------------------------------------------------
    def _read_meta_block(
        self, thread: BoundThread, key: str
    ) -> Generator[Event, Any, None]:
        """One 4 KB metadata read: block request + interrupt-driven wait."""
        yield from thread.run(self.os.block_request)
        cmd = self.device.read(self._meta_block_offset(key), PAGE_SIZE)
        yield from thread.run(self.os.context_switch)  # schedule out
        yield from thread.block(cmd.completion)
        yield from thread.run(self.os.interrupt_overhead + self.os.context_switch)

    # -- POSIX surface ------------------------------------------------------------
    def open(self, thread: BoundThread, path: str) -> Generator[Event, Any, Ext4FD]:
        """``open(2)``: path walk + inode fetch.  Returns an FD."""
        yield from thread.run(self.os.syscall_overhead)
        file = self._files.get(path)
        if file is None:
            raise FileNotFound(path)
        # Path walk: each component costs a dentry-cache probe; the final
        # component's miss reads a directory block.
        components = path.split("/")
        for depth in range(1, len(components) + 1):
            prefix = "/".join(components[:depth])
            yield from thread.run(self.os.dentry_lookup)
            if self.dentries.get(prefix) is None:
                yield from self._read_meta_block(thread, "D:" + prefix)
                self.dentries.put(prefix, file.inode)
        # Inode fetch: cache miss reads an inode-table block.
        yield from thread.run(self.os.inode_lookup)
        if self.inodes.get(file.inode) is None:
            yield from self._read_meta_block(thread, f"I:{file.inode}")
            self.inodes.put(file.inode, file)
        return Ext4FD(file=file)

    def read(
        self, thread: BoundThread, fd: Ext4FD, offset: int, nbytes: int
    ) -> Generator[Event, Any, int]:
        """``pread(2)``: page-cache-mediated read of ``nbytes``."""
        if fd.closed:
            raise InvalidHandle(f"fd {fd.fd} is closed")
        if offset < 0 or nbytes <= 0:
            raise ConfigError("offset must be >= 0 and nbytes positive")
        file = fd.file
        nbytes = min(nbytes, file.length - offset)
        if nbytes <= 0:
            return 0
        yield from thread.run(self.os.syscall_overhead)
        # Extent-tree walk to map the file range to device blocks.
        yield from thread.run(self.os.inode_lookup / 4)
        done = 0
        while done < nbytes:
            seg = min(READ_SEGMENT_BYTES, nbytes - done)
            yield from self._read_segment(thread, file, offset + done, seg)
            done += seg
        # Kernel -> user copy of the payload.
        yield from thread.run(nbytes / self.os.copy_to_user_bandwidth)
        return nbytes

    def _read_segment(
        self, thread: BoundThread, file: Ext4File, offset: int, nbytes: int
    ) -> Generator[Event, Any, None]:
        """One synchronous slice of the read path."""
        span = PageCache.page_span(offset, nbytes)
        yield from thread.run(self.os.page_cache_op * len(span))
        missing = self.page_cache.lookup(file.inode, offset, nbytes)
        if not missing:
            return
        # One block request per missing run, submitted together, then the
        # thread sleeps until all complete (sync readpages behaviour).
        completions = []
        for run in missing:
            yield from thread.run(self.os.block_request)
            # Extents are page-aligned, so file page p sits at
            # device_offset + p * PAGE_SIZE.
            dev_offset = file.device_offset + run.start * PAGE_SIZE
            length = len(run) * PAGE_SIZE
            cmd = self.device.read(dev_offset, length)
            completions.append(cmd.completion)
        yield from thread.run(self.os.context_switch)  # schedule out
        yield from thread.block(self.env.all_of(completions))
        yield from thread.run(
            self.os.interrupt_overhead * len(missing) + self.os.context_switch
        )
        for run in missing:
            self.page_cache.fill(file.inode, run)

    def close(self, thread: BoundThread, fd: Ext4FD) -> Generator[Event, Any, None]:
        """``close(2)``."""
        if fd.closed:
            raise InvalidHandle(f"fd {fd.fd} already closed")
        yield from thread.run(self.os.syscall_overhead)
        fd.closed = True

    def ingest_dataset(
        self,
        dataset,
        sample_indices=None,
        start_offset: int = 0,
    ) -> dict[int, Ext4File]:
        """Register one file per sample, each in its own 4 KB-aligned extent.

        Ext4 allocates whole blocks, so every file is padded up to the
        next page boundary (small files waste the tail of their block —
        a real Ext4 effect the page-granular read path then amplifies).
        Returns {sample index -> file}.
        """
        if start_offset % PAGE_SIZE:
            raise ConfigError("start_offset must be page-aligned")
        if sample_indices is None:
            sample_indices = range(dataset.num_samples)
        offset = start_offset
        out: dict[int, Ext4File] = {}
        for i in sample_indices:
            i = int(i)
            length = int(dataset.sizes[i])
            out[i] = self.register_file(dataset.sample_name(i), offset, length)
            padded = (length + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
            offset += padded
            if offset > self._meta_base:
                raise ConfigError("dataset does not fit on the device")
        return out

    def warm_metadata(self) -> None:
        """Pre-populate the dentry and inode caches for all files.

        The paper reports five-run averages, after which the kernel's
        metadata caches are warm; throughput figures (6, 8, 9, 12) use
        this state, while the lookup-time figure (10) measures cold
        opens.  No simulated time is charged.
        """
        for path, file in self._files.items():
            components = path.split("/")
            for depth in range(1, len(components) + 1):
                self.dentries.put("/".join(components[:depth]), file.inode)
            self.inodes.put(file.inode, file)

    def read_sample(
        self, thread: BoundThread, path: str
    ) -> Generator[Event, Any, int]:
        """open + full read + close — one sample fetch, as the paper's
        Ext4 microbenchmark performs it."""
        fd = yield from self.open(thread, path)
        file_len = fd.file.length
        got = yield from self.read(thread, fd, 0, file_len)
        yield from self.close(thread, fd)
        return got

    def __repr__(self) -> str:
        return f"<Ext4FileSystem on {self.device.name!r} files={self.num_files}>"
