"""Cost-model constants for the simulated testbed.

Single source of truth for every hardware and OS cost in the simulation.
The defaults describe the paper's in-house cluster (§IV): dual-socket
Xeon E5-2650 nodes, 64 GB RAM, FDR InfiniBand via ConnectX-3, and one
480 GB Intel Optane NVMe SSD.  Each constant is annotated with its
provenance — the paper where it gives one, public spec sheets or widely
reported measurements otherwise.

All times are **seconds**, all sizes **bytes**, all rates **bytes/second**.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = [
    "CPUSpec",
    "NVMeSpec",
    "NetworkSpec",
    "OSSpec",
    "Testbed",
    "KB",
    "MB",
    "GB",
    "USEC",
    "MSEC",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
USEC = 1e-6
MSEC = 1e-3


@dataclass(frozen=True)
class CPUSpec:
    """Per-node CPU resources and micro-operation costs."""

    #: Cores available per node (paper: 10 dual-socket E5-2650 cores usable
    #: for I/O experiments).
    cores: int = 10
    #: One-way memcpy bandwidth of a single core (DRAM copy, ~10 GB/s on
    #: Sandy Bridge class parts).
    memcpy_bandwidth: float = 10.0 * GB
    #: Cost of one iteration of a busy-poll loop that finds nothing
    #: (SPDK completion check is a couple of cached loads).
    poll_iteration: float = 0.10 * USEC
    #: Cost of hashing a file/sample name to a 48-bit key (FNV-1a over a
    #: short string).
    hash_cost: float = 0.05 * USEC
    #: Cost of visiting one node during an AVL-tree descent (pointer chase
    #: + comparison; dominated by a cache miss).
    tree_node_visit: float = 0.02 * USEC
    #: Fixed per-request bookkeeping in user space (allocating the request
    #: record, list appends).
    request_setup: float = 0.20 * USEC

    def validate(self) -> None:
        if self.cores < 1:
            raise ConfigError("CPUSpec.cores must be >= 1")
        for name in ("memcpy_bandwidth", "poll_iteration", "hash_cost",
                     "tree_node_visit", "request_setup"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"CPUSpec.{name} must be positive")


@dataclass(frozen=True)
class OSSpec:
    """Kernel I/O stack costs (the Ext4 baseline pays these; DLFS does not)."""

    #: User->kernel->user boundary crossing for one syscall (mode switch
    #: pair + register save/restore).
    syscall_overhead: float = 0.60 * USEC
    #: Full context switch when a thread blocks on I/O and is later woken
    #: (scheduler, cache/TLB disturbance).
    context_switch: float = 2.0 * USEC
    #: Interrupt handling + completion soft-irq for one block-layer I/O.
    interrupt_overhead: float = 2.5 * USEC
    #: Walking VFS + dentry cache for one path component (hit).
    dentry_lookup: float = 0.40 * USEC
    #: Ext4 inode fetch + extent-tree descent for one file (metadata
    #: cached in memory; still several tree levels + locking).
    inode_lookup: float = 4.0 * USEC
    #: Page-cache lookup/insert per 4 KB page touched.
    page_cache_op: float = 0.15 * USEC
    #: Block-layer request construction, merging, queueing (per request).
    block_request: float = 1.2 * USEC
    #: Kernel copy bandwidth for copy_to_user (slightly below raw memcpy
    #: because of page-at-a-time loops and checks).
    copy_to_user_bandwidth: float = 8.0 * GB
    #: Extra per-read cost for each additional concurrent kernel I/O
    #: thread (shared-lock and cache-line contention in the VFS/block
    #: layers) — why Ext4-MC dips at high core counts in Fig 7a.
    smp_contention_per_thread: float = 0.30 * USEC

    def validate(self) -> None:
        for name in ("syscall_overhead", "context_switch", "interrupt_overhead",
                     "dentry_lookup", "inode_lookup", "page_cache_op",
                     "block_request", "copy_to_user_bandwidth"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"OSSpec.{name} must be positive")


@dataclass(frozen=True)
class NVMeSpec:
    """Service model of one NVMe device.

    The device is modeled as a serialized *command processor* (fixed
    per-command cost -> IOPS ceiling), a shared *data pipe* (device read
    bandwidth), and a constant media access latency added to every
    command.  This reproduces the latency/IOPS/bandwidth envelope of the
    real part without flash-level detail.
    """

    name: str = "intel-optane-480g"
    #: Aggregate sequential/large-block read bandwidth.  Intel Optane
    #: SSD 900P/P4800X class: ~2.4 GB/s.
    read_bandwidth: float = 2.4 * GB
    #: Fixed command-processing cost; 1.7 us/cmd ~= 590 K IOPS ceiling,
    #: matching published 4 KB random-read numbers for Optane.
    cmd_overhead: float = 1.7 * USEC
    #: Media access latency added to each command (Optane: ~10 us).
    read_latency: float = 10.0 * USEC
    #: Maximum outstanding commands the controller accepts.
    max_outstanding: int = 65536
    #: Added per-command processing when multiple submission queues are
    #: active (controller round-robin arbitration) — the source of the
    #: slight DLFS throughput drop at high core counts in Fig 7a.
    queue_arbitration_penalty: float = 0.30 * USEC
    #: True when this device stands in for the paper's RAMdisk-based
    #: NVMe emulation (multi-node experiments, §IV).
    emulated: bool = False

    def validate(self) -> None:
        if self.read_bandwidth <= 0 or self.cmd_overhead <= 0:
            raise ConfigError("NVMeSpec rates must be positive")
        if self.read_latency < 0:
            raise ConfigError("NVMeSpec.read_latency must be >= 0")
        if self.max_outstanding < 1:
            raise ConfigError("NVMeSpec.max_outstanding must be >= 1")

    @classmethod
    def intel_optane_480g(cls) -> "NVMeSpec":
        """The single real device of the paper's testbed (§IV-A)."""
        return cls()

    @classmethod
    def emulated_ramdisk(cls) -> "NVMeSpec":
        """RAMdisk + injected delay, as the paper uses for multi-node runs.

        The paper injects delays so the RAMdisk behaves like the NVMe
        device; we therefore keep the Optane envelope and just mark the
        spec as emulated.
        """
        return cls(name="emulated-nvme-ramdisk", emulated=True)

    def transfer_time(self, nbytes: int) -> float:
        """Pure data-pipe occupancy for ``nbytes`` (no latency/overhead)."""
        return nbytes / self.read_bandwidth


@dataclass(frozen=True)
class NetworkSpec:
    """FDR InfiniBand fabric with RDMA (ConnectX-3)."""

    #: Effective per-port bandwidth.  FDR 4x signals at 56 Gb/s;
    #: ~6.0 GB/s is achievable goodput with ConnectX-3.
    bandwidth: float = 6.0 * GB
    #: One-way propagation + switch latency.
    propagation_latency: float = 1.5 * USEC
    #: CPU cost of posting one RDMA work request (doorbell write etc.).
    rdma_post_overhead: float = 0.30 * USEC
    #: Extra latency of reaching an NVMe-oF target versus raw RDMA
    #: (paper/NVMe-oF spec: remote access adds < 10 us; SPDK targets
    #: sit near the low end).
    nvmf_added_latency: float = 5.0 * USEC

    def validate(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError("NetworkSpec.bandwidth must be positive")
        for name in ("propagation_latency", "rdma_post_overhead",
                     "nvmf_added_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(f"NetworkSpec.{name} must be >= 0")

    def transfer_time(self, nbytes: int) -> float:
        """Wire occupancy for ``nbytes``."""
        return nbytes / self.bandwidth


@dataclass(frozen=True)
class Testbed:
    """A complete node/cluster hardware description."""

    __test__ = False  # not a pytest test class despite the name

    cpu: CPUSpec = field(default_factory=CPUSpec)
    os: OSSpec = field(default_factory=OSSpec)
    nvme: NVMeSpec = field(default_factory=NVMeSpec.intel_optane_480g)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: Node memory; bounds the in-memory sample directory + caches.
    memory_bytes: int = 64 * GB
    #: Hugepage pool reserved for SPDK I/O buffers per node.
    hugepage_bytes: int = 2 * GB

    def validate(self) -> None:
        self.cpu.validate()
        self.os.validate()
        self.nvme.validate()
        self.network.validate()
        if self.memory_bytes <= 0 or self.hugepage_bytes <= 0:
            raise ConfigError("Testbed memory sizes must be positive")
        if self.hugepage_bytes > self.memory_bytes:
            raise ConfigError("hugepage pool larger than node memory")

    @classmethod
    def paper(cls) -> "Testbed":
        """The paper's in-house cluster, single real NVMe device."""
        return cls()

    @classmethod
    def paper_emulated(cls) -> "Testbed":
        """Multi-node configuration: every node gets an emulated device."""
        return cls(nvme=NVMeSpec.emulated_ramdisk())
