"""User-level SPDK driver instance per client node.

The driver owns a node's qpair connections and its hugepage pool, and
enforces SPDK's two restrictions (§III-C): devices must be *unbound from
the kernel* before user-level access, and every I/O buffer must live on
hugepages.  ``connect`` builds a qpair to a local (same-node) device or
a remote NVMe-oF target.
"""

from __future__ import annotations

from typing import Optional, Union

from ..cluster import Node
from ..errors import ConfigError
from ..hw import NVMeDevice
from ..sim import Store
from .qpair import DEFAULT_QUEUE_DEPTH, IOQPair
from .target import NVMeoFTarget

__all__ = ["SPDKDriver"]


class SPDKDriver:
    """SPDK runtime on one client node."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.env = node.env
        self.hugepages = node.hugepages
        self._unbound: set[str] = set()
        self.qpairs: list[IOQPair] = []

    def unbind_from_kernel(self, device: NVMeDevice) -> None:
        """Claim a local device for user-level access.

        A device can serve SPDK I/O only after this (the kernel driver
        releases it); a kernel file system must not be using it.
        """
        if device not in self.node.devices:
            raise ConfigError(
                f"{device.name} is not local to {self.node.name}; "
                "remote devices are reached via NVMe-oF targets"
            )
        self._unbound.add(device.name)

    def is_unbound(self, device: NVMeDevice) -> bool:
        return device.name in self._unbound

    def connect(
        self,
        target: Union[NVMeDevice, NVMeoFTarget],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        completion_sink: Optional[Store] = None,
    ) -> IOQPair:
        """Create an I/O qpair to a local device or remote target."""
        if isinstance(target, NVMeDevice):
            if target.name not in self._unbound:
                raise ConfigError(
                    f"local device {target.name} must be unbound from the "
                    "kernel before SPDK access"
                )
        qpair = IOQPair(
            self.env,
            client_host=self.node.name,
            target=target,
            queue_depth=queue_depth,
            completion_sink=completion_sink,
        )
        self.qpairs.append(qpair)
        return qpair

    def __repr__(self) -> str:
        return f"<SPDKDriver on {self.node.name!r} qpairs={len(self.qpairs)}>"
