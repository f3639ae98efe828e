"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing simulation faults from file-system faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class DeadlockError(SimulationError):
    """``run()`` returned with live processes but no scheduled events."""


class InterruptedProcess(SimulationError):
    """A simulation process was interrupted while waiting on an event."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ResourceError(SimulationError):
    """Illegal use of a simulated resource (double release, bad handle...)."""


class HardwareError(ReproError):
    """A hardware model was driven outside its operating envelope."""


class QueueFullError(HardwareError):
    """A bounded hardware queue (NVMe SQ, QPair) rejected a submission."""


class AllocationError(HardwareError):
    """A fixed-size pool (hugepages, cache chunks) is exhausted."""


class FileSystemError(ReproError):
    """Base class for errors raised by any of the simulated file systems."""


class FileNotFound(FileSystemError):
    """Lookup failed: no such file or sample."""


class NotMounted(FileSystemError):
    """Operation attempted before ``mount`` (or after ``unmount``)."""


class InvalidHandle(FileSystemError):
    """A file/sample handle is stale or was never issued."""


class DirectoryError(FileSystemError):
    """The in-memory sample directory rejected an operation."""


class EntryFormatError(DirectoryError):
    """A field does not fit the 128-bit sample-entry layout."""


class ConfigError(ReproError):
    """Invalid configuration value."""


class FaultError(ReproError):
    """Base class for injected-fault failures in the datapath.

    Raised (or recorded) by the fault-injection subsystem
    (:mod:`repro.faults`) and the recovery machinery that handles it.
    """


class MediaError(FaultError):
    """An NVMe read completed with an unrecoverable media error."""


class RequestTimeout(FaultError):
    """An I/O request missed its completion deadline."""


class QPairResetError(FaultError):
    """An I/O qpair was reset (or is disconnected) with requests in flight."""


class AdmissionRejected(ReproError):
    """A tenant's read job was refused at admission control.

    Raised (recorded per sample, like :class:`SampleReadError`) when the
    tenant's token bucket is exhausted *and* its deferred-admission queue
    is full, or when the job has more samples than the bucket's
    ``burst`` and so could never conform.  The job still completes — the rejection is visible in
    ``job.errors`` — so open-loop traffic generators never wedge on a
    throttled tenant.
    """

    def __init__(self, message: str, tenant: object = None, key: object = None) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.key = key


class SampleReadError(FaultError):
    """A sample could not be delivered after exhausting the retry budget.

    Carries the cache key of the failed span; the batch it belonged to
    still completes (graceful degradation), with the failure recorded in
    the job's error list.
    """

    def __init__(self, message: str, key: object = None) -> None:
        super().__init__(message)
        self.key = key
