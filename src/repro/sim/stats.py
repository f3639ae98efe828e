"""Measurement helpers for simulation experiments.

The benchmark harness reports throughput from these accumulators rather
than scraping component internals.  Latencies are recorded only in the
metrics registry's histograms (:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

__all__ = ["Counter", "ThroughputMeter", "RecoveryStats"]


class Counter:
    """Monotonic named counters, e.g. cache hits / misses / posted commands."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def incr(self, key: str, amount: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"<Counter {self._counts!r}>"


# RecoveryStats migrated onto the unified metrics registry (PR 2); the
# import here keeps the historical ``repro.sim.RecoveryStats`` spelling
# and attribute API working unchanged.
from ..obs.metrics import RecoveryStats  # noqa: E402, F401


class ThroughputMeter:
    """Counts discrete completions and converts to a rate over sim time.

    ``start()`` marks the beginning of the measured window (defaults to
    construction time); ``rate()`` is completions per second of simulated
    time since then.
    """

    def __init__(self, env, name: str = "") -> None:
        self.env = env
        self.name = name
        self._t0 = env.now
        self._completions = 0
        self._bytes = 0

    def start(self) -> None:
        """Reset the measurement window to the current time."""
        self._t0 = self.env.now
        self._completions = 0
        self._bytes = 0

    def record(self, nbytes: int = 0, count: int = 1) -> None:
        self._completions += count
        self._bytes += nbytes

    @property
    def completions(self) -> int:
        return self._completions

    @property
    def bytes(self) -> int:
        return self._bytes

    def elapsed(self) -> float:
        return self.env.now - self._t0

    def rate(self) -> float:
        """Completions per second of simulated time."""
        dt = self.elapsed()
        if dt <= 0.0:
            return 0.0
        return self._completions / dt

    def bandwidth(self) -> float:
        """Bytes per second of simulated time."""
        dt = self.elapsed()
        if dt <= 0.0:
            return 0.0
        return self._bytes / dt
