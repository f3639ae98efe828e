"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Environment` — event queue and simulated clock.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf` —
  the waitable primitives processes yield.
* :class:`Resource`, :class:`Store` — contention primitives.
* :class:`Counter`, :class:`ThroughputMeter` — measurement accumulators.
"""

from .engine import AllOf, Environment, Event, Process, Timeout
from .fluid import (
    ArrivalSchedule,
    FluidLane,
    RateEnvelope,
    ScaleSpec,
    Segment,
    equivalence_check,
    run_scale,
)
from .resources import Request, Resource, Store
from .rng import derive_seed, reset_substream_log, rng, substream_log
from .stats import Counter, ThroughputMeter

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Resource",
    "Request",
    "Store",
    "Counter",
    "ThroughputMeter",
    "FluidLane",
    "RateEnvelope",
    "Segment",
    "ArrivalSchedule",
    "ScaleSpec",
    "run_scale",
    "equivalence_check",
    "rng",
    "derive_seed",
    "substream_log",
    "reset_substream_log",
]
