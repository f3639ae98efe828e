"""The unified metrics registry: counters, gauges, histograms, layers.

One :class:`MetricsRegistry` serves a simulated testbed.  Components
obtain named instruments (get-or-create) and record into them on the
hot path; everything is purely observational — no simulation events, no
randomness, no simulated time — so a metered run is bit-identical to an
unmetered one.

* :class:`CounterMetric` / :class:`Gauge` — monotonic counts and
  last-value signals.
* :class:`Histogram` — fixed log-spaced buckets with estimated
  p50/p90/p99/p999; O(1) per observation, O(buckets) per query, bounded
  memory regardless of run length.  The registry's histograms are the
  only latency record.
* :class:`LayerTimes` — per-layer busy-time attribution for one
  execution lane (the paper's Fig 7 CPU analysis): stages sum to the
  lane's busy time, and the exporter adds the idle remainder so the
  breakdown table sums to total sim time.
* :class:`RecoveryStats` — failure-recovery accounting, carried by
  registry counters so recovery appears in the unified metrics dump.

No timer process is ever scheduled, so enabling metrics cannot extend a
run's final sim time.
"""

from __future__ import annotations

import bisect
import math

__all__ = [
    "CounterMetric",
    "Gauge",
    "Histogram",
    "LayerTimes",
    "MetricsRegistry",
    "NullMetrics",
    "RecoveryStats",
    "NULL_METRICS",
    "DEFAULT_BOUNDS",
    "log_bounds",
]


def log_bounds(
    lo: float = 1e-7, hi: float = 1e3, per_decade: int = 8
) -> tuple[float, ...]:
    """Geometric bucket upper bounds covering [lo, hi]."""
    if not (0 < lo < hi) or per_decade < 1:
        raise ValueError("need 0 < lo < hi and per_decade >= 1")
    decades = math.log10(hi / lo)
    n = int(round(decades * per_decade))
    ratio = (hi / lo) ** (1.0 / n)
    return tuple(lo * ratio**i for i in range(n + 1))


#: Default latency bounds: 100 ns .. 1000 s, 8 buckets per decade.
DEFAULT_BOUNDS = log_bounds()


class CounterMetric:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name!r} {self.value}>"


class Gauge:
    """A named last-value signal."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"<Gauge {self.name!r} {self.value}>"


class Histogram:
    """Fixed-bucket histogram with estimated percentiles.

    Bucket ``i`` counts observations in ``(bounds[i-1], bounds[i]]``
    (bucket 0 is everything up to ``bounds[0]``; one overflow bucket
    catches the rest).  Quantiles interpolate linearly inside the
    landing bucket and are clamped to the exact observed min/max, so
    zero- and one-sample queries are exact and every estimate is within
    one bucket ratio (~33% for the default 8-per-decade bounds) of the
    true value.
    """

    __slots__ = ("name", "unit", "bounds", "counts", "count", "total",
                 "_min", "_max")

    def __init__(
        self,
        name: str,
        unit: str = "s",
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        self.name = name
        self.unit = unit
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile, ``q`` in [0, 1]; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.bounds[i - 1] if 0 < i <= len(self.bounds) else self._min
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                frac = (target - cumulative) / n
                estimate = lo + (hi - lo) * frac
                return min(max(estimate, self._min), self._max)
            cumulative += n
        return self._max

    def percentile(self, p: float) -> float:
        """Estimated percentile, ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    def percentiles(self) -> dict[str, float]:
        """The standard latency panel: p50/p90/p99/p999."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def as_dict(self) -> dict:
        out = {
            "count": self.count,
            "unit": self.unit,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "total": self.total,
        }
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name!r} n={self.count}>"


class LayerTimes:
    """Busy-time attribution for one execution lane, by named stage."""

    __slots__ = ("name", "stages")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stages: dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    @property
    def busy(self) -> float:
        return sum(self.stages.values())

    def as_dict(self) -> dict[str, float]:
        return dict(self.stages)

    def __repr__(self) -> str:
        return f"<LayerTimes {self.name!r} busy={self.busy:.3g}s>"


class MetricsRegistry:
    """Named instruments, dumped once at the end of a run.

    Instruments are get-or-create by name, so independently-constructed
    components share a series when they share a name.
    """

    enabled = True

    def __init__(self, env) -> None:
        self.env = env
        self.counters: dict[str, CounterMetric] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.layers_by_name: dict[str, LayerTimes] = {}
        self.recovery: list["RecoveryStats"] = []
        #: Instrument names whose values are (partly) charged by the
        #: fluid analytic path rather than per-event observation
        #: (:mod:`repro.sim.fluid`).  Kept as an insertion-ordered list
        #: so exports stay deterministic.
        self._fluid: list[str] = []

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str) -> CounterMetric:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(
        self,
        name: str,
        unit: str = "s",
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, unit, bounds)
        return metric

    def layers(self, name: str) -> LayerTimes:
        metric = self.layers_by_name.get(name)
        if metric is None:
            metric = self.layers_by_name[name] = LayerTimes(name)
        return metric

    def register_recovery(self, stats: "RecoveryStats") -> None:
        self.recovery.append(stats)

    def mark_fluid(self, name: str) -> None:
        """Flag ``name`` as fluid-charged (analytic, not per-event).

        Flagged names appear under ``"fluid"`` in the dump, so
        dashboards can distinguish counters backed by real
        events from ones advanced in closed form by a hybrid run.
        """
        if name not in self._fluid:
            self._fluid.append(name)

    @property
    def fluid_names(self) -> tuple:
        """Sorted names flagged by :meth:`mark_fluid`."""
        return tuple(sorted(self._fluid))

    # -- export ---------------------------------------------------------------
    def dump(self) -> dict:
        """The full JSON-able metrics state (consumed by bench.report)."""
        out = {
            "now": self.env.now,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
            "layers": {
                n: lt.as_dict() for n, lt in sorted(self.layers_by_name.items())
            },
            "recovery": {s.name: s.as_dict() for s in self.recovery},
        }
        if self._fluid:
            out["fluid"] = list(self.fluid_names)
        return out

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self.counters)} "
            f"histograms={len(self.histograms)}>"
        )


class _NullInstrument:
    """No-op counter/gauge/histogram/layers stand-in."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    minimum = 0.0
    maximum = 0.0
    busy = 0.0
    stages: dict = {}

    def incr(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, *args, **kwargs) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentile(self, p: float) -> float:
        return 0.0

    def percentiles(self) -> dict:
        return {}

    def as_dict(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every instrument is the shared no-op."""

    enabled = False
    fluid_names: tuple = ()

    def mark_fluid(self, name: str) -> None:
        pass

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, unit: str = "s", bounds=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def layers(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def register_recovery(self, stats) -> None:
        pass

    def dump(self) -> dict:
        return {}

    def __repr__(self) -> str:
        return "<NullMetrics>"


NULL_METRICS = NullMetrics()


class RecoveryStats:
    """Failure-recovery accounting for one datapath client.

    Named monotonic counters (retries, timeouts, resets, media errors,
    aborted requests, failed samples, ...) plus a *degraded-mode* clock:
    the total simulated time during which at least one of the client's
    qpairs was disconnected.  ``enter_degraded``/``exit_degraded`` nest —
    two concurrently-down qpairs count the overlapping window once.

    Counters are carried by a :class:`MetricsRegistry` (namespaced under
    this object's ``name``), so when the reactor hands in the shared
    registry, recovery appears in the unified metrics dump.  Standalone
    construction gets a private registry — the original attribute API
    (``incr`` / ``[]`` / ``as_dict`` / ``degraded_time``) is unchanged.
    """

    def __init__(self, env, name: str = "", registry=None) -> None:
        self.env = env
        self.name = name
        if registry is None or not registry.enabled:
            registry = MetricsRegistry(env)
        self.registry = registry
        registry.register_recovery(self)
        self._prefix = f"{name or 'recovery'}."
        self._keys: list[str] = []
        self._down = 0
        self._since = 0.0
        self._accum = 0.0
        self._depth_gauge = registry.gauge(f"{self._prefix}degraded_depth")

    def incr(self, key: str, amount: int = 1) -> None:
        if key not in self._keys:
            self._keys.append(key)
        self.registry.counter(self._prefix + key).incr(amount)

    def __getitem__(self, key: str) -> int:
        metric = self.registry.counters.get(self._prefix + key)
        return metric.value if metric is not None else 0

    @property
    def degraded_depth(self) -> int:
        """Number of currently-degraded components (0 = healthy)."""
        return self._down

    def enter_degraded(self) -> None:
        if self._down == 0:
            self._since = self.env.now
        self._down += 1
        self._depth_gauge.set(self._down)

    def exit_degraded(self) -> None:
        if self._down <= 0:
            raise ValueError(f"recovery stats {self.name!r}: not degraded")
        self._down -= 1
        self._depth_gauge.set(self._down)
        if self._down == 0:
            self._accum += self.env.now - self._since

    @property
    def degraded_time(self) -> float:
        """Seconds spent degraded, including any still-open window."""
        open_window = (self.env.now - self._since) if self._down > 0 else 0.0
        return self._accum + open_window

    def as_dict(self) -> dict:
        out: dict = {key: self[key] for key in self._keys}
        out["degraded_time"] = self.degraded_time
        return out

    def __repr__(self) -> str:
        counts = {key: self[key] for key in self._keys}
        return f"<RecoveryStats {self.name!r} {counts!r}>"
