"""Observability: end-to-end tracing, metrics, and latency attribution.

The subsystem has three pieces, all purely observational (recording
never schedules simulation events, consumes randomness, or charges
simulated time — a run with observability on delivers the same samples
in the same order and ends at the same sim time as one without):

* :mod:`repro.obs.span` — sim-time-stamped spans with parent/child
  causality and point events (:class:`Tracer` / :class:`Span`).
* :mod:`repro.obs.metrics` — the unified :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms, per-layer busy-time
  attribution, recovery stats).
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto), the
  plaintext latency-breakdown and percentile tables, JSON metrics dump.

Components take an :class:`Observability` handle (or its tracer) via
constructor/installer; disabled instances hand out shared null objects,
so the healthy fast path pays one attribute check (the same
pay-for-use discipline as :mod:`repro.faults`).
"""

from .metrics import (
    DEFAULT_BOUNDS,
    NULL_METRICS,
    CounterMetric,
    Gauge,
    Histogram,
    LayerTimes,
    MetricsRegistry,
    NullMetrics,
    RecoveryStats,
    log_bounds,
)
from .span import NULL_SPAN, NULL_TRACER, NullSpan, NullTracer, Span, Tracer
from .export import (
    breakdown_rows,
    chrome_trace,
    percentile_rows,
    render_breakdown,
    render_percentiles,
    render_tenants,
    render_cluster,
    render_xform,
    write_chrome_trace,
    write_metrics,
)

__all__ = [
    "Observability",
    "OBS_OFF",
    "Tracer",
    "Span",
    "NullTracer",
    "NullSpan",
    "NULL_TRACER",
    "NULL_SPAN",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "CounterMetric",
    "Gauge",
    "Histogram",
    "LayerTimes",
    "RecoveryStats",
    "DEFAULT_BOUNDS",
    "log_bounds",
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "breakdown_rows",
    "render_breakdown",
    "percentile_rows",
    "render_percentiles",
    "render_tenants",
    "render_cluster",
    "render_xform",
]


class Observability:
    """Bundle of one tracer + one metrics registry for a testbed.

    Build with both off (the default) and the bundle is pure null
    objects; :class:`repro.core.DLFS` constructs one from
    ``DLFSConfig.trace`` / ``DLFSConfig.metrics`` and installs it on
    every datapath component.
    """

    def __init__(
        self,
        env=None,
        trace: bool = False,
        metrics: bool = False,
    ) -> None:
        if (trace or metrics) and env is None:
            raise ValueError("enabled observability needs an environment")
        self.env = env
        self.tracer = Tracer(env) if trace else NULL_TRACER
        self.metrics = MetricsRegistry(env) if metrics else NULL_METRICS
        if self.metrics.enabled:
            # Engine event hook: count processed events.
            events = self.metrics.counter("sim.events_processed")

            def _on_step(now: float, event) -> None:
                events.incr()

            env.add_step_listener(_on_step)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def __repr__(self) -> str:
        return (
            f"<Observability trace={self.tracer.enabled} "
            f"metrics={self.metrics.enabled}>"
        )


#: Shared fully-disabled bundle (what uninstrumented components hold).
OBS_OFF = Observability()
