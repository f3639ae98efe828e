"""Unit and end-to-end tests for the observability subsystem.

Covers the four ISSUE-mandated properties:

* span parent/child causality through a real datapath run,
* histogram bucket math (quantile estimation, clamping, empty cases),
* Chrome trace-event JSON schema validity (round-trips, metadata,
  monotonically non-decreasing timestamps per thread),
* determinism — an observed run is bit-identical to an unobserved one.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import dlfs_observed
from repro.faults import FaultPlan
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    OBS_OFF,
    Histogram,
    MetricsRegistry,
    Tracer,
    breakdown_rows,
    chrome_trace,
    log_bounds,
    render_breakdown,
    render_percentiles,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


# ---------------------------------------------------------------------------
# Spans and the tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_ids_unique_and_parented(self, env):
        tracer = Tracer(env)
        parent = tracer.start("outer", track="lane0")
        child = tracer.start("inner", track="lane0", parent=parent)
        assert child.span_id != parent.span_id
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        child.finish()
        parent.finish()
        # Identity survives the close — ids are assigned at start().
        assert child.parent_id == parent.span_id

    def test_finish_is_idempotent(self, env):
        tracer = Tracer(env)
        span = tracer.start("op", track="t")
        env.run(until=1.0)
        span.finish(status="ok")
        env.run(until=2.0)
        span.finish(status="late")  # ignored: already closed
        assert span.end == 1.0
        assert span.args["status"] == "ok"

    def test_open_span_duration_tracks_now(self, env):
        tracer = Tracer(env)
        span = tracer.start("op", track="t")
        env.run(until=3.0)
        assert not span.finished
        assert span.duration == pytest.approx(3.0)

    def test_events_pin_to_sim_time(self, env):
        tracer = Tracer(env)
        span = tracer.start("op", track="t")
        env.run(until=0.5)
        span.event("retry", attempt=1)
        assert span.events == [(0.5, "retry", {"attempt": 1})]

    def test_tracks_in_first_use_order(self, env):
        tracer = Tracer(env)
        tracer.start("a", track="t2")
        tracer.start("b", track="t1")
        tracer.instant("x", track="t3")
        assert tracer.tracks() == ["t2", "t1", "t3"]

    def test_null_objects_are_inert(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.start("op", track="t")
        assert span is NULL_SPAN
        span.event("anything")
        span.finish(status="ok")
        assert span.duration == 0.0
        assert not NULL_METRICS.enabled
        NULL_METRICS.histogram("h").observe(1.0)
        assert NULL_METRICS.dump() == {}
        assert not OBS_OFF.enabled


# ---------------------------------------------------------------------------
# Histogram bucket math
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_empty_quantiles_are_zero(self):
        h = Histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.minimum == 0.0
        assert h.maximum == 0.0

    def test_quantile_range_validated(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_single_observation_is_exact(self):
        h = Histogram("h")
        h.observe(3.2e-5)
        # Clamping to observed min/max makes one-sample queries exact.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.2e-5)

    def test_quantiles_within_one_bucket_ratio(self):
        h = Histogram("h")
        values = [1e-6 * (1 + i / 100.0) for i in range(1000)]  # 1..2 us
        for v in values:
            h.observe(v)
        exact = float(np.percentile(values, 50))
        # Default bounds are 8 per decade: ratio 10**(1/8) ~ 1.33.
        assert exact / 1.34 <= h.quantile(0.5) <= exact * 1.34
        assert h.count == 1000
        assert h.minimum == pytest.approx(values[0])
        assert h.maximum == pytest.approx(values[-1])

    def test_estimates_clamped_to_observed_range(self):
        h = Histogram("h")
        h.observe(1.0e-6)
        h.observe(1.01e-6)  # same bucket: interpolation would overshoot
        p = h.percentiles()
        for key in ("p50", "p90", "p99", "p999"):
            assert 1.0e-6 <= p[key] <= 1.01e-6

    def test_overflow_and_underflow_buckets(self):
        bounds = log_bounds(1e-6, 1e-3, per_decade=4)
        h = Histogram("h", bounds=bounds)
        h.observe(1e-9)   # below the lowest bound
        h.observe(1e+2)   # above the highest bound
        assert h.count == 2
        assert h.quantile(0.0) == pytest.approx(1e-9)
        assert h.quantile(1.0) == pytest.approx(1e+2)

    def test_log_bounds_validation(self):
        with pytest.raises(ValueError):
            log_bounds(1.0, 0.5)
        with pytest.raises(ValueError):
            log_bounds(1e-6, 1e-3, per_decade=0)

    def test_as_dict_schema(self):
        h = Histogram("h")
        h.observe(0.5)
        d = h.as_dict()
        assert set(d) == {
            "count", "unit", "mean", "min", "max", "total",
            "p50", "p90", "p99", "p999",
        }


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self, env):
        reg = MetricsRegistry(env)
        assert reg.counter("c") is reg.counter("c")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.layers("lane") is reg.layers("lane")
        reg.counter("c").incr(5)
        assert reg.dump()["counters"]["c"] == 5

    def test_breakdown_rows_sum_to_total(self, env):
        reg = MetricsRegistry(env)
        layers = reg.layers("lane")
        layers.add("prep", 0.2)
        layers.add("post", 0.3)
        rows = breakdown_rows(layers, total=1.0)
        assert sum(sec for _, sec, _ in rows) == pytest.approx(1.0)
        # Idle is clamped at zero even if stages overshoot the total.
        rows = breakdown_rows(layers, total=0.4)
        assert rows[-1][1] == 0.0


# ---------------------------------------------------------------------------
# End-to-end: one observed run shared across the checks below
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def observed():
    return dlfs_observed(samples=400, sample_bytes=4096)


@pytest.fixture(scope="module")
def unobserved():
    return dlfs_observed(samples=400, sample_bytes=4096, trace=False, metrics=False)


@pytest.fixture(scope="module")
def faulty_observed():
    plan = FaultPlan(
        seed=7, media_error_rate=0.05, timeout_rate=0.01,
        qpair_reset_period=2e-3,
    )
    return dlfs_observed(
        samples=400, sample_bytes=4096, mode="sample", fault_plan=plan,
    )


class TestSpanCausality:
    def test_datapath_chain(self, observed):
        """Every NVMe command traces back to a reactor batch span."""
        spans = {s.span_id: s for s in observed.obs.tracer.spans}
        by_name: dict = {}
        for s in spans.values():
            by_name.setdefault(s.name, []).append(s)
        for required in ("reactor.batch", "reactor.fetch", "qpair.io",
                         "nvme.cmd", "deliver"):
            assert by_name.get(required), f"no {required} spans recorded"
        chains = 0
        for cmd in by_name["nvme.cmd"]:
            names = []
            node = cmd
            while node is not None:
                names.append(node.name)
                node = spans.get(node.parent_id)
            if names[-1] == "reactor.batch":
                chains += 1
                assert "qpair.io" in names
                assert "reactor.fetch" in names
        assert chains > 0

    def test_spans_are_well_formed(self, observed):
        for s in observed.obs.tracer.spans:
            assert s.finished, f"span left open: {s!r}"
            assert s.end >= s.start
            for t, _, _ in s.events:
                assert s.start <= t <= s.end

    def test_delivery_accounting(self, observed):
        c = observed.obs.metrics.counter("reactor.samples_delivered")
        assert c.value == observed.delivered == 400

    def test_attribution_sums_to_sim_time(self, observed):
        name = observed.reactor_names[0]
        layers = observed.obs.metrics.layers(name)
        rows = breakdown_rows(layers, observed.sim_time)
        total = sum(sec for _, sec, _ in rows)
        assert abs(total - observed.sim_time) <= 0.01 * observed.sim_time
        # The renderers run cleanly on real data.
        assert "latency attribution" in render_breakdown(layers, observed.sim_time)
        assert "qpair.latency" in render_percentiles(observed.obs.metrics)


class TestChromeTrace:
    def test_json_round_trip_and_schema(self, observed):
        doc = json.loads(json.dumps(chrome_trace(observed.obs.tracer)))
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ns"
        assert events, "empty trace"
        names = {e["ph"] for e in events}
        assert names <= {"M", "X", "i"}
        for e in events:
            assert {"ph", "name", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert "span_id" in e["args"]
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_metadata_names_every_thread(self, observed):
        doc = chrome_trace(observed.obs.tracer)
        threads = {
            (e["pid"], e["tid"])
            for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        }
        named = {
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        named_ids = {
            (e["pid"], e["tid"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads <= named_ids
        assert len(named) == len(named_ids)

    def test_timestamps_monotonic_per_thread(self, observed):
        doc = chrome_trace(observed.obs.tracer)
        last: dict = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, 0.0)
            last[key] = e["ts"]

    def test_nodes_become_processes(self, observed):
        tracer = observed.obs.tracer
        doc = chrome_trace(tracer)
        processes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # Every registered node that actually emitted events appears as a
        # process; in the single-node testbed that is just node0.
        used = {tracer.processes[t] for t in tracer.tracks()
                if t in tracer.processes}
        assert used and used <= processes
        # The reactor lane is grouped under its compute node.
        assert tracer.processes[observed.reactor_names[0]] in processes


class TestDeterminism:
    def test_observed_run_is_bit_identical(self, observed, unobserved):
        assert np.array_equal(observed.samples_read, unobserved.samples_read)
        assert observed.sim_time == unobserved.sim_time
        assert observed.delivered == unobserved.delivered

    def test_unobserved_run_records_nothing(self, unobserved):
        assert not unobserved.obs.enabled
        assert unobserved.obs.tracer is NULL_TRACER
        assert unobserved.obs.metrics is NULL_METRICS

    def test_faulty_observed_run_is_bit_identical(self, faulty_observed):
        plan = FaultPlan(
            seed=7, media_error_rate=0.05, timeout_rate=0.01,
            qpair_reset_period=2e-3,
        )
        bare = dlfs_observed(
            samples=400, sample_bytes=4096, mode="sample", fault_plan=plan,
            trace=False, metrics=False,
        )
        assert np.array_equal(faulty_observed.samples_read, bare.samples_read)
        assert faulty_observed.sim_time == bare.sim_time


class TestFaultVisibility:
    def test_recovery_events_in_trace(self, faulty_observed):
        tracer = faulty_observed.obs.tracer
        instants = {name for _, name, _, _ in tracer.instants}
        assert "qpair_reset" in instants
        span_events = {
            name for s in tracer.spans for _, name, _ in s.events
        }
        assert "retry_backoff" in span_events
        assert "aborted_by_reset" in span_events

    def test_recovery_counters_on_shared_registry(self, faulty_observed):
        recovery = faulty_observed.recovery
        assert recovery.get("retries", 0) > 0
        dump = faulty_observed.obs.metrics.dump()
        assert any(k.endswith(".retries") for k in dump["counters"])
        assert dump["recovery"], "recovery stats missing from the dump"
