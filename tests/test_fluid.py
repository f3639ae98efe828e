"""Hybrid-fidelity engine tests: fluid lanes, tagged flows, equivalence.

The load-bearing property is the *tagged-flow equivalence obligation*
(DESIGN.md): with fluid enabled, tagged flows' sample-order and latency
digests must match an all-event run exactly, per-lane bulk request and
byte counters must be integer-exact, and bulk latency sums must agree
within ``EQUIVALENCE_EPSILON``.  On top of that, the constant-rate
zero-backlog regime must match with *zero* epsilon — the closed form
and the event sum are then the same dyadic arithmetic.
"""

import math
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.sim.engine import set_tiebreak_factory
from repro.sim.fluid import (
    EQUIVALENCE_EPSILON,
    ArrivalSchedule,
    FluidLane,
    RateEnvelope,
    ScaleSpec,
    Segment,
    TaggedFlow,
    _tagged_process,
    _TaggedSweep,
    equivalence_check,
    flow_arrival_times,
    run_scale,
    tag_flows,
    tagged_digests,
)
from repro.sim.rng import rng as sim_rng

SMALL = ScaleSpec(users=2000, day=600.0)


def _const_envelope(rate, size, end=8.0):
    return RateEnvelope((Segment(0.0, end, rate, size),))


# ---------------------------------------------------------------------------
# RateEnvelope / ArrivalSchedule
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_contiguity_required(self):
        with pytest.raises(ConfigError):
            RateEnvelope((
                Segment(0.0, 1.0, 10.0, 64),
                Segment(2.0, 3.0, 10.0, 64),
            ))

    def test_rate_at_half_open(self):
        env = RateEnvelope((
            Segment(0.0, 1.0, 10.0, 64),
            Segment(1.0, 2.0, 20.0, 64),
        ))
        assert env.rate_at(0.0) == 10.0
        assert env.rate_at(1.0) == 20.0
        assert env.bytes_rate_at(1.5) == 20.0 * 64
        assert env.rate_at(2.0) == 0.0

    def test_diurnal_shape(self):
        env = RateEnvelope.diurnal(100.0, 64, day=86400.0, segments=24)
        rates = [s.rate for s in env.segments]
        assert len(rates) == 24
        # Trough at midnight, peak at midday.
        assert rates[0] == min(rates)
        assert max(rates) == pytest.approx(150.0, rel=0.05)

    def test_diurnal_active_window_clips_to_zero(self):
        env = RateEnvelope.diurnal(
            100.0, 64, day=24.0, segments=24, active=(6.0, 18.0)
        )
        assert env.rate_at(3.0) == 0.0
        assert env.rate_at(12.0) > 0.0
        assert env.rate_at(20.0) == 0.0
        assert env.start == 0.0 and env.end == 24.0

    def test_schedule_counts_telescope(self):
        sched = ArrivalSchedule(RateEnvelope((
            Segment(0.0, 1.0, 173.0, 64),
            Segment(1.0, 2.5, 41.5, 64),
        )))
        cuts = [0.0, 0.137, 0.5, 0.99999, 1.0, 1.62, 2.0, 2.5]
        total = sum(
            sched.count_between(a, b) for a, b in zip(cuts, cuts[1:])
        )
        assert total == sched.count_between(0.0, 2.5) == sched.total

    def test_schedule_arrivals_interior(self):
        sched = ArrivalSchedule(_const_envelope(10.0, 64, end=1.0))
        times = [t for t, _ in sched.arrivals_between(0.0, 1.0)]
        assert len(times) == 10
        assert all(0.0 < t < 1.0 for t in times)
        assert times == sorted(times)

    def test_fraction_scales_count(self):
        envl = _const_envelope(100.0, 64, end=1.0)
        assert ArrivalSchedule(envl, fraction=0.25).total == 25

    def test_segment_too_dense_for_int64_series_is_rejected(self):
        # n * (n - 1) of 2**31 arrivals would wrap in the int64 charge.
        with pytest.raises(ConfigError):
            ArrivalSchedule(_const_envelope(2.0 ** 31, 64, end=1.0))


class TestZeroRateBoundaries:
    """Phase boundaries against rate=0 intervals (diurnal troughs).

    Scenario phase windows cut exactly at segment edges, including the
    edges of idle troughs; the golden-master per-phase bulk counts rely
    on ``_index_at`` being an exact inverse of the arrival grid and on
    per-interval counts telescoping integer-exactly across those cuts.
    """

    #: Night trough, morning ramp, midday idle dip, afternoon, evening off.
    TROUGHY = RateEnvelope((
        Segment(0.0, 1.0, 0.0, 64),
        Segment(1.0, 2.0, 173.0, 64),
        Segment(2.0, 2.5, 0.0, 64),
        Segment(2.5, 4.0, 41.0, 64),
        Segment(4.0, 5.0, 0.0, 64),
    ))

    def test_index_at_is_exact_inverse_on_the_grid(self):
        sched = ArrivalSchedule(self.TROUGHY)
        for seg in sched.segments:
            for k in range(seg.count):
                t_k = seg.start + (k + 0.5) * seg.gap
                # First index with t >= t_k is k itself, exactly, and
                # nudging past t_k moves to k+1: no arrival is ever
                # double-counted or dropped at a cut through t_k.
                nudged = math.nextafter(t_k, seg.end)
                assert sched._index_at([seg], [t_k, nudged]).ravel().tolist() == [k, k + 1]
        zero = sched.segments[0]
        assert zero.count == 0 and sched._index_at([zero], [0.5]).item() == 0

    def test_zero_rate_interval_counts_zero_and_edges_are_clean(self):
        sched = ArrivalSchedule(self.TROUGHY)
        assert sched.count_between(0.0, 1.0) == 0
        assert sched.count_between(2.0, 2.5) == 0
        assert sched.count_between(4.0, 5.0) == 0
        # A window ending exactly on a trough edge equals the same
        # window extended through the whole trough.
        assert sched.count_between(1.0, 2.0) == sched.count_between(1.0, 2.5)
        assert sched.count_between(1.0, 2.0) == 173

    def test_interval_counts_telescope_across_troughs(self):
        sched = ArrivalSchedule(self.TROUGHY)
        # Cuts at every segment edge plus awkward interior points,
        # including points inside the zero-rate troughs.
        cuts = [0.0, 0.3, 1.0, 1.337, 1.99999, 2.0, 2.25, 2.5,
                3.1, 4.0, 4.5, 5.0]
        counts = [sched.count_between(a, b) for a, b in zip(cuts, cuts[1:])]
        assert sum(counts) == sched.count_between(0.0, 5.0) == sched.total
        assert sched.total == 173 + round(1.5 * 41.0)

    def test_diurnal_trough_phase_windows_telescope(self):
        # A churned diurnal tenant: active only [6, 18) of a 24h day,
        # so the envelope carries real zero-rate head/tail segments.
        envl = RateEnvelope.diurnal(
            100.0, 64, day=24.0, segments=24, active=(6.0, 18.0)
        )
        sched = ArrivalSchedule(envl, fraction=0.875)
        edges = [0.0] + [e for e in envl.boundaries() if e > 0.0]
        per_seg = [sched.count_between(a, b)
                   for a, b in zip(edges, edges[1:])]
        assert sum(per_seg) == sched.total
        # Head and tail zero-rate windows contribute exactly nothing.
        assert sched.count_between(0.0, 6.0) == 0
        assert sched.count_between(18.0, 24.0) == 0
        assert sched.count_between(6.0, 18.0) == sched.total


# ---------------------------------------------------------------------------
# FluidLane closed form vs all-event offers
# ---------------------------------------------------------------------------

def _event_charge(lane, sched, start, end):
    """Charge every bulk arrival as a discrete offer (the event path)."""
    for t, size in sched.arrivals_between(start, end):
        lane.offer(t, size)


def _fluid_lane(stages, sched, inflow=0.0):
    env = Environment()
    lane = FluidLane(env, "lane", stages)
    lane.schedules.append(sched)
    if inflow:
        lane.set_inflow(0.0, inflow)
    return env, lane


def _scalar_index_at(seg, t):
    """The scalar grid inverse the elementwise ``_index_at`` replaced."""
    if seg.count == 0:
        return 0
    k = int(math.ceil((t - seg.start) / seg.gap - 0.5))
    if k < 0:
        k = 0
    elif k > seg.count:
        k = seg.count
    while k > 0 and seg.start + (k - 0.5) * seg.gap >= t:
        k -= 1
    while k < seg.count and seg.start + (k + 0.5) * seg.gap < t:
        k += 1
    return k


class _ScalarLane(FluidLane):
    """Reference oracle: the scalar epoch charge the numpy pass replaced.

    One call per (anchor interval, schedule), each scanning every
    segment and adding its charge to the float sums as it goes.  The
    vectorized charge must reproduce every counter and sum bit for bit.
    """

    def _charge(self, t0, t1):
        marks = self._marks
        for i, (ta, ba, net) in enumerate(marks):
            lo = t0 if t0 >= ta else ta
            hi = marks[i + 1][0] if i + 1 < len(marks) else t1
            if hi > t1:
                hi = t1
            if hi <= lo:
                continue
            for sched in self.schedules:
                self._charge_interval(sched, lo, hi, ta, ba, net)

    def _charge_interval(self, sched, a, b, ta, ba, net):
        mu = self.mu
        out = self.outage_until
        for seg in sched.segments:
            if seg.end <= a or seg.start >= b or seg.count == 0:
                continue
            k_lo = _scalar_index_at(seg, a)
            n = _scalar_index_at(seg, b) - k_lo
            if n <= 0:
                continue
            t_first = seg.start + (k_lo + 0.5) * seg.gap
            base = self.base_latency(seg.size)
            wait_first = (ba + net * (t_first - ta)) / mu
            dwait = net * seg.gap / mu
            if wait_first <= 0.0:
                m = 0
            elif dwait >= 0.0:
                m = n
            else:
                m = math.ceil(wait_first / -dwait)
                if m > n:
                    m = n
            wait_sum = m * wait_first + dwait * (m * (m - 1) // 2)
            if b <= out:
                t_sum = n * t_first + seg.gap * (n * (n - 1) // 2)
                wait_sum += n * out - t_sum
            self.requests += n
            self.bytes += n * seg.size
            self.latency_sum += wait_sum + n * base
            self.fluid_requests += n
            self.fluid_bytes += n * seg.size
            self.fluid_latency_sum += wait_sum + n * base


_DAY = 8.0
_instant = st.floats(min_value=0.01, max_value=_DAY - 0.01,
                     allow_nan=False, allow_infinity=False)


@st.composite
def _troughy_envelope(draw):
    """A multi-segment envelope over [0, _DAY) with zero-rate troughs."""
    edges = sorted({0.0, *draw(st.lists(_instant, max_size=5)), _DAY})
    rates = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=400.0)),
        min_size=len(edges) - 1, max_size=len(edges) - 1,
    ))
    size = draw(st.sampled_from([4096, 65536, 262144]))
    return RateEnvelope(tuple(
        Segment(a, b, rate, size)
        for a, b, rate in zip(edges, edges[1:], rates)
    ))


@st.composite
def _troughy_schedule(draw):
    """A multi-segment schedule over [0, _DAY) with zero-rate troughs."""
    return ArrivalSchedule(draw(_troughy_envelope()), fraction=draw(
        st.floats(min_value=0.05, max_value=1.0)))


class TestVectorizedCharge:
    """The numpy epoch charge against the scalar loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        scheds=st.lists(_troughy_schedule(), min_size=1, max_size=3),
        cuts=st.lists(_instant, max_size=8),
        inflows=st.lists(st.floats(min_value=0.0, max_value=2.5e6),
                         min_size=9, max_size=9),
        impulses=st.lists(
            st.tuples(_instant, st.integers(min_value=1, max_value=1 << 21)),
            max_size=40,
        ),
        outage=st.one_of(st.none(), st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=1, max_value=8),
        )),
    )
    def test_bit_identical_to_scalar_loop(
        self, scheds, cuts, inflows, impulses, outage
    ):
        # Epoch cuts fall anywhere, so epochs straddle segment edges;
        # inflows swing around mu, so backlogs build and drain through
        # zero; outage edges sit on epoch boundaries, as in run_scale.
        bounds = sorted({0.0, *cuts, _DAY})
        if outage is not None:
            i, j = sorted(outage)
            i, j = min(i, len(bounds) - 2), min(j, len(bounds) - 1)
            outage = (bounds[i], bounds[j]) if i < j else None
        impulses = sorted(impulses)

        def drive(cls):
            lane = cls(Environment(), "lane", (("nvme", 1e6), ("fabric", 3.7e6)))
            lane.schedules.extend(scheds)
            for (a, b), inflow in zip(zip(bounds, bounds[1:]), inflows):
                if outage is not None and a == outage[0]:
                    lane.set_outage(*outage)
                lane.set_inflow(a, inflow)
                for t, size in impulses:
                    if a <= t < b:
                        lane.offer(t, size, tagged=True)
                lane.epoch_end(a, b)
            return lane

        fast, ref = drive(FluidLane), drive(_ScalarLane)
        assert fast.requests == ref.requests == sum(s.total for s in scheds)
        for name in ("bytes", "latency_sum", "fluid_requests", "fluid_bytes",
                     "fluid_latency_sum", "tagged_latency_sum"):
            assert getattr(fast, name) == getattr(ref, name), name


class TestConstantRateExactness:
    """Zero-epsilon property: constant rate, underloaded (backlog == 0).

    With dyadic stage rates and sizes, every arrival's latency is the
    same dyadic ``base``; the closed form charges ``n * base`` and the
    event path sums ``base`` n times — identical floats, so requests,
    bytes, AND latency sums must be equal with zero tolerance.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        rate_exp=st.integers(min_value=20, max_value=34),
        size_exp=st.integers(min_value=10, max_value=20),
        arrivals_per_s=st.integers(min_value=1, max_value=997),
        inflow_frac=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        cuts=st.lists(
            st.floats(min_value=0.01, max_value=7.99,
                      allow_nan=False, allow_infinity=False),
            max_size=6,
        ),
    )
    def test_epoch_advance_matches_event_charges_exactly(
        self, rate_exp, size_exp, arrivals_per_s, inflow_frac, cuts
    ):
        mu = float(2 ** rate_exp)
        size = 2 ** size_exp
        stages = (("nvme", mu), ("fabric", 2.0 * mu))
        envl = _const_envelope(float(arrivals_per_s), size, end=8.0)
        sched = ArrivalSchedule(envl)
        inflow = inflow_frac * mu  # <= mu: backlog stays clamped at zero

        env_f, fluid = _fluid_lane(stages, sched, inflow)
        # Random epoch partition of [0, 8): the closed form must not
        # care where the boundaries fall.
        bounds = sorted({0.0, *cuts, 8.0})
        for a, b in zip(bounds, bounds[1:]):
            env_f.run(until=b)
            fluid.epoch_end(a, b)

        env_e = Environment()
        event = FluidLane(env_e, "lane", stages)
        event.evented_until = math.inf
        _event_charge(event, sched, 0.0, 8.0)

        assert fluid.requests == event.requests == sched.total
        assert fluid.bytes == event.bytes == sched.total * size
        assert fluid.latency_sum == event.latency_sum  # zero epsilon
        assert fluid.fluid_requests == fluid.requests
        assert event.fluid_requests == 0

    def test_single_epoch_known_values(self):
        mu = 2.0 ** 20
        size = 1024
        sched = ArrivalSchedule(_const_envelope(16.0, size, end=2.0))
        env, lane = _fluid_lane((("nvme", mu),), sched)
        env.run(until=2.0)
        lane.epoch_end(0.0, 2.0)
        assert lane.requests == 32
        assert lane.bytes == 32 * size
        assert lane.latency_sum == 32 * (size / mu)


class TestBackloggedEquivalence:
    """Overload and outage: counters integer-exact, sums within epsilon."""

    def _compare(self, stages, sched, inflow, outage=None):
        env_f, fluid = _fluid_lane(stages, sched, inflow)
        if outage is not None:
            fluid.set_outage(*outage)
        env_e = Environment()
        event = FluidLane(env_e, "lane", stages)
        event.schedules.append(sched)
        event.evented_until = math.inf
        event.set_inflow(0.0, inflow)
        if outage is not None:
            event.set_outage(*outage)
        bounds = [0.0, 1.0, 2.5, 4.0, 8.0]
        if outage is not None:
            bounds = sorted({*bounds, *outage})
        # Event offers interleave with anchor transitions in time order,
        # exactly as the all-event driver does.
        for a, b in zip(bounds, bounds[1:]):
            env_f.run(until=b)
            fluid.epoch_end(a, b)
            _event_charge(event, sched, a, b)
            if outage is not None and b == outage[1]:
                fluid.clear_outage(b)
                event.clear_outage(b)
        assert fluid.requests == event.requests == sched.total
        assert fluid.bytes == event.bytes
        scale = max(abs(fluid.latency_sum), abs(event.latency_sum), 1.0)
        assert abs(fluid.latency_sum - event.latency_sum) <= 1e-9 * scale

    def test_overloaded_lane(self):
        mu = 1e6
        sched = ArrivalSchedule(_const_envelope(300.0, 8192, end=8.0))
        self._compare((("nvme", mu),), sched, inflow=1.5 * mu)

    def test_draining_backlog_crosses_zero(self):
        mu = 1e6
        sched = ArrivalSchedule(_const_envelope(250.0, 4096, end=8.0))
        env_f, fluid = _fluid_lane((("nvme", mu),), sched, inflow=2.0 * mu)
        # Build backlog for 1s, then cut inflow to zero: the backlog
        # drains linearly and the wait clamp crosses inside the epoch.
        env_f.run(until=1.0)
        fluid.epoch_end(0.0, 1.0)
        fluid.set_inflow(1.0, 0.0)
        env_f.run(until=8.0)
        fluid.epoch_end(1.0, 8.0)

        env_e = Environment()
        event = FluidLane(env_e, "lane", (("nvme", mu),))
        event.evented_until = math.inf
        event.set_inflow(0.0, 2.0 * mu)
        _event_charge(event, sched, 0.0, 1.0)
        event.set_inflow(1.0, 0.0)
        _event_charge(event, sched, 1.0, 8.0)

        assert fluid.requests == event.requests
        assert fluid.bytes == event.bytes
        scale = max(abs(fluid.latency_sum), 1.0)
        assert abs(fluid.latency_sum - event.latency_sum) <= 1e-9 * scale

    def test_outage_window(self):
        mu = 1e6
        sched = ArrivalSchedule(_const_envelope(100.0, 4096, end=8.0))
        self._compare(
            (("nvme", mu),), sched, inflow=0.5 * mu, outage=(1.0, 2.5)
        )

    def test_tagged_impulse_delays_bulk_identically(self):
        mu = 1e6
        size = 4096
        sched = ArrivalSchedule(_const_envelope(100.0, size, end=4.0))
        env_f, fluid = _fluid_lane((("nvme", mu),), sched, inflow=0.25 * mu)
        env_f.run(until=1.0)
        fluid.epoch_end(0.0, 1.0)
        lat_f = fluid.offer(1.0, 1 << 20, tagged=True)
        env_f.run(until=4.0)
        fluid.epoch_end(1.0, 4.0)

        env_e = Environment()
        event = FluidLane(env_e, "lane", (("nvme", mu),))
        event.evented_until = math.inf
        event.set_inflow(0.0, 0.25 * mu)
        _event_charge(event, sched, 0.0, 1.0)
        lat_e = event.offer(1.0, 1 << 20, tagged=True)
        _event_charge(event, sched, 1.0, 4.0)

        assert lat_f == lat_e  # tagged latency is bitwise identical
        assert fluid.tagged_requests == event.tagged_requests == 1
        assert fluid.requests == event.requests
        scale = max(abs(fluid.latency_sum), 1.0)
        assert abs(fluid.latency_sum - event.latency_sum) <= 1e-9 * scale

    def test_stage_validation(self):
        env = Environment()
        with pytest.raises(ConfigError):
            FluidLane(env, "lane", ())
        with pytest.raises(ConfigError):
            FluidLane(env, "lane", (("nvme", 0.0),))


# ---------------------------------------------------------------------------
# Engine lane registry
# ---------------------------------------------------------------------------

class TestLaneRegistry:
    def test_run_epoch_passes_bounds(self):
        calls = []

        class Probe:
            def epoch_end(self, t0, t1):
                calls.append((t0, t1))

        env = Environment()
        env.register_lane(Probe())
        assert len(env.lanes) == 1
        env.run_epoch(until=1.0)
        env.run_epoch(until=2.5)
        assert calls == [(0.0, 1.0), (1.0, 2.5)]

    def test_no_lanes_is_pay_for_use(self):
        env = Environment()
        assert env.lanes == ()
        env.run_epoch(until=1.0)  # no lanes: plain run()
        assert env.now == 1.0

    def test_fluid_lane_registers_itself(self):
        env = Environment()
        lane = FluidLane(env, "lane", (("nvme", 1e6),))
        assert env.lanes == (lane,)


# ---------------------------------------------------------------------------
# Tagged flows
# ---------------------------------------------------------------------------

def _scalar_flow_arrival_times(envelope, flows, tenant, flow_id, seed):
    """Reference oracle: the inversion with one numpy draw per increment,
    which ``flow_arrival_times``' block draws replaced."""
    stream = sim_rng(
        f"fluid.flow.{tenant}.{flow_id}",
        [seed, zlib.crc32(tenant.encode("utf-8")), flow_id],
    )
    times = []
    pending = float(stream.exponential(1.0))
    for seg in envelope.segments:
        rate = seg.rate / flows
        if rate <= 0.0:
            continue
        t = seg.start
        while True:
            dt = pending / rate
            if t + dt >= seg.end:
                pending -= (seg.end - t) * rate
                break
            t += dt
            times.append(t)
            pending = float(stream.exponential(1.0))
    return tuple(times)


class TestTaggedFlows:
    @settings(max_examples=40, deadline=None)
    @given(
        envelope=_troughy_envelope(),
        flows=st.integers(min_value=1, max_value=3),
        flow_id=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_block_draws_match_scalar_draws(self, envelope, flows, flow_id, seed):
        # Up to 400/s over 8 s: one flow can use several blocks.
        args = (envelope, flows, "c0", flow_id, seed)
        assert flow_arrival_times(*args) == _scalar_flow_arrival_times(*args)

    def test_tag_flows_deterministic_and_sorted(self):
        a = tag_flows("cohort0", 1000, 4, seed=42)
        b = tag_flows("cohort0", 1000, 4, seed=42)
        assert a == b == tuple(sorted(a))
        assert len(set(a)) == 4
        assert tag_flows("cohort1", 1000, 4, seed=42) != a

    def test_flow_arrival_times_deterministic(self):
        envl = _const_envelope(50.0, 64, end=10.0)
        t1 = flow_arrival_times(envl, flows=10, tenant="c0", flow_id=3, seed=7)
        t2 = flow_arrival_times(envl, flows=10, tenant="c0", flow_id=3, seed=7)
        assert t1 == t2
        assert list(t1) == sorted(t1)
        assert all(0.0 <= t < 10.0 for t in t1)


# ---------------------------------------------------------------------------
# The hybrid tagged sweep against the per-flow kernel processes
# ---------------------------------------------------------------------------

_SWEEP_STAGES = (("nvme", 1e6), ("fabric", 3.7e6))
_SWEEP_BULK = ArrivalSchedule(_const_envelope(40.0, 65536, end=_DAY))


class _CountedRanks:
    """Seeded sanitizer-style tiebreak ranks that count their draws."""

    def __init__(self, seed):
        self._stream = sim_rng("test.fluid.tiebreak", seed)
        self.drawn = 0

    def random(self):
        self.drawn += 1
        return float(self._stream.random())


def _drive_tagged(flows, lanes, cuts, inflows, sweep):
    """Run ``flows`` over ``lanes`` fluid lanes, epoch by epoch, as
    ``run_scale`` does: by :class:`_TaggedSweep` (``sweep``) or by one
    :func:`_tagged_process` each (the reference)."""
    env = Environment()
    lane_objs = [FluidLane(env, f"lane{i}", _SWEEP_STAGES) for i in range(lanes)]
    for lane in lane_objs:
        lane.schedules.append(_SWEEP_BULK)
    records = []
    tagged = _TaggedSweep(env, records) if sweep else None
    for flow in flows:
        lane = lane_objs[flow.lane_index]
        if tagged is not None:
            tagged.add(lane, flow)
        else:
            env.process(_tagged_process(env, lane, flow, records))
    for (a, b), inflow in zip(zip(cuts, cuts[1:]), inflows):
        for lane in lane_objs:
            lane.set_inflow(a, inflow)
        if tagged is not None:
            tagged.run(b)
        env.run_epoch(until=b)
    env.run()
    if tagged is not None:
        tagged.drain()
    state = [{k: v for k, v in vars(lane).items() if k != "env"}
             for lane in lane_objs]
    return records, state, env


def _compare_sweep(flows, lanes, cuts, inflows, rank_seed=None):
    """Drive both forms, under a counted tiebreak factory when
    ``rank_seed`` is set; assert they agree; return the sweep's records."""
    drawn = []

    def factory():
        drawn.append(_CountedRanks(rank_seed))
        return drawn[-1]

    runs = []
    for sweep in (False, True):
        set_tiebreak_factory(factory if rank_seed is not None else None)
        try:
            runs.append(_drive_tagged(flows, lanes, cuts, inflows, sweep))
        finally:
            set_tiebreak_factory(None)
    (ref, ref_lanes, ref_env), (got, got_lanes, got_env) = runs
    assert got == ref
    assert tagged_digests(got) == tagged_digests(ref)
    assert got_lanes == ref_lanes
    assert got_env._eid == ref_env._eid
    assert got_env.now == ref_env.now
    assert got_env._queue == []
    if rank_seed is not None:
        assert drawn[0].drawn == drawn[1].drawn == ref_env._eid
    return got


def _flow(j, lane, times, size=1 << 18):
    return TaggedFlow(tenant="c", flow_id=j, lane_index=lane, size=size,
                      times=tuple(times))


#: Tagged instants: quarter-second grid points (exact fire times, so
#: flows tie often) or any float (fire times round off ``t``).
_tagged_instant = st.one_of(
    st.integers(min_value=0, max_value=4 * int(_DAY)).map(lambda k: k / 4),
    st.floats(min_value=0.0, max_value=_DAY, allow_nan=False),
)


class TestTaggedSweep:
    """The sweep replays the per-flow processes: same offers in the same
    order, same lane state, same kernel keys and tiebreak draws."""

    @settings(max_examples=200, deadline=None)
    @given(
        timelines=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2),
                      st.lists(_tagged_instant, max_size=12).map(sorted)),
            min_size=1, max_size=6,
        ),
        lanes=st.integers(min_value=1, max_value=3),
        cuts=st.lists(
            st.integers(min_value=1, max_value=4 * int(_DAY)).map(lambda k: k / 4),
            max_size=8,
        ),
        inflows=st.lists(st.floats(min_value=0.0, max_value=2.5e6),
                         min_size=9, max_size=9),
        rank_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32)),
    )
    def test_matches_the_kernel_processes(
        self, timelines, lanes, cuts, inflows, rank_seed
    ):
        # Cuts sit on the grid, so fire times land exactly on epoch
        # edges; instants past the last cut run in the final drain.
        flows = [_flow(j, lane % lanes, times)
                 for j, (lane, times) in enumerate(timelines)]
        _compare_sweep(flows, lanes, sorted({0.0, *cuts}), inflows, rank_seed)

    def test_ties_follow_kernel_keys_not_flow_order(self):
        # Both flows fire at exactly 3.0 on one lane.  Flow 1 took its
        # timeout's key at 1.0, flow 0 at 2.0, so the kernel offers flow
        # 1's request first; flow order would offer flow 0's first and
        # shift both requests' latencies.
        flows = [_flow(0, 0, (2.0, 3.0)), _flow(1, 0, (1.0, 3.0))]
        got = _compare_sweep(flows, 1, [0.0, 2.5, 8.0], [1.5e6, 0.5e6])
        assert [(r.flow, r.t) for r in got] == [(1, 1.0), (0, 2.0), (1, 3.0), (0, 3.0)]

    def test_fire_times_round_as_the_kernel_does(self):
        # A timeout fires at ``now + (t - now)``: for flow 1's second
        # request that is one ulp past ``b``, exactly flow 0's instant,
        # where flow 0's older key offers first.  Both run in the final
        # drain, which leaves env.now at that instant.
        a, b = 0.3033685109329176, 5.113064243004916
        late = a + (b - a)
        assert late != b
        flows = [_flow(0, 0, (late,)), _flow(1, 0, (a, b))]
        got = _compare_sweep(flows, 1, [0.0, 0.25], [0.5e6])
        assert [r.flow for r in got] == [1, 0, 1]

    def test_zero_delay_requests_take_no_key(self):
        # A request at the start instant or at its flow's previous
        # instant is offered at once, as the process offers it.
        flows = [_flow(0, 0, (0.0, 0.0, 1.5, 1.5)), _flow(1, 0, ())]
        got = _compare_sweep(flows, 1, [0.0, 1.0], [0.0], rank_seed=5)
        assert [(r.flow, r.seq) for r in got] == [(0, 0), (0, 1), (0, 2), (0, 3)]


# ---------------------------------------------------------------------------
# run_scale / equivalence_check
# ---------------------------------------------------------------------------

class TestScale:
    def test_equivalence_small_spec(self):
        verdict = equivalence_check(SMALL)
        assert verdict["ok"], verdict["failures"]
        assert verdict["hybrid_events"] < verdict["event_events"]

    def test_hybrid_deterministic(self):
        r1 = run_scale(SMALL, mode="hybrid")
        r2 = run_scale(SMALL, mode="hybrid")
        assert r1.order_digest == r2.order_digest
        assert r1.latency_digest == r2.latency_digest
        assert r1.bulk_requests == r2.bulk_requests
        assert r1.events_scheduled == r2.events_scheduled

    def test_hybrid_elides_most_events(self):
        # SMALL has churn and an outage, and still no bulk request
        # becomes an event: only the tagged sweep takes kernel keys (one
        # start and one exit per flow, one timeout per request).
        r = run_scale(SMALL, mode="hybrid")
        assert r.fluid_requests > 0
        assert all(lane["fluid_requests"] == lane["requests"] for lane in r.lanes)
        flows = SMALL.cohorts * SMALL.tagged_per_cohort
        assert r.events_scheduled == len(r.tagged) + 2 * flows

    def test_simultaneous_outages_each_match_their_single_fault_run(self):
        both = run_scale(replace(SMALL, faults=((0, 0.5, 0.6), (1, 0.5, 0.6))))
        for idx in (0, 1):
            alone = run_scale(replace(SMALL, faults=((idx, 0.5, 0.6),)))
            assert both.lanes[idx] == alone.lanes[idx]
            lane = f"lane{idx}"
            assert ([r for r in both.tagged if r.lane == lane]
                    == [r for r in alone.tagged if r.lane == lane])

    def test_nested_outage_keeps_the_lane_down_for_the_outer_one(self):
        outer = (0, 0.5, 0.6)
        spec = replace(SMALL, churn=())
        nested = run_scale(replace(spec, faults=(outer, (0, 0.52, 0.55))))
        # Moving the inner outage to lane 1 keeps every epoch cut, so
        # lane 0 must come out bit-identical.
        twin = run_scale(replace(spec, faults=(outer, (1, 0.52, 0.55))))
        assert nested.lanes[0] == twin.lanes[0]
        assert ([r for r in nested.tagged if r.lane == "lane0"]
                == [r for r in twin.tagged if r.lane == "lane0"])
        # Against the outer outage alone only the extra cuts differ.
        alone = run_scale(replace(spec, faults=(outer,)))
        assert nested.lanes[0]["requests"] == alone.lanes[0]["requests"]
        assert nested.lanes[0]["latency_sum"] == pytest.approx(
            alone.lanes[0]["latency_sum"], rel=EQUIVALENCE_EPSILON)

    def test_event_mode_elides_nothing(self):
        r = run_scale(SMALL, mode="event")
        assert r.fluid_requests == 0
        assert r.elide_ratio == 0.0

    def test_percentiles_and_summary(self):
        r = run_scale(SMALL, mode="hybrid")
        pct = r.tagged_percentiles()
        assert pct["count"] == len(r.tagged)
        assert pct["p50"] <= pct["p99"] <= pct["max"]
        summary = r.summary()
        assert summary["mode"] == "hybrid"
        assert summary["elide_ratio"] == r.elide_ratio
        assert ((summary["order_digest"], summary["latency_digest"])
                == tagged_digests(r.tagged))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ScaleSpec(users=4, cohorts=8).validate()
        with pytest.raises(ConfigError):
            ScaleSpec(faults=((9, 0.5, 0.6),)).validate()
        with pytest.raises(ConfigError):
            ScaleSpec(churn=((0, 0.9, 0.3),)).validate()
        SMALL.validate()

    def test_registry_marks_fluid_counters(self):
        env = Environment()
        reg = MetricsRegistry(env)
        lane = FluidLane(env, "l0", (("nvme", 1e6),), registry=reg)
        lane.schedules.append(
            ArrivalSchedule(_const_envelope(100.0, 4096, end=1.0))
        )
        env.run_epoch(until=1.0)
        assert "fluid.lane.l0.requests" in reg.fluid_names
        assert reg.counter("fluid.lane.l0.requests").value == lane.fluid_requests
        assert "fluid" in reg.dump()

    def test_registry_without_fluid_has_no_fluid_key(self):
        env = Environment()
        reg = MetricsRegistry(env)
        reg.counter("plain").incr()
        assert "fluid" not in reg.dump()
