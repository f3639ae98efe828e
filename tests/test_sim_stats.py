"""Unit tests for the measurement accumulators."""

import pytest

from repro.sim import Counter, Environment, ThroughputMeter


@pytest.fixture
def env():
    return Environment()


class TestCounter:
    def test_missing_key_is_zero(self):
        assert Counter()["anything"] == 0

    def test_incr_default_and_amount(self):
        c = Counter()
        c.incr("hits")
        c.incr("hits", 4)
        assert c["hits"] == 5

    def test_as_dict_is_copy(self):
        c = Counter()
        c.incr("x")
        d = c.as_dict()
        d["x"] = 99
        assert c["x"] == 1


class TestThroughputMeter:
    def test_rate_zero_before_time_advances(self, env):
        m = ThroughputMeter(env)
        m.record()
        assert m.rate() == 0.0

    def test_rate_counts_per_sim_second(self, env):
        m = ThroughputMeter(env)
        for _ in range(10):
            m.record(nbytes=1024)
        env.run(until=2.0)
        assert m.rate() == pytest.approx(5.0)
        assert m.bandwidth() == pytest.approx(5 * 1024)

    def test_start_resets_window(self, env):
        m = ThroughputMeter(env)
        m.record(count=100)
        env.run(until=1.0)
        m.start()
        m.record(count=4)
        env.run(until=3.0)
        assert m.completions == 4
        assert m.rate() == pytest.approx(2.0)

    def test_record_batch_count(self, env):
        m = ThroughputMeter(env)
        m.record(nbytes=10, count=32)
        assert m.completions == 32
        assert m.bytes == 10

    def test_throughput_meter_zero_elapsed(self, env):
        m = ThroughputMeter(env)
        assert m.rate() == 0.0
        assert m.bandwidth() == 0.0


class TestRecoveryStatsShim:
    """``repro.sim.RecoveryStats`` keeps its original standalone API."""

    def test_standalone_counters_and_dict_api(self, env):
        from repro.sim import RecoveryStats

        rs = RecoveryStats(env)
        assert rs["retries"] == 0
        rs.incr("retries")
        rs.incr("retries", 2)
        assert rs["retries"] == 3
        assert rs.as_dict()["retries"] == 3

    def test_degraded_windows_nest(self, env):
        from repro.sim import RecoveryStats

        rs = RecoveryStats(env)
        env.run(until=1.0)
        rs.enter_degraded()
        env.run(until=2.0)
        rs.enter_degraded()  # overlapping outage counts once
        env.run(until=3.0)
        rs.exit_degraded()
        env.run(until=4.0)
        rs.exit_degraded()
        assert rs.degraded_time == pytest.approx(3.0)
        assert rs.degraded_depth == 0
        with pytest.raises(ValueError):
            rs.exit_degraded()

    def test_shared_registry_carries_counters(self, env):
        from repro.obs import MetricsRegistry
        from repro.sim import RecoveryStats

        reg = MetricsRegistry(env)
        rs = RecoveryStats(env, name="r0.recovery", registry=reg)
        rs.incr("resets")
        assert reg.counter("r0.recovery.resets").value == 1
        assert reg.dump()["recovery"]["r0.recovery"]["resets"] == 1
