"""Unit tests for the NVMe device model: latency, IOPS, bandwidth envelope."""

import pytest

from repro.errors import ConfigError, HardwareError, QueueFullError
from repro.hw import KB, MB, USEC, NVMeDevice, NVMeSpec
from repro.obs import Observability
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def dev(env):
    return NVMeDevice(env, NVMeSpec.intel_optane_480g(), name="d0")


def drain(env, cmds):
    """Run until all commands complete; returns them."""
    done = env.all_of([c.completion for c in cmds])
    env.run(until=done)
    return cmds


class TestSoloLatency:
    def test_4k_read_latency_matches_model(self, env, dev):
        spec = dev.spec
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        expected = spec.cmd_overhead + spec.read_latency + spec.transfer_time(4 * KB)
        assert cmd.latency == pytest.approx(expected)

    def test_4k_read_latency_is_order_10us(self, env, dev):
        cmd = dev.read(0, 4 * KB)
        env.run(until=cmd.completion)
        assert 5 * USEC < cmd.latency < 30 * USEC

    def test_large_read_latency_dominated_by_transfer(self, env, dev):
        cmd = dev.read(0, 16 * MB)
        env.run(until=cmd.completion)
        transfer = dev.spec.transfer_time(16 * MB)
        assert cmd.latency == pytest.approx(transfer, rel=0.02)

    def test_latency_recorded_in_histogram(self, env, dev):
        obs = Observability(env, metrics=True)
        dev.install_observability(obs)
        drain(env, [dev.read(0, 4 * KB) for _ in range(5)])
        assert obs.metrics.histogram("nvme.latency").count == 5


class TestThroughputEnvelope:
    def test_small_command_iops_near_ceiling(self, env, dev):
        """Sustained 512 B reads with deep queue approach 1/cmd_overhead."""
        n = 2000
        drain(env, [dev.read(i * 512, 512) for i in range(n)])
        iops = n / env.now
        ceiling = 1.0 / dev.spec.cmd_overhead
        assert iops > 0.9 * ceiling
        assert iops <= ceiling * 1.01

    def test_large_command_bandwidth_near_device_limit(self, env, dev):
        n = 50
        drain(env, [dev.read(i * MB, 1 * MB) for i in range(n)])
        bw = n * MB / env.now
        assert bw > 0.9 * dev.spec.read_bandwidth
        assert bw <= dev.spec.read_bandwidth * 1.01

    def test_bandwidth_utilization_under_load(self, env, dev):
        drain(env, [dev.read(i * MB, 1 * MB) for i in range(20)])
        assert dev.bandwidth_utilization() > 0.8

    def test_read_meter_counts_bytes(self, env, dev):
        drain(env, [dev.read(i * 4096, 4 * KB) for i in range(3)])
        assert dev.read_meter.bytes == 3 * 4 * KB
        assert dev.read_meter.completions == 3

    def test_concurrent_commands_overlap_media_latency(self, env, dev):
        """Two queued 4K reads must finish well before 2x solo latency."""
        solo_env = Environment()
        solo_dev = NVMeDevice(solo_env, dev.spec)
        solo = solo_dev.read(0, 4 * KB)
        solo_env.run(until=solo.completion)

        drain(env, [dev.read(0, 4 * KB), dev.read(8192, 4 * KB)])
        assert env.now < 2 * solo.latency * 0.9


class TestWrites:
    def test_write_completes_and_meters(self, env, dev):
        cmd = dev.write(0, 128 * KB)
        env.run(until=cmd.completion)
        assert dev.write_meter.bytes == 128 * KB
        assert dev.read_meter.bytes == 0


class TestValidation:
    def test_bad_opcode(self, dev):
        with pytest.raises(HardwareError):
            dev.submit("trim", 0, 4096)

    def test_zero_size(self, dev):
        with pytest.raises(HardwareError):
            dev.read(0, 0)

    def test_beyond_capacity(self, env):
        dev = NVMeDevice(env, capacity=1 * MB)
        with pytest.raises(HardwareError):
            dev.read(1 * MB - 512, 4096)

    def test_unaligned_offset(self, dev):
        with pytest.raises(HardwareError):
            dev.read(100, 4096)

    def test_queue_full(self, env):
        spec = NVMeSpec(max_outstanding=4)
        dev = NVMeDevice(env, spec)
        for i in range(4):
            dev.read(i * 4096, 4 * KB)
        with pytest.raises(QueueFullError):
            dev.read(5 * 4096, 4 * KB)

    def test_outstanding_drains(self, env, dev):
        cmds = [dev.read(i * 4096, 4 * KB) for i in range(8)]
        assert dev.outstanding == 8
        drain(env, cmds)
        assert dev.outstanding == 0

    def test_nonpositive_capacity_rejected(self, env):
        with pytest.raises(ConfigError):
            NVMeDevice(env, capacity=0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            NVMeSpec(read_bandwidth=-1).validate()
        with pytest.raises(ConfigError):
            NVMeSpec(max_outstanding=0).validate()


class TestEmulatedSpec:
    def test_emulated_keeps_envelope(self):
        real, emu = NVMeSpec.intel_optane_480g(), NVMeSpec.emulated_ramdisk()
        assert emu.emulated and not real.emulated
        assert emu.read_bandwidth == real.read_bandwidth
        assert emu.read_latency == real.read_latency

    def test_emulated_device_repr(self, env):
        dev = NVMeDevice(env, NVMeSpec.emulated_ramdisk())
        assert "emulated" in repr(dev)
