"""Unit tests for the DES kernel (events, processes, conditions, clock)."""

import pytest

from repro.errors import InterruptedProcess, SimulationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_initial_time_configurable(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=2.0)

    def test_run_empty_queue_is_noop(self, env):
        env.run()
        assert env.now == 0.0

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_queue_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        times = []

        def proc(env):
            yield env.timeout(1.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [1.5]

    def test_timeout_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(1.0, value="payload")
            return got

        p = env.process(proc(env))
        assert env.run(until=p) == "payload"

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0.0)
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_sequential_timeouts_accumulate(self, env):
        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 3.0

    def test_equal_time_events_fire_in_creation_order(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvent:
    def test_manual_succeed_wakes_waiter(self, env):
        evt = env.event()

        def waiter(env, evt):
            value = yield evt
            return value

        def trigger(env, evt):
            yield env.timeout(2.0)
            evt.succeed("signal")

        p = env.process(waiter(env, evt))
        env.process(trigger(env, evt))
        assert env.run(until=p) == "signal"
        assert env.now == 2.0

    def test_double_succeed_raises(self, env):
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_propagates_to_waiter(self, env):
        evt = env.event()

        def waiter(env, evt):
            try:
                yield evt
            except RuntimeError as exc:
                return f"caught: {exc}"

        def trigger(env, evt):
            yield env.timeout(1.0)
            evt.fail(RuntimeError("boom"))

        p = env.process(waiter(env, evt))
        env.process(trigger(env, evt))
        assert env.run(until=p) == "caught: boom"

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not-an-exception")

    def test_unhandled_failed_event_crashes_run(self, env):
        evt = env.event()
        evt.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError, match="nobody caught me"):
            env.run()

    def test_defused_failed_event_is_silent(self, env):
        evt = env.event()
        evt.fail(ValueError("defused"))
        evt.defuse()
        env.run()  # must not raise

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_triggered_and_processed_lifecycle(self, env):
        evt = env.event()
        assert not evt.triggered and not evt.processed
        evt.succeed(42)
        assert evt.triggered and not evt.processed
        env.run()
        assert evt.processed and evt.value == 42


class TestProcess:
    def test_return_value_is_process_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.value == 99

    def test_process_is_waitable(self, env):
        def child(env):
            yield env.timeout(2.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return result

        p = env.process(parent(env))
        assert env.run(until=p) == "child-result"

    def test_exception_in_process_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise KeyError("inner")

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                return "handled"

        p = env.process(parent(env))
        assert env.run(until=p) == "handled"

    def test_unwaited_crashing_process_fails_run(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise RuntimeError("unhandled crash")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="unhandled crash"):
            env.run()

    def test_yield_non_event_raises_inside_process(self, env):
        def proc(env):
            try:
                yield 42
            except SimulationError:
                return "rejected"

        p = env.process(proc(env))
        assert env.run(until=p) == "rejected"

    def test_yield_foreign_event_rejected(self, env):
        other = Environment()

        def proc(env):
            try:
                yield other.timeout(1.0)
            except SimulationError:
                return "rejected"

        p = env.process(proc(env))
        assert env.run(until=p) == "rejected"

    def test_is_alive(self, env):
        def proc(env):
            yield env.timeout(5.0)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_waiting_on_already_processed_event(self, env):
        evt = env.event()
        evt.succeed("early")
        env.run()

        def proc(env):
            value = yield evt
            return value

        p = env.process(proc(env))
        assert env.run(until=p) == "early"

    def test_named_process_repr(self, env):
        def proc(env):
            yield env.timeout(1.0)

        p = env.process(proc(env), name="my-task")
        assert "my-task" in repr(p)


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except InterruptedProcess as intr:
                return ("interrupted", intr.cause, env.now)

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt(cause="wakeup")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert victim.value == ("interrupted", "wakeup", 1.0)

    def test_interrupt_dead_process_raises(self, env):
        def proc(env):
            yield env.timeout(1.0)

        p = env.process(proc(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_waits_for_latest(self, env):
        def proc(env):
            events = [env.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
            results = yield env.all_of(events)
            return (env.now, sorted(results.values()))

        p = env.process(proc(env))
        assert env.run(until=p) == (3.0, [1.0, 2.0, 3.0])

    def test_any_of_fires_on_earliest(self, env):
        def proc(env):
            events = [env.timeout(t, value=t) for t in (5.0, 1.0, 3.0)]
            results = yield env.any_of(events)
            return (env.now, list(results.values()))

        p = env.process(proc(env))
        assert env.run(until=p) == (1.0, [1.0])

    def test_all_of_empty_fires_immediately(self, env):
        def proc(env):
            results = yield env.all_of([])
            return (env.now, results)

        p = env.process(proc(env))
        assert env.run(until=p) == (0.0, {})

    def test_any_of_empty_fires_immediately(self, env):
        def proc(env):
            results = yield env.any_of([])
            return results

        p = env.process(proc(env))
        assert env.run(until=p) == {}

    def test_all_of_with_already_processed_children(self, env):
        e1, e2 = env.event(), env.event()
        e1.succeed("a")
        e2.succeed("b")
        env.run()

        def proc(env):
            results = yield env.all_of([e1, e2])
            return sorted(results.values())

        p = env.process(proc(env))
        assert env.run(until=p) == ["a", "b"]

    def test_all_of_fails_if_child_fails(self, env):
        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def proc(env):
            try:
                yield env.all_of([env.process(bad(env)), env.timeout(10.0)])
            except ValueError:
                return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 1.0

    def test_condition_rejects_foreign_events(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([other.timeout(1.0)])


class TestRunUntilEvent:
    def test_run_until_process_returns_value(self, env):
        def proc(env):
            yield env.timeout(2.0)
            return "finished"

        assert env.run(until=env.process(proc(env))) == "finished"

    def test_run_until_never_firing_event_raises(self, env):
        stalled = env.event()
        env.timeout(1.0)  # something to process, but not the target
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=stalled)

    def test_run_until_failed_event_raises_its_error(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise OSError("disk on fire")

        with pytest.raises(OSError, match="disk on fire"):
            env.run(until=env.process(proc(env)))

    def test_remaining_events_survive_run_until(self, env):
        late = []

        def early(env):
            yield env.timeout(1.0)

        def later(env):
            yield env.timeout(5.0)
            late.append(env.now)

        env.process(later(env))
        env.run(until=env.process(early(env)))
        assert late == []
        env.run()
        assert late == [5.0]
