"""Unit tests for Resource / Store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import LifecycleAudit, perturbed_tiebreaks
from repro.errors import ResourceError
from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env, capacity=2)

        def proc(env):
            req = res.request()
            yield req
            granted_at = env.now
            assert res.count == 1  # held exactly while we own the slot
            res.release(req)
            return granted_at

        p = env.process(proc(env))
        assert env.run(until=p) == 0.0
        assert res.count == 0  # the slot went back on every path

    def test_fifo_ordering_under_contention(self, env):
        res = Resource(env, capacity=1)
        order = []

        def proc(env, tag):
            yield from res.hold(1.0)
            order.append((tag, env.now))

        for tag in ("first", "second", "third"):
            env.process(proc(env, tag))
        env.run()
        assert order == [("first", 1.0), ("second", 2.0), ("third", 3.0)]

    def test_capacity_two_runs_pairs_concurrently(self, env):
        res = Resource(env, capacity=2)
        done = []

        def proc(env, tag):
            yield from res.hold(1.0)
            done.append((tag, env.now))

        for tag in range(4):
            env.process(proc(env, tag))
        env.run()
        assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]

    def test_release_unowned_request_raises(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(ResourceError):
                res.release(req)

        env.run(until=env.process(proc(env)))

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            yield from res.hold(5.0)

        def impatient(env):
            yield env.timeout(0.1)
            req = res.request()
            yield env.timeout(1.0)
            res.cancel(req)
            return res.queue_length

        env.process(holder(env))
        p = env.process(impatient(env))
        assert env.run(until=p) == 0

    def test_cancel_granted_request_raises(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            with pytest.raises(ResourceError):
                res.cancel(req)
            res.release(req)

        env.run(until=env.process(proc(env)))

    def test_utilization_full(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            yield from res.hold(10.0)

        env.process(proc(env))
        env.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_utilization_half(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            yield from res.hold(5.0)
            yield env.timeout(5.0)  # idle second half

        env.process(proc(env))
        env.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_utilization_scales_with_capacity(self, env):
        res = Resource(env, capacity=4)

        def proc(env):
            yield from res.hold(10.0)

        env.process(proc(env))  # one of four slots busy
        env.run()
        assert res.utilization() == pytest.approx(0.25)

    def test_hold_releases_on_exception(self, env):
        res = Resource(env, capacity=1)

        def crasher(env):
            gen = res.hold(10.0)
            req = next(gen)
            yield req
            gen.throw(RuntimeError("abort"))
            yield env.timeout(0)  # pragma: no cover

        def follower(env):
            yield from res.hold(1.0)
            return env.now

        env.process(crasher(env)).defuse()
        p = env.process(follower(env))
        assert env.run(until=p) == 1.0


class TestTryRequest:
    def test_grants_free_slots_without_an_event(self, env):
        res = Resource(env, capacity=2)
        eid = env._eid
        a, b = res.try_request(), res.try_request()
        assert a is not None and b is not None
        assert a.processed and a.value is a
        assert res.count == 2
        assert res.try_request() is None  # full
        res.release(a)
        assert res.count == 1
        assert env._eid == eid  # nothing was scheduled

    def test_refuses_while_the_slot_is_held_or_handed_on(self, env):
        res = Resource(env, capacity=1)
        held = res.try_request()
        waiting = res.request()
        assert not waiting.triggered
        assert res.try_request() is None
        res.release(held)  # hands the slot to the waiter
        assert waiting.triggered and res.count == 1
        assert res.try_request() is None
        res.release(waiting)

    def test_yielding_a_granted_claim_does_not_suspend(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.try_request()
            got = yield req
            assert got is req
            yield env.timeout(1.0)
            res.release(req)
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 1.0
        assert env._eid == 3  # start, timeout, end: no grant event

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 3),
        procs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       min_size=1, max_size=12),
    )
    def test_matches_request_then_yield(self, capacity, procs):
        """Random arrivals and holds, in quarter seconds so that grants
        and releases tie: claiming with try_request (falling back to
        request) gives every process the grant and release times of
        request() plus yield, the same busy integral, and fewer events.
        try_request refuses exactly when request() would queue."""

        def requested(res):
            req = res.request()
            yield req
            return req

        def tried(res):
            free = res.count < res.capacity and not res.queue_length
            req = res.try_request()
            assert (req is not None) == free
            if req is None:
                req = res.request()
                assert not req.triggered
                yield req
            return req

        def run(claim):
            env = Environment()
            res = Resource(env, capacity=capacity)
            log = {}

            def proc(tag, start, hold):
                yield env.timeout(start / 4)
                req = yield from claim(res)
                granted = env.now
                yield env.timeout(hold / 4)
                res.release(req)
                log[tag] = (granted, env.now)

            for tag, (start, hold) in enumerate(procs):
                env.process(proc(tag, start, hold))
            env.run()
            return log, res.utilization(), res._busy_integral, env._eid

        *want, want_events = run(requested)
        *got, got_events = run(tried)
        assert got == want
        assert got_events < want_events

    def test_lifecycle_audit_sees_its_claims(self):
        audit = LifecycleAudit()
        with perturbed_tiebreaks(None, audit):
            env = Environment()
            res = Resource(env, capacity=1, name="core")

            def proc(env):
                req = res.try_request()
                yield env.timeout(1.0)
                res.release(req)

            env.process(proc(env))
            env.run()
            Resource(env, capacity=1, name="leaky").try_request()
        assert audit.finish() == [
            "leaky: 1 resource slot(s) still held at end of run"
        ]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def proc(env):
            yield store.put("item")
            value = yield store.get()
            return value

        assert env.run(until=env.process(proc(env))) == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def getter(env):
            value = yield store.get()
            return (value, env.now)

        def putter(env):
            yield env.timeout(3.0)
            yield store.put("late")

        p = env.process(getter(env))
        env.process(putter(env))
        assert env.run(until=p) == ("late", 3.0)

    def test_bounded_put_blocks_until_get(self, env):
        store = Store(env, capacity=1)

        def putter(env):
            yield store.put(1)
            yield store.put(2)  # blocks
            return env.now

        def getter(env):
            yield env.timeout(4.0)
            yield store.get()

        p = env.process(putter(env))
        env.process(getter(env))
        assert env.run(until=p) == 4.0

    def test_fifo_item_order(self, env):
        store = Store(env)
        got = []

        def proc(env):
            for i in range(5):
                yield store.put(i)
            for _ in range(5):
                got.append((yield store.get()))

        env.run(until=env.process(proc(env)))
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_getter_order(self, env):
        store = Store(env)
        got = []

        def getter(env, tag):
            value = yield store.get()
            got.append((tag, value))

        def putter(env):
            yield env.timeout(1.0)
            for i in range(3):
                yield store.put(i)

        for tag in ("g0", "g1", "g2"):
            env.process(getter(env, tag))
        env.process(putter(env))
        env.run()
        assert got == [("g0", 0), ("g1", 1), ("g2", 2)]

    def test_len_and_items_snapshot(self, env):
        store = Store(env)

        def proc(env):
            yield store.put("a")
            yield store.put("b")

        env.run(until=env.process(proc(env)))
        assert len(store) == 2
        assert store.items == ("a", "b")

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)
