"""Deliberately broken module for simflow's acceptance check.

Unlike ``simlint_bad_example.py`` nothing here calls a forbidden API at
the sink line — every violation is *laundered* through a helper, a
return value, a default argument, or an attribute store, so the
syntactic SL rules stay silent and only the whole-program passes fire.
``tests/test_simflow.py`` asserts the exact rule IDs AND line numbers
below, so keep edits line-stable (append, don't insert).

NOT importable as a test — it exists only as analyzer input.
"""

import time

from repro.sim import Environment  # sim-coupled: SF201 applies here
from repro.sim import rng


# -- taint laundering (SF200–SF203) -----------------------------------------

def measured_jitter():
    """Launders a wall-clock read behind an innocent-looking return."""
    sample = time.time()
    return sample % 1.0


def wait_a_bit(env, delay):
    """Launders the sink: the tainted value arrives as a parameter."""
    yield env.timeout(delay)                    # sink inside the helper


def drive(env: Environment, res):
    d = measured_jitter()
    yield env.timeout(d)                        # line 34: SF200 (via return)
    yield from wait_a_bit(env, time.time())     # line 35: SF200 (via param)
    g = rng("fixture.stream", int(time.time()))  # line 36: SF203
    order = sorted([3, 1, 2], key=lambda x: id(x))  # line 37: SF202
    return g, order


class JitterBox:
    def __init__(self, env, slack=time.time()):  # default arg evaluated once
        self.env = env
        self.slack = slack                      # line 44: SF201 (default arg)

    def spin(self):
        yield self.env.timeout(self.slack)      # line 47: SF200 (via attr)


# -- lifecycle leaks (SF300–SF304), one per protocol ------------------------

def leaky_slot(env, res):
    req = res.request()                         # line 53: SF300
    yield req
    if env.now > 1.0:
        return None                             # early return leaks the slot
    res.release(req)
    return True


def leaky_credit(env, credit_pool):
    req = credit_pool.request()                 # line 62: SF302
    yield req
    if env.now > 2.0:
        raise RuntimeError("mid-transfer failure")  # leaks the credit
    credit_pool.release(req)


def leaky_span(tracer, env):
    span = tracer.start("op", track="t")        # line 70: SF301
    if env.now > 3.0:
        return                                  # span never finished
    span.finish()


def leaky_charge(ledger, tenant, need):
    ledger.charge(tenant, need)                 # line 77: SF303
    if need > 64:
        raise ValueError("over quota")          # charge not undone
    return True


class FlakyQPair:
    def __init__(self):
        self._live = {}
        self._generation = 0
        self.connected = True

    def reset(self):
        self._live.clear()
        self._generation += 1                   # correct pairing: no finding
        self.connected = False

    def abort_inflight(self):
        self._live.clear()                      # line 95: SF304 (no bump)
        self.connected = False


# -- timed calls are event posts too (SF200) ---------------------------------

def chained_wait(env, step):
    env.call_at(env.now + measured_jitter(), step)  # line 102: SF200 (timed call)
