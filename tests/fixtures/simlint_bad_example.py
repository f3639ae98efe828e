"""Deliberately broken module for simlint's acceptance check.

Every statement below violates a rule; ``python -m repro lint`` on this
file must exit non-zero and name each rule ID.  NOT importable as a
test — it exists only as linter input.
"""

import random
import time
from datetime import datetime

import numpy as np

from repro.sim import Environment  # makes this module sim-coupled (SL108 applies)


def wall_clock_everywhere():
    t0 = time.time()                      # SL101
    stamp = datetime.now()                # SL101
    return t0, stamp


def entropy_soup():
    import os

    raw = os.urandom(8)                   # SL102
    pick = random.random()                # SL103
    arr = np.random.rand(4)               # SL103
    return raw, pick, arr


def rng_constructions(seed):
    g1 = np.random.default_rng()          # SL104 (unseeded)
    g2 = np.random.default_rng(seed)      # SL105 (unblessed)
    g3 = random.Random(seed)              # SL105
    return g1, g2, g3


def unstable_ordering(env: Environment, items):
    pending = {1, 2, 3}
    for item in pending:                  # SL108
        items.append(item)
    ordered = sorted(items, key=id)       # SL106
    digest = hash(tuple(items))           # SL107
    return ordered, digest


def busy_retry(attempts):
    for _ in range(attempts):
        time.sleep(0.01)                  # SL110


def unguarded_obs(self):
    self.tracer.instant("tick", track="x")  # SL109
    span = time.monotonic()               # SL101; suppression below is bad
    t = time.perf_counter()  # simlint: disable=SL101
    return span, t                        # ^ SL100: suppression has no reason


def fluid_epoch_body(env, t0, t1):
    return (t1 - t0) * env.now            # SL111 (epoch bodies take bounds)


def skip_ahead(env, delay):
    env.now += delay                      # SL112 (only the kernel moves time)
