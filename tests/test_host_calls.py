"""Host calls per delivered sample on the paper's datapath.

DLFS batches I/O per chunk so that per-sample cost is amortized, and
the simulator's own bookkeeping should be too.  cProfile's call counts
repeat exactly for a seed, so unlike wall time they can gate host cost:
these bounds fail if the reactor or the sample cache goes back to
several Python calls per delivered sample.  Each bound keeps a margin,
because Python 3.12 inlines comprehensions and counts a little fewer
calls than 3.10 and 3.11.
"""

import cProfile
import pstats
from pathlib import Path

import pytest

from repro.bench.workloads import dlfs_observed, preset, run_fleet
from repro.hw import KB
from repro.sim import Environment
from repro.tenancy import TenantSpec, TenantWorkload
from repro.xform import XformSpec, parse_stages

#: Files whose functions' calls are counted.
COUNTED = (("core", "reader.py"), ("core", "cache.py"))


def _calls_per_sample(**shape) -> float:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        r = dlfs_observed(trace=False, metrics=False, **shape)
    finally:
        profiler.disable()
    calls = sum(
        stat[1] for (filename, _line, _func), stat in pstats.Stats(profiler).stats.items()
        if Path(filename).parts[-2:] in COUNTED
    )
    assert r.delivered == shape["samples"]
    return calls / r.delivered


@pytest.mark.parametrize("shape, bound", [
    # e2e ingest's --smoke shape; 10.28 calls per sample when every
    # delivered sample paid its own copy hand-off, acquire and release.
    (dict(samples=7500, sample_bytes=16 * KB, batch=32, mode="chunk",
          num_nodes=4), 4.0),
    # Sample mode fetches each sample on its own; 34.64 before batching.
    (dict(samples=2048, sample_bytes=16 * KB, batch=32, mode="sample",
          num_nodes=2), 34.64),
], ids=["chunk", "sample"])
def test_reader_and_cache_calls_per_sample(shape, bound):
    assert _calls_per_sample(**shape) <= bound


def _xform_fleet_counts(monkeypatch) -> tuple[float, float]:
    """(events scheduled, tier calls) per transform task on a small
    transform fleet: e2e ``pushdown``'s shape (two clients, two storage
    nodes, two workers, a worker crash) over a 0.6 s horizon.  Tier calls
    are those of the transform tier, the data layer it prices records
    with and the directory whose lookups its jobs' fetches pay."""
    envs = []
    init = Environment.__init__

    def recording_init(env, *args, **kwargs):
        init(env, *args, **kwargs)
        envs.append(env)

    monkeypatch.setattr(Environment, "__init__", recording_init)
    h = 0.6
    specs = (TenantSpec(name="train", weight=2.0, slo_latency=5e-3),
             TenantSpec(name="infer", weight=1.0, slo_latency=10e-3))
    workloads = (
        TenantWorkload(name="train", kind="train", batch=16, concurrency=1,
                       sample_lo=0, sample_hi=1024),
        TenantWorkload(name="infer", kind="poisson", rate=200.0, batch=8,
                       sample_lo=1024, sample_hi=2048),
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        r = run_fleet(preset(
            "xform", specs, workloads, num_storage=2, num_clients=2,
            num_samples=2048, horizon=h,
            xform=XformSpec(stages=parse_stages("parse,augment:0.5"), workers=2),
            xform_crashes=((0, 0.4 * h, 0.5 * h),),
        ))
    finally:
        profiler.disable()
    calls = 0
    for (filename, _line, _func), stat in pstats.Stats(profiler).stats.items():
        parts = Path(filename).parts
        if parts[-2:] == ("core", "directory.py") or (
                len(parts) > 1 and parts[-2] in ("xform", "data")
                and "repro" in parts):
            calls += stat[1]
    tasks = r.tier["tasks"]
    assert r.failed == 0 and tasks == 912
    return sum(env._eid for env in envs) / tasks, calls / tasks


def test_xform_events_and_calls_per_task(monkeypatch):
    """A free transfer credit or worker core is claimed without an event,
    a job's first boundary group ships from its own process, records are
    priced once per size and each sample's directory lookup is kept.
    With per-chunk credit events, per-slice core grants and a process
    per group, the fleet scheduled 111.53 events per task; pricing every
    record and walking every lookup cost 341.88 tier calls per task.
    Now 101.32 and 142.08: the bounds allow 2.6% and 5.6% (Python 3.12
    counts fewer calls, no version counts more events)."""
    events, calls = _xform_fleet_counts(monkeypatch)
    assert events <= 104.0
    assert calls <= 150.0
