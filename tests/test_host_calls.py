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

from repro.bench.workloads import dlfs_observed
from repro.hw import KB

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
