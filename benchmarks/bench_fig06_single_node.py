"""Fig 6: random-read sample throughput on the single real NVMe device.

Series: Ext4-Base (1 thread), Ext4-MC (10 threads/cores), DLFS-Base
(synchronous dlfs_read), DLFS (full batching).
"""

from conftest import run_once

from repro.bench import fig06_single_node_throughput
from repro.hw import KB


def test_fig06_single_node_throughput(benchmark, emit):
    result = run_once(benchmark, fig06_single_node_throughput, scale=1.0)
    emit(result)
    small = [s for s in result.series["DLFS"] if s <= 4 * KB]
    big = [s for s in result.series["DLFS"] if s >= 16 * KB]

    # Ordering for small samples: DLFS > Ext4-MC > DLFS-Base > Ext4-Base.
    for s in small:
        assert result.series["DLFS"][s] > result.series["Ext4-MC"][s]
        assert result.series["Ext4-MC"][s] > result.series["DLFS-Base"][s]
        assert result.series["DLFS-Base"][s] > result.series["Ext4-Base"][s]

    # Paper: DLFS-Base beats Ext4-Base by at least 1.82x at <= 4 KB.
    _, base_ratio = result.headline[
        "DLFS-Base / Ext4-Base (<=4KB), paper: >= 1.82x"
    ]
    assert base_ratio >= 1.8

    # Paper: Ext4-MC still 3.35x below DLFS for small samples.
    _, mc_ratio = result.headline["DLFS / Ext4-MC (small), paper: 3.35x"]
    assert 1.5 <= mc_ratio <= 8.0

    # Paper: at >= 16 KB Ext4-Base is still 43.8% below DLFS.
    _, big_frac = result.headline[
        "Ext4-Base vs DLFS (>=16KB), paper: 43.8% lower"
    ]
    assert 0.35 <= big_frac <= 0.75

    # DLFS is the best system at every size.
    for s in result.series["DLFS"]:
        for other in ("Ext4-Base", "DLFS-Base"):
            assert result.series["DLFS"][s] >= result.series[other][s]

