"""Chaos sweep: DLFS throughput and accounting under escalating faults.

Not a paper figure — this exercises the fault-injection subsystem
(:mod:`repro.faults`) end to end: media errors plus periodic qpair
resets at increasing rates, full epochs each, with the hard invariant
``delivered + failed == expected`` checked at every point.

Runs under pytest-benchmark like the figure benchmarks, and doubles as
a CI smoke test::

    PYTHONPATH=src python benchmarks/bench_faults.py --smoke
"""

import argparse
import sys

from repro.bench.workloads import Readers, dlfs_observed, dlfs_readers
from repro.faults import FaultPlan, ZERO_PLAN
from repro.obs import render_percentiles

#: Per-command media-error rates swept (0.0 = the pay-for-use baseline).
RATES = (0.0, 0.001, 0.01, 0.05)


def plan_for(rate: float) -> FaultPlan:
    if rate == 0.0:
        return ZERO_PLAN
    return FaultPlan(
        seed=7,
        media_error_rate=rate,
        timeout_rate=rate / 5.0,
        qpair_reset_period=2e-3,
    )


def run_sweep(num_samples: int = 1024, epochs: int = 2, num_nodes: int = 2):
    rows = []
    for rate in RATES:
        # Sample-level batching: one SPDK command per sample, so the
        # per-command rates bite at sweep scale.
        result = dlfs_readers(
            Readers(epochs=epochs),
            num_clients=num_nodes,
            num_samples=num_samples,
            sample_bytes=4096,
            batching="sample",
            fault_plan=plan_for(rate),
        )
        assert result.delivered + result.failed == result.expected, (
            f"rate={rate}: delivered {result.delivered} + failed "
            f"{result.failed} != expected {result.expected}"
        )
        rows.append((rate, result))
    return rows


def render(rows) -> str:
    lines = [
        "chaos sweep (media-error rate, +timeouts, +periodic qpair resets)",
        f"{'rate':>7}  {'samples/s':>12}  {'delivered':>9}  {'failed':>6}  "
        f"{'retries':>7}  {'resets':>6}  {'degraded ms':>11}",
    ]
    for rate, r in rows:
        lines.append(
            f"{rate:>7.3f}  {r.sample_throughput:>12,.0f}  "
            f"{r.delivered:>9}  {r.failed:>6}  "
            f"{r.recovery.get('retries', 0):>7}  "
            f"{r.recovery.get('resets', 0):>6}  "
            f"{r.recovery.get('degraded_time', 0.0) * 1e3:>11.3f}"
        )
    return "\n".join(lines)


def observed_percentiles(num_samples: int = 512, rate: float = 0.01) -> str:
    """Per-layer latency panel from one observed fault-injected run."""
    r = dlfs_observed(
        samples=num_samples, sample_bytes=4096, mode="sample",
        fault_plan=plan_for(rate), trace=False, metrics=True,
    )
    return render_percentiles(r.obs.metrics)


def test_chaos_sweep(benchmark, capsys):
    from conftest import run_once

    rows = run_once(benchmark, run_sweep)
    with capsys.disabled():
        print()
        print(render(rows))
        print()
        print(observed_percentiles())
    baseline = rows[0][1]
    # The zero plan is fault-free: no losses, no recovery activity.
    assert baseline.failed == 0
    assert baseline.fault_counts == {}
    for rate, r in rows:
        # Graceful degradation: every epoch completes at every rate.
        assert r.delivered + r.failed == r.expected
        assert r.delivered > 0
    # Recovery actually engages once faults are injected.
    assert any(r.recovery.get("retries", 0) > 0 for rate, r in rows if rate > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast sweep (CI): fewer samples, one epoch",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_sweep(num_samples=256, epochs=1)
        percentiles = observed_percentiles(num_samples=256)
    else:
        rows = run_sweep()
        percentiles = observed_percentiles()
    print(render(rows))
    print()
    print(percentiles)
    print("accounting: OK (delivered + failed == expected at every rate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
