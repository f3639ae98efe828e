"""Replicated cluster serving: fleet scaling + single-node-loss failover.

Not a paper figure — this exercises the replicated serving tier
(:mod:`repro.cluster`) end to end and gates its two acceptance
properties:

* **scaling** — growing the fleet (storage nodes and clients together,
  so per-node offered load is constant) must scale delivered throughput
  near-linearly: per-client throughput at the largest fleet within
  ``SCALING_EFFICIENCY`` of the smallest fleet's;
* **failover** — one seeded node crash + rejoin under live traffic must
  lose zero samples (every admitted sample delivered, ``failed == 0``),
  keep the victim-window job p99 within ``P99_DEGRADATION`` of the
  no-crash baseline, and recover post-rejoin throughput to within
  ``RECOVERY_TOLERANCE`` of the baseline over the same window;
* **isolation** — the preset's tenant mix (closed-loop ``train`` with
  4 workers per client beside the open-loop ``serve`` tenant) must keep
  serve's job p99 within its own SLO, with zero SLO misses.  The run is
  long enough for train's sample range to become cache-resident (near
  50 ms on the full fleet): from then on train's jobs are cache hits
  that keep every reactor's SCQ busy, and a poll loop that drained the
  SCQ before posting starved serve's fetches of qpair slots.

The victim window is ``[crash, rejoin + settle]``; the post-rejoin
window starts at ``rejoin + SETTLE_MARGIN`` — the margin covers the
client watchdog's detect delay, the reconnect delay, the cache re-warm,
and the closed-loop tenants' pipelines refilling after the degraded
period.  Windows are measured from the per-job completion records
(``RunReport.records``), not whole-run aggregates, so the drain
tail after the arrival horizon cannot mask degradation.

Doubles as a CI smoke test::

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick
"""

import argparse
import json
import sys

import numpy as np

from repro.bench.workloads import cluster_tenants, dlfs_cluster

#: (storage nodes, clients) pairs swept by the scaling section.
FLEETS = ((2, 1), (4, 2), (8, 4))
#: Per-client throughput at the largest fleet vs the smallest.
SCALING_EFFICIENCY = 0.75
#: Victim-window p99 bound, as a multiple of the no-crash baseline.
P99_DEGRADATION = 3.0
#: Post-rejoin throughput must match the baseline within this fraction.
RECOVERY_TOLERANCE = 0.05
#: Seconds after the rejoin instant before throughput is judged
#: (detect delay + reconnect + re-warm + pipeline refill).
SETTLE_MARGIN = 0.005

CRASH_LANE = 1
CRASH_T = 0.006
REJOIN_T = 0.012


def run_scaling(horizon: float, fleets=FLEETS):
    """Per-client throughput across fleet sizes (healthy runs)."""
    rows = []
    for storage, clients in fleets:
        r = dlfs_cluster(
            num_storage=storage, num_clients=clients, replicas=2,
            horizon=horizon,
        )
        rows.append({
            "storage": storage,
            "clients": clients,
            "delivered": r.delivered,
            "failed": r.failed,
            "sim_time": r.sim_time,
            "throughput": r.sample_throughput,
            "per_client": r.sample_throughput / clients,
        })
    baseline = rows[0]["per_client"]
    for row in rows:
        row["efficiency"] = row["per_client"] / baseline if baseline else 0.0
    ok = all(
        row["efficiency"] >= SCALING_EFFICIENCY and row["failed"] == 0
        for row in rows
    )
    return rows, ok


def _window_p99(report, lo: float, hi: float) -> float:
    lats = [rec[2] for rec in report.records if lo <= rec[0] < hi]
    return float(np.percentile(lats, 99)) if lats else 0.0


def _window_delivered(report, lo: float, hi: float) -> int:
    return sum(rec[3] for rec in report.records if lo <= rec[0] < hi)


def run_failover(horizon: float, storage: int, clients: int):
    """One seeded crash + rejoin vs the no-crash baseline."""
    base = dlfs_cluster(
        num_storage=storage, num_clients=clients, replicas=2,
        horizon=horizon,
    )
    crash = dlfs_cluster(
        num_storage=storage, num_clients=clients, replicas=2,
        horizon=horizon, node_crashes=((CRASH_LANE, CRASH_T, REJOIN_T),),
    )

    victim_lo, victim_hi = CRASH_T, REJOIN_T + 0.002
    p99_base = _window_p99(base, victim_lo, victim_hi)
    p99_crash = _window_p99(crash, victim_lo, victim_hi)
    p99_ratio = p99_crash / p99_base if p99_base > 0 else float("inf")

    recover_lo = REJOIN_T + SETTLE_MARGIN
    thr_base = _window_delivered(base, recover_lo, horizon)
    thr_crash = _window_delivered(crash, recover_lo, horizon)
    thr_ratio = thr_crash / thr_base if thr_base else float("inf")

    zero_loss = crash.failed == 0
    p99_ok = p99_ratio <= P99_DEGRADATION
    recovered = abs(1.0 - thr_ratio) <= RECOVERY_TOLERANCE
    return {
        "storage": storage,
        "clients": clients,
        "crash": [CRASH_LANE, CRASH_T, REJOIN_T],
        "delivered_base": base.delivered,
        "delivered_crash": crash.delivered,
        "failed_crash": crash.failed,
        "victim_window": [victim_lo, victim_hi],
        "victim_p99_base": p99_base,
        "victim_p99_crash": p99_crash,
        "victim_p99_ratio": p99_ratio,
        "post_rejoin_window": [recover_lo, horizon],
        "post_rejoin_delivered_base": thr_base,
        "post_rejoin_delivered_crash": thr_crash,
        "post_rejoin_ratio": thr_ratio,
        "lifecycle": crash.lifecycle,
        "recovery": crash.recovery,
        "zero_loss": zero_loss,
        "p99_ok": p99_ok,
        "recovered": recovered,
        "ok": zero_loss and p99_ok and recovered,
    }


def run_isolation(quick: bool):
    """Serve's tail beside the preset's closed-loop train tenant."""
    specs, workloads = cluster_tenants()
    slo = {s.name: s.slo_latency for s in specs}["serve"]
    workers = {w.name: w.concurrency for w in workloads}["train"]
    fields = (
        dict(num_storage=4, num_clients=1, num_samples=2048, horizon=0.03)
        if quick else dict(horizon=0.1)
    )
    r = dlfs_cluster(**fields)
    serve = next(row for row in r.per_tenant if row["tenant"] == "serve")
    ok = serve["p99"] <= slo and serve["slo_violations"] == 0
    return {
        **fields,
        "train_workers_per_client": workers,
        "serve_slo": slo,
        "serve_jobs": serve["jobs"],
        "serve_p50": serve["p50"],
        "serve_p99": serve["p99"],
        "serve_slo_misses": serve["slo_violations"],
        "throughput": r.sample_throughput,
        "failed": r.failed,
        "ok": ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller fleets and shorter horizon (CI)")
    parser.add_argument("--out", default="BENCH_cluster.json",
                        help="JSON artifact path (default BENCH_cluster.json)")
    args = parser.parse_args(argv)

    horizon = 0.02
    fleets = FLEETS[:2] if args.quick else FLEETS
    # The failover gate always runs the ISSUE's 8-node fleet: a 4-node
    # fleet loses 25% capacity to one crash and its degradation tail
    # outlives any sensible settle margin.  Quick mode drops to one
    # client driving it.
    storage, clients = (8, 1) if args.quick else (8, 2)

    print(f"== bench_cluster: horizon {horizon * 1e3:.0f} ms, R=2 ==\n")

    print("-- fleet scaling (healthy, per-client throughput) --")
    scaling, scaling_ok = run_scaling(horizon, fleets)
    for row in scaling:
        status = "ok" if row["efficiency"] >= SCALING_EFFICIENCY else "FAIL"
        print(f"  {row['storage']:>2} storage / {row['clients']} client(s): "
              f"{row['throughput']:>10,.0f} samples/s  "
              f"per-client {row['per_client']:>9,.0f}  "
              f"efficiency {row['efficiency']:.1%} [{status}]")

    print(f"\n-- failover: {storage} nodes, crash lane {CRASH_LANE} at "
          f"{CRASH_T * 1e3:.0f} ms, rejoin at {REJOIN_T * 1e3:.0f} ms --")
    failover = run_failover(horizon, storage, clients)
    print(f"  delivered        base {failover['delivered_base']}, "
          f"crash {failover['delivered_crash']}, "
          f"failed {failover['failed_crash']} "
          f"[{'ok' if failover['zero_loss'] else 'FAIL'}]")
    print(f"  victim-window p99  "
          f"{failover['victim_p99_base'] * 1e3:.3f} ms -> "
          f"{failover['victim_p99_crash'] * 1e3:.3f} ms  "
          f"({failover['victim_p99_ratio']:.2f}x, bar {P99_DEGRADATION:.1f}x) "
          f"[{'ok' if failover['p99_ok'] else 'FAIL'}]")
    print(f"  post-rejoin      base {failover['post_rejoin_delivered_base']}, "
          f"crash {failover['post_rejoin_delivered_crash']} samples  "
          f"(ratio {failover['post_rejoin_ratio']:.3f}, "
          f"bar 1±{RECOVERY_TOLERANCE:.0%}) "
          f"[{'ok' if failover['recovered'] else 'FAIL'}]")
    lc = failover["lifecycle"]
    print(f"  lifecycle        crashes={lc.get('crashes', 0)} "
          f"rejoins={lc.get('rejoins', 0)} "
          f"handoffs={lc.get('handoffs_started', 0)} "
          f"(completed {lc.get('handoffs_completed', 0)}, "
          f"aborted {lc.get('handoffs_aborted', 0)}) "
          f"failovers={failover['recovery'].get('failovers', 0)}")

    isolation = run_isolation(args.quick)
    print(f"\n-- isolation: serve beside "
          f"{isolation['train_workers_per_client']} closed-loop train "
          f"workers per client, horizon "
          f"{isolation['horizon'] * 1e3:.0f} ms --")
    print(f"  serve p99        {isolation['serve_p99'] * 1e3:.3f} ms "
          f"(p50 {isolation['serve_p50'] * 1e3:.3f} ms, "
          f"SLO {isolation['serve_slo'] * 1e3:.0f} ms), "
          f"{isolation['serve_slo_misses']} of {isolation['serve_jobs']} "
          f"jobs over SLO [{'ok' if isolation['ok'] else 'FAIL'}]")

    ok = scaling_ok and failover["ok"] and isolation["ok"]
    artifact = {
        "ok": ok,
        "horizon": horizon,
        "replicas": 2,
        "scaling_efficiency_bar": SCALING_EFFICIENCY,
        "p99_degradation_bar": P99_DEGRADATION,
        "recovery_tolerance": RECOVERY_TOLERANCE,
        "settle_margin": SETTLE_MARGIN,
        "scaling": scaling,
        "failover": failover,
        "isolation": isolation,
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
