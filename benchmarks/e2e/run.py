"""End-to-end benchmark of the DLFS reproduction, in two time domains.

Host time is what the simulator takes to run; simulated time is what
the modelled storage system would take.  Every repetition runs in a
fresh single-threaded child process (``child.py``), one at a time.

One workload and seed, measured for a fixed time; the last line of
standard output is the result as JSON::

    python3 benchmarks/e2e/run.py --workload serve --seed 7 --seconds 20 --trace 0

Every workload, repetitions round-robin over them, with a results file
for ``compare.py``::

    python3 benchmarks/e2e/run.py [--seed 42] [--reps 5] [--trace 0] [--smoke]

``--trace 1`` (the default) adds a profiled run and a metrics-registry
run per workload and reports the per-layer metrics.  The run exits
non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYER_NAMES

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("ingest", "serve", "failover", "pushdown", "fleet-day")
#: Fewest measured repetitions in a time-bounded run.
MIN_REPS = 3
#: One child never legitimately takes this long; a hung one is killed.
CHILD_TIMEOUT_S = 150
#: ``--smoke`` divides every workload's sizes and horizons by this.
SMOKE_SCALE = 20

#: name -> (unit, better, bound, domain).  ``bound`` is the share of the
#: parent's value by which the metric may worsen before a change counts
#: as a regression; README.md gives the measurements behind each.
END_TO_END = {
    "run_s": ("s", "lower", 0.25, "host"),
    "setup_s": ("s", "lower", 0.25, "host"),
    "peak_rss_mb": ("MB", "lower", 0.05, "host"),
    "sim_samples_per_s": ("samples/s", "higher", 0.05, "sim"),
    "sim_tail_ms": ("ms", "lower", 0.25, "sim"),
}

#: Which statistic of the plain repetitions each host metric reports.
#: Slowdowns from other tenants of a shared host only ever add time and
#: come in episodes of seconds (up to 2x on a shared 2-core VM), so the
#: fastest repetition of a run is its steadiest timing; memory is
#: steady, so it reports the median.
HOST_STAT = {"run_s": "min", "setup_s": "min", "peak_rss_mb": "median"}

#: Sim-side per-layer metrics; a workload reports 0 for a layer it
#: never reaches.
SIM_PER_LAYER = (
    "sim.p50_ms", "sim.p99_ms", "sim.p999_ms", "sim.latency_samples",
    "sim.tail_pct", "sim.slo_miss_frac", "sim.failed_frac",
    "sim.nvme.commands", "sim.nvme.p50_us", "sim.nvme.p99_us",
    "sim.qpair.commands", "sim.qpair.p99_us",
    "sim.fabric.transfers", "sim.fabric.p99_us",
    "sim.reader.prep_frac", "sim.reader.post_frac", "sim.reader.poll_frac",
    "sim.reader.copy_frac", "sim.reader.poll_idle_frac",
    "sim.reader.job_p99_us",
    "sim.recovery.retries", "sim.recovery.resets",
    "sim.recovery.media_errors", "sim.recovery.aborted",
    "sim.recovery.degraded_s",
    "sim.tenancy.rejected_jobs", "sim.tenancy.preemptions",
    "sim.tenancy.forced_serves",
    "sim.cluster.failovers", "sim.cluster.hedges_posted",
    "sim.cluster.handoffs_completed", "sim.cluster.handoffs_aborted",
    "sim.cluster.handoff_mb", "sim.cluster.rewarms",
    "sim.cluster.cache_routed_frac",
    "sim.xform.tasks", "sim.xform.redispatches", "sim.xform.queue_wait_p99_us",
    "sim.xform.net_mb", "sim.xform.worker_busy_frac",
    "sim.fluid.events_scheduled", "sim.fluid.elide_frac",
    "sim.fluid.bulk_mean_latency_ms", "sim.fluid.tagged_requests",
)

PER_LAYER = tuple(
    f"host.{layer}.{kind}" for layer in LAYER_NAMES
    for kind in ("self_frac", "calls")
) + ("host.events", "host.us_per_event", "host.trace_overhead") + SIM_PER_LAYER


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name == "host.us_per_event":
        return "us"
    if name == "host.trace_overhead":
        return "ratio"
    for suffix, unit in (("_frac", "fraction"), ("_us", "us"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_pct", "%"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_child(workload: str, seed: int, scale: int, mode: str) -> dict:
    """One repetition in a fresh process; its JSON result."""
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(CHILD), workload, str(seed), str(scale), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} ({mode}) ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> dict:
    """Median, quartiles, extremes and count of one metric's values."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def summarize(plain: list, extra: dict) -> dict:
    """One workload's metrics and correctness verdict from its runs."""
    bad = [f"rep {i}: {v}" for i, rep in enumerate(plain) for v in rep["violations"]]
    bad += [f"{mode}: {v}" for mode, rep in extra.items() for v in rep["violations"]]
    ref = plain[0]
    for i, rep in enumerate(plain[1:], 1):
        if (rep["sim"], rep["events"]) != (ref["sim"], ref["events"]):
            bad.append(f"rep {i}: sim metrics differ from rep 0")
    for mode, rep in extra.items():
        if (rep["sim"], rep["events"]) != (ref["sim"], ref["events"]):
            bad.append(f"{mode} run: sim metrics differ from the plain reps")
    sim = ref["sim"]
    end_to_end = {}
    for key, stat in HOST_STAT.items():
        values = spread([rep[key] for rep in plain])
        end_to_end[key] = {"value": values[stat], **values}
    end_to_end["sim_samples_per_s"] = {"value": sim["samples_per_s"]}
    end_to_end["sim_tail_ms"] = {"value": sim["tail_ms"]}
    for key, (unit, _better, _bound, _domain) in END_TO_END.items():
        end_to_end[key]["unit"] = unit
    out = {
        "correct": not bad,
        "violations": bad,
        "attempted": sum(r["attempted"] for r in plain + list(extra.values())),
        "failed": sum(r["failed"] for r in plain + list(extra.values())),
        "sim": sim,
        "end_to_end": end_to_end,
        "runs": plain + list(extra.values()),
    }
    if extra:
        layers = extra["profile"]["layers"]
        total = sum(self_s for self_s, _calls in layers.values())
        per_layer = {}
        for layer in LAYER_NAMES:
            self_s, calls = layers[layer]
            per_layer[f"host.{layer}.self_frac"] = self_s / total
            per_layer[f"host.{layer}.calls"] = calls
        per_layer["host.events"] = ref["events"]
        per_layer["host.us_per_event"] = (
            1e6 * end_to_end["run_s"]["value"] / ref["events"])
        per_layer["host.trace_overhead"] = (
            extra["profile"]["run_s"] / end_to_end["run_s"]["value"])
        counters = extra["metrics"]["counters"]
        for name in SIM_PER_LAYER:
            field = name[len("sim."):]
            per_layer[name] = sim[field] if field in sim else counters.get(name, 0)
        out["per_layer"] = per_layer
    return out


def measure(names: tuple, seed: int, scale: int, reps: int | None,
            seconds: float | None, trace: bool) -> dict:
    """Run the profiled and metrics runs (with ``trace``), then the plain
    repetitions round-robin over ``names`` until ``reps`` each, or until
    ``seconds`` have passed; return each workload's summary."""
    start = time.perf_counter()
    extra = {name: ({mode: run_child(name, seed, scale, mode)
                     for mode in ("profile", "metrics")} if trace else {})
             for name in names}
    # A traced run is there for its per-layer metrics; one plain
    # repetition to check them against is enough.
    fewest = 1 if trace else MIN_REPS
    plain: dict = {name: [] for name in names}
    rounds_start = time.perf_counter()
    while True:
        for name in names:
            plain[name].append(run_child(name, seed, scale, "plain"))
        done = len(plain[names[0]])
        now = time.perf_counter()
        if reps is not None:
            if done >= reps:
                break
        elif done >= fewest and now - start + (now - rounds_start) / done > seconds:
            break
    return {name: summarize(plain[name], extra[name]) for name in names}


def report(name: str, summary: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    print(f"== {name}: {'correct' if summary['correct'] else 'INCORRECT'}, "
          f"{summary['attempted']} attempted, {summary['failed']} failed")
    for violation in summary["violations"]:
        print(f"  violation: {violation}")
    sim = summary["sim"]
    for key, metric in summary["end_to_end"].items():
        note = ""
        if key in HOST_STAT:
            note = (f"  ({HOST_STAT[key]} of {metric['n']}; median "
                    f"{metric['median']:.6g}, IQR {metric['q1']:.6g}..{metric['q3']:.6g})")
        elif key == "sim_tail_ms":
            note = f"  (p{sim['tail_pct']:g} of {sim['latency_samples']} samples)"
        print(f"  {key:<34} {metric['value']:>16.6g} {metric['unit']}{note}")
    for key, value in summary.get("per_layer", {}).items():
        print(f"  {key:<34} {value:>16.6g} {unit_of(key)}")


def result_line(summary: dict, trace: bool) -> dict:
    """The one-line result: end-to-end metrics, or per-layer when traced."""
    if trace:
        metrics = {name: {"value": summary["per_layer"][name],
                          "unit": unit_of(name)} for name in PER_LAYER}
    else:
        metrics = {name: {"value": summary["end_to_end"][name]["value"],
                          "unit": unit} for name, (unit, *_rest) in END_TO_END.items()}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of --reps")
    parser.add_argument("--reps", type=int,
                        help="plain repetitions per workload (default 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true",
                        help=f"sizes and horizons divided by {SMOKE_SCALE}")
    parser.add_argument("--out", type=Path,
                        help="results file (default: results.json here when "
                             "measuring every workload)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.reps is None and args.seconds is None:
        args.reps = 5
    names = (args.workload,) if args.workload else WORKLOADS
    scale = SMOKE_SCALE if args.smoke else 1
    start = time.perf_counter()
    summaries = measure(names, args.seed, scale, args.reps, args.seconds,
                        bool(args.trace))
    for name, summary in summaries.items():
        report(name, summary)
    correct = all(s["correct"] for s in summaries.values())
    out = args.out or (None if args.workload else HERE / "results.json")
    if out is not None:
        out.write_text(json.dumps({
            "seed": args.seed,
            "scale": scale,
            "reps": args.reps,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "wall_s": time.perf_counter() - start,
            "workloads": summaries,
        }, indent=1) + "\n")
        print(f"wrote {out}")
    if args.workload:
        print(json.dumps(result_line(summaries[args.workload], bool(args.trace))))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
