"""Command-line interface: regenerate paper figures without pytest.

Usage::

    python -m repro list
    python -m repro figure fig09 [--scale 0.5] [--out results/]
    python -m repro all [--scale 1.0] [--out results/]
    python -m repro claims [--scale 0.5]

``figure``/``all`` print each figure's data table and headline block
(the same rendering the benchmarks produce) and optionally write them
to files.  ``claims`` prints only the paper-vs-measured headlines —
the quickest way to check the reproduction end to end.

``fleet`` runs one deployment preset and prints its throughput and a
section per layer it built.  ``readers`` is the paper's datapath:
closed-loop ``bread`` trainers (the DLFS bars of the figures); it exits
1 unless every expected sample was delivered or failed.  ``serve`` is
one node whose tenants go through admission control and the
fair-queued datapath; ``cluster`` is the replicated storage tier
(rendezvous placement, the cache-aware balancer, node
crash/failover/rejoin); ``xform`` adds the fetch/transform tier
(pushdown placement, chunked fabric transfers, per-tier utilization).
Every flag overrides the preset's default; ``--trace DIR`` records
spans and metrics and writes a Perfetto-loadable Chrome trace, the JSON
metrics dump and the per-layer latency attribution / percentile
tables::

    python -m repro fleet --preset readers --clients 2 --epochs 2 \\
        --fault-plan media=0.01,reset_period=0.002,seed=7
    python -m repro fleet --preset readers --reads 2000 --trace results/trace
    python -m repro fleet --preset serve --horizon 0.1 --seed 7
    python -m repro fleet --preset cluster --crash 1=0.004:0.012 --replicas 2
    python -m repro fleet --preset xform --stages parse,decompress:2 --placement storage
    python -m repro fleet --preset xform --worker-crash 0=0.002:0.005 --out results/xform.json

``lint`` and ``sanitize`` are the determinism gates (both used by CI)::

    python -m repro lint src/repro              # AST rules, exit 1 on findings
    python -m repro sanitize --runs 5           # tiebreak-perturbation sweep

``perfcheck`` is the fast-path equivalence gate: it runs six gate
workloads (the fig06/fig08 datapath, the three fleet presets, and the
xform pay-for-use identity) with no fault injector and again with a
zero-rate injector on every NVMe device, and asserts sim_time, the
sample-order digest, and the metrics snapshot are bit-identical (exit 1
on divergence)::

    python -m repro perfcheck
    python -m repro perfcheck --quick --out results/perfcheck.json

``scenario`` is the golden-master regression harness: named, seeded
traffic/fault scenarios (flash crowds, tenant churn, dataset hot-swap,
rolling upgrades, regional failover, diurnal fleet days) compiled onto
the engines above, with bit-exact drift checking against committed
baselines under ``scenarios/golden/``::

    python -m repro scenario list
    python -m repro scenario run flash-crowd --quick
    python -m repro scenario record rolling-upgrade --label "why this baseline is right"
    python -m repro scenario check                    # exit 1 on drift, with attribution
    python -m repro scenario check --quick --perturb 0.01   # must FAIL (gate self-check)

Each subcommand is one entry of :data:`COMMANDS`, which builds the
parser and dispatches.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable

from .analysis.sanitizer import SWEEPS, run_sanitizer
from .bench import figures as F
from .bench.report import render_figure, render_headline
from .bench.workloads import PRESETS, Readers

__all__ = ["main", "FIGURES", "COMMANDS"]

#: name -> (callable, description)
FIGURES: dict[str, tuple[Callable, str]] = {
    "fig01": (F.fig01_size_distribution, "sample-size distributions"),
    "fig06": (F.fig06_single_node_throughput, "single-node throughput"),
    "fig07a": (F.fig07a_core_scaling, "CPU core scaling"),
    "fig07b": (F.fig07b_compute_overlap, "compute/I-O overlap"),
    "fig08": (F.fig08_throughput_16_nodes, "16-node throughput"),
    "fig09": (F.fig09_scalability, "scalability 2-16 nodes"),
    "fig10": (F.fig10_lookup_time, "sample lookup time"),
    "fig11": (F.fig11_disaggregation, "disaggregation effectiveness"),
    "fig12": (F.fig12_tensorflow, "TensorFlow ingest"),
    "fig13": (F.fig13_training_accuracy, "training accuracy"),
}

#: Figures whose drivers accept a ``scale`` parameter.
_UNSCALED = {"fig01"}

#: ``fleet`` flags that set the FleetSpec field of the same name.
_FLEET_FLAGS = (
    "num_storage", "num_clients", "replicas", "num_samples", "sample_bytes",
    "horizon", "warmup", "queue_depth", "hedge_delay", "read_cache_chunks",
    "batching", "seed",
)

#: ``fleet --quick``: per-preset downscaling (CI smoke sizes).
_FLEET_QUICK = {
    "serve": dict(horizon=0.02),
    "cluster": dict(num_storage=4, num_clients=1, num_samples=2048,
                    horizon=0.01),
    "xform": dict(num_samples=1024, horizon=0.005),
    "readers": dict(num_samples=512, readers=Readers(epochs=1)),
}


def _run_figure(name: str, scale: float):
    fn, _ = FIGURES[name]
    if name in _UNSCALED:
        return fn()
    return fn(scale=scale)


def _parse_crash(spec: str, flag: str, unit: str) -> tuple:
    """Parse a ``UNIT=T1[:T2]`` crash spec given to ``flag`` into
    ``(index, t1, t2|None)``."""
    index, _, times = spec.partition("=")
    t1, _, t2 = times.partition(":")
    try:
        return (int(index), float(t1), float(t2) if t2 else None)
    except ValueError:
        raise ValueError(
            f"{flag}: {spec!r}: expected {unit}=T1[:T2] (integer "
            f"{unit.lower()}, times in sim seconds)"
        ) from None


def _common_flags(parser: argparse.ArgumentParser) -> None:
    """Shared flags for every workload subcommand.

    ``fleet``/``scale``/``scenario`` all take ``--seed``/``--quick``/
    ``--json``/``--out`` so the flags mean the same thing everywhere:
    ``--seed`` seeds the run's own load (tenant traffic, readers, the
    fleet day, a scenario) and defaults to each command's (42 for the
    engines); a fault plan carries its own seed (``--fault-plan
    ...,seed=N``).
    """
    parser.add_argument("--seed", type=int, default=None,
                        help="deterministic seed (default: per-command)")
    parser.add_argument("--quick", action="store_true",
                        help="downscaled run (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON summary to stdout instead of "
                             "the human tables")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write a JSON summary here")


def _write_json(out: pathlib.Path | None, blob, as_json: bool) -> None:
    """Honor the shared ``--json`` / ``--out`` flags for one summary."""
    import json

    if as_json:
        print(json.dumps(blob, indent=2, default=str))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(blob, indent=2, default=str) + "\n")
        if not as_json:
            print(f"\nwrote {out}")


def _emit(result, out_dir: pathlib.Path | None, headline_only: bool) -> None:
    text = render_headline(result) if headline_only else render_figure(result)
    print(f"\n== {result.figure}: {result.title} ==" if headline_only else "")
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{result.figure}.txt").write_text(
            render_figure(result) + "\n"
        )


def _timed(fn: Callable, *args, **kwargs) -> tuple:
    """``(fn(*args, **kwargs), wall seconds it took)``."""
    t0 = time.time()  # simlint: disable=SL101 -- CLI progress timing, not sim state
    result = fn(*args, **kwargs)
    return result, time.time() - t0  # simlint: disable=SL101 -- CLI progress timing, not sim state


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the DLFS (CLUSTER 2019) evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=" ".join(run.__doc__.split()))
        if flags is not None:
            flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Its wall time goes to stderr, so stdout
    carries only the command's seeded output."""
    args = _parser().parse_args(argv)
    rc, wall = _timed(COMMANDS[args.command][0], args)
    print(f"[{args.command} in {wall:.1f}s]", file=sys.stderr)
    return rc


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def _list(args: argparse.Namespace) -> int:
    """list available figures"""
    for name, (_, desc) in sorted(FIGURES.items()):
        print(f"{name:<8} {desc}")
    return 0


def _figure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale factor (default 1.0)")
    p.add_argument("--out", type=pathlib.Path, default=None,
                   help="directory to write the rendered table to")


def _figure(args: argparse.Namespace) -> int:
    """run one figure"""
    _emit(_run_figure(args.name, args.scale), args.out, headline_only=False)
    return 0


def _all_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", type=pathlib.Path, default=None)


def _all(args: argparse.Namespace) -> int:
    """run every figure"""
    for name in sorted(FIGURES):
        _emit(_run_figure(name, args.scale), args.out, headline_only=False)
    return 0


def _claims_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=0.5)


def _claims(args: argparse.Namespace) -> int:
    """print only the paper-vs-measured headlines"""
    for name in sorted(FIGURES):
        _emit(_run_figure(name, args.scale), None, headline_only=True)
    return 0


# ---------------------------------------------------------------------------
# Determinism and equivalence gates
# ---------------------------------------------------------------------------

def _lint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*", default=None,
                   help="files or directories (default: src/repro)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule table and exit")
    p.add_argument("--flow", action="store_true",
                   help="run simflow (whole-program dataflow + "
                        "lifecycle protocols, SF2xx/SF3xx)")
    p.add_argument("--changed", nargs="*", default=None,
                   metavar="FILE",
                   help="[--flow] pre-commit mode: analyze only the "
                        "import-closure of these changed files "
                        "(default: git diff vs HEAD)")
    p.add_argument("--baseline", type=pathlib.Path, default=None,
                   metavar="JSON",
                   help="[--flow] fail only on findings absent from "
                        "this baseline file")
    p.add_argument("--update-baseline", action="store_true",
                   help="[--flow] rewrite the baseline from current "
                        "findings (keeps existing reasons)")
    p.add_argument("--sarif", type=pathlib.Path, default=None, metavar="JSON",
                   help="[--flow] also write findings as SARIF 2.1.0")


def _lint(args: argparse.Namespace) -> int:
    """simlint: static determinism analysis (exit 1 on findings)"""
    from .analysis import RULES, lint_paths, render_findings

    if args.rules:
        from .analysis.rules import FLOW_RULES

        for rule in RULES + FLOW_RULES:
            print(f"{rule.id} [{rule.name}] {rule.summary}")
            print(f"    fix: {rule.hint}")
        return 0
    paths = args.paths or ["src/repro"]
    if not args.flow:
        findings = lint_paths(paths)
        print(render_findings(findings))
        return 1 if findings else 0

    import json

    from .analysis.simflow import (
        diff_against_baseline,
        load_baseline,
        run_simflow,
        to_sarif,
        write_baseline,
    )

    changed = args.changed
    if changed is not None and not changed:
        # Bare --changed: ask git for the modified files.
        import subprocess

        out = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--", "*.py"],
            capture_output=True, text=True, check=False,
        ).stdout
        changed = [ln for ln in out.splitlines() if ln.strip()]
        if not changed:
            print("flow: no changed python files")
            return 0
    report = run_simflow(paths, changed=changed)
    for path, err in report.parse_errors:
        print(f"{path}: parse error: {err}", file=sys.stderr)
    if args.sarif is not None:
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(
            json.dumps(to_sarif(report.findings), indent=2) + "\n"
        )
        print(f"wrote {args.sarif}", file=sys.stderr)
    if args.update_baseline:
        target = args.baseline or pathlib.Path("simflow-baseline.json")
        prev = load_baseline(target)
        n = write_baseline(target, report.findings, prev)
        print(f"flow: baseline rewritten: {n} findings -> {target}")
        return 0
    baseline = load_baseline(args.baseline) if args.baseline else {}
    new, stale = diff_against_baseline(report.findings, baseline)
    for fp, f in new:
        print(f.render())
        print(f"    fingerprint: {fp}")
    known = len(report.findings) - len(new)
    print(
        f"flow: {len(report.analyzed_files)} files, "
        f"{len(report.findings)} findings "
        f"({len(new)} new, {known} baselined, "
        f"{report.suppressed} suppressed)"
    )
    if changed is None:
        # Pruned runs can't see the whole tree, so absence there
        # does not mean an entry went stale.
        for fp in stale:
            entry = baseline[fp]
            print(
                f"flow: stale baseline entry {fp} "
                f"({entry.get('rule')} {entry.get('path')}) — "
                "remove it", file=sys.stderr,
            )
    return 1 if new else 0


def _sanitize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=int, default=5,
                   help="perturbed tiebreak seeds to sweep (default 5)")
    p.add_argument("--seed", type=int, default=2019,
                   help="base perturbation seed (default 2019)")
    p.add_argument(
        "--scenario", choices=(*SWEEPS, "all"), default="all",
        help="workload(s) to sweep: the flat datapath smoke, the "
             "cluster crash-during-handoff fleet, the transform-tier "
             "crash fleet, the hybrid-fidelity scale day, the "
             "golden-master scenario pack, or all (default all)",
    )
    p.add_argument("--out", type=pathlib.Path, default=None,
                   help="write the JSON report here")


def _sanitize(args: argparse.Namespace) -> int:
    """SimSanitizer: rerun the default workload under perturbed
    same-timestamp tiebreaks and assert invariant results"""
    import json

    selected = list(SWEEPS) if args.scenario == "all" else [args.scenario]
    reports = {}
    for name in selected:
        reports[name] = run_sanitizer(
            workload=SWEEPS[name],
            runs=args.runs, base_seed=args.seed,
            progress=lambda msg, name=name: print(
                f"  .. [{name}] {msg}", file=sys.stderr
            ),
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        blob = {name: r.to_dict() for name, r in reports.items()}
        args.out.write_text(json.dumps(blob, indent=2, default=str) + "\n")
        print(f"wrote {args.out}")
    for name, report in reports.items():
        print(f"== scenario: {name} ==")
        print(report.render())
    return 0 if all(r.ok for r in reports.values()) else 1


def _perfcheck_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quick", action="store_true",
                   help="smaller workloads (CI smoke)")
    p.add_argument("--out", type=pathlib.Path, default=None,
                   help="write the JSON report here")


def _perfcheck(args: argparse.Namespace) -> int:
    """prove the injector-free device paths bit-identical to the
    zero-rate-injector reference paths on the six gate workloads
    (fig06/fig08 datapath, the serve/cluster/xform fleets, xform
    pay-for-use)"""
    from .analysis import run_perfcheck

    report = run_perfcheck(
        quick=args.quick,
        progress=lambda msg: print(f"  .. {msg}", file=sys.stderr),
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report.to_json() + "\n")
        print(f"wrote {args.out}")
    print(report.render())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _fleet_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--preset", choices=tuple(PRESETS), default="serve",
                   help="deployment whose defaults apply (default serve)")
    for flag, dest, kind, what in (
        ("--storage", "num_storage", int, "storage nodes (0 = local devices)"),
        ("--clients", "num_clients", int, "client nodes driving the load"),
        ("--replicas", "replicas", int, "replication factor R"),
        ("--samples", "num_samples", int, "dataset samples"),
        ("--size", "sample_bytes", int, "sample size in bytes"),
        ("--horizon", "horizon", float, "arrival window in sim seconds"),
        ("--warmup", "warmup", float,
         "fair-queue service-share window start; a preset default is "
         "capped at horizon/5"),
        ("--queue-depth", "queue_depth", int, "qpair depth"),
        ("--hedge", "hedge_delay", float,
         "hedged-read delay in sim seconds (0 = off)"),
        ("--read-cache", "read_cache_chunks", int, "per-node read-cache chunks"),
        ("--batching", "batching", str, "batching mode: none, sample or chunk"),
        ("--reads", "reads", int,
         "closed-loop readers: samples each reader reads"),
        ("--epochs", "epochs", int,
         "closed-loop readers: whole epochs each reader reads, in place "
         "of --reads"),
        ("--workers", "workers", int, "transform worker nodes"),
        ("--placement", "placement", str,
         "pushdown policy for auto stages: cost, storage or worker"),
        ("--packed", "packed_ratio", float,
         "FanStore-style packed-format ratio (> 1 adds an unpack stage)"),
    ):
        p.add_argument(flag, dest=dest, type=kind, default=None,
                       help=f"{what} (default: the preset's)")
    p.add_argument(
        "--fault-plan", default="zero",
        help="JSON or key=value,... fault plan; 'zero' disables injection "
             "(keys: media, hiccup, timeout, drop, nvmf_drop, reset_period, "
             "reset_jitter, seed, tenant.NAME, crash.LANE)",
    )
    p.add_argument(
        "--crash", action="append", default=[], metavar="LANE=T1[:T2]",
        help="seeded storage-node crash: lane index, crash time, optional "
             "rejoin time (sim seconds); repeatable",
    )
    p.add_argument(
        "--worker-crash", action="append", default=[],
        metavar="WORKER=T1[:T2]",
        help="seeded transform-worker crash, as for --crash; repeatable",
    )
    p.add_argument(
        "--stages", default=None,
        help="comma list of kind[:arg][@placement] transform stages — parse "
             "(arg = payload bytes), decompress (arg = ratio), augment "
             "(arg = selectivity); @storage/@worker pin a stage; 'none' "
             "disables the tier (default: the preset's)",
    )
    p.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="DIR",
        help="record spans and metrics; write trace.json, metrics.json and "
             "breakdown.txt to DIR",
    )


def _fleet(args: argparse.Namespace) -> int:
    """run one deployment preset: readers (the paper's closed-loop
    trainers), serve (fair-queued node), cluster (replicated storage
    nodes, crash/rejoin), xform (fetch/transform tier)"""
    import dataclasses

    from .bench.workloads import preset, run_fleet
    from .errors import ConfigError
    from .faults import parse_fault_plan
    from .obs import (
        render_breakdown,
        render_cluster,
        render_percentiles,
        render_tenants,
        render_xform,
        write_chrome_trace,
        write_metrics,
    )
    from .xform import XformSpec, parse_stages

    try:
        plan = parse_fault_plan(args.fault_plan)
    except ConfigError as exc:
        print(f"error: --fault-plan: {exc}", file=sys.stderr)
        return 2
    try:
        crashes = tuple(_parse_crash(s, "--crash", "LANE") for s in args.crash)
        worker_crashes = tuple(
            _parse_crash(s, "--worker-crash", "WORKER") for s in args.worker_crash
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fields = dict(_FLEET_QUICK[args.preset]) if args.quick else {}
    fields.update(
        (name, getattr(args, name)) for name in _FLEET_FLAGS
        if getattr(args, name) is not None
    )
    if args.reads is not None or args.epochs is not None:
        fields["readers"] = Readers(reads=args.reads or 0,
                                    epochs=args.epochs or 0)
    if args.trace is not None:
        fields.update(trace=True, metrics=True)
    try:
        spec = preset(
            args.preset, **fields,
            fault_plan=None if plan.is_zero else plan,
            node_crashes=crashes, xform_crashes=worker_crashes,
        )
        xform = spec.xform
        if args.stages is not None:
            xform = XformSpec(
                stages=() if args.stages.strip() in ("", "none")
                else parse_stages(args.stages)
            )
        if xform is not None:
            xform = dataclasses.replace(xform, **{
                name: getattr(args, name)
                for name in ("workers", "placement", "packed_ratio")
                if getattr(args, name) is not None
            })
        spec = dataclasses.replace(spec, xform=xform, warmup=(
            spec.warmup if args.warmup is not None
            else min(spec.warmup, spec.horizon / 5)
        ))
        r = run_fleet(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    accounted = (
        "readers" not in r.layers or r.delivered + r.failed == r.expected
    )
    breakdown = None
    if args.trace is not None:
        write_chrome_trace(r.obs.tracer, args.trace / "trace.json")
        write_metrics(r.obs.metrics, args.trace / "metrics.json")
        breakdown = "\n\n".join([
            render_breakdown(layers, r.sim_time)
            for layers in r.obs.metrics.layers_by_name.values()
        ] + [render_percentiles(r.obs.metrics)])
        (args.trace / "breakdown.txt").write_text(breakdown + "\n")
    if not args.json:
        if spec.readers is not None:
            quota = (f"{spec.readers.reads} reads" if spec.readers.reads
                     else f"{spec.readers.epochs} epoch(s)")
            load = (f"{quota} per reader of {spec.num_samples} x "
                    f"{spec.sample_bytes} B samples")
        else:
            load = (f"{len(spec.specs)} tenants, horizon "
                    f"{spec.horizon * 1e3:.0f} ms")
        workers = spec.xform.workers if "xform" in r.layers else 0
        print(f"== fleet {args.preset}: {spec.num_clients} client(s), "
              f"{spec.num_storage} storage + {workers} transform nodes, "
              f"{load}, seed {spec.seed} ==")
        print(f"throughput        {r.sample_throughput:,.0f} samples/s")
        print(f"delivered         {r.delivered}")
        if r.failed:
            print(f"failed            {r.failed}")
        if r.rejected_jobs:
            print(f"rejected jobs     {r.rejected_jobs}")
        print(f"jobs              {r.jobs}")
        print(f"sim time          {r.sim_time * 1e3:.3f} ms")
        if "readers" in r.layers:
            print(f"expected          {r.expected}  "
                  f"({'accounted' if accounted else 'MISMATCH'})")
            print(f"app time          {r.app_time * 1e3:.3f} ms")
            for key, value in sorted(r.fault_counts.items()):
                print(f"injected {key:<17} {value}")
            for key, value in sorted(r.recovery.items()):
                if key == "degraded_time":
                    print(f"recovery degraded_time     {value * 1e3:.3f} ms")
                else:
                    print(f"recovery {key:<17} {value}")
        if "fair_queue" in r.layers:
            print(f"preemptions       {r.preemptions}  "
                  f"(forced anti-starvation serves: {r.forced_serves})")
            print()
            print(render_tenants(
                r.window_rows,
                title="saturation window (arrival-horizon edge)",
                service_shares=r.service_shares,
            ))
        if "cluster" in r.layers:
            print()
            print(render_cluster(
                r.balancer["routed"], r.recovery, r.lifecycle,
            ))
        if "xform" in r.layers:
            print()
            print(render_xform(r.tier, r.utilization, r.links, r.routed))
        if "readers" not in r.layers:
            print()
            print(render_tenants(r.per_tenant, title="full run (after drain)"))
        if breakdown is not None:
            print()
            print(breakdown)
            print(f"\nwrote {args.trace / 'trace.json'} "
                  f"({len(r.obs.tracer.spans)} spans; load in "
                  "https://ui.perfetto.dev)")
            print(f"wrote {args.trace / 'metrics.json'}")
            print(f"wrote {args.trace / 'breakdown.txt'}")
    _write_json(args.out, {"preset": args.preset, **r.summary()}, args.json)
    return 0 if accounted else 1


def _scale_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--users", type=int, default=1_000_000,
                   help="fleet size (default 1000000)")
    p.add_argument("--cohorts", type=int, default=8,
                   help="tenant cohorts (default 8)")
    p.add_argument("--day", type=float, default=86400.0,
                   help="simulated day length in seconds (default 86400)")
    p.add_argument("--lanes", type=int, default=8,
                   help="fluid lanes / storage paths (default 8)")
    p.add_argument("--rate", type=float, default=0.02,
                   help="midline requests/s per user (default 0.02)")
    p.add_argument("--size", type=int, default=262144,
                   help="sample size in bytes (default 262144)")
    p.add_argument("--tagged", type=int, default=4,
                   help="event-accurate tagged flows per cohort "
                        "(default 4)")
    p.add_argument("--slice-users", type=int, default=2000,
                   help="equivalence-slice fleet size (default 2000)")
    p.add_argument("--slice-day", type=float, default=600.0,
                   help="equivalence-slice day length (default 600)")
    p.add_argument("--no-check", dest="check", action="store_false",
                   help="skip the slice equivalence gate")


def _scale(args: argparse.Namespace) -> int:
    """hybrid-fidelity fleet day: fluid bulk lanes + event-accurate
    tagged flows over a 1M-user diurnal workload"""
    import dataclasses

    from .errors import ConfigError
    from .sim.fluid import ScaleSpec, equivalence_check, run_scale

    def say(*a, **k):
        if not args.json:
            print(*a, **k)

    users = 50_000 if args.quick else args.users
    day = 7200.0 if args.quick else args.day
    spec = ScaleSpec(
        users=users, cohorts=args.cohorts, day=day, lanes=args.lanes,
        rate_per_user=args.rate, sample_bytes=args.size,
        tagged_per_cohort=args.tagged,
        seed=42 if args.seed is None else args.seed,
    )
    try:
        spec.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    say(f"== scale: {spec.users:,} users, {spec.cohorts} cohorts, "
        f"{spec.lanes} lanes, {spec.day:,.0f} s day, "
        f"seed {spec.seed} ==")
    try:
        hybrid, hybrid_wall = _timed(run_scale, spec, mode="hybrid")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total_requests = hybrid.bulk_requests + len(hybrid.tagged)
    say(f"hybrid wall       {hybrid_wall:.2f} s")
    say(f"events scheduled  {hybrid.events_scheduled:,}")
    say(f"bulk requests     {hybrid.bulk_requests:,} "
        f"({hybrid.bulk_bytes / 1e12:.2f} TB)")
    say(f"events elided     {hybrid.elide_ratio:.4f} of bulk requests")
    pct = hybrid.tagged_percentiles()
    if pct.get("count"):
        say(f"tagged flows      {pct['count']:,} requests | "
            f"p50 {pct['p50'] * 1e3:.3f} ms  "
            f"p90 {pct['p90'] * 1e3:.3f} ms  "
            f"p99 {pct['p99'] * 1e3:.3f} ms  "
            f"p999 {pct['p999'] * 1e3:.3f} ms")
        say(f"SLO violations    {pct['slo_violations']:,} "
            f"(bound {spec.slo * 1e3:.1f} ms)")
    # Extrapolate the all-event cost from a downscaled slice: measure
    # its event throughput, scale by the full run's request count.
    slice_spec = spec.sliced(
        min(args.slice_users, spec.users),
        min(args.slice_day, spec.day),
    )
    ev, slice_wall = _timed(run_scale, slice_spec, mode="event")
    slice_wall = max(slice_wall, 1e-9)
    ev_requests = ev.bulk_requests + len(ev.tagged)
    events_per_req = ev.events_scheduled / max(ev_requests, 1)
    events_per_s = ev.events_scheduled / slice_wall
    est_event_wall = events_per_req * total_requests / events_per_s
    speedup = est_event_wall / max(hybrid_wall, 1e-9)
    say(f"slice (all-event) {slice_spec.users:,} users / "
        f"{slice_spec.day:,.0f} s: {ev.events_scheduled:,} events "
        f"in {slice_wall:.2f} s")
    say(f"extrapolated all-event wall  {est_event_wall:,.0f} s")
    say(f"speedup vs all-event         {speedup:,.0f}x")
    check = None
    if args.check:
        check = equivalence_check(slice_spec)
        verdict = "PASS" if check["ok"] else "FAIL"
        say(f"equivalence gate  {verdict} "
            f"(order {check['order_digest'][:12]}, "
            f"latency {check['latency_digest'][:12]}, "
            f"eps {check['epsilon']:g})")
        for f in check["failures"]:
            say(f"  FAIL: {f}")
    ok = (check is None or check["ok"]) and speedup >= 20.0
    _write_json(args.out, {
        "ok": ok,
        "spec": dataclasses.asdict(spec),
        "hybrid": hybrid.summary(),
        "hybrid_wall_s": hybrid_wall,
        "slice": {
            "users": slice_spec.users,
            "day": slice_spec.day,
            "events": ev.events_scheduled,
            "wall_s": slice_wall,
            "events_per_s": events_per_s,
            "events_per_request": events_per_req,
        },
        "extrapolated_event_wall_s": est_event_wall,
        "speedup": speedup,
        "equivalence": check,
    }, args.json)
    return 0 if ok else 1


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("action", choices=("list", "run", "record", "check"),
                   help="list scenarios; run and print a fingerprint; "
                        "record golden masters; check against goldens")
    p.add_argument("names", nargs="*",
                   help="scenario names (default: the whole pack)")
    p.add_argument("--label", default="",
                   help="[record] reviewed one-line justification for "
                        "the new baseline (required)")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="[run/check] scale open-loop rates by "
                        "1+PERTURB — the drift self-check's injected "
                        "divergence (default 0)")
    p.add_argument("--golden-root", type=pathlib.Path, default=None,
                   help="directory holding scenarios/golden/ "
                        "(default: the repo root)")


def _scenario(args: argparse.Namespace) -> int:
    """scenario DSL + golden-master harness: run named traffic
    scenarios, record reviewed baselines, check for drift"""
    from .errors import ConfigError
    from .scenarios import (
        SCENARIOS,
        compare_fingerprints,
        fingerprint_digest,
        get_scenario,
        golden_path,
        load_golden,
        render_drifts,
        run_scenario,
        write_golden,
    )

    root = (
        str(args.golden_root) if args.golden_root is not None else None
    )
    try:
        names = list(args.names) if args.names else sorted(SCENARIOS)
        scns = [get_scenario(n) for n in names]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "list":
        rows = []
        for scn in scns:
            has_golden = pathlib.Path(golden_path(scn.name, root)).exists()
            rows.append({
                "name": scn.name,
                "engine": scn.engine,
                "title": scn.title,
                "tenants": len(scn.tenants),
                "phases": [p.name for p in scn.phases],
                "events": len(scn.events),
                "golden": has_golden,
            })
        if not args.json:
            for row in rows:
                mark = "golden" if row["golden"] else "no golden"
                print(f"{row['name']:<18} {row['engine']:<8} "
                      f"[{mark:<9}] {row['title']}")
        _write_json(args.out, rows, args.json)
        return 0

    if args.action == "run":
        blob = {}
        for scn in scns:
            fp = run_scenario(
                scn, quick=args.quick, seed=args.seed,
                perturb=args.perturb,
            )
            blob[scn.name] = fp
            if not args.json:
                print(f"{scn.name:<18} [{fp['mode']}] "
                      f"digest {fingerprint_digest(fp)[:16]}  "
                      f"sim_time {fp['sim_time']:.6g} s")
        _write_json(args.out, blob, args.json)
        return 0

    if args.action == "record":
        try:
            for scn in scns:
                recorded = {}
                for mode in ("quick", "full"):
                    recorded[mode] = run_scenario(
                        scn, quick=(mode == "quick"), seed=args.seed,
                    )
                path = write_golden(scn.name, args.label, recorded, root)
                if not args.json:
                    print(f"recorded {scn.name} -> {path}")
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    # check: rerun and diff against the committed goldens.
    report: dict = {}
    failures = 0
    for scn in scns:
        try:
            doc = load_golden(scn.name, root)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        modes = ("quick",) if args.quick else ("quick", "full")
        for mode in modes:
            golden = doc["recorded"].get(mode)
            if golden is None:
                print(f"error: golden for {scn.name!r} has no "
                      f"{mode!r} fingerprint — re-record it",
                      file=sys.stderr)
                return 2
            fp = run_scenario(
                scn, quick=(mode == "quick"), seed=args.seed,
                perturb=args.perturb,
            )
            drifts = compare_fingerprints(golden, fp)
            if drifts:
                failures += 1
            if not args.json:
                print(render_drifts(
                    scn.name, mode, drifts,
                    label=doc.get("label", ""),
                ))
            report.setdefault(scn.name, {})[mode] = {
                "ok": not drifts,
                "label": doc.get("label", ""),
                "drifts": [d.as_dict() for d in drifts],
            }
    _write_json(args.out, report, args.json)
    if not args.json:
        verdict = "FAIL" if failures else "PASS"
        print(f"scenario check: {verdict} "
              f"({len(scns)} scenario(s), {failures} drifted run(s))")
    return 1 if failures else 0


#: Subcommand -> (the function running it, whose docstring is its
#: ``--help`` line; the function adding its flags, if any).  The
#: parser's subcommands and the dispatch both come from this table.
COMMANDS: dict[str, tuple[Callable, Callable | None]] = {
    "list": (_list, None),
    "figure": (_figure, _figure_flags),
    "all": (_all, _all_flags),
    "claims": (_claims, _claims_flags),
    "lint": (_lint, _lint_flags),
    "sanitize": (_sanitize, _sanitize_flags),
    "perfcheck": (_perfcheck, _perfcheck_flags),
    "fleet": (_fleet, _fleet_flags),
    "scale": (_scale, _scale_flags),
    "scenario": (_scenario, _scenario_flags),
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
