"""Render every BENCH_*.json artifact into one trajectory table.

Each benchmark writes a JSON artifact at the repo root (``bench_cluster``
-> ``BENCH_cluster.json`` and so on).  This script collects them all and
renders ``BENCHMARKS.md`` — a single markdown page with a verdict/
headline row per benchmark plus a short detail section each — so the
repo's perf trajectory is readable at a glance without replaying the
sweeps::

    PYTHONPATH=src python benchmarks/summarize.py

Artifacts are summarized by name when the shape is known and fall back
to a generic ``ok``-flag row otherwise, so a future ``BENCH_foo.json``
shows up without code changes here.

A malformed artifact — truncated mid-write, invalid JSON, not a JSON
object, or missing a key its summarizer requires — aborts the render
with the offending filename and exit code 2.  A page that silently
rendered "unreadable artifact" rows let a crashed benchmark pass for a
summarized one; now the only way to a written page is every artifact
parsing clean.
"""

import argparse
import glob
import json
import os
import sys

GB = 1e9

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ArtifactError(Exception):
    """A BENCH_*.json artifact that cannot be summarized faithfully."""


#: Keys an artifact must carry for its named summarizer to mean
#: anything.  Unknown artifact names fall back to the generic
#: summarizer, whose only contract is the ``ok`` flag.
REQUIRED_KEYS = {
    "tenancy": ("ok", "fairness", "isolation"),
    "cluster": ("ok", "scaling", "failover", "isolation"),
    "xform": ("ok", "cells"),
    "scale": ("ok", "hybrid"),
}
GENERIC_REQUIRED = ("ok",)


def load_artifact(path):
    """Parse one artifact, raising :class:`ArtifactError` on anything
    short of a complete, well-shaped JSON object."""
    name = os.path.basename(path)[len("BENCH_"):-len(".json")]
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ArtifactError(f"{os.path.basename(path)}: unreadable: {exc}")
    if not raw.strip():
        raise ArtifactError(
            f"{os.path.basename(path)}: empty artifact (benchmark died "
            f"before writing?)"
        )
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise ArtifactError(
            f"{os.path.basename(path)}: malformed JSON (partial write?): "
            f"{exc}"
        )
    if not isinstance(data, dict):
        raise ArtifactError(
            f"{os.path.basename(path)}: artifact is "
            f"{type(data).__name__}, expected a JSON object"
        )
    required = REQUIRED_KEYS.get(name, GENERIC_REQUIRED)
    missing = [key for key in required if key not in data]
    if missing:
        raise ArtifactError(
            f"{os.path.basename(path)}: missing required key(s): "
            f"{', '.join(missing)}"
        )
    return name, data


def _fmt(value, spec=",.0f"):
    if value is None:
        return "—"  # a missing key renders as a gap, not "None"
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


# -- per-artifact summarizers -------------------------------------------------
# Each returns (verdict: bool | None, headline: str, detail: list[str]).

def summarize_tenancy(data):
    errs = [t.get("err", 0.0)
            for run in data.get("fairness", ())
            for t in run.get("tenants", ())]
    iso = data.get("isolation", {})
    headline = (
        f"worst fair-share error {max(errs) * 100 if errs else 0:.2f}% "
        f"(bar {data.get('fairness_tolerance', 0) * 100:g}%), "
        f"victim p99 x{_fmt(iso.get('ratio'), '.2f')} under a hostile "
        f"neighbor (bar {_fmt(data.get('isolation_ratio_bar'), 'g')}x)"
    )
    detail = ["| fairness run (weights) | worst err |", "|---|---|"]
    for run in data.get("fairness", ()):
        worst = max((t.get("err", 0.0) for t in run.get("tenants", ())),
                    default=0.0)
        detail.append(f"| {run.get('weights')} | {worst * 100:.2f}% |")
    return data.get("ok"), headline, detail


def summarize_cluster(data):
    scaling = data.get("scaling", ())
    failover = data.get("failover", {})
    isolation = data.get("isolation", {})
    eff = None
    if len(scaling) >= 2 and scaling[0].get("per_client"):
        eff = scaling[-1].get("per_client", 0) / scaling[0]["per_client"]
    headline = (
        f"scale-out efficiency {_fmt(eff, '.0%')} at "
        f"{scaling[-1].get('storage') if scaling else '?'} nodes, "
        f"crash p99 x{_fmt(failover.get('victim_p99_ratio'), '.2f')} "
        f"(bar {_fmt(data.get('p99_degradation_bar'), 'g')}x), "
        f"{failover.get('failed_crash', '?')} samples lost in failover, "
        f"serve p99 {_fmt(_ms(isolation.get('serve_p99')), '.2f')} ms "
        f"beside closed-loop train (SLO "
        f"{_fmt(_ms(isolation.get('serve_slo')), 'g')} ms, "
        f"{isolation.get('serve_slo_misses', '?')} misses)"
    )
    detail = ["| storage nodes | clients | throughput (samples/s) |",
              "|---|---|---|"]
    for row in scaling:
        detail.append(
            f"| {row.get('storage')} | {row.get('clients')} "
            f"| {_fmt(row.get('throughput'))} |"
        )
    return data.get("ok"), headline, detail


def summarize_xform(data):
    cells = data.get("cells", ())
    pushdown_wins = sum(1 for c in cells if c.get("winner") == "storage")
    tracking = [c.get("cost_tracking", 0.0) for c in cells]
    headline = (
        f"pushdown wins {pushdown_wins}/{len(cells)} cells "
        f"(selectivity < 1 on a constrained fabric), cost placement >= "
        f"{min(tracking) if tracking else 0:.0%} of the best static "
        f"extreme everywhere"
    )
    detail = ["| selectivity | fabric | worker | storage | cost (k) "
              "| winner |", "|---|---|---|---|---|---|"]
    for c in cells:
        detail.append(
            f"| {c.get('selectivity')} | {c.get('bandwidth', 0) / GB:g}GB/s "
            f"| {_fmt(c.get('worker'))} | {_fmt(c.get('storage'))} "
            f"| {_fmt(c.get('cost'))} ({c.get('cost_boundary')}) "
            f"| {c.get('winner')} |"
        )
    return data.get("ok"), headline, detail


def summarize_scale(data):
    hybrid = data.get("hybrid", {})
    equiv = data.get("equivalence") or {}
    tagged = hybrid.get("tagged", {})
    headline = (
        f"{_fmt(hybrid.get('users'))} users/day in "
        f"{_fmt(data.get('hybrid_wall_s'), '.1f')}s, "
        f"{_fmt(hybrid.get('elide_ratio', 0) * 100, '.1f')}% of "
        f"{_fmt(hybrid.get('bulk_requests'))} bulk requests elided, "
        f"{_fmt(data.get('speedup'), '.0f')}x vs extrapolated all-event, "
        f"equivalence {'PASS' if equiv.get('ok') else 'unchecked' if not equiv else 'FAIL'}"
    )
    detail = ["| metric | value |", "|---|---|",
              f"| users | {_fmt(hybrid.get('users'))} |",
              f"| day (sim s) | {_fmt(hybrid.get('day'))} |",
              f"| hybrid wall (s) | {_fmt(data.get('hybrid_wall_s'), '.2f')} |",
              f"| events scheduled | {_fmt(hybrid.get('events_scheduled'))} |",
              f"| bulk requests | {_fmt(hybrid.get('bulk_requests'))} |",
              f"| events-elided ratio | {_fmt(hybrid.get('elide_ratio'), '.4f')} |",
              f"| extrapolated all-event wall (s) | {_fmt(data.get('extrapolated_event_wall_s'), '.0f')} |",
              f"| speedup vs all-event | {_fmt(data.get('speedup'), '.0f')}x |",
              f"| tagged requests | {_fmt(tagged.get('count'))} |",
              f"| tagged p50 / p99 (ms) | {_fmt((tagged.get('p50') or 0) * 1e3, '.3f')} / "
              f"{_fmt((tagged.get('p99') or 0) * 1e3, '.3f')} |"]
    if equiv:
        detail.append(
            f"| equivalence digests | order {str(equiv.get('order_digest'))[:12]}, "
            f"latency {str(equiv.get('latency_digest'))[:12]} |"
        )
    return data.get("ok"), headline, detail


def summarize_generic(data):
    verdict = data.get("ok")
    keys = ", ".join(sorted(data)[:8])
    return verdict, f"keys: {keys}", []


SUMMARIZERS = {
    "tenancy": summarize_tenancy,
    "cluster": summarize_cluster,
    "xform": summarize_xform,
    "scale": summarize_scale,
}


def analysis_stats():
    """Static-analysis posture row: simlint + simflow over the tree.

    Returns ``(verdict, headline, detail)`` like the artifact
    summarizers, or ``None`` when ``repro`` is not importable (the
    script still renders the benchmark table without PYTHONPATH=src).
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.analysis import lint_paths
        from repro.analysis.simflow import (
            diff_against_baseline, load_baseline, run_simflow)
    except ImportError:
        return None
    finally:
        sys.path.pop(0)

    # Fingerprints embed repo-relative paths, so run from the root.
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        sl = lint_paths(["src/repro"])
        flow = run_simflow(["src/repro", "tests", "benchmarks"])
        baseline = load_baseline("simflow-baseline.json")
        new, stale = diff_against_baseline(flow.findings, baseline)
    finally:
        os.chdir(cwd)

    by_rule = {}
    for f in flow.findings:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    verdict = not sl and not new and not stale
    headline = (
        f"simlint {len(sl)} finding(s) on src/repro; simflow "
        f"{len(flow.analyzed_files)} files, {len(flow.findings)} "
        f"finding(s) ({len(new)} new, {len(baseline)} baselined, "
        f"{flow.suppressed} suppressed)"
    )
    detail = ["| metric | value |", "|---|---|",
              f"| simflow files analyzed | {len(flow.analyzed_files)} |",
              f"| baseline entries | {len(baseline)} |",
              f"| new vs baseline | {len(new)} |",
              f"| stale baseline entries | {len(stale)} |",
              f"| inline suppressions honored | {flow.suppressed} |"]
    for rule in sorted(by_rule):
        detail.append(f"| findings: {rule} | {by_rule[rule]} |")
    return verdict, headline, detail


#: Verdict column; ``None`` is an artifact with no pass/fail gate.
MARK = {True: "PASS", False: "FAIL", None: "—"}


def render(root):
    """The full markdown page for every artifact under ``root``."""
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    rows, sections = [], []
    for path in paths:
        name, data = load_artifact(path)
        summarize = SUMMARIZERS.get(name, summarize_generic)
        verdict, headline, detail = summarize(data)
        rows.append((name, verdict, headline))
        if detail:
            sections.append((name, detail))

    stats = analysis_stats()
    if stats is not None:
        verdict, headline, detail = stats
        rows.append(("static-analysis", verdict, headline))
        sections.append(("static-analysis", detail))

    lines = [
        "# Benchmark trajectory",
        "",
        "Generated by `benchmarks/summarize.py` from the `BENCH_*.json`",
        "artifacts at the repo root; re-run the benchmarks, then this",
        "script, to refresh.",
        "",
        "| benchmark | verdict | headline |",
        "|---|---|---|",
    ]
    for name, verdict, headline in rows:
        lines.append(f"| {name} | {MARK[verdict]} | {headline} |")
    for name, detail in sections:
        lines += ["", f"## {name}", ""] + detail
    return "\n".join(lines) + "\n", rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="directory holding the BENCH_*.json artifacts")
    parser.add_argument("--out", default=None,
                        help="output path (default <root>/BENCHMARKS.md)")
    args = parser.parse_args(argv)

    try:
        page, rows = render(args.root)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.join(args.root, "BENCHMARKS.md")
    with open(out, "w") as fh:
        fh.write(page)
    for name, verdict, _ in rows:
        print(f"  {name}: {MARK[verdict]}")
    bench_rows = [r for r in rows if r[0] != "static-analysis"]
    print(f"wrote {out} ({len(bench_rows)} artifact(s))")
    if not bench_rows:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
