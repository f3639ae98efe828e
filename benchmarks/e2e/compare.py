"""Compare two results files of ``run.py``: the parent (A) and a change (B).

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per workload and end-to-end metric with both reported
values, the quartiles and count of the repetitions behind them, and a
verdict:

* host metrics: ``unresolved`` when A's own spread (IQR over median of
  its repetitions) exceeds the metric's bound, unless every repetition
  of B beats every one of A; ``worse`` when B's reported value is worse
  than A's by more than the bound; ``better`` when it beats A's by more
  than A's IQR and B wins at least nine tenths of the (A, B) repetition
  pairs; else ``unchanged``;
* sim metrics are deterministic for a seed, so they compare exactly:
  any difference is ``better`` or ``worse`` by the metric's direction.

Exits 1 when any row is ``worse`` or either file records a failed
correctness check, 2 when the files were made with different seeds or
sizes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import END_TO_END


def _wins(a: list, b: list, better: str) -> float:
    """Share of (A, B) pairs B wins; ties count for neither side."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x in a for y in b if sign * (y - x) > 0)
    return wins / (len(a) * len(b))


def verdict(a: dict, b: dict, better: str, bound: float, domain: str) -> str:
    """Verdict for one metric; ``a``/``b`` are ``run.spread`` dicts."""
    sign = 1 if better == "higher" else -1
    va, vb = a["value"], b["value"]
    if domain == "sim":
        return "unchanged" if va == vb else ("better" if sign * (vb - va) > 0 else "worse")
    if (a["q3"] - a["q1"]) / a["median"] > bound:
        return "better" if _wins(a["values"], b["values"], better) == 1.0 else "unresolved"
    if sign * (va - vb) / va > bound:
        return "worse"
    if (sign * (vb - va) > a["q3"] - a["q1"]
            and _wins(a["values"], b["values"], better) >= 0.9):
        return "better"
    return "unchanged"


def compare(a: dict, b: dict) -> list:
    """``(workload, metric, unit, A, B, verdict)`` rows."""
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, (unit, better, bound, domain) in END_TO_END.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            rows.append((name, metric, unit, ma, mb,
                         verdict(ma, mb, better, bound, domain)))
    return rows


def _cell(m: dict) -> str:
    if "n" not in m:
        return f"{m['value']:.6g}"
    return f"{m['value']:.6g} [{m['q1']:.4g}..{m['q3']:.4g}] n={m['n']}"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("error: the files use different seeds or sizes; sim metrics "
              "are only comparable for the same seed", file=sys.stderr)
        return 2
    status = 0
    for label, results in (("A", a), ("B", b)):
        for name, w in results["workloads"].items():
            if not w["correct"]:
                print(f"{label} {name}: correctness check failed: {w['violations']}")
                status = 1
    print(f"{'workload':<10} {'metric':<18} {'unit':<9} {'A value [q1..q3] n':<38} "
          f"{'B value [q1..q3] n':<38} {'change':>8}  verdict")
    for name, metric, unit, ma, mb, v in compare(a, b):
        change = (mb["value"] - ma["value"]) / ma["value"]
        print(f"{name:<10} {metric:<18} {unit:<9} {_cell(ma):<38} {_cell(mb):<38} "
              f"{change:>+8.2%}  {v}")
        if v == "worse":
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
