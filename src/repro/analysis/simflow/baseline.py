"""Baseline bookkeeping: fail CI only on *new* findings.

A finding's fingerprint must survive unrelated edits to the same file,
so it hashes the path, rule, and a line-number-normalized message —
never the line itself — plus an occurrence index to keep N identical
findings in one file distinct.  The committed ``simflow-baseline.json``
carries a human ``reason`` per entry: a baseline entry is a reviewed
false positive (or an accepted debt item), not a mute button.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..rules import Finding

__all__ = [
    "fingerprint_findings",
    "load_baseline",
    "write_baseline",
    "diff_against_baseline",
]

BASELINE_VERSION = 1

_LINE_REF = re.compile(r"line \d+")


def _normalize(message: str) -> str:
    return _LINE_REF.sub("line N", message)


def fingerprint_findings(
    findings: Sequence[Finding],
) -> List[Tuple[str, Finding]]:
    """(fingerprint, finding) pairs; stable under line drift."""
    counters: Dict[Tuple[str, str, str], int] = {}
    out: List[Tuple[str, Finding]] = []
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col,
                                              f.rule_id, f.message))
    for f in ordered:
        norm = _normalize(f.message)
        sig = (f.path, f.rule_id, norm)
        idx = counters.get(sig, 0)
        counters[sig] = idx + 1
        digest = hashlib.sha256(
            f"{f.path}|{f.rule_id}|{norm}|{idx}".encode("utf-8")
        ).hexdigest()[:16]
        out.append((digest, f))
    return out


def load_baseline(path: Union[str, Path]) -> Dict[str, dict]:
    """fingerprint -> entry; empty when the file doesn't exist."""
    p = Path(path)
    if not p.exists():
        return {}
    data = json.loads(p.read_text(encoding="utf-8"))
    return {e["fingerprint"]: e for e in data.get("findings", [])}


def write_baseline(
    path: Union[str, Path],
    findings: Sequence[Finding],
    keep_reasons: Dict[str, dict],
) -> int:
    """Write all current findings as the new baseline.

    Reasons from ``keep_reasons`` (the previous baseline) are preserved
    for fingerprints that persist; new entries get a placeholder the
    reviewer must replace.
    """
    entries = []
    for fp, f in fingerprint_findings(findings):
        prev = keep_reasons.get(fp)
        entries.append({
            "fingerprint": fp,
            "rule": f.rule_id,
            "path": f.path,
            "line": f.line,
            "message": f.message,
            "reason": prev["reason"] if prev else "(unreviewed — add a reason)",
        })
    payload = {"version": BASELINE_VERSION, "findings": entries}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return len(entries)


def diff_against_baseline(
    findings: Sequence[Finding],
    baseline: Dict[str, dict],
) -> Tuple[List[Tuple[str, Finding]], List[str]]:
    """(new findings with fingerprints, stale baseline fingerprints)."""
    current = fingerprint_findings(findings)
    seen = {fp for fp, _ in current}
    new = [(fp, f) for fp, f in current if fp not in baseline]
    stale = sorted(fp for fp in baseline if fp not in seen)
    return new, stale
