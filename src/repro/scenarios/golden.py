"""Golden-master recording and drift attribution.

A golden file (``scenarios/golden/<name>.json`` at the repo root) holds
one scenario's reviewed baseline: a human-entered ``label`` (why this
baseline is believed correct — required at record time, à la FBA-Bench's
golden-master tooling) plus the full fingerprint per mode
(``quick``/``full``).

``compare_fingerprints`` walks golden vs current and returns one drift
entry per diverged value, each carrying the metric path, the layer it
lives in (derived from the metric prefix), and — for phase-scoped
metrics — the phase name and its sim-time window.  Digests and counters
compare exactly; floats compare bit-exactly too (JSON round-trips
Python doubles exactly), because the simulator's determinism contract
is bit-identity, not tolerance bands.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConfigError

__all__ = [
    "golden_dir",
    "golden_path",
    "load_golden",
    "write_golden",
    "compare_fingerprints",
    "render_drifts",
    "Drift",
]

#: Golden files live at ``<repo>/scenarios/golden`` — committed alongside
#: the code so CI diffs them like any other source of truth.
_GOLDEN_SUBDIR = os.path.join("scenarios", "golden")


@dataclass(frozen=True)
class Drift:
    """One diverged value between golden and current fingerprints."""

    metric: str
    layer: str
    golden: object
    current: object
    phase: str = ""
    window: tuple = field(default=())

    def as_dict(self) -> dict:
        out = {
            "metric": self.metric,
            "layer": self.layer,
            "golden": self.golden,
            "current": self.current,
        }
        if self.phase:
            out["phase"] = self.phase
            out["window"] = list(self.window)
        return out


def golden_dir(root: Optional[str] = None) -> str:
    if root is not None:
        return os.path.join(root, _GOLDEN_SUBDIR)
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo, _GOLDEN_SUBDIR)


def golden_path(name: str, root: Optional[str] = None) -> str:
    return os.path.join(golden_dir(root), f"{name}.json")


def load_golden(name: str, root: Optional[str] = None) -> dict:
    path = golden_path(name, root)
    if not os.path.exists(path):
        raise ConfigError(
            f"no golden master for scenario {name!r} (expected {path}; "
            f"record one with `python -m repro scenario record {name} "
            "--label '...'`)"
        )
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("scenario", "label", "recorded"):
        if key not in doc:
            raise ConfigError(f"golden {path}: missing key {key!r}")
    return doc


def write_golden(
    name: str,
    label: str,
    recorded: dict,
    root: Optional[str] = None,
) -> str:
    """Write the golden file; ``recorded`` maps mode -> fingerprint."""
    if not label.strip():
        raise ConfigError(
            "golden masters need a reviewed --label describing why this "
            "baseline is believed correct"
        )
    path = golden_path(name, root)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "scenario": name,
        "label": label,
        "recorded": recorded,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

_LAYER_PREFIXES = (
    ("recovery.", "faults"),
    ("lifecycle.", "cluster"),
    ("balancer.", "cluster"),
    ("tier.", "xform"),
    ("routed.", "xform"),
    ("lane.", "fluid"),
    ("bulk_", "fluid"),
    ("fluid_", "fluid"),
    ("tagged", "fluid"),
)


def _layer(metric: str, engine: str) -> str:
    if metric.startswith("digests.") or metric == "sim_time":
        return "engine"
    name = metric
    for section in ("counters.", "percentiles.", "phases."):
        if name.startswith(section):
            name = name[len(section):]
            break
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return engine


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    else:
        out[prefix] = value


def compare_fingerprints(golden: dict, current: dict) -> List[Drift]:
    """Every diverged value, most significant sections first."""
    engine = current.get("engine", golden.get("engine", ""))
    drifts: List[Drift] = []

    def _diff_section(section: str, phase: str = "", window: tuple = ()):
        gold_flat: dict = {}
        cur_flat: dict = {}
        _flatten(golden.get(section, {}), section, gold_flat)
        _flatten(current.get(section, {}), section, cur_flat)
        for key in sorted(set(gold_flat) | set(cur_flat)):
            g = gold_flat.get(key)
            c = cur_flat.get(key)
            if g != c:
                drifts.append(Drift(
                    metric=key, layer=_layer(key, engine),
                    golden=g, current=c, phase=phase, window=window,
                ))

    _diff_section("digests")
    if golden.get("sim_time") != current.get("sim_time"):
        drifts.append(Drift(
            metric="sim_time", layer="engine",
            golden=golden.get("sim_time"), current=current.get("sim_time"),
        ))
    _diff_section("counters")
    _diff_section("percentiles")

    gold_phases = {p["name"]: p for p in golden.get("phases", ())}
    cur_phases = {p["name"]: p for p in current.get("phases", ())}
    for name in sorted(set(gold_phases) | set(cur_phases)):
        g = gold_phases.get(name)
        c = cur_phases.get(name)
        if g is None or c is None:
            drifts.append(Drift(
                metric=f"phases.{name}", layer=_layer("phases", engine),
                golden=None if g is None else "present",
                current=None if c is None else "present",
                phase=name,
            ))
            continue
        window = tuple(c.get("window") or g.get("window") or ())
        if g.get("window") != c.get("window"):
            drifts.append(Drift(
                metric=f"phases.{name}.window", layer="engine",
                golden=g.get("window"), current=c.get("window"),
                phase=name, window=window,
            ))
        gold_flat: dict = {}
        cur_flat: dict = {}
        _flatten(g.get("metrics", {}), "", gold_flat)
        _flatten(c.get("metrics", {}), "", cur_flat)
        for key in sorted(set(gold_flat) | set(cur_flat)):
            gv = gold_flat.get(key)
            cv = cur_flat.get(key)
            if gv != cv:
                drifts.append(Drift(
                    metric=f"phases.{name}.{key}",
                    layer=_layer(f"counters.{key}", engine),
                    golden=gv, current=cv,
                    phase=name, window=window,
                ))
    return drifts


def render_drifts(
    scenario: str, mode: str, drifts: List[Drift], label: str = ""
) -> str:
    """Human-readable attribution diff."""
    if not drifts:
        return f"OK {scenario} [{mode}]: fingerprint matches golden master"
    lines = [
        f"DRIFT {scenario} [{mode}]: {len(drifts)} metric(s) diverged "
        f"from golden master"
        + (f" (label: {label})" if label else "")
    ]
    for d in drifts:
        where = ""
        if d.phase:
            lo, hi = (d.window + (None, None))[:2]
            if lo is not None and hi is not None:
                where = f"  [phase {d.phase!r}, window {lo:g}..{hi:g}s]"
            else:
                where = f"  [phase {d.phase!r}]"
        lines.append(
            f"  [{d.layer}] {d.metric}: golden={d.golden!r} "
            f"current={d.current!r}{where}"
        )
    return "\n".join(lines)
