"""Run a compiled scenario and capture its golden-master fingerprint.

A fingerprint is a plain JSON-able dict with four sections:

* ``digests`` — sha1 of the sample-order witness and of the latency
  stream (``float.hex`` — bit-exact, no repr rounding);
* ``counters`` — flat key counters (delivered/failed/jobs, scheduler,
  recovery, lifecycle, balancer, transform tier, fluid lanes), every key
  carrying its layer in the prefix so a drift attributes itself;
* ``percentiles`` — p50/p90/p99/p999 per tenant (tenancy, cluster and
  xform: exact nearest-rank over the fleet's per-job completion
  records; fluid: tagged-flow set);
* ``phases`` — the same metrics re-cut per phase window, so a drift
  names *which phase* moved, not just which metric.

Work is attributed to the phase that *submitted* it (workload names
carry their phase), never to completion time — so drain-tail
completions cannot smear across phase boundaries and the attribution is
completion-order independent, the same property every witness in this
repo is built on.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

from ..errors import ConfigError
from .compile import (
    compile_crashes,
    compile_envelopes,
    compile_fault_plan,
    compile_scale_spec,
    compile_workloads,
    split_workload_name,
)
from .dsl import Scenario

__all__ = ["run_scenario", "fingerprint_digest"]

_PCTS = ((50, "p50"), (90, "p90"), (99, "p99"), (99.9, "p999"))


def run_scenario(
    scn: Scenario,
    quick: bool = False,
    seed: Optional[int] = None,
    perturb: float = 0.0,
) -> dict:
    """Execute ``scn`` and return its fingerprint dict."""
    scn.validate()
    eff_seed = seed if seed is not None else scn.seed
    if scn.engine in _FLEET_ENGINES:
        fp = _run_fleet(scn, quick, eff_seed, perturb)
    elif scn.engine == "fluid":
        fp = _run_fluid(scn, quick, eff_seed, perturb)
    else:  # pragma: no cover - validate() rejects this
        raise ConfigError(f"unknown engine {scn.engine!r}")
    fp["scenario"] = scn.name
    fp["engine"] = scn.engine
    fp["mode"] = "quick" if quick else "full"
    fp["seed"] = eff_seed
    return fp


def fingerprint_digest(fp: dict) -> str:
    """One sha1 over the whole fingerprint (stable key order)."""
    import json

    return hashlib.sha1(
        json.dumps(fp, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _order_digest(samples) -> str:
    return hashlib.sha1(samples.tobytes()).hexdigest()


def _nearest_rank(lats: List[float]) -> dict:
    """Exact nearest-rank percentiles of a latency list."""
    if not lats:
        return {"count": 0}
    lats = sorted(lats)
    out: dict = {"count": len(lats)}
    for p, key in _PCTS:
        i = math.ceil(p / 100.0 * len(lats)) - 1
        out[key] = lats[max(0, min(i, len(lats) - 1))]
    return out


def _phase_entries(scn: Scenario, horizon: float, per_phase: Dict[str, dict]):
    """Fingerprint ``phases`` section from per-phase metric dicts."""
    out = []
    for name, lo, hi in scn.phase_windows():
        out.append({
            "name": name,
            "window": [lo * horizon, hi * horizon],
            "metrics": per_phase.get(name, {}),
        })
    return out


# ---------------------------------------------------------------------------
# tenancy / cluster / xform (one fleet run each)
# ---------------------------------------------------------------------------

def _records_fingerprint(scn: Scenario, horizon: float, rep) -> dict:
    """Digests / percentiles / phases from the per-job records."""
    lat = hashlib.sha1()
    by_base: Dict[str, List[float]] = {}
    by_phase: Dict[str, Dict[str, List[float]]] = {}
    for t_done, tenant, latency, ok, fail in rep.records:
        lat.update(
            f"{t_done.hex()}:{tenant}:{latency.hex()}:{ok}:{fail}\n"
            .encode("utf-8")
        )
        base, phase = split_workload_name(tenant)
        by_base.setdefault(base, []).append(latency)
        if phase:
            by_phase.setdefault(phase, {}).setdefault(base, []).append(latency)
    percentiles = {
        base: _nearest_rank(lats) for base, lats in sorted(by_base.items())
    }
    per_phase: Dict[str, dict] = {}
    for phase, bases in by_phase.items():
        metrics: dict = {}
        for base, lats in sorted(bases.items()):
            metrics[f"{base}.jobs"] = len(lats)
            metrics[f"{base}.p99"] = _nearest_rank(lats)["p99"]
        per_phase[phase] = metrics
    return {
        "digests": {
            "order": _order_digest(rep.samples_read),
            "latency": lat.hexdigest(),
        },
        "percentiles": percentiles,
        "phases": _phase_entries(scn, horizon, per_phase),
    }


def _scalar_items(prefix: str, mapping: dict) -> dict:
    out = {}
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[f"{prefix}.{key}"] = value
    return out


#: Event-level engine -> (its fleet preset, the RunReport fields
#: flattened into its counters).  A dotted name reaches into a nested
#: dict; a dict field becomes one counter per scalar entry.
_FLEET_ENGINES = {
    "tenancy": ("serve", ("rejected_jobs", "preemptions", "forced_serves",
                          "recovery")),
    "cluster": ("cluster", ("recovery", "lifecycle", "balancer",
                            "balancer.routed")),
    "xform": ("xform", ("tier", "routed")),
}


def _run_fleet(scn: Scenario, quick: bool, seed: int, perturb: float) -> dict:
    from ..bench.workloads import preset, run_fleet
    from ..xform import XformSpec
    from ..xform.stages import parse_stages

    name, sections = _FLEET_ENGINES[scn.engine]
    horizon = scn.effective_horizon(quick)
    specs, workloads = compile_workloads(scn, quick, perturb)
    topology = {
        field: value for field, value in (
            ("num_storage", scn.storage),
            ("num_clients", scn.clients),
            ("replicas", scn.replicas),
        ) if value is not None
    }
    xform = None
    if scn.stages:
        xform = XformSpec(stages=parse_stages(scn.stages), workers=scn.workers)
    rep = run_fleet(preset(
        name,
        specs=specs,
        workloads=workloads,
        num_samples=scn.num_samples,
        sample_bytes=scn.sample_bytes,
        horizon=horizon,
        # No service-share window: the serve preset's 10 ms warmup
        # would outlast a quick tenancy horizon.
        warmup=0.0,
        seed=seed,
        fault_plan=compile_fault_plan(scn, quick, seed),
        xform=xform,
        xform_crashes=compile_crashes(scn, "worker_crash", horizon),
        **topology,
    ))
    counters = {
        "delivered": rep.delivered,
        "failed": rep.failed,
        "jobs": rep.jobs,
    }
    for section in sections:
        head, *path = section.split(".")
        value = getattr(rep, head)
        for key in path:
            value = value[key]
        if isinstance(value, dict):
            counters.update(_scalar_items(section, value))
        else:
            counters[section] = value
    fp = _records_fingerprint(scn, horizon, rep)
    fp["sim_time"] = rep.sim_time
    fp["counters"] = counters
    return fp


# ---------------------------------------------------------------------------
# fluid
# ---------------------------------------------------------------------------

def _run_fluid(scn: Scenario, quick: bool, seed: int, perturb: float) -> dict:
    from ..cluster.serving import fluid_bulk_shares
    from ..sim.fluid import ArrivalSchedule, run_scale

    day = scn.effective_horizon(quick)
    envelopes = compile_envelopes(scn, quick, perturb)
    spec = compile_scale_spec(scn, quick, seed)
    report = run_scale(spec, mode="hybrid", envelopes=envelopes)

    counters = {
        "bulk_requests": report.bulk_requests,
        "bulk_bytes": report.bulk_bytes,
        "fluid_requests": report.fluid_requests,
        "fluid_bytes": report.fluid_bytes,
    }
    for lane in report.lanes:
        prefix = f"lane.{lane['name']}"
        counters[f"{prefix}.requests"] = lane["requests"]
        counters[f"{prefix}.bytes"] = lane["bytes"]
        counters[f"{prefix}.tagged_requests"] = lane["tagged_requests"]
        counters[f"{prefix}.latency_sum"] = lane["latency_sum"]

    # Per-phase bulk counts re-derive the schedules exactly as run_scale
    # built them (same envelopes, same shares, same fraction), so the
    # counts are the integer-exact mid-riser grid counts per window.
    shares = fluid_bulk_shares(spec.lanes)
    scheds = []
    for name, envelope, flows in envelopes:
        k = min(spec.tagged_per_cohort, flows)
        bulk_frac = (flows - k) / flows
        scheds.append((
            name,
            [ArrivalSchedule(envelope, fraction=bulk_frac * s) for s in shares],
        ))
    per_phase: Dict[str, dict] = {}
    for phase, lo, hi in scn.phase_windows():
        a, b = lo * day, hi * day
        metrics: dict = {}
        for name, lane_scheds in scheds:
            metrics[f"{name}.bulk_requests"] = sum(
                s.count_between(a, b) for s in lane_scheds
            )
        metrics["tagged_requests"] = sum(
            1 for r in report.tagged if a <= r.t < b
        )
        per_phase[phase] = metrics

    return {
        "sim_time": report.sim_time,
        "digests": {
            "order": report.order_digest,
            "latency": report.latency_digest,
        },
        "counters": counters,
        "percentiles": {"tagged": report.tagged_percentiles()},
        "phases": _phase_entries(scn, day, per_phase),
    }
