"""perfcheck — the datapath's gate workloads and their witnesses.

``python -m repro perfcheck`` runs six gate workloads
(:func:`default_workloads`: fig06, fig08 and the fleet presets) and
reports each one's *witness*:

* final ``sim_time`` (exact float);
* the delivered sample-order digest (sha1 over ``samples_read``);
* delivered/failed counts;
* the full metrics-registry snapshot (sha1 over the canonical JSON of
  ``MetricsRegistry.dump()``), minus the one counter that *measures the
  kernel itself* — ``sim.events_processed`` counts processed events,
  which a cheaper scheduling of the same model changes.

This is the same witness the SimSanitizer uses for its tiebreak sweeps
(:func:`repro.analysis.sanitizer._witness`), extended with the metrics
digest.  tier-1 pins the ``--quick`` witnesses
(``tests/test_perfcheck.py``), so a host-side optimization that moves
any simulated output fails there, and the CLI's JSON lets a branch's
witnesses be diffed against another's.  The transform tier's
pay-for-use gate checks an identity inside the workload, and a mismatch
fails the run.

The closed-form NVMe timing is checked against the per-command service
process it reproduces in ``tests/test_engine_fastpath.py``, not here.
Timing (wall-clock) is deliberately *not* reported here — host time
per workload and per layer is ``benchmarks/e2e/run.py``'s job;
perfcheck must never fail on timing noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .sanitizer import _witness

__all__ = [
    "PerfCheckReport",
    "run_perfcheck",
    "default_workloads",
]

#: Metrics-dump keys that describe the kernel, not the simulation.
#: ``counters.sim.events_processed`` is the engine's own step counter.
KERNEL_META_COUNTERS = ("sim.events_processed",)


def _metrics_digest(result: Any) -> Optional[str]:
    """Canonical sha1 of the run's metrics snapshot, if metrics were on."""
    obs = getattr(result, "obs", None)
    metrics = getattr(obs, "metrics", None)
    if metrics is None or not getattr(metrics, "enabled", False):
        return None
    dump = metrics.dump()
    counters = dump.get("counters")
    if isinstance(counters, dict):
        counters = dict(counters)
        for key in KERNEL_META_COUNTERS:
            counters.pop(key, None)
        dump = dict(dump)
        dump["counters"] = counters
    blob = json.dumps(dump, sort_keys=True, default=repr).encode()
    return hashlib.sha1(blob).hexdigest()


def _full_witness(result: Any) -> Dict[str, Any]:
    w = _witness(result)
    digest = _metrics_digest(result)
    if digest is not None:
        w["metrics_sha1"] = digest
    return w


def _xform_pay_for_use(num_samples: int, horizon: float) -> Dict[str, Any]:
    """The transform tier's pay-for-use gate, self-checking.

    Runs the xform workload with *no* stages and the flat cluster
    datapath it claims to be, and diffs their full witnesses inside the
    workload; any mismatch lands in ``self_divergences``, which
    :func:`run_perfcheck` surfaces as a failure.
    """
    from ..bench.workloads import preset, run_fleet

    x = _full_witness(run_fleet(preset(
        "xform", num_samples=num_samples, horizon=horizon, xform=None,
        metrics=True,
    )))
    flat = _full_witness(run_fleet(preset(
        "cluster", num_storage=2, num_samples=num_samples, horizon=horizon,
        replicas=1, balancer=False, metrics=True,
    )))
    x["self_divergences"] = tuple(
        f"pay-for-use: {key} xform={x.get(key)!r} != flat={flat.get(key)!r}"
        for key in sorted(set(x) | set(flat))
        if x.get(key) != flat.get(key)
    )
    return x


def default_workloads(quick: bool = False) -> Dict[str, Callable[[], Any]]:
    """The six correctness gates: fig06, fig08, and the fleet presets.

    Each returns a :class:`~repro.bench.workloads.RunReport` (closed-loop
    readers for fig06/fig08) with ``sim_time``, ``samples_read``,
    delivered/failed counts and metrics enabled, so the snapshot digest
    is part of the witness.
    ``quick`` shrinks the sample counts for CI smoke use; the datapath
    coverage (client → reactor → qpair → device → fabric) is the same.
    The fleet gates extend the coverage to the fair-queued datapath
    (admission, SFQ lanes, cache partition), a full cluster
    crash/failover/rejoin cycle (lane teardown, re-routing, the handoff
    copy loop), the transform tier's pushdown datapath, and its
    pay-for-use identity (no stages ⇒ bit-identical to the flat cluster
    datapath, checked inside the workload via ``self_divergences``).
    ``cluster_crash_rejoin`` schedules node crashes, so its fault plan
    installs an injector on every NVMe device.
    """
    from ..bench.workloads import dlfs_observed, preset, run_fleet

    samples = 256 if quick else 1024
    nodes = 2 if quick else 4
    horizon = 0.02 if quick else 0.05
    cluster_nodes = 4 if quick else 8
    cluster_samples = 2048 if quick else 8192
    xform_samples = 512 if quick else 2048
    xform_horizon = 0.004 if quick else 0.01
    return {
        "fig06_single_node": lambda: dlfs_observed(
            samples=samples, batch=32, mode="chunk", num_nodes=1,
            trace=False, metrics=True,
        ),
        "fig08_multi_node": lambda: dlfs_observed(
            samples=samples, batch=32, mode="chunk", num_nodes=nodes,
            trace=False, metrics=True,
        ),
        "tenancy_multi_tenant": lambda: run_fleet(preset(
            "serve", horizon=horizon, warmup=horizon / 5, metrics=True,
        )),
        "cluster_crash_rejoin": lambda: run_fleet(preset(
            "cluster", num_storage=cluster_nodes, num_clients=1,
            num_samples=cluster_samples, horizon=0.01,
            node_crashes=((1, 0.004, 0.008),), metrics=True,
        )),
        "xform_pushdown": lambda: run_fleet(preset(
            "xform", num_samples=xform_samples, horizon=xform_horizon,
            metrics=True,
        )),
        "xform_pay_for_use": lambda: _xform_pay_for_use(
            xform_samples, xform_horizon
        ),
    }


@dataclass
class PerfCheckReport:
    """Witnesses of one perfcheck run and any self-check divergences."""

    workloads: List[str]
    witnesses: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "workloads": self.workloads,
            "witnesses": self.witnesses,
            "divergences": self.divergences,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def render(self) -> str:
        lines = [f"perfcheck: {len(self.workloads)} workload(s)"]
        for name in self.workloads:
            diverged = any(d.startswith(f"{name}:") for d in self.divergences)
            lines.append(f"  {name}: {'DIVERGED' if diverged else 'ok'}")
            for key, value in sorted(self.witnesses.get(name, {}).items()):
                lines.append(f"    {key}={value}")
        for d in self.divergences:
            lines.append(f"  divergence: {d}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_perfcheck(
    workloads: Optional[Dict[str, Callable[[], Any]]] = None,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> PerfCheckReport:
    """Run each workload once and collect its witness.

    A workload can self-check an internal identity (the xform
    pay-for-use gate) and report the diffs in ``self_divergences``;
    they fail the run.
    """
    workloads = workloads or default_workloads(quick=quick)
    report = PerfCheckReport(workloads=list(workloads))
    for name, workload in workloads.items():
        if progress:
            progress(name)
        witness = _full_witness(workload())
        for d in witness.pop("self_divergences", ()):
            report.divergences.append(f"{name}: {d}")
        report.witnesses[name] = witness
    return report
