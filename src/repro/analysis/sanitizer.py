"""SimSanitizer — runtime determinism and resource-lifecycle checking.

The event queue breaks same-timestamp ties by insertion order.  Code
that *depends* on that tiebreak — two processes racing at the same
simulated instant, with the outcome hanging on which was scheduled
first — is a latent race: any refactor that reorders scheduling calls
silently changes results.  The sanitizer falsifies such dependence the
way a thread sanitizer perturbs scheduling: it installs a seeded random
tiebreak rank into the engine (via :func:`repro.sim.engine.
set_tiebreak_factory`), reruns the workload under several perturbation
seeds, and asserts the *results* — final ``sim_time``, delivered sample
order, delivered/failed counts — are identical to the unperturbed
baseline.  Anything that diverges was riding on the tiebreak.

On top of the sweep, a :class:`LifecycleAudit` registers with the
engine (:func:`repro.sim.engine.set_lifecycle_audit`) and checks
resource hygiene at the end of every run:

* ``Resource`` slots still held after the run → leak-on-stop;
* ``Store`` putters still blocked → a producer wedged at teardown;
* qpairs with in-flight requests after shutdown → leaked I/O;
* completions delivered after a qpair reset bumped the generation →
  stale delivery (the reset path's core invariant).

Double-acquire of a resource slot is raised eagerly by
``Resource._grant`` itself (a corrupted-accounting bug should fail
loudly, sanitized run or not).
"""

from __future__ import annotations

import functools
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..bench.workloads import FleetSpec, preset, run_fleet
from ..sim import engine as _engine
from ..sim.rng import rng as sim_rng

__all__ = [
    "LifecycleAudit",
    "SanitizerReport",
    "perturbed_tiebreaks",
    "run_sanitizer",
    "default_workload",
    "fleet_witness",
    "SWEEPS",
    "scale_hybrid_workload",
    "scenario_pack_workload",
]


class _TiebreakStream:
    """Seeded random rank source handed to each :class:`Environment`."""

    def __init__(self, seed: Any) -> None:
        self._rng = sim_rng("sanitizer.tiebreak", seed)

    def random(self) -> float:
        return float(self._rng.random())


class LifecycleAudit:
    """Collects resource-lifecycle violations across one run."""

    def __init__(self) -> None:
        self.tracked: List[Any] = []
        self.violations: List[str] = []

    # Called by the engine for every Resource/Store/IOQPair
    # constructed while this audit is installed.
    def register(self, obj: Any) -> None:
        self.tracked.append(obj)
        if hasattr(obj, "_live") and hasattr(obj, "completion_sink"):
            obj.audit = self  # qpair: verify generation at delivery time

    # Called by IOQPair._deliver just before delivering a completion.
    def check_delivery(self, qpair: Any, generation: int) -> None:
        if generation != qpair._generation:
            self.violations.append(
                f"{qpair.name}: completion of generation {generation} "
                f"delivered after reset to generation {qpair._generation}"
            )

    def finish(self) -> List[str]:
        """Run end-of-simulation checks; returns all violations."""
        for obj in self.tracked:
            name = getattr(obj, "name", "") or type(obj).__name__
            if hasattr(obj, "_users") and hasattr(obj, "capacity"):
                held = len(obj._users)
                if held:
                    self.violations.append(
                        f"{name}: {held} resource slot(s) still held at end of run"
                    )
            elif hasattr(obj, "_putters"):
                blocked = len(obj._putters)
                if blocked:
                    self.violations.append(
                        f"{name}: {blocked} put(s) still blocked at end of run"
                    )
            elif hasattr(obj, "_live"):
                if obj._inflight or obj._live:
                    self.violations.append(
                        f"{name}: {obj._inflight} request(s) still in flight "
                        "at end of run"
                    )
        return self.violations


@contextmanager
def perturbed_tiebreaks(
    seed: Optional[Any],
    audit: Optional[LifecycleAudit] = None,
) -> Iterator[Optional[LifecycleAudit]]:
    """Install perturbation/audit hooks into the engine for one run.

    ``seed=None`` leaves tiebreaks in production (insertion) order —
    used for the baseline run, optionally still under the audit.
    """
    if seed is not None:
        _engine.set_tiebreak_factory(lambda: _TiebreakStream(seed))
    if audit is not None:
        _engine.set_lifecycle_audit(audit)
    try:
        yield audit
    finally:
        _engine.set_tiebreak_factory(None)
        _engine.set_lifecycle_audit(None)


# ---------------------------------------------------------------------------
# Witness extraction — what "the same result" means
# ---------------------------------------------------------------------------

def _witness(result: Any) -> Dict[str, Any]:
    """Reduce a workload result to the fields that must be invariant."""
    if isinstance(result, dict):
        return dict(result)
    if hasattr(result, "sim_time"):
        w: Dict[str, Any] = {"sim_time": float(result.sim_time)}
        samples = getattr(result, "samples_read", None)
        if samples is not None:
            w["samples_sha1"] = hashlib.sha1(
                bytes(samples.tobytes())
            ).hexdigest()
            w["samples_n"] = int(len(samples))
        for attr in ("delivered", "failed"):
            if hasattr(result, attr):
                w[attr] = int(getattr(result, attr))
        return w
    return {"result": result}


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer sweep."""

    base_seed: int
    baseline: Dict[str, Any]
    runs: List[Dict[str, Any]] = field(default_factory=list)
    determinism_violations: List[str] = field(default_factory=list)
    lifecycle_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.determinism_violations and not self.lifecycle_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_seed": self.base_seed,
            "ok": self.ok,
            "baseline": self.baseline,
            "runs": self.runs,
            "determinism_violations": self.determinism_violations,
            "lifecycle_violations": self.lifecycle_violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def render(self) -> str:
        lines = [
            f"SimSanitizer: {len(self.runs)} perturbed run(s), "
            f"base seed {self.base_seed}"
        ]
        base = ", ".join(f"{k}={v}" for k, v in sorted(self.baseline.items()))
        lines.append(f"  baseline: {base}")
        for run in self.runs:
            status = "ok" if run["ok"] else "DIVERGED"
            lines.append(f"  tiebreak seed {run['seed']}: {status}")
        for v in self.determinism_violations:
            lines.append(f"  determinism: {v}")
        for v in self.lifecycle_violations:
            lines.append(f"  lifecycle: {v}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def default_workload() -> Any:
    """The standard sweep target: closed-loop readers, obs disabled.

    Small enough for a CI smoke job, large enough to exercise the full
    datapath (clients, reactors, qpairs, fabric, drain-on-stop).
    """
    from ..bench.workloads import dlfs_observed

    return dlfs_observed(
        samples=512, batch=32, mode="chunk", num_nodes=1,
        trace=False, metrics=False,
    )


def fleet_witness(spec: FleetSpec) -> Dict[str, Any]:
    """Sweep target: one :class:`~repro.bench.workloads.FleetSpec` run.

    The result witness plus the layer counters: a tiebreak-dependent
    failover, handoff, routing or re-dispatch decision diverges there
    even if the delivered samples happen to match.
    """
    report = run_fleet(spec)
    witness = _witness(report)
    for section in ("lifecycle", "tier", "routed"):
        for key, value in getattr(report, section).items():
            witness[f"{section}.{key}"] = value
    for key in ("failovers", "node_down", "node_up"):
        witness[f"recovery.{key}"] = report.recovery.get(key, 0)
    return witness


def scale_hybrid_workload() -> Dict[str, Any]:
    """The hybrid-fidelity sweep target: fluid lanes + tagged flows.

    A downscaled diurnal day with a lane outage and cohort churn, so
    epoch-boundary anchor moves, the vectorized epoch charge, and the
    tagged event processes all run under perturbed tiebreaks.  The
    witness is the tagged order/latency digest pair plus the exact bulk
    counters — a tiebreak-dependent charge or impulse would diverge in
    either the digests or the integer byte totals.
    """
    from ..sim.fluid import ScaleSpec, run_scale

    spec = ScaleSpec(users=2000, day=600.0)
    report = run_scale(spec, mode="hybrid")
    witness: Dict[str, Any] = {
        "sim_time": float(report.sim_time),
        "order_digest": report.order_digest,
        "latency_digest": report.latency_digest,
        "bulk_requests": int(report.bulk_requests),
        "bulk_bytes": int(report.bulk_bytes),
        "fluid_requests": int(report.fluid_requests),
        "tagged_n": len(report.tagged),
    }
    for lane in report.lanes:
        witness[f"lane.{lane['name']}.requests"] = lane["requests"]
        witness[f"lane.{lane['name']}.bytes"] = lane["bytes"]
    return witness


def scenario_pack_workload() -> Dict[str, Any]:
    """Golden-master scenarios as a sweep target.

    Runs one windowed-tenancy scenario (phase-stepped surge compiled to
    per-interval workloads) and one cluster scenario (staggered
    crash/rejoin wave, which exercises the handoff abort/re-graft race)
    in quick mode and witnesses their full fingerprint digests.  Any
    tiebreak-dependent ordering anywhere in a compiled scenario —
    arrivals, phase windows, handoffs, per-job completion records —
    moves a digest.
    """
    from ..scenarios import SCENARIOS, fingerprint_digest, run_scenario

    witness: Dict[str, Any] = {}
    for name in ("flash-crowd", "rolling-upgrade"):
        fp = run_scenario(SCENARIOS[name], quick=True)
        witness[f"{name}.digest"] = fingerprint_digest(fp)
        witness[f"{name}.sim_time"] = float(fp["sim_time"])
    return witness


#: Sweep name -> zero-argument workload; ``sanitize --scenario`` offers
#: these (plus ``all``).
SWEEPS: Dict[str, Callable[[], Any]] = {
    "default": default_workload,
    # A node crashes under live traffic and rejoins while the shard
    # handoff copy is still in flight: the abort-the-graft race, the
    # per-fetch failover path, and the qpair teardown/rejoin lifecycle.
    "cluster": functools.partial(fleet_witness, preset(
        "cluster", num_storage=4, num_clients=1, replicas=2,
        num_samples=2048, horizon=0.01, node_crashes=((1, 0.004, 0.008),),
    )),
    # A transform worker crashes and rejoins while tasks are queued, in
    # service, and mid-ship: re-dispatch, the slot-waiter bounce, the
    # transfer-engine credit release, and affinity-failover re-routing.
    # Two clients' jobs meet at the storage NICs and, while worker 0 is
    # down, at worker 1's inbox, cores and transfer credits, so the
    # perturbed tiebreak orders their same-instant claims, event-free
    # ones included.  With two storage nodes each tenant's samples, and
    # so each job's records, sit on one node: one boundary group per job.
    "xform": functools.partial(fleet_witness, preset(
        "xform", num_storage=2, num_clients=2, num_samples=512,
        horizon=0.004, xform_crashes=((0, 0.002, 0.005),),
    )),
    "scale": scale_hybrid_workload,
    "scenario": scenario_pack_workload,
}


def run_sanitizer(
    workload: Optional[Callable[[], Any]] = None,
    runs: int = 5,
    base_seed: int = 2019,
    progress: Optional[Callable[[str], None]] = None,
) -> SanitizerReport:
    """Sweep ``workload`` under ``runs`` perturbed tiebreak seeds.

    The workload is any zero-argument callable that builds its own
    :class:`~repro.sim.Environment` and returns either a
    :class:`~repro.bench.workloads.RunReport`-like object or a plain
    dict of comparable values.  Returns a :class:`SanitizerReport`;
    check ``.ok``.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    workload = workload or default_workload

    def one(seed: Optional[Any]) -> tuple:
        audit = LifecycleAudit()
        with perturbed_tiebreaks(seed, audit):
            result = workload()
        return _witness(result), audit.finish()

    if progress:
        progress("baseline (insertion-order tiebreaks)")
    baseline, base_lifecycle = one(None)
    report = SanitizerReport(base_seed=base_seed, baseline=baseline)
    for v in base_lifecycle:
        report.lifecycle_violations.append(f"baseline: {v}")

    for i in range(runs):
        seed = (base_seed, i)
        if progress:
            progress(f"perturbed run {i + 1}/{runs} (seed {seed})")
        witness, lifecycle = one(seed)
        diffs = [
            f"seed {seed}: {key} {baseline.get(key)!r} != {witness.get(key)!r}"
            for key in sorted(set(baseline) | set(witness))
            if baseline.get(key) != witness.get(key)
        ]
        report.determinism_violations.extend(diffs)
        for v in lifecycle:
            report.lifecycle_violations.append(f"seed {seed}: {v}")
        report.runs.append({
            "seed": list(seed), "ok": not diffs and not lifecycle,
            "witness": witness,
        })
    return report
