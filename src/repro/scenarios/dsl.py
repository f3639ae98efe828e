"""The scenario DSL: declarative, seeded traffic/fault shapes over sim-time.

A :class:`Scenario` names an engine (``tenancy``, ``cluster``, ``xform``
or ``fluid``), a cast of :class:`TenantDef` tenants, a timeline of
:class:`PhaseSpec` phases, and a list of :class:`EventSpec` infrastructure
events.  Everything temporal is expressed as a *fraction of the horizon*
(the same convention :class:`repro.sim.fluid.ScaleSpec` uses), so the
``--quick`` mode simply shrinks the horizon and every phase boundary,
churn window, and crash instant scales with it.

Phases multiply each tenant's base rate:

* ``hold`` — constant ``level`` for the whole phase;
* ``ramp`` — linear from the previous phase's end level to ``level``
  (a decay is just a ramp to a lower level);
* ``diurnal`` — a sinusoid around the ``level`` midline with
  ``amplitude``, troughing at the phase start and peaking mid-phase.

Ramps and diurnals are *realized* as piecewise-constant steps (the only
thing the downstream engines — renewal-process arrival generators and
fluid rate envelopes — can consume exactly).  The realization is pure
arithmetic over the spec, so two runs of the same scenario produce
bit-identical step grids; randomness enters only through the blessed
``repro.sim.rng`` substreams inside the engines themselves.

Tenant churn is the ``join``/``leave`` activity window; dataset hot-swap
is ``swap_at`` + a second sample range; slow-drip media degradation is a
``fault_rate`` that ramps linearly from zero over the run.  Cluster
membership events (rolling upgrades, regional failover) and fluid lane
outages are :class:`EventSpec` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "PhaseSpec",
    "PhaseStep",
    "TenantDef",
    "EventSpec",
    "Scenario",
    "realize_phases",
]

_ENGINES = ("tenancy", "cluster", "xform", "fluid")
_OPEN_LOOP = ("poisson", "bursty")
_EVENT_KINDS = ("node_crash", "worker_crash", "lane_outage")

#: Which event kinds each engine consumes.
_EVENTS_BY_ENGINE = {
    "tenancy": (),
    "cluster": ("node_crash",),
    "xform": ("worker_crash",),
    "fluid": ("lane_outage",),
}

_AUTO_STEPS = {"hold": 1, "ramp": 4, "diurnal": 6}


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of the scenario timeline."""

    name: str
    #: Relative duration weight (normalized over all phases).
    duration: float = 1.0
    #: "hold" | "ramp" | "diurnal".
    shape: str = "hold"
    #: Rate multiplier at the end of the phase (hold: throughout;
    #: diurnal: the midline).
    level: float = 1.0
    #: Piecewise-constant realization steps (0 = shape default).
    steps: int = 0
    #: Diurnal swing as a fraction of ``level`` (ignored otherwise).
    amplitude: float = 0.5

    def validate(self) -> None:
        if not self.name or "@" in self.name or "/" in self.name:
            raise ConfigError(f"bad phase name {self.name!r}")
        if self.duration <= 0:
            raise ConfigError(f"phase {self.name!r}: duration must be > 0")
        if self.shape not in _AUTO_STEPS:
            raise ConfigError(f"phase {self.name!r}: unknown shape {self.shape!r}")
        if self.level < 0:
            raise ConfigError(f"phase {self.name!r}: level must be >= 0")
        if self.steps < 0:
            raise ConfigError(f"phase {self.name!r}: steps must be >= 0")
        if self.shape == "diurnal" and not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(
                f"phase {self.name!r}: amplitude {self.amplitude} outside [0, 1)"
            )

    @property
    def step_count(self) -> int:
        return self.steps if self.steps > 0 else _AUTO_STEPS[self.shape]


@dataclass(frozen=True)
class PhaseStep:
    """One realized piecewise-constant step of the timeline."""

    phase: str
    index: int
    #: Horizon fractions [lo, hi).
    lo: float
    hi: float
    #: Rate multiplier in force over the step.
    mult: float


def realize_phases(phases: Tuple[PhaseSpec, ...]) -> Tuple[PhaseStep, ...]:
    """Realize the phase timeline into steps covering [0, 1) exactly.

    Pure spec arithmetic — no randomness, no float accumulation drift
    (edges come from one division per boundary), so the step grid is a
    deterministic function of the phase tuple.
    """
    if not phases:
        raise ConfigError("scenario needs at least one phase")
    names = set()
    for p in phases:
        p.validate()
        if p.name in names:
            raise ConfigError(f"duplicate phase {p.name!r}")
        names.add(p.name)
    total = sum(p.duration for p in phases)
    steps: list[PhaseStep] = []
    prev_level = 1.0
    elapsed = 0.0
    for p in phases:
        n = p.step_count
        lo_frac = elapsed / total
        hi_frac = (elapsed + p.duration) / total
        for k in range(n):
            a = lo_frac + (hi_frac - lo_frac) * k / n
            b = lo_frac + (hi_frac - lo_frac) * (k + 1) / n
            u = (k + 0.5) / n  # phase-local midpoint
            if p.shape == "hold":
                mult = p.level
            elif p.shape == "ramp":
                mult = prev_level + (p.level - prev_level) * u
            else:  # diurnal
                mult = p.level * (
                    1.0 + p.amplitude * math.sin(2.0 * math.pi * u - 0.5 * math.pi)
                )
            steps.append(PhaseStep(p.name, k, a, b, mult))
        if p.shape == "diurnal":
            prev_level = p.level * (1.0 - p.amplitude)
        else:
            prev_level = p.level
        elapsed += p.duration
    # Pin the outer edges exactly (guards against total/total != 1.0).
    steps[0] = replace(steps[0], lo=0.0)
    steps[-1] = replace(steps[-1], hi=1.0)
    return tuple(steps)


@dataclass(frozen=True)
class TenantDef:
    """One tenant's base traffic shape (phases multiply ``rate``)."""

    name: str
    #: "poisson" | "bursty" (open loop) | "train" (closed loop; phases
    #: do not modulate a completion-driven loop).
    kind: str = "poisson"
    #: Base job arrival rate, jobs/second (open loop).
    rate: float = 200.0
    batch: int = 8
    weight: float = 1.0
    priority: int = 1
    slo_latency: float = 0.0
    tail_shape: float = 1.5
    #: Activity window (tenant churn), fractions of the horizon.
    join: float = 0.0
    leave: float = 1.0
    #: Sample range as dataset fractions.
    range_lo: float = 0.0
    range_hi: float = 1.0
    #: Dataset hot-swap: at ``swap_at`` (horizon fraction) the tenant's
    #: reads move to [swap_lo, swap_hi).
    swap_at: Optional[float] = None
    swap_lo: float = 0.0
    swap_hi: float = 1.0
    #: Slow-drip media degradation: per-sample media-error probability
    #: ramping linearly from 0 at t=0 to this value at the horizon.
    fault_rate: float = 0.0
    #: Closed loop (train) only.
    concurrency: int = 2
    think_time: float = 0.0
    #: Fluid engine only: flows in this cohort (0 = scenario default).
    users: int = 0

    def validate(self) -> None:
        if not self.name or "@" in self.name:
            raise ConfigError(f"bad tenant name {self.name!r} ('@' is reserved)")
        if self.kind not in _OPEN_LOOP + ("train",):
            raise ConfigError(f"tenant {self.name!r}: unknown kind {self.kind!r}")
        if self.kind != "train" and self.rate <= 0:
            raise ConfigError(f"tenant {self.name!r}: rate must be > 0")
        if self.batch < 1 or self.concurrency < 1:
            raise ConfigError(
                f"tenant {self.name!r}: batch and concurrency must be >= 1"
            )
        if not 0.0 <= self.join < self.leave <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: bad activity window "
                f"[{self.join}, {self.leave})"
            )
        for lo, hi, what in (
            (self.range_lo, self.range_hi, "range"),
            (self.swap_lo, self.swap_hi, "swap range"),
        ):
            if not 0.0 <= lo < hi <= 1.0:
                raise ConfigError(
                    f"tenant {self.name!r}: bad {what} [{lo}, {hi})"
                )
        if self.swap_at is not None and not 0.0 < self.swap_at < 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: swap_at {self.swap_at} outside (0, 1)"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: fault_rate is a probability"
            )
        if self.kind == "train" and (
            self.swap_at is not None or self.join > 0.0 or self.leave < 1.0
        ):
            raise ConfigError(
                f"tenant {self.name!r}: churn/hot-swap apply to open-loop "
                "tenants (a closed loop has no arrival schedule to window)"
            )
        if self.users < 0:
            raise ConfigError(f"tenant {self.name!r}: users must be >= 0")


@dataclass(frozen=True)
class EventSpec:
    """One infrastructure event on the scenario timeline."""

    #: "node_crash" (cluster) | "worker_crash" (xform) | "lane_outage"
    #: (fluid).
    kind: str
    #: Start instant, fraction of the horizon.
    at: float
    #: End (rejoin / service-restored) instant; ``None`` = permanent
    #: (node/worker crashes only).
    until: Optional[float] = None
    #: Lane / node / worker index.
    target: int = 0

    def validate(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ConfigError(f"unknown event kind {self.kind!r}")
        if not 0.0 <= self.at < 1.0:
            raise ConfigError(f"event at={self.at} outside [0, 1)")
        if self.until is not None and not self.at < self.until <= 1.0:
            raise ConfigError(
                f"event until={self.until} must be in ({self.at}, 1]"
            )
        if self.kind == "lane_outage" and self.until is None:
            raise ConfigError("lane_outage events need an until")
        if self.target < 0:
            raise ConfigError(f"event target {self.target} < 0")


@dataclass(frozen=True)
class Scenario:
    """One named, seeded, composable scenario."""

    name: str
    #: "tenancy" | "cluster" | "xform" | "fluid".
    engine: str
    title: str = ""
    description: str = ""
    seed: int = 42
    #: Full-run horizon in simulated seconds (fluid: the "day").
    horizon: float = 0.05
    #: ``--quick`` multiplies the horizon by this.
    quick_factor: float = 0.25
    tenants: Tuple[TenantDef, ...] = ()
    phases: Tuple[PhaseSpec, ...] = (PhaseSpec("steady"),)
    events: Tuple[EventSpec, ...] = ()
    num_samples: int = 3072
    sample_bytes: int = 16 * 1024
    #: Fleet topology; ``None`` keeps the engine's fleet preset value.
    storage: Optional[int] = None
    clients: Optional[int] = None
    replicas: Optional[int] = None
    #: Xform tier (the xform engine only): stage grammar
    #: (``repro.xform.parse_stages``) and worker count.
    stages: str = ""
    workers: int = 2
    #: Fluid engine: lanes, tagged flows per cohort, default cohort size.
    lanes: int = 4
    tagged: int = 2
    users: int = 64

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        if self.engine not in _ENGINES:
            raise ConfigError(
                f"scenario {self.name!r}: unknown engine {self.engine!r}"
            )
        if self.horizon <= 0 or not 0.0 < self.quick_factor <= 1.0:
            raise ConfigError(
                f"scenario {self.name!r}: need horizon > 0 and "
                "quick_factor in (0, 1]"
            )
        if not self.tenants:
            raise ConfigError(f"scenario {self.name!r}: needs tenants")
        names = set()
        for t in self.tenants:
            t.validate()
            if t.name in names:
                raise ConfigError(
                    f"scenario {self.name!r}: duplicate tenant {t.name!r}"
                )
            names.add(t.name)
        realize_phases(self.phases)  # validates the timeline
        if bool(self.stages) != (self.engine == "xform"):
            raise ConfigError(
                f"scenario {self.name!r}: transform stages are required "
                "by, and only by, the xform engine"
            )
        allowed = _EVENTS_BY_ENGINE[self.engine]
        # A preset-default storage count is checked by the fleet builder.
        limits = {
            "node_crash": self.storage,
            "worker_crash": self.workers,
            "lane_outage": self.lanes,
        }
        for e in self.events:
            e.validate()
            if e.kind not in allowed:
                raise ConfigError(
                    f"scenario {self.name!r}: event {e.kind!r} does not "
                    f"apply to engine {self.engine!r}"
                )
            if limits[e.kind] is not None and e.target >= limits[e.kind]:
                raise ConfigError(
                    f"scenario {self.name!r}: event target {e.target} "
                    f"out of range for {e.kind!r} (< {limits[e.kind]})"
                )
        if self.engine == "fluid":
            for t in self.tenants:
                if t.kind == "train":
                    raise ConfigError(
                        f"scenario {self.name!r}: fluid cohorts are open "
                        f"loop (tenant {t.name!r} is 'train')"
                    )
        if self.num_samples < 1 or self.sample_bytes < 1:
            raise ConfigError(
                f"scenario {self.name!r}: num_samples and sample_bytes "
                "must be >= 1"
            )
        counts = (self.storage, self.clients, self.replicas, self.workers,
                  self.lanes, self.tagged, self.users)
        if any(n is not None and n < 1 for n in counts):
            raise ConfigError(
                f"scenario {self.name!r}: topology counts must be >= 1"
            )

    def effective_horizon(self, quick: bool) -> float:
        return self.horizon * self.quick_factor if quick else self.horizon

    def steps(self) -> Tuple[PhaseStep, ...]:
        return realize_phases(self.phases)

    def phase_windows(self) -> Tuple[Tuple[str, float, float], ...]:
        """(name, lo_frac, hi_frac) per phase, in timeline order."""
        out: list[Tuple[str, float, float]] = []
        for s in self.steps():
            if out and out[-1][0] == s.phase:
                out[-1] = (s.phase, out[-1][1], s.hi)
            else:
                out.append((s.phase, s.lo, s.hi))
        return tuple(out)
