"""Fault plans and recovery policies.

A :class:`FaultPlan` is a declarative, fully-seeded description of the
faults to inject into one simulation run: per-command probabilities for
NVMe media errors, latency hiccups, and command stalls; per-transfer
probabilities for fabric drops; and a period for forced qpair resets.
Because every random draw flows from ``plan.seed`` through per-site
substreams (see :class:`repro.faults.FaultInjector`), a chaos run is
exactly reproducible: same plan, same workload, same event trace.

A :class:`RecoveryPolicy` is the client-side counterpart: how the DLFS
reactor detects and survives those faults (deadlines, capped exponential
backoff with seeded jitter, a bounded retry budget, reconnect pacing).

``parse_fault_plan`` turns the CLI's ``--fault-plan`` argument — either
a ``key=value,key=value`` string or a path to a JSON file — into a plan.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

from ..errors import ConfigError

__all__ = ["FaultPlan", "RecoveryPolicy", "parse_fault_plan", "ZERO_PLAN"]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault site's behaviour."""

    #: Root seed; every fault site derives an independent substream.
    seed: int = 0

    # -- NVMe device fault sites (per command) ------------------------------
    #: P(read completes with an unrecoverable media error).
    media_error_rate: float = 0.0
    #: P(command pays an extra media-latency spike — a "hiccup").
    hiccup_rate: float = 0.0
    #: Extra latency of one hiccup, seconds.
    hiccup_duration: float = 2e-3
    #: P(command wedges in the controller far past any sane deadline).
    timeout_rate: float = 0.0
    #: How long a wedged command takes before surfacing TIMEOUT, seconds.
    timeout_stall: float = 50e-3

    # -- fabric / NVMe-oF fault sites ----------------------------------------
    #: P(one fabric transfer is dropped and must be re-driven: a stall).
    link_drop_rate: float = 0.0
    #: Stall paid when a transfer or capsule is dropped, seconds.
    link_stall: float = 5e-3
    #: P(an NVMe-oF command capsule is lost at the target front-end).
    nvmf_drop_rate: float = 0.0

    # -- forced qpair resets ---------------------------------------------------
    #: Mean period between forced per-qpair resets, seconds (0 = never).
    qpair_reset_period: float = 0.0
    #: Uniform jitter fraction applied to each reset period.
    qpair_reset_jitter: float = 0.25

    # -- tenant-keyed faults ----------------------------------------------------
    #: Per-tenant media-error rates, as ``((tenant, rate), ...)``: each
    #: completion delivered for that tenant's spans rolls an extra
    #: media-error chance from a per-tenant substream.  Lets chaos runs
    #: target one tenant and check its retries cannot starve a neighbor.
    tenant_faults: tuple = ()

    # -- node crash/rejoin schedule (cluster serving tier) ---------------------
    #: Deterministic node-failure lifecycle, as
    #: ``((node_index, crash_time, rejoin_time), ...)``; ``rejoin_time``
    #: may be ``None`` for a crash the node never comes back from.
    #: Driven by :class:`repro.cluster.ClusterLifecycle` under a
    #: replicated :class:`~repro.core.DLFSConfig` (``config.cluster``).
    node_crashes: tuple = ()

    def __post_init__(self) -> None:
        # Up-front validation: a bad plan fails at construction with a
        # one-line ConfigError, never minutes into a chaos run.
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("seed", "tenant_faults", "node_crashes"):
                continue
            if not math.isfinite(value):
                raise ConfigError(f"fault plan field {f.name} must be finite")
            if value < 0:
                raise ConfigError(f"fault plan field {f.name} must be >= 0")
        for entry in self.node_crashes:
            if len(entry) != 3:
                raise ConfigError(
                    "node_crashes entries must be (node, crash_time, rejoin_time)"
                )
            node, crash_time, rejoin_time = entry
            if not isinstance(node, int) or node < 0:
                raise ConfigError(
                    f"node_crashes node index must be an int >= 0, got {node!r}"
                )
            if not math.isfinite(crash_time) or crash_time < 0:
                raise ConfigError(
                    f"node_crashes crash_time for node {node} must be >= 0, "
                    f"got {crash_time!r}"
                )
            if rejoin_time is not None and (
                not math.isfinite(rejoin_time) or rejoin_time <= crash_time
            ):
                raise ConfigError(
                    f"node_crashes rejoin_time for node {node} must be "
                    f"> crash_time {crash_time}, got {rejoin_time!r}"
                )
        for entry in self.tenant_faults:
            if len(entry) != 2:
                raise ConfigError("tenant_faults entries must be (tenant, rate)")
            tenant, rate = entry
            if not tenant:
                raise ConfigError("tenant_faults tenant name must be non-empty")
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"tenant_faults rate for {tenant!r} is a probability; got {rate}"
                )
        for rate in ("media_error_rate", "hiccup_rate", "timeout_rate",
                     "link_drop_rate", "nvmf_drop_rate"):
            if getattr(self, rate) > 1.0:
                raise ConfigError(f"{rate} is a probability; got {getattr(self, rate)}")

    @property
    def is_zero(self) -> bool:
        """True when the plan can never inject anything (pay-for-use)."""
        return (
            self.media_error_rate == 0.0
            and self.hiccup_rate == 0.0
            and self.timeout_rate == 0.0
            and self.link_drop_rate == 0.0
            and self.nvmf_drop_rate == 0.0
            and self.qpair_reset_period == 0.0
            and not any(rate > 0.0 for _tenant, rate in self.tenant_faults)
            and not self.node_crashes
        )


#: The no-op plan: machinery installed, nothing ever injected.
ZERO_PLAN = FaultPlan()


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a DLFS reactor detects faults and drives itself back healthy."""

    #: Per-request completion deadline, seconds; a miss resets the qpair.
    deadline: float = 20e-3
    #: Fault-retry budget per request (media errors / stalled commands).
    max_retries: int = 4
    #: First retry backoff, seconds; doubles per retry up to ``backoff_cap``.
    backoff_base: float = 0.5e-3
    backoff_cap: float = 8e-3
    #: Jitter fraction added to each backoff (seeded, deterministic).
    jitter: float = 0.25
    #: Jitter stream seed (combined with the reactor name).
    seed: int = 0

    def validate(self) -> None:
        if self.deadline <= 0:
            raise ConfigError("deadline must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigError("need 0 <= backoff_base <= backoff_cap")
        if self.jitter < 0:
            raise ConfigError("jitter must be >= 0")

    def backoff(self, retry: int) -> float:
        """Capped exponential backoff for the ``retry``-th attempt (1-based)."""
        if retry < 1:
            raise ConfigError(f"retry numbers are 1-based; got {retry}")
        return min(self.backoff_cap, self.backoff_base * 2.0 ** (retry - 1))


#: Short CLI aliases accepted by ``parse_fault_plan``.
_ALIASES = {
    "media": "media_error_rate",
    "hiccup": "hiccup_rate",
    "timeout": "timeout_rate",
    "drop": "link_drop_rate",
    "nvmf_drop": "nvmf_drop_rate",
    "reset_period": "qpair_reset_period",
    "reset_jitter": "qpair_reset_jitter",
}


def parse_fault_plan(text: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI argument.

    Accepts an inline JSON object, a path to a JSON file, or an inline
    spec like ``"media=0.01,reset_period=0.05,seed=7"`` (full field
    names and the short aliases above both work).  ``"zero"``/``""``
    gives the no-op plan.
    """
    text = text.strip()
    if text in ("", "zero", "none"):
        return ZERO_PLAN
    if text.startswith("{"):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("inline fault plan must be a JSON object")
        items = raw.items()
    elif text.endswith(".json") or os.path.exists(text):
        with open(text) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"fault plan file {text!r} must hold a JSON object")
        items = raw.items()
    else:
        items = []
        for pair in text.split(","):
            if not pair.strip():
                continue
            if "=" not in pair:
                raise ConfigError(
                    f"bad fault-plan entry {pair!r} (expected key=value)"
                )
            key, value = pair.split("=", 1)
            items.append((key.strip(), value.strip()))

    valid = {f.name for f in fields(FaultPlan)}
    updates = {}
    tenant_faults = []
    node_crashes = []

    def _number(key, value, cast=float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"bad fault-plan value for {key!r}: {value!r}"
            ) from None

    for key, value in items:
        if key.startswith("tenant."):
            # Inline tenant-keyed media rate: "tenant.alice=0.02".
            tenant = key[len("tenant."):].strip()
            if not tenant:
                raise ConfigError(f"bad fault-plan entry {key!r}: empty tenant name")
            tenant_faults.append((tenant, _number(key, value)))
            continue
        if key.startswith("crash."):
            # Inline crash schedule: "crash.3=0.01:0.03" (crash:rejoin) or
            # "crash.3=0.01" (never rejoins).
            node = _number(key, key[len("crash."):].strip(), int)
            parts = str(value).split(":")
            if len(parts) not in (1, 2):
                raise ConfigError(
                    f"bad fault-plan entry {key!r}: expected crash[:rejoin] times"
                )
            crash_time = _number(key, parts[0])
            rejoin_time = _number(key, parts[1]) if len(parts) == 2 else None
            node_crashes.append((node, crash_time, rejoin_time))
            continue
        name = _ALIASES.get(key, key)
        if name not in valid:
            raise ConfigError(f"unknown fault-plan field {key!r}")
        if name == "tenant_faults":
            # JSON form: {"tenant_faults": {"alice": 0.02}} or pair list.
            pairs = value.items() if isinstance(value, dict) else value
            tenant_faults.extend((t, _number(t, r)) for t, r in pairs)
            continue
        if name == "node_crashes":
            # JSON form: {"node_crashes": [[3, 0.01, 0.03], [5, 0.02, null]]}
            for entry in value:
                if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                    raise ConfigError(
                        f"{name} entries must be [index, crash, rejoin|null]"
                    )
                node, crash_time, rejoin_time = entry
                node_crashes.append((
                    _number(name, node, int),
                    _number(name, crash_time),
                    None if rejoin_time is None
                    else _number(name, rejoin_time),
                ))
            continue
        updates[name] = _number(key, value, int if name == "seed" else float)
    if tenant_faults:
        updates["tenant_faults"] = tuple(tenant_faults)
    if node_crashes:
        updates["node_crashes"] = tuple(node_crashes)
    # Construction validates (FaultPlan.__post_init__).
    return replace(FaultPlan(), **updates)
