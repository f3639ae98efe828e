"""The simlint rule table.

Every rule has a stable ID (``SL1xx``), a one-line summary, and a fix
hint that tells the author what the deterministic replacement is.  The
IDs are part of the repo's contract: suppression comments
(``# simlint: disable=SL105 -- reason``) and CI logs refer to them, so
they are append-only — never renumber.

Rules exist because the simulation's headline claim is bit-exact
reproducibility (same seed → same ``samples_read`` order and
``sim_time``).  Each rule forbids one way a run can silently couple to
process state instead of seed state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "FLOW_RULES",
    "FLOW_RULES_BY_ID",
    "ALL_RULES_BY_ID",
    "Finding",
]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, rationale, and remedy."""

    id: str
    name: str
    summary: str
    hint: str


RULES: Tuple[Rule, ...] = (
    Rule(
        id="SL100",
        name="bad-suppression",
        summary="malformed simlint suppression (missing reason or unknown rule)",
        hint=(
            "write `# simlint: disable=SLxxx -- why this site is exempt`; "
            "the reason is mandatory and the rule ID must exist"
        ),
    ),
    Rule(
        id="SL101",
        name="wall-clock",
        summary="wall-clock time API inside the simulation tree",
        hint=(
            "simulated components must read `env.now`; wall-clock timing "
            "belongs only in CLI progress output (suppress with a reason)"
        ),
    ),
    Rule(
        id="SL102",
        name="process-entropy",
        summary="OS/process entropy source (urandom, uuid, secrets)",
        hint="derive randomness from a named substream: `repro.sim.rng(name, seed)`",
    ),
    Rule(
        id="SL103",
        name="global-rng-state",
        summary="module-level RNG with shared global state (random.*, np.random.*)",
        hint=(
            "global-state RNGs make results depend on call order across the "
            "whole process; use `repro.sim.rng(name, seed)` instead"
        ),
    ),
    Rule(
        id="SL104",
        name="unseeded-rng",
        summary="RNG constructed with no seed (falls back to OS entropy)",
        hint="pass explicit seed material: `repro.sim.rng(name, seed)`",
    ),
    Rule(
        id="SL105",
        name="unblessed-rng",
        summary="direct RNG construction outside repro.sim.rng",
        hint=(
            "construct every generator via `repro.sim.rng(name, seed)` so the "
            "substream is named and auditable (substream_log())"
        ),
    ),
    Rule(
        id="SL106",
        name="id-ordering",
        summary="ordering keyed on id() (object addresses vary per process)",
        hint="key on a stable field (name, index, offset) instead of id()",
    ),
    Rule(
        id="SL107",
        name="builtin-hash-ordering",
        summary="builtin hash() (str/bytes hashing is randomized per process)",
        hint="use zlib.crc32 / hashlib for stable digests, or a stable sort key",
    ),
    Rule(
        id="SL108",
        name="set-iteration",
        summary="iteration over a set in a sim-coupled module (unstable order)",
        hint="wrap in sorted(...) with a stable key, or keep a list/deque",
    ),
    Rule(
        id="SL109",
        name="unguarded-obs",
        summary="hot-path tracer call not behind an `.enabled` guard",
        hint=(
            "gate with `if self.tracer.enabled:` so the null-object path "
            "stays a single attribute check"
        ),
    ),
    Rule(
        id="SL110",
        name="blocking-wait",
        summary="blocking wall-clock wait (time.sleep & friends) in sim code",
        hint=(
            "blocking the process stalls the whole event loop and couples "
            "results to host timing; wait in sim time with "
            "`yield env.timeout(delay)` instead"
        ),
    ),
    Rule(
        id="SL111",
        name="fluid-epoch-env-now",
        summary="env.now read inside a fluid epoch body (t0/t1 function)",
        hint=(
            "fluid epoch bodies advance closed-form state over an interval "
            "the caller fixed; reading env.now couples the charge to when "
            "the epoch happens to run, breaking hybrid/event equivalence — "
            "take the epoch bounds (t0, t1) as arguments instead"
        ),
    ),
    Rule(
        id="SL112",
        name="env-now-write",
        summary="write to an environment's .now outside the kernel",
        hint=(
            "only sim/engine.py advances the clock: post an event or a "
            "timed call (env.call_at) at the instant instead; a replay "
            "that stands in for kernel steps needs a reasoned suppression"
        ),
    ),
)

RULES_BY_ID = {r.id: r for r in RULES}


# ---------------------------------------------------------------------------
# simflow rule families (whole-program dataflow + lifecycle protocols).
#
# SF2xx — interprocedural taint: nondeterministic values (wall clock,
# entropy, id()/hash(), unblessed RNGs) laundered through helpers,
# returns, default arguments, or attribute stores until they reach a
# determinism-critical sink.  The syntactic SL rules only see the direct
# call site; these follow the value.
#
# SF3xx — lifecycle protocols: per-object state machines (acquire must
# pair with release on every exit path) declared in
# :data:`repro.analysis.simflow.protocols.LIFECYCLE_PROTOCOLS`.
# ---------------------------------------------------------------------------

FLOW_RULES: Tuple[Rule, ...] = (
    Rule(
        id="SF200",
        name="taint-to-event",
        summary="nondeterministic value flows into an event post / sim delay",
        hint=(
            "the delay fed to env.timeout()/hold()/post derives from a "
            "wall-clock, entropy, or hash source; derive it from sim "
            "state or a blessed repro.sim.rng substream instead"
        ),
    ),
    Rule(
        id="SF201",
        name="taint-to-state",
        summary="nondeterministic value stored into simulation object state",
        hint=(
            "an attribute of a sim-coupled object is assigned a value "
            "derived from wall clock/entropy/id()/hash(); sim state must "
            "derive from seed state only"
        ),
    ),
    Rule(
        id="SF202",
        name="taint-to-ordering",
        summary="nondeterministic value used as an ordering key",
        hint=(
            "a sort/min/max key derives from id()/hash()/entropy, so the "
            "order varies per process; key on a stable field instead"
        ),
    ),
    Rule(
        id="SF203",
        name="taint-to-rng",
        summary="nondeterministic value passed to repro.sim.rng(...)",
        hint=(
            "rng() name/seed material derives from a nondeterministic "
            "source, so the substream differs per process; pass explicit "
            "constants or config-derived seeds"
        ),
    ),
    Rule(
        id="SF300",
        name="leaked-resource-slot",
        summary="Resource slot acquired but not released on every exit path",
        hint=(
            "a request() slot escapes on an early return/raise without "
            "release()/cancel(); wrap in try/finally or use "
            "`yield from resource.hold(t)`"
        ),
    ),
    Rule(
        id="SF301",
        name="unfinished-span",
        summary="tracer span opened but not finished on every exit path",
        hint=(
            "a tracer.start() span is dropped on an early return/raise "
            "without finish(); close it in a finally or hand ownership "
            "off explicitly (store it on the request/object)"
        ),
    ),
    Rule(
        id="SF302",
        name="leaked-transfer-credit",
        summary="transfer-engine credit acquired but not returned on every path",
        hint=(
            "a destination credit (bounded receive buffer) is held past "
            "an early exit; release it in the try/finally around the "
            "fabric transfer"
        ),
    ),
    Rule(
        id="SF303",
        name="unbalanced-ledger-charge",
        summary="chunk-ledger charge not undone on an exceptional exit",
        hint=(
            "a ChunkLedger charge()/reserve() is followed by a raise "
            "without uncharge()/cancel(); quota accounting must stay "
            "balanced when the insert fails"
        ),
    ),
    Rule(
        id="SF304",
        name="reset-without-generation-bump",
        summary="in-flight state cleared without bumping the qpair generation",
        hint=(
            "aborting in-flight requests (_live.clear()/connected=False) "
            "without `self._generation += 1` lets stale device "
            "completions be delivered as fresh; bump the generation in "
            "the same method"
        ),
    ),
)

FLOW_RULES_BY_ID = {r.id: r for r in FLOW_RULES}

#: Combined registry — what suppression comments may legally name.
ALL_RULES_BY_ID = {**RULES_BY_ID, **FLOW_RULES_BY_ID}


@dataclass(frozen=True)
class Finding:
    """One lint hit, ready to print as ``path:line:col: SLxxx ...``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: Optional[str] = field(default=None)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
