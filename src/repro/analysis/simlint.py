"""simlint — AST static analysis for simulation determinism.

The simulation's contract is bit-exact replay: same seed, same
``samples_read`` order, same final ``sim_time``.  That contract is easy
to break silently — one ``time.time()``, one unseeded generator, one
``for x in some_set`` on a scheduling path — and the breakage only shows
up as unexplainable CI flakes months later.  simlint rejects those
constructs at review time instead.

Scope rules (see :mod:`repro.analysis.rules` for the table):

* SL101/SL102/SL103 — wall-clock and process-entropy APIs, and
  global-state RNG calls, are forbidden everywhere under ``src/repro``.
* SL104/SL105 — every generator must come from the blessed
  :func:`repro.sim.rng` constructor, with explicit seed material.
* SL106/SL107 — ordering keyed on ``id()`` or ``hash()`` varies across
  processes (ASLR, ``PYTHONHASHSEED``).
* SL108 — iterating a ``set`` is order-unstable; only flagged in
  *sim-coupled* modules (anything importing ``repro.sim`` or living in
  the kernel itself), where iteration order can reach the event queue.
* SL109 — ``tracer.start``/``tracer.instant`` on hot paths must sit
  behind ``if <tracer>.enabled:`` so unobserved runs pay one attribute
  check, not a call into the null object.
* SL110 — blocking waits (``time.sleep``, ``os.wait``, ``select.select``
  with a timeout, ...) stall the host thread, not simulated time; any
  retry/backoff loop must wait via ``yield env.timeout(delay)``.
* SL111 — ``env.now`` read inside a fluid epoch body (any function
  taking both ``t0`` and ``t1`` parameters, the hybrid-fidelity epoch
  signature); only flagged in sim-coupled modules.  Epoch bodies charge
  a closed interval the caller fixed — reading the live clock couples
  the charge to when the epoch happens to run, which breaks the
  hybrid/event equivalence obligation.
* SL112 — a write to an environment's ``.now`` (``env.now``,
  ``self._env.now``, ...) outside ``sim/engine.py``.  ``now`` is a
  plain attribute, so nothing but this rule stops code from moving
  the clock under the event queue.

Suppressions are per-line and must carry a reason::

    t0 = time.time()  # simlint: disable=SL101 -- CLI progress, not sim state

A suppression without a reason (or naming an unknown rule) is itself a
finding (SL100) and does *not* suppress anything.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .rules import ALL_RULES_BY_ID, RULES_BY_ID, Finding

__all__ = ["lint_source", "lint_file", "lint_paths", "render_findings"]

# ---------------------------------------------------------------------------
# Forbidden-API tables (fully-qualified dotted names after alias expansion).
# ---------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_ENTROPY = {
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
    "secrets.SystemRandom", "random.SystemRandom",
}

# stdlib `random` module-level functions and legacy numpy global state:
# both draw from one process-wide stream, so results depend on every
# other draw anywhere in the process.
_GLOBAL_RNG = {
    f"random.{fn}" for fn in (
        "seed", "random", "randint", "randrange", "uniform", "triangular",
        "choice", "choices", "shuffle", "sample", "gauss", "normalvariate",
        "lognormvariate", "expovariate", "betavariate", "gammavariate",
        "paretovariate", "vonmisesvariate", "weibullvariate",
        "getrandbits", "randbytes",
    )
} | {
    f"numpy.random.{fn}" for fn in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "exponential", "poisson", "binomial",
        "beta", "gamma", "bytes", "get_state", "set_state",
    )
}

# Direct generator construction — must go through repro.sim.rng instead.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.PCG64DXSM", "numpy.random.MT19937",
    "numpy.random.Philox", "numpy.random.SFC64",
    "random.Random",
}

# Blocking wall-clock waits: these park the *host* thread, freezing the
# event loop (simulated time never advances while they block).  The
# deterministic replacement for any retry/backoff pause is
# `yield env.timeout(delay)`.
_BLOCKING_WAIT = {
    "time.sleep",
    "os.wait", "os.waitpid", "os.wait3", "os.wait4",
    "signal.pause", "signal.sigwait", "signal.sigwaitinfo",
    "signal.sigtimedwait",
    "select.select", "select.poll", "select.epoll",
    "threading.Event.wait", "threading.Condition.wait",
}

# Tracer methods that sit on per-event hot paths.
_HOT_TRACER_METHODS = {"start", "instant"}

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9,\s]+?)(?:\s*--\s*(\S.*?))?\s*$"
)


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------

def _scan_suppressions(
    source: str, path: str
) -> Tuple[Dict[int, Set[str]], List[Finding]]:
    """Per-line suppressed rule IDs, plus SL100 findings for bad ones.

    Tokenizes rather than regex-scanning raw lines so that suppression
    syntax quoted inside string literals (docs, rule hints) is ignored.
    """
    suppressed: Dict[int, Set[str]] = {}
    findings: List[Finding] = []
    comments: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # ast.parse reports the syntax error with position info
    for lineno, colno, comment in comments:
        m = _SUPPRESS_RE.search(comment)
        if not m:
            continue
        ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
        reason = (m.group(2) or "").strip()
        # The combined registry includes the simflow SF2xx/SF3xx rules:
        # one suppression syntax serves both analyzers, and naming a
        # flow rule is not an "unknown rule" to the syntactic pass.
        unknown = sorted(i for i in ids if i not in ALL_RULES_BY_ID)
        if not reason:
            findings.append(Finding(
                path=path, line=lineno, col=colno + m.start() + 1, rule_id="SL100",
                message="suppression has no reason",
                hint=RULES_BY_ID["SL100"].hint,
            ))
            continue  # a reasonless suppression suppresses nothing
        if unknown:
            findings.append(Finding(
                path=path, line=lineno, col=colno + m.start() + 1, rule_id="SL100",
                message=f"suppression names unknown rule(s): {', '.join(unknown)}",
                hint=RULES_BY_ID["SL100"].hint,
            ))
            ids -= set(unknown)
        if ids:
            suppressed[lineno] = ids
    return suppressed, findings


# ---------------------------------------------------------------------------
# The AST pass
# ---------------------------------------------------------------------------

def _names_environment(node: ast.AST) -> bool:
    """``env``, ``self._env``, ``ref_env``, ...: an environment by name."""
    name = (
        node.attr if isinstance(node, ast.Attribute)
        else node.id if isinstance(node, ast.Name) else None
    )
    return name is not None and (
        name.lstrip("_") == "env" or name.endswith("_env")
    )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mentions_enabled(node: ast.AST) -> bool:
    """Does the expression read an ``.enabled`` attribute anywhere?

    Walrus forms count too: ``(t := self.tracer).enabled`` walks to the
    same Attribute node.
    """
    return any(
        isinstance(n, ast.Attribute) and n.attr == "enabled"
        for n in ast.walk(node)
    )


def _is_negated_enabled(node: ast.AST) -> bool:
    """``not <...>.enabled`` (the guard-by-early-return polarity)."""
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and _mentions_enabled(node.operand)
    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _annotation_is_set(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in {"set", "frozenset", "Set", "FrozenSet"}:
            return True
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, sim_coupled: bool) -> None:
        self.path = path
        self.sim_coupled = sim_coupled
        self.findings: List[Finding] = []
        #: alias -> fully qualified module/name ("np" -> "numpy").
        self.aliases: Dict[str, str] = {}
        #: local names known to hold sets (per enclosing function, flat —
        #: good enough: shadowing across scopes is rare in this codebase).
        self._set_names: Set[str] = set()
        #: ``self.<attr>`` names assigned a set anywhere in the class.
        self._set_attrs: Set[str] = set()
        self._obs_guard_depth = 0
        #: nesting depth of fluid epoch bodies (functions taking t0+t1).
        self._epoch_depth = 0

    # -- helpers ---------------------------------------------------------------
    def _emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        rule = RULES_BY_ID[rule_id]
        self.findings.append(Finding(
            path=self.path, line=node.lineno, col=node.col_offset + 1,
            rule_id=rule_id, message=message, hint=rule.hint,
        ))

    def _resolve(self, node: ast.AST) -> Optional[str]:
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head

    # -- imports ---------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            self.aliases[alias.asname or alias.name] = (
                f"{module}.{alias.name}" if module else alias.name
            )
        self.generic_visit(node)

    # -- set tracking ----------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self._set_attrs
        attrs: Set[str] = set()
        for n in ast.walk(node):
            target = value = None
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                target, value = n.targets[0], n.value
            elif isinstance(n, ast.AnnAssign):
                target, value = n.target, n.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if (value is not None and _is_set_expr(value)) or (
                    isinstance(n, ast.AnnAssign)
                    and _annotation_is_set(n.annotation)
                ):
                    attrs.add(target.attr)
        self._set_attrs = attrs
        self.generic_visit(node)
        self._set_attrs = outer

    def _track_assign(self, target: ast.AST, value: Optional[ast.AST],
                      annotation: Optional[ast.AST] = None) -> None:
        if not isinstance(target, ast.Name):
            return
        is_set = (value is not None and _is_set_expr(value)) or (
            annotation is not None and _annotation_is_set(annotation)
        )
        if is_set:
            self._set_names.add(target.id)
        else:
            self._set_names.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._track_assign(node.target, node.value, node.annotation)
        self.generic_visit(node)

    def _iter_is_set(self, iter_node: ast.AST) -> bool:
        if _is_set_expr(iter_node):
            return True
        if isinstance(iter_node, ast.Name) and iter_node.id in self._set_names:
            return True
        if (
            isinstance(iter_node, ast.Attribute)
            and isinstance(iter_node.value, ast.Name)
            and iter_node.value.id == "self"
            and iter_node.attr in self._set_attrs
        ):
            return True
        return False

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if self.sim_coupled and self._iter_is_set(iter_node):
            self._emit(
                iter_node, "SL108",
                "iteration order over a set is not stable",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.visit(node.target)
        self.visit(node.iter)
        self._visit_body(node.body)
        self._visit_body(node.orelse)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- observability guard ---------------------------------------------------
    # The guard contract (SL109) accepts every idiomatic gating form:
    #   if self.tracer.enabled: ...                      # plain
    #   if tracer is not None and tracer.enabled: ...    # conjunction
    #   if (t := self.tracer).enabled: ...               # walrus
    #   span = t.start(...) if t.enabled else NULL_SPAN  # ternary
    #   t.enabled and t.instant(...)                     # short-circuit
    #   if not self.tracer.enabled: return               # early return
    # The last three were misses before simflow landed; fixtures in
    # tests/fixtures/sl109_guard_forms.py pin each one.

    def _visit_body(self, stmts: Sequence[ast.stmt]) -> None:
        """Visit a statement block, honoring guard-by-early-return.

        ``if not <tracer>.enabled: return`` at the top of a block means
        every following statement in the same block runs only when
        tracing is on, so they count as guarded.
        """
        bumped = 0
        for stmt in stmts:
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and _is_negated_enabled(stmt.test)
                and stmt.body
                and isinstance(
                    stmt.body[-1],
                    (ast.Return, ast.Raise, ast.Continue, ast.Break),
                )
            ):
                self.visit(stmt.test)
                for child in stmt.body:
                    self.visit(child)
                self._obs_guard_depth += 1
                bumped += 1
                continue
            self.visit(stmt)
        self._obs_guard_depth -= bumped

    def visit_Module(self, node: ast.Module) -> None:
        self._visit_body(node.body)

    def _visit_function(self, node) -> None:
        for dec in node.decorator_list:
            self.visit(dec)
        self.visit(node.args)
        if node.returns is not None:
            self.visit(node.returns)
        # A function taking both t0 and t1 is a fluid epoch body: it
        # charges the closed interval [t0, t1) the caller fixed, so the
        # live clock is off limits inside (SL111).
        params = {
            a.arg for a in (
                node.args.args + node.args.posonlyargs + node.args.kwonlyargs
            )
        }
        epoch = self.sim_coupled and {"t0", "t1"} <= params
        if epoch:
            self._epoch_depth += 1
        self._visit_body(node.body)
        if epoch:
            self._epoch_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "now"
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and _names_environment(node.value)
            and not Path(self.path).as_posix().endswith("sim/engine.py")
        ):
            self._emit(
                node, "SL112",
                "write to an environment's .now outside sim/engine.py",
            )
        if node.attr == "now" and self._epoch_depth > 0:
            owner = node.value
            owner_name = (
                owner.attr if isinstance(owner, ast.Attribute)
                else owner.id if isinstance(owner, ast.Name) else None
            )
            if owner_name == "env":
                self._emit(
                    node, "SL111",
                    "env.now read inside a fluid epoch body (t0/t1 function)",
                )
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_body(node.body)
        self._visit_body(node.orelse)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item)
        self._visit_body(node.body)

    visit_AsyncWith = visit_With

    def visit_Try(self, node: ast.Try) -> None:
        self._visit_body(node.body)
        for handler in node.handlers:
            if handler.type is not None:
                self.visit(handler.type)
            self._visit_body(handler.body)
        self._visit_body(node.orelse)
        self._visit_body(node.finalbody)

    def visit_If(self, node: ast.If) -> None:
        negated = _is_negated_enabled(node.test)
        guarded = not negated and _mentions_enabled(node.test)
        self.visit(node.test)
        if guarded:
            self._obs_guard_depth += 1
        self._visit_body(node.body)
        if guarded:
            self._obs_guard_depth -= 1
        if negated:
            self._obs_guard_depth += 1
        self._visit_body(node.orelse)
        if negated:
            self._obs_guard_depth -= 1

    def visit_IfExp(self, node: ast.IfExp) -> None:
        negated = _is_negated_enabled(node.test)
        guarded = not negated and _mentions_enabled(node.test)
        self.visit(node.test)
        if guarded:
            self._obs_guard_depth += 1
        self.visit(node.body)
        if guarded:
            self._obs_guard_depth -= 1
        if negated:
            self._obs_guard_depth += 1
        self.visit(node.orelse)
        if negated:
            self._obs_guard_depth -= 1

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if not isinstance(node.op, ast.And):
            self.generic_visit(node)
            return
        bumped = 0
        for value in node.values:
            self.visit(value)
            if _mentions_enabled(value):
                self._obs_guard_depth += 1
                bumped += 1
        self._obs_guard_depth -= bumped

    # -- calls -----------------------------------------------------------------
    def _key_uses_id(self, key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            return any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "id"
                for n in ast.walk(key.body)
            )
        return False

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)

        if resolved in _BLOCKING_WAIT:
            self._emit(
                node, "SL110",
                f"blocking wait {resolved}() stalls the event loop",
            )
        elif resolved in _WALL_CLOCK:
            self._emit(node, "SL101", f"call to wall-clock API {resolved}()")
        elif resolved in _ENTROPY:
            self._emit(node, "SL102", f"call to entropy source {resolved}()")
        elif resolved in _GLOBAL_RNG:
            self._emit(node, "SL103", f"call to global-state RNG {resolved}()")
        elif resolved in _RNG_CONSTRUCTORS:
            seedless = not node.args and not node.keywords
            if not seedless and node.args and (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                seedless = True
            if seedless:
                self._emit(node, "SL104", f"{resolved}() constructed without a seed")
            else:
                self._emit(
                    node, "SL105",
                    f"direct {resolved}(...) outside repro.sim.rng",
                )

        # SL106: ordering keyed on id().
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "sort":
            func_name = "sort"
        if func_name in {"sorted", "min", "max", "sort"}:
            for kw in node.keywords:
                if kw.arg == "key" and self._key_uses_id(kw.value):
                    self._emit(
                        node, "SL106",
                        f"{func_name}() keyed on id() orders by object address",
                    )

        # SL107: builtin hash() — randomized for str/bytes per process.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and "hash" not in self.aliases
        ):
            self._emit(node, "SL107", "builtin hash() is process-dependent")

        # SL109: hot-path tracer call outside an `.enabled` guard.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _HOT_TRACER_METHODS
        ):
            owner = node.func.value
            owner_name = (
                owner.attr if isinstance(owner, ast.Attribute)
                else owner.id if isinstance(owner, ast.Name) else None
            )
            if owner_name == "tracer" and self._obs_guard_depth == 0:
                self._emit(
                    node, "SL109",
                    f"tracer.{node.func.attr}() without an `.enabled` guard",
                )

        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Sim-coupled module detection
# ---------------------------------------------------------------------------

_SIM_SEGMENTS = {"sim", "engine", "resources"}


def _is_sim_coupled(tree: ast.Module, path: str) -> bool:
    norm = path.replace("\\", "/")
    if "/sim/" in norm:
        return True
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and set(module.split(".")) & _SIM_SEGMENTS:
                return True
            if module == "repro.sim" or module.startswith("repro.sim."):
                return True
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.sim" or alias.name.startswith("repro.sim."):
                    return True
    return False


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    suppressed, findings = _scan_suppressions(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(Finding(
            path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            rule_id="SL100", message=f"syntax error prevents linting: {exc.msg}",
        ))
        return findings
    linter = _Linter(path, sim_coupled=_is_sim_coupled(tree, path))
    linter.visit(tree)
    for f in linter.findings:
        if f.rule_id in suppressed.get(f.line, ()):
            continue
        findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_file(path: Union[str, Path]) -> List[Finding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Lint files and/or directory trees (``*.py``, skipping caches)."""
    findings: List[Finding] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files: Iterable[Path] = sorted(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        else:
            files = [p]
        for f in files:
            findings.extend(lint_file(f))
    return findings


def render_findings(findings: Sequence[Finding]) -> str:
    if not findings:
        return "simlint: clean"
    lines = [f.render() for f in findings]
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    summary = ", ".join(f"{rid} x{n}" for rid, n in sorted(by_rule.items()))
    lines.append(f"simlint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)
