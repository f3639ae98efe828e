"""Pass 3 — lifecycle protocols as per-object state machines.

Each protocol in :data:`LIFECYCLE_PROTOCOLS` declares how a *handle* is
born (``req = resource.request()``), how it dies (``resource.release(req)``
or ``span.finish()``), and which exit kinds count as leaks.  The checker
runs a small intraprocedural abstract interpretation per function:

* handles move through HELD → RELEASED / ESCAPED;
* a handle that is returned, stored into an attribute/subscript, or
  passed into a non-release call **escapes** — ownership moved, we stop
  tracking (this is what makes ``request.span = span`` in the qpair
  clean);
* ``yield handle`` is *not* an escape — in this DES it means "wait for
  the grant", the canonical acquire idiom;
* ``try/finally`` bodies are pre-scanned: a release anywhere in the
  ``finally`` (even conditional, as in ``Resource.hold``) covers every
  exit inside the ``try``;
* at each exit (``return``, ``raise``, falling off the end) any handle
  still HELD is a leak, reported at the acquire line.

Branches are analyzed on copies and merged; only branches that fall
through contribute.  A branch that releases under an ``if handle:`` /
``if handle is not None:`` guard counts as a release, matching the
conditional-acquire idiom for optional tracers.  The branch where
``handle is None`` holds nothing: ``Resource.try_request`` returns
``None`` when it grants no slot.

Known limitation (kept deliberately to control false positives): we do
not model the implicit exception edge at every ``yield`` — a process
killed mid-wait is the sanitizer's job, not the linter's.

The registry also carries *paired mutations* (SF304): clearing
in-flight qpair state must bump ``self._generation`` in the same
method, else stale device completions resurrect as fresh.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..rules import FLOW_RULES_BY_ID, Finding
from .graph import FunctionInfo, ProjectGraph

__all__ = [
    "HandleProtocol",
    "PairedMutation",
    "LIFECYCLE_PROTOCOLS",
    "PAIRED_MUTATIONS",
    "ProtocolAnalysis",
]

HELD = "held"
RELEASED = "released"
ESCAPED = "escaped"


@dataclass(frozen=True)
class HandleProtocol:
    """One acquire/release state machine.

    ``receiver_hints``: substrings, one of which must appear in the
    acquire receiver expression (empty = any receiver).  More specific
    protocols must precede laxer ones in the registry — first match
    wins (the transfer-credit rule shadows the generic resource rule).
    """

    rule_id: str
    label: str
    acquire_methods: FrozenSet[str]
    receiver_hints: Tuple[str, ...] = ()
    #: handle released when passed as an argument: resource.release(req)
    release_as_arg: FrozenSet[str] = frozenset()
    #: handle released as the receiver: span.finish()
    release_as_recv: FrozenSet[str] = frozenset()
    #: obligation keyed on the *receiver* (no handle value), released by
    #: calling one of these methods on the same receiver: ledger charges.
    receiver_keyed: bool = False
    release_on_receiver: FrozenSet[str] = frozenset()
    #: only exception exits leak (charges legitimately persist past a
    #: normal return and are undone elsewhere, e.g. ledger.on_free).
    leak_on_raise_only: bool = False


@dataclass(frozen=True)
class PairedMutation:
    """Mutating one attribute obliges mutating another in the same method."""

    rule_id: str
    label: str
    #: self.<attr>.clear() triggers the obligation
    clear_attrs: FrozenSet[str]
    #: self.<attr> = False triggers the obligation
    flag_attrs: FrozenSet[str]
    #: the method must also write self.<bump_attr>
    bump_attr: str


LIFECYCLE_PROTOCOLS: Tuple[HandleProtocol, ...] = (
    HandleProtocol(
        rule_id="SF302",
        label="transfer credit",
        acquire_methods=frozenset({"request", "try_request"}),
        receiver_hints=("credit",),
        release_as_arg=frozenset({"release", "cancel"}),
    ),
    HandleProtocol(
        rule_id="SF300",
        label="resource slot",
        acquire_methods=frozenset({"request", "try_request"}),
        release_as_arg=frozenset({"release", "cancel"}),
    ),
    HandleProtocol(
        rule_id="SF301",
        label="tracer span",
        acquire_methods=frozenset({"start"}),
        receiver_hints=("tracer",),
        release_as_recv=frozenset({"finish"}),
    ),
    HandleProtocol(
        rule_id="SF303",
        label="ledger charge",
        acquire_methods=frozenset({"charge", "reserve"}),
        receiver_hints=("ledger",),
        receiver_keyed=True,
        release_on_receiver=frozenset({"uncharge", "cancel", "rollback"}),
        leak_on_raise_only=True,
    ),
)

PAIRED_MUTATIONS: Tuple[PairedMutation, ...] = (
    PairedMutation(
        rule_id="SF304",
        label="qpair reset",
        clear_attrs=frozenset({"_live"}),
        flag_attrs=frozenset({"connected"}),
        bump_attr="_generation",
    ),
)


def _recv_src(func: ast.Attribute) -> str:
    try:
        return ast.unparse(func.value)
    except Exception:  # pragma: no cover - unparse is total on ast nodes
        return ""


def _match_acquire(call: ast.Call) -> Optional[HandleProtocol]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    recv = _recv_src(func).lower()
    for proto in LIFECYCLE_PROTOCOLS:
        if func.attr not in proto.acquire_methods:
            continue
        if proto.receiver_hints and not any(
            h in recv for h in proto.receiver_hints
        ):
            continue
        return proto
    return None


@dataclass
class _Obligation:
    protocol: HandleProtocol
    key: str
    acquire_line: int
    acquire_col: int
    recv: str
    state: str = HELD


@dataclass
class _Leak:
    obligation: _Obligation
    exit_kind: str
    exit_line: int


class ProtocolAnalysis:
    """Runs all lifecycle protocols over every function in the graph."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        self.findings = []
        for qname in sorted(self.graph.functions):
            info = self.graph.functions[qname]
            walker = _ProtocolWalker(info)
            for leak in walker.run():
                self._report(info, leak)
        self._check_paired_mutations()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return self.findings

    def _report(self, info: FunctionInfo, leak: _Leak) -> None:
        ob = leak.obligation
        rule = FLOW_RULES_BY_ID[ob.protocol.rule_id]
        handle = ob.key if not ob.protocol.receiver_keyed else ob.recv
        self.findings.append(Finding(
            path=info.module.path,
            line=ob.acquire_line,
            col=ob.acquire_col + 1,
            rule_id=ob.protocol.rule_id,
            message=(
                f"{ob.protocol.label} `{handle}` acquired here is not "
                f"released on a {leak.exit_kind} exit "
                f"(line {leak.exit_line}) in {info.qname}"
            ),
            hint=rule.hint,
        ))

    # -- SF304: paired attribute mutations ------------------------------------
    def _check_paired_mutations(self) -> None:
        for cls_qname in sorted(self.graph.classes):
            cinfo = self.graph.classes[cls_qname]
            attrs = _self_attrs(cinfo.node)
            for pm in PAIRED_MUTATIONS:
                if pm.bump_attr not in attrs:
                    continue  # protocol doesn't apply to this class
                for mname in sorted(cinfo.methods):
                    method = cinfo.methods[mname]
                    trigger = _find_trigger(method.node, pm)
                    if trigger is None:
                        continue
                    if _writes_attr(method.node, pm.bump_attr):
                        continue
                    rule = FLOW_RULES_BY_ID[pm.rule_id]
                    self.findings.append(Finding(
                        path=cinfo.module.path,
                        line=trigger.lineno,
                        col=trigger.col_offset + 1,
                        rule_id=pm.rule_id,
                        message=(
                            f"{pm.label}: in-flight state cleared in "
                            f"{method.qname} without bumping "
                            f"self.{pm.bump_attr}"
                        ),
                        hint=rule.hint,
                    ))


def _none_tested(test: ast.expr) -> Tuple[Optional[str], ...]:
    """For ``if name is None`` / ``if name is not None``: the name that is
    ``None`` in the body and in the else branch, respectively."""
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        name = test.left.id
        return (name, None) if isinstance(test.ops[0], ast.Is) else (None, name)
    return ()


def _self_attrs(cls: ast.ClassDef) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            out.add(node.attr)
    return out


def _find_trigger(fn: ast.AST, pm: PairedMutation) -> Optional[ast.AST]:
    hits = [n for n in ast.walk(fn) if _is_trigger(n, pm)]
    if not hits:
        return None
    return min(hits, key=lambda n: (n.lineno, n.col_offset))


def _is_trigger(node: ast.AST, pm: PairedMutation) -> bool:
    # self.<clear_attr>.clear()
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "clear"
        and isinstance(node.func.value, ast.Attribute)
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "self"
        and node.func.value.attr in pm.clear_attrs
    ):
        return True
    # self.<flag_attr> = False
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in pm.flag_attrs
                and isinstance(node.value, ast.Constant)
                and node.value.value is False
            ):
                return True
    return False


def _writes_attr(fn: ast.AST, attr: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.AugAssign):
            t = node.target
            if isinstance(t, ast.Attribute) and \
                    isinstance(t.value, ast.Name) and t.value.id == "self" \
                    and t.attr == attr:
                return True
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Attribute) and \
                        isinstance(t.value, ast.Name) and \
                        t.value.id == "self" and t.attr == attr:
                    return True
    return False


class _ProtocolWalker:
    """Abstract interpretation of one function body."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.obligations: Dict[str, _Obligation] = {}
        #: stack of key-sets released by an enclosing finally/handler.
        self.covered: List[Set[str]] = []
        self.leaks: List[_Leak] = []
        self._reported: Set[Tuple[str, int]] = set()

    def run(self) -> List[_Leak]:
        terminated = self._walk_block(self.info.node.body)
        if not terminated:
            self._check_exit("fall-through", self._end_line())
        return self.leaks

    def _end_line(self) -> int:
        return getattr(self.info.node.body[-1], "end_lineno", None) or \
            self.info.node.body[-1].lineno

    # -- block walking --------------------------------------------------------
    def _walk_block(self, stmts: Sequence[ast.stmt]) -> bool:
        for stmt in stmts:
            if self._stmt(stmt):
                return True
        return False

    def _stmt(self, node: ast.stmt) -> bool:
        """Process one statement; True if control cannot fall through."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # A handle captured by a nested def/closure escapes: the
            # callback owns the release now (deferred-completion idiom).
            for name in sorted(_names_in(node) & set(self.obligations)):
                if self.obligations[name].state == HELD:
                    self.obligations[name].state = ESCAPED
            return False
        if isinstance(node, ast.Return):
            self._escape_in(node.value)
            self._check_exit("return", node.lineno)
            return True
        if isinstance(node, ast.Raise):
            self._check_exit("raise", node.lineno)
            return True
        if isinstance(node, (ast.Break, ast.Continue)):
            return True
        if isinstance(node, ast.If):
            return self._branch([node.body, node.orelse],
                                test_names=_names_in(node.test),
                                unheld=_none_tested(node.test))
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_stmt_effects(node, header_only=True)
            self._branch([list(node.body), []])
            self._walk_block(node.orelse)
            return False
        if isinstance(node, ast.While):
            self._branch([list(node.body), []])
            self._walk_block(node.orelse)
            return False
        if isinstance(node, ast.Try):
            fin_cover = self._releases_in(node.finalbody)
            body_cover = set(fin_cover)
            for handler in node.handlers:
                body_cover |= self._releases_in(handler.body, raise_only=True)
            self.covered.append(body_cover)
            body_term = self._walk_block(node.body)
            self.covered.pop()
            # Handler exits still run the finally.
            self.covered.append(fin_cover)
            for handler in node.handlers:
                self._branch([handler.body, []])
            self.covered.pop()
            if not body_term:
                self._walk_block(node.orelse)
            final_term = self._walk_block(node.finalbody)
            return final_term or (body_term and not node.handlers)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._scan_expr(item.context_expr, assign_target=None)
            return self._walk_block(node.body)
        # Plain statements: acquires, releases, escapes.
        self._scan_stmt_effects(node)
        return False

    def _branch(self, blocks: List[Sequence[ast.stmt]],
                test_names: Optional[Set[str]] = None,
                unheld: Tuple[Optional[str], ...] = ()) -> bool:
        """Walk each block on a copy of the obligations and merge the
        ones that fall through; ``unheld[i]`` names a handle that is
        ``None``, so not held, throughout ``blocks[i]``."""
        base = {k: _Obligation(**vars(ob)) for k, ob in
                self.obligations.items()}
        results: List[Tuple[Dict[str, _Obligation], bool]] = []
        for i, block in enumerate(blocks):
            self.obligations = {k: _Obligation(**vars(ob))
                                for k, ob in base.items()}
            if i < len(unheld) and unheld[i] is not None:
                self.obligations.pop(unheld[i], None)
            terminated = self._walk_block(block)
            results.append((self.obligations, terminated))
        merged: Dict[str, _Obligation] = {}
        fallthrough = [obs for obs, term in results if not term]
        all_terminated = not fallthrough
        if all_terminated:
            self.obligations = base
            return True
        keys = sorted({k for obs in fallthrough for k in obs})
        for key in keys:
            states = [obs[key] for obs in fallthrough if key in obs]
            merged[key] = self._merge_states(key, states, test_names)
        self.obligations = merged
        return False

    def _merge_states(self, key: str, states: List[_Obligation],
                      test_names: Optional[Set[str]]) -> _Obligation:
        if any(ob.state == ESCAPED for ob in states):
            out = states[0]
            out.state = ESCAPED
            return out
        released = [ob for ob in states if ob.state == RELEASED]
        if released and len(released) == len(states):
            return released[0]
        if released and test_names and key in test_names:
            # `if span is not None: span.finish()` — the guarded-release
            # idiom for conditionally acquired handles.
            return released[0]
        held = [ob for ob in states if ob.state == HELD]
        return held[0] if held else states[0]

    # -- effects within one statement -----------------------------------------
    def _scan_stmt_effects(self, node: ast.stmt,
                           header_only: bool = False) -> None:
        is_simple_assign = (
            (isinstance(node, ast.Assign) and len(node.targets) == 1)
            or (isinstance(node, ast.AnnAssign) and node.value is not None)
        )
        if is_simple_assign and not header_only:
            target = node.targets[0] if isinstance(node, ast.Assign) \
                else node.target
            value = node.value
            # Unwrap `req = yield resource.request()`-style wrappers.
            inner = value
            while isinstance(inner, (ast.Await, ast.Yield, ast.YieldFrom)) \
                    and inner.value is not None:
                inner = inner.value
            if isinstance(inner, ast.Call):
                proto = _match_acquire(inner)
                if proto is not None and not proto.receiver_keyed and \
                        isinstance(target, ast.Name):
                    self._scan_call_args(inner)
                    self.obligations[target.id] = _Obligation(
                        protocol=proto, key=target.id,
                        acquire_line=inner.lineno,
                        acquire_col=inner.col_offset,
                        recv=_recv_src(inner.func),
                    )
                    return
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._escape_in(value)
                return
            self._scan_expr(value, assign_target=target)
            if isinstance(target, ast.Name) and \
                    target.id in self.obligations and \
                    not _refs_name(value, target.id):
                # Rebinding the handle variable loses the old handle.
                del self.obligations[target.id]
            return
        if header_only:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._escape_in(node.iter)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, assign_target=None)

    def _scan_expr(self, node: Optional[ast.expr],
                   assign_target: Optional[ast.expr]) -> None:
        if node is None:
            return
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            inner = node.value
            # `yield handle` = wait for the grant; NOT an escape.
            if isinstance(inner, ast.Name):
                return
            self._scan_expr(inner, assign_target=None)
            return
        if isinstance(node, ast.Call):
            if not self._apply_release(node):
                proto = _match_acquire(node)
                if proto is not None and proto.receiver_keyed:
                    recv = _recv_src(node.func)  # type: ignore[arg-type]
                    key = f"recv:{recv}"
                    self.obligations[key] = _Obligation(
                        protocol=proto, key=key,
                        acquire_line=node.lineno,
                        acquire_col=node.col_offset,
                        recv=recv,
                    )
                    self._scan_call_args(node)
                    return
                self._scan_call_args(node)
            return
        if isinstance(node, ast.Name):
            return  # bare reads don't move state
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, assign_target=None)

    def _scan_call_args(self, call: ast.Call) -> None:
        """Handle passed into a non-release call escapes (ownership moves)."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            self._escape_in(arg)

    def _apply_release(self, call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        meth = func.attr
        done = False
        # resource.release(req) / credit.cancel(req)
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id in self.obligations:
                ob = self.obligations[arg.id]
                if meth in ob.protocol.release_as_arg:
                    ob.state = RELEASED
                    done = True
        # span.finish()
        if isinstance(func.value, ast.Name) and \
                func.value.id in self.obligations:
            ob = self.obligations[func.value.id]
            if meth in ob.protocol.release_as_recv:
                ob.state = RELEASED
                done = True
        # ledger.uncharge(...) — receiver-keyed obligations
        recv_key = f"recv:{_recv_src(func)}"
        if recv_key in self.obligations:
            ob = self.obligations[recv_key]
            if meth in ob.protocol.release_on_receiver:
                ob.state = RELEASED
                done = True
        if done:
            return True
        return False

    def _escape_in(self, node: Optional[ast.expr]) -> None:
        if node is None:
            return
        for name in sorted(_names_in(node)):
            ob = self.obligations.get(name)
            if ob is not None and ob.state == HELD:
                ob.state = ESCAPED

    # -- pre-scans -------------------------------------------------------------
    def _releases_in(self, stmts: Sequence[ast.stmt],
                     raise_only: bool = False) -> Set[str]:
        """Keys released anywhere (even conditionally) in ``stmts``."""
        out: Set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call) or \
                        not isinstance(node.func, ast.Attribute):
                    continue
                meth = node.func.attr
                for key, ob in self.obligations.items():
                    if raise_only and not ob.protocol.leak_on_raise_only:
                        continue
                    if meth in ob.protocol.release_as_arg and any(
                        isinstance(a, ast.Name) and a.id == key
                        for a in node.args
                    ):
                        out.add(key)
                    if meth in ob.protocol.release_as_recv and \
                            isinstance(node.func.value, ast.Name) and \
                            node.func.value.id == key:
                        out.add(key)
                    if ob.protocol.receiver_keyed and \
                            meth in ob.protocol.release_on_receiver and \
                            f"recv:{_recv_src(node.func)}" == key:
                        out.add(key)
                # Pre-register future obligations? No: the finally scan
                # only covers handles already live when the try starts,
                # plus those acquired in the body (rescanned below).
        return out

    # -- exits ----------------------------------------------------------------
    def _check_exit(self, kind: str, line: int) -> None:
        covered: Set[str] = set()
        for layer in self.covered:
            covered |= layer
        for key in sorted(self.obligations):
            ob = self.obligations[key]
            if ob.state != HELD or key in covered:
                continue
            if ob.protocol.leak_on_raise_only and kind != "raise":
                continue
            mark = (key, ob.acquire_line)
            if mark in self._reported:
                continue
            self._reported.add(mark)
            self.leaks.append(_Leak(ob, kind, line))


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _refs_name(node: ast.AST, name: str) -> bool:
    return name in _names_in(node)
