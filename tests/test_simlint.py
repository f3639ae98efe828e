"""simlint rule tests: one positive, one negative, one suppression per rule.

The linter is pure (source text in, findings out), so every case runs
through :func:`repro.analysis.lint_source` on a small snippet.  The
bad-example fixture used by the CI acceptance check is exercised at the
end through the real CLI entry point.
"""

import textwrap

from repro.analysis import RULES, RULES_BY_ID, lint_paths, lint_source
from repro.cli import main as cli_main

def ids(source, path="mod.py"):
    return [f.rule_id for f in lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# SL100 — bad suppressions
# ---------------------------------------------------------------------------

def test_sl100_suppression_without_reason_is_flagged_and_ignored():
    src = """
    import time
    t = time.time()  # simlint: disable=SL101
    """
    assert sorted(ids(src)) == ["SL100", "SL101"]


def test_sl100_unknown_rule_id():
    src = """
    import time
    t = time.time()  # simlint: disable=SL999, SL101 -- known part still applies
    """
    # SL999 is reported; the valid SL101 part still suppresses.
    assert ids(src) == ["SL100"]


def test_sl100_suppression_inside_string_literal_is_ignored():
    src = '''
    DOC = "example: # simlint: disable=SL101"
    '''
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL101 — wall clock
# ---------------------------------------------------------------------------

def test_sl101_time_and_datetime():
    src = """
    import time
    from datetime import datetime
    a = time.time()
    b = time.perf_counter()
    c = datetime.now()
    """
    assert ids(src) == ["SL101", "SL101", "SL101"]


def test_sl101_alias_resolution():
    src = """
    import time as clock
    t = clock.monotonic()
    """
    assert ids(src) == ["SL101"]


def test_sl101_suppressed_with_reason():
    src = """
    import time
    t = time.time()  # simlint: disable=SL101 -- CLI progress print
    """
    assert ids(src) == []


def test_sl101_env_now_is_fine():
    src = """
    def proc(env):
        return env.now
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL102 — process entropy
# ---------------------------------------------------------------------------

def test_sl102_entropy_sources():
    src = """
    import os, uuid, secrets
    a = os.urandom(16)
    b = uuid.uuid4()
    c = secrets.token_hex(8)
    """
    assert ids(src) == ["SL102", "SL102", "SL102"]


def test_sl102_negative_os_path_ok():
    src = """
    import os
    p = os.path.join("a", "b")
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL103 — global RNG state
# ---------------------------------------------------------------------------

def test_sl103_stdlib_and_numpy_global():
    src = """
    import random
    import numpy as np
    random.seed(1)
    x = random.randint(0, 9)
    y = np.random.rand(3)
    np.random.shuffle(y)
    """
    assert ids(src) == ["SL103"] * 4


def test_sl103_generator_methods_are_fine():
    src = """
    from repro.sim import rng
    g = rng("test.stream", 7)
    x = g.random()
    y = g.integers(10)
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL104 / SL105 — unseeded and unblessed construction
# ---------------------------------------------------------------------------

def test_sl104_unseeded_constructors():
    src = """
    import random
    import numpy as np
    g = np.random.default_rng()
    h = np.random.default_rng(None)
    r = random.Random()
    """
    assert ids(src) == ["SL104", "SL104", "SL104"]


def test_sl105_seeded_but_unblessed():
    src = """
    import numpy as np
    from numpy.random import default_rng
    g = np.random.default_rng(42)
    h = default_rng(seed=42)
    """
    assert ids(src) == ["SL105", "SL105"]


def test_sl105_suppression_used_by_blessed_module():
    src = """
    import numpy as np
    g = np.random.default_rng(7)  # simlint: disable=SL105 -- the blessed constructor
    """
    assert ids(src) == []


def test_sl105_blessed_helper_is_clean():
    src = """
    from repro.sim import rng
    g = rng("train.model.init", 42)
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL106 / SL107 — id() and hash() ordering
# ---------------------------------------------------------------------------

def test_sl106_sorted_by_id():
    src = """
    xs = sorted(items, key=id)
    ys = min(items, key=lambda x: id(x))
    items.sort(key=id)
    """
    assert ids(src) == ["SL106", "SL106", "SL106"]


def test_sl106_stable_key_ok():
    src = """
    xs = sorted(items, key=lambda x: x.name)
    """
    assert ids(src) == []


def test_sl107_builtin_hash():
    src = """
    d = hash(key)
    """
    assert ids(src) == ["SL107"]


def test_sl107_hashlib_ok():
    src = """
    import hashlib, zlib
    a = hashlib.sha1(b"x").hexdigest()
    b = zlib.crc32(b"x")
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL108 — set iteration (sim-coupled modules only)
# ---------------------------------------------------------------------------

def test_sl108_literal_and_constructor():
    src = """
    from repro.sim import Environment
    for x in {1, 2, 3}:
        pass
    for y in set(items):
        pass
    """
    assert ids(src) == ["SL108", "SL108"]


def test_sl108_tracked_local_and_self_attr():
    src = """
    from repro.sim import Environment
    def f(items):
        pending = set(items)
        return [x for x in pending]

    class C:
        def __init__(self):
            self._users = set()

        def g(self):
            for u in self._users:
                pass
    """
    assert ids(src) == ["SL108", "SL108"]


def test_sl108_sorted_wrap_is_the_fix():
    src = """
    from repro.sim import Environment
    def f(items):
        pending = set(items)
        return [x for x in sorted(pending)]
    """
    assert ids(src) == []


def test_sl108_not_sim_coupled_module_is_exempt():
    src = """
    def f(items):
        return [x for x in set(items)]
    """
    assert ids(src) == []


def test_sl108_membership_test_is_fine():
    src = """
    from repro.sim import Environment
    def f(x):
        pending = set()
        return x in pending
    """
    assert ids(src) == []


def test_sl108_files_under_sim_are_coupled_by_path():
    src = "for x in {1, 2}:\n    pass\n"
    found = lint_source(src, "src/repro/sim/engine.py")
    assert [f.rule_id for f in found] == ["SL108"]


# ---------------------------------------------------------------------------
# SL109 — unguarded tracer hot-path calls
# ---------------------------------------------------------------------------

def test_sl109_unguarded_start_and_instant():
    src = """
    def f(self):
        self.tracer.instant("tick", track="t")
        span = self.tracer.start("op", track="t")
    """
    assert ids(src) == ["SL109", "SL109"]


def test_sl109_guarded_is_clean():
    src = """
    def f(self):
        if self.tracer.enabled:
            self.tracer.instant("tick", track="t")
            span = self.tracer.start("op", track="t")
    """
    assert ids(src) == []


def test_sl109_else_branch_is_not_guarded():
    src = """
    def f(self):
        if self.tracer.enabled:
            pass
        else:
            self.tracer.instant("tick", track="t")
    """
    assert ids(src) == ["SL109"]


def test_sl109_other_methods_not_flagged():
    src = """
    def f(self, span):
        span.finish(status="ok")
        self.tracer.export()
    """
    assert ids(src) == []


def test_sl109_none_check_and_enabled_is_clean():
    # Historical false positive: `is not None and .enabled` in one test.
    src = """
    def f(tracer):
        if tracer is not None and tracer.enabled:
            tracer.instant("tick", track="t")
    """
    assert ids(src) == []


def test_sl109_walrus_guard_is_clean():
    src = """
    def f(get_tracer):
        if (tracer := get_tracer()) is not None and tracer.enabled:
            tracer.instant("tick", track="t")
    """
    assert ids(src) == []


def test_sl109_ternary_guard_is_clean():
    src = """
    def f(tracer):
        span = tracer.start("op", track="t") if tracer.enabled else None
        return span
    """
    assert ids(src) == []


def test_sl109_short_circuit_and_is_clean():
    src = """
    def f(tracer):
        tracer.enabled and tracer.instant("tick", track="t")
    """
    assert ids(src) == []


def test_sl109_early_return_guard_is_clean():
    src = """
    def f(self):
        if not self.tracer.enabled:
            return
        self.tracer.instant("tick", track="t")
    """
    assert ids(src) == []


def test_sl109_wrong_boolop_order_flagged():
    # Call evaluates before the guard: the guard does nothing.
    src = """
    def f(tracer):
        tracer.instant("tick", track="t") and tracer.enabled
    """
    assert ids(src) == ["SL109"]


def test_sl109_guard_without_return_flagged():
    src = """
    def f(self):
        if not self.tracer.enabled:
            pass
        self.tracer.instant("tick", track="t")
    """
    assert ids(src) == ["SL109"]


def test_sl109_guard_forms_fixture_exact_lines():
    """tests/fixtures/sl109_guard_forms.py: every legitimate guard idiom
    is clean; the four broken forms are flagged at their exact lines."""
    findings = lint_paths(["tests/fixtures/sl109_guard_forms.py"])
    sl109 = [(f.line, f.rule_id) for f in findings if f.rule_id == "SL109"]
    assert sl109 == [
        (59, "SL109"),
        (63, "SL109"),
        (68, "SL109"),
        (74, "SL109"),
    ]
    assert all(f.rule_id == "SL109" for f in findings)


# ---------------------------------------------------------------------------
# SL110 — blocking waits
# ---------------------------------------------------------------------------

def test_sl110_time_sleep():
    src = """
    import time
    def backoff(delay):
        time.sleep(delay)
    """
    assert ids(src) == ["SL110"]


def test_sl110_alias_and_other_waits():
    src = """
    import time as clock
    import select
    clock.sleep(0.5)
    select.select([], [], [], 1.0)
    """
    assert ids(src) == ["SL110", "SL110"]


def test_sl110_env_timeout_is_the_fix():
    src = """
    def backoff(env, delay):
        yield env.timeout(delay)
    """
    assert ids(src) == []


def test_sl110_suppressed_with_reason():
    src = """
    import time
    time.sleep(1)  # simlint: disable=SL110 -- CLI polling loop, not sim code
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL111 — env.now inside fluid epoch bodies
# ---------------------------------------------------------------------------

def test_sl111_env_now_in_epoch_body():
    src = """
    from repro.sim import Environment
    def charge(env, t0, t1):
        return (t1 - t0) * env.now
    """
    assert ids(src) == ["SL111"]


def test_sl111_self_env_and_nested_function():
    src = """
    from repro.sim import Environment
    class Lane:
        def epoch_end(self, t0, t1):
            def helper():
                return self.env.now
            return helper()
    """
    assert ids(src) == ["SL111"]


def test_sl111_bounds_only_epoch_body_is_clean():
    src = """
    from repro.sim import Environment
    def charge(env, t0, t1):
        return (t1 - t0) * env.rate
    """
    assert ids(src) == []


def test_sl111_env_now_outside_epoch_body_is_fine():
    src = """
    from repro.sim import Environment
    def proc(env, delay):
        return env.now + delay
    """
    assert ids(src) == []


def test_sl111_not_sim_coupled_module_is_exempt():
    src = """
    def charge(env, t0, t1):
        return env.now - t0
    """
    assert ids(src) == []


def test_sl111_sim_path_is_coupled():
    src = "def charge(env, t0, t1):\n    return env.now - t0\n"
    found = lint_source(src, "src/repro/sim/fluid.py")
    assert [f.rule_id for f in found] == ["SL111"]


def test_sl111_suppressed_with_reason():
    src = """
    from repro.sim import Environment
    def charge(env, t0, t1):
        return env.now - t0  # simlint: disable=SL111 -- assertion helper, not a charge
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# SL112 — writes to an environment's clock outside the kernel
# ---------------------------------------------------------------------------

def test_sl112_env_now_writes():
    src = """
    def jump(env, t, box):
        env.now = t
        box._env.now += 1.0
        (env.now, t) = (t, 0.0)
    """
    assert ids(src) == ["SL112", "SL112", "SL112"]


def test_sl112_applies_outside_sim_coupled_modules():
    found = lint_source("def jump(ref_env, t):\n    ref_env.now = t\n", "x.py")
    assert [f.rule_id for f in found] == ["SL112"]


def test_sl112_reads_and_other_clocks_are_fine():
    src = """
    from repro.sim import Environment
    def proc(env, tracer, delay):
        tracer.now = env.now + delay
        return env.now
    """
    assert ids(src) == []


def test_sl112_kernel_is_exempt():
    src = "class Environment:\n    def run(self, env):\n        env.now = 1.0\n"
    assert lint_source(src, "src/repro/sim/engine.py") == []
    assert [f.rule_id for f in lint_source(src, "src/repro/sim/fluid.py")] == [
        "SL112"]


def test_sl112_suppressed_with_reason():
    src = """
    def drain(self):
        self._env.now = 2.0  # simlint: disable=SL112 -- replay of kernel steps
    """
    assert ids(src) == []


# ---------------------------------------------------------------------------
# Whole-tree and fixture acceptance
# ---------------------------------------------------------------------------

ALL_RULE_IDS = [f"SL10{i}" for i in range(10)] + ["SL110", "SL111", "SL112"]


def test_rule_table_is_complete_and_stable():
    assert [r.id for r in RULES] == ALL_RULE_IDS
    for rule in RULES:
        assert rule.summary and rule.hint
        assert RULES_BY_ID[rule.id] is rule


def test_repo_source_tree_is_clean():
    assert lint_paths(["src/repro"]) == []


def test_bad_example_fixture_trips_every_rule():
    findings = lint_paths(["tests/fixtures/simlint_bad_example.py"])
    hit = {f.rule_id for f in findings}
    assert hit == set(ALL_RULE_IDS)


def test_cli_lint_exit_codes(capsys):
    assert cli_main(["lint", "src/repro"]) == 0
    assert "clean" in capsys.readouterr().out
    assert cli_main(["lint", "tests/fixtures/simlint_bad_example.py"]) == 1
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_lint_rules_listing(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in out


def test_syntax_error_reported_not_raised():
    found = lint_source("def broken(:\n", "x.py")
    assert [f.rule_id for f in found] == ["SL100"]
    assert "syntax error" in found[0].message
