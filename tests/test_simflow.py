"""simflow tests: graph, taint, protocols, baseline, pruning, CLI.

The acceptance fixture (``tests/fixtures/simflow_bad_example.py``)
pins exact rule IDs *and line numbers* — the laundering patterns there
are precisely the ones the syntactic SL rules cannot see.  The repo
tree itself must stay clean (``src/repro``) / baseline-covered (full
tree), which doubles as the regression test for the true positives
fixed when simflow first ran (SF300 in ``test_sim_resources.py``,
SF301 in ``test_obs.py``).
"""

import json
import textwrap

import pytest

from repro.analysis.rules import FLOW_RULES
from repro.analysis.simflow import (
    ProjectGraph,
    diff_against_baseline,
    fingerprint_findings,
    load_baseline,
    run_simflow,
    to_sarif,
    write_baseline,
)
from repro.cli import main as cli_main

FIXTURE = "tests/fixtures/simflow_bad_example.py"
BASELINE = "simflow-baseline.json"

#: The fixture's contract: exact (line, rule) pairs, in order.
FIXTURE_FINDINGS = [
    (34, "SF200"),   # wall clock laundered through a helper's return
    (35, "SF200"),   # wall clock laundered through a helper's parameter
    (36, "SF203"),   # wall clock as rng() seed material
    (37, "SF202"),   # id() as a sort key
    (44, "SF201"),   # tainted default arg stored into sim state
    (47, "SF200"),   # the stored attribute reaches a timeout
    (53, "SF300"),   # resource slot leaked on early return
    (62, "SF302"),   # transfer credit leaked on raise
    (70, "SF301"),   # span dropped on early return
    (77, "SF303"),   # ledger charge not undone before raise
    (95, "SF304"),   # in-flight clear without generation bump
    (102, "SF200"),  # wall clock laundered into a timed call's time
]


def flow_ids(tmp_path, source, name="mod.py"):
    """Run simflow on one synthetic module; return (line, rule) pairs."""
    f = tmp_path / name
    f.write_text(textwrap.dedent(source))
    report = run_simflow([str(f), "src/repro"])
    return [(x.line, x.rule_id) for x in report.findings
            if x.path == str(f)]


# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

def test_flow_rule_table_is_complete_and_stable():
    assert [r.id for r in FLOW_RULES] == [
        "SF200", "SF201", "SF202", "SF203",
        "SF300", "SF301", "SF302", "SF303", "SF304",
    ]
    for rule in FLOW_RULES:
        assert rule.summary and rule.hint


# ---------------------------------------------------------------------------
# The acceptance fixture: exact IDs and lines
# ---------------------------------------------------------------------------

def test_fixture_findings_exact():
    report = run_simflow([FIXTURE, "src/repro"])
    got = [(f.line, f.rule_id) for f in report.findings
           if f.path == FIXTURE]
    assert got == FIXTURE_FINDINGS


def test_laundered_lines_are_invisible_to_syntactic_lint():
    """The point of the whole-program pass: at every *laundered* sink —
    helper return, parameter, attribute, early exit — simlint is silent.
    (It does catch the direct calls at lines 35–37; those double as
    agreement checks, not as simflow's value-add.)"""
    from repro.analysis import lint_paths

    sl = [f for f in lint_paths([FIXTURE]) if f.rule_id != "SL100"]
    flagged_lines = {f.line for f in sl}
    laundered = {34, 44, 47, 53, 62, 70, 77, 95, 102} - flagged_lines
    assert laundered == {34, 44, 47, 53, 62, 77, 95, 102}


# ---------------------------------------------------------------------------
# Repo hygiene + regression cover for the fixed true positives
# ---------------------------------------------------------------------------

def test_repo_source_tree_is_flow_clean():
    report = run_simflow(["src/repro"])
    assert report.parse_errors == []
    assert report.findings == []


def test_full_tree_matches_committed_baseline():
    report = run_simflow(["src/repro", "tests", "benchmarks"])
    baseline = load_baseline(BASELINE)
    new, stale = diff_against_baseline(report.findings, baseline)
    assert new == [], [f.render() for _, f in new]
    assert stale == []


def test_fixed_true_positives_stay_fixed():
    """SF300 (test_sim_resources) and SF301 (test_obs) were real leaks;
    the files must stay clean apart from the baselined open-span tests."""
    report = run_simflow(
        ["tests/test_sim_resources.py", "tests/test_obs.py", "src/repro"]
    )
    leaks = [f for f in report.findings
             if f.path == "tests/test_sim_resources.py"]
    assert leaks == []
    span_leaks = [f for f in report.findings
                  if f.path == "tests/test_obs.py"]
    # Only the two deliberate open-span tests remain (baselined).
    assert len(span_leaks) == 2
    assert all(f.rule_id == "SF301" for f in span_leaks)


# ---------------------------------------------------------------------------
# Taint pass semantics
# ---------------------------------------------------------------------------

def test_taint_through_module_global(tmp_path):
    src = """
    import time
    import repro.sim as sim

    START = time.time()

    def go(env):
        yield env.timeout(START)
    """
    assert flow_ids(tmp_path, src) == [(8, "SF200")]


def test_blessed_rng_output_is_clean(tmp_path):
    src = """
    import repro.sim as sim
    from repro.sim import rng

    def go(env, seed):
        g = rng("stream", seed)
        yield env.timeout(g.random())
    """
    assert flow_ids(tmp_path, src) == []


def test_suppression_comment_silences_sf_finding(tmp_path):
    src = """
    import time
    import repro.sim as sim

    def go(env):
        yield env.timeout(time.time())  # simlint: disable=SF200 -- fixture
    """
    assert flow_ids(tmp_path, src) == []


# ---------------------------------------------------------------------------
# Protocol pass semantics
# ---------------------------------------------------------------------------

def test_finally_release_covers_all_exits(tmp_path):
    src = """
    import repro.sim as sim

    def go(env, res):
        req = res.request()
        yield req
        try:
            yield env.timeout(1.0)
        finally:
            res.release(req)
    """
    assert flow_ids(tmp_path, src) == []


def test_closure_capture_is_an_escape(tmp_path):
    """Regression for the deferred-completion idiom (a span finished by
    a callback handed to a pool): the nested callback owns the release."""
    src = """
    import repro.sim as sim

    def go(pool, tracer):
        span = tracer.start("op", track="t")

        def done():
            span.finish()

        pool.submit(1.0, done)
    """
    assert flow_ids(tmp_path, src) == []


def test_guarded_release_of_conditional_span(tmp_path):
    src = """
    import repro.sim as sim

    def go(tracer, env):
        span = None
        if tracer.enabled:
            span = tracer.start("op", track="t")
        yield env.timeout(1.0)
        if span is not None:
            span.finish()
    """
    assert flow_ids(tmp_path, src) == []


def test_none_branch_of_a_conditional_claim_holds_nothing(tmp_path):
    """``try_request`` returns None when it grants nothing: the branch
    that raises on None, or re-binds the handle to a waiting request,
    leaks nothing, while a claim kept only on the non-None branch does."""
    src = """
    import repro.sim as sim

    def serve(env, core):
        req = core.try_request()
        if req is None:
            raise RuntimeError("busy")
        try:
            yield env.timeout(1.0)
        finally:
            core.release(req)

    def move(env, credit):
        req = credit.try_request()
        if req is None:
            req = credit.request()
            yield req
        try:
            yield env.timeout(1.0)
        finally:
            credit.release(req)

    def leak(env, res):
        req = res.try_request()
        if req is not None:
            yield env.timeout(1.0)
        return True
    """
    assert flow_ids(tmp_path, src) == [(24, "SF300")]


def test_handle_returned_is_ownership_transfer(tmp_path):
    src = """
    import repro.sim as sim

    def acquire_for_caller(res):
        req = res.request()
        return req
    """
    assert flow_ids(tmp_path, src) == []


def test_leak_on_one_branch_only_is_reported(tmp_path):
    src = """
    import repro.sim as sim

    def go(env, res):
        req = res.request()
        yield req
        if env.now > 1.0:
            res.release(req)
        return True
    """
    assert flow_ids(tmp_path, src) == [(5, "SF300")]


# ---------------------------------------------------------------------------
# Baseline machinery
# ---------------------------------------------------------------------------

def _shift_lines(text: str, pad: int) -> str:
    return "# pad\n" * pad + text


def test_fingerprints_survive_line_drift(tmp_path):
    src = textwrap.dedent("""
    import time
    import repro.sim as sim

    def go(env):
        yield env.timeout(time.time())
    """)
    a = tmp_path / "drift.py"
    a.write_text(src)
    r1 = run_simflow([str(a), "src/repro"])
    fp1 = {fp for fp, f in fingerprint_findings(r1.findings)
           if f.path == str(a)}
    a.write_text(_shift_lines(src, 7))
    r2 = run_simflow([str(a), "src/repro"])
    fp2 = {fp for fp, f in fingerprint_findings(r2.findings)
           if f.path == str(a)}
    assert fp1 == fp2 != set()


def test_baseline_diff_fails_only_on_new(tmp_path):
    report = run_simflow([FIXTURE, "src/repro"])
    fixture_findings = [f for f in report.findings if f.path == FIXTURE]
    bl = tmp_path / "bl.json"
    write_baseline(bl, fixture_findings, {})
    # Same findings, populated baseline: nothing new.
    new, stale = diff_against_baseline(fixture_findings, load_baseline(bl))
    assert new == [] and stale == []
    # Drop one from the baseline: exactly that one is "new".
    data = json.loads(bl.read_text())
    dropped = data["findings"].pop(0)
    bl.write_text(json.dumps(data))
    new, stale = diff_against_baseline(fixture_findings, load_baseline(bl))
    assert [fp for fp, _ in new] == [dropped["fingerprint"]]


# ---------------------------------------------------------------------------
# --changed pruning: identical findings on touched files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("touched", [
    "src/repro/xform/transfer.py",
    "src/repro/sim/resources.py",
    "tests/test_obs.py",
])
def test_changed_mode_pruning_is_equivalent_on_touched_files(touched):
    full = run_simflow(["src/repro", "tests", "benchmarks"])
    pruned = run_simflow(["src/repro", "tests", "benchmarks"],
                         changed=[touched])
    def pick(rep):
        return sorted((f.line, f.col, f.rule_id, f.message)
                      for f in rep.findings if f.path == touched)

    assert pick(pruned) == pick(full)
    # Pruning must actually prune (the closure is a strict subset).
    assert len(pruned.analyzed_files) < len(full.analyzed_files)
    assert set(pruned.analyzed_files) <= set(full.analyzed_files)


def test_changed_mode_reports_only_affected_files(tmp_path):
    pruned = run_simflow(["src/repro", "tests", "benchmarks"],
                         changed=["src/repro/obs/span.py"])
    # tests/test_obs.py imports the span module, so its (baselined)
    # findings are in scope; unrelated files are not.
    assert "tests/test_obs.py" in pruned.reported_files
    assert all(f.path in set(pruned.reported_files)
               for f in pruned.findings)


# ---------------------------------------------------------------------------
# Project graph
# ---------------------------------------------------------------------------

def test_graph_resolves_package_reexports():
    g = ProjectGraph.build(["src/repro"])
    mod = g.modules["repro.xform.transfer"]
    # `from ..sim import Resource` lands on the defining module.
    assert mod.aliases["Resource"] == "repro.sim.resources.Resource"
    assert "repro.sim.resources.Resource" in g.classes


def test_graph_method_lookup_walks_bases():
    g = ProjectGraph.build(["src/repro"])
    # Timeout inherits defuse() from Event.
    info = g.method_on("repro.sim.engine.Timeout", "defuse")
    assert info is not None
    assert info.qname == "repro.sim.engine.Event.defuse"


def test_graph_importers_feed_changed_closure():
    g = ProjectGraph.build(["src/repro"])
    importers = g.importers_of("repro.sim.resources")
    assert "repro.sim" in importers


# ---------------------------------------------------------------------------
# SARIF + CLI surface
# ---------------------------------------------------------------------------

def test_sarif_export_shape():
    report = run_simflow([FIXTURE, "src/repro"])
    doc = to_sarif(report.findings)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "simflow"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"SF200", "SF300"} <= rule_ids
    locs = run["results"][0]["locations"][0]["physicalLocation"]
    assert locs["region"]["startLine"] >= 1


def test_cli_flow_fixture_fails_and_baseline_passes(tmp_path, capsys):
    assert cli_main(["lint", "--flow", FIXTURE, "src/repro"]) == 1
    capsys.readouterr()
    bl = tmp_path / "bl.json"
    assert cli_main([
        "lint", "--flow", FIXTURE, "src/repro",
        "--update-baseline", "--baseline", str(bl),
    ]) == 0
    capsys.readouterr()
    assert cli_main([
        "lint", "--flow", FIXTURE, "src/repro", "--baseline", str(bl),
    ]) == 0
    out = capsys.readouterr().out
    assert "0 new" in out


def test_cli_flow_repo_gate_is_green(capsys):
    """The committed gate: full tree vs committed baseline, exit 0."""
    rc = cli_main([
        "lint", "--flow", "src/repro", "tests", "benchmarks",
        "--baseline", BASELINE,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 new" in out


def test_cli_flow_sarif_written(tmp_path, capsys):
    sarif = tmp_path / "flow.sarif"
    cli_main([
        "lint", "--flow", FIXTURE, "src/repro", "--sarif", str(sarif),
    ])
    capsys.readouterr()
    doc = json.loads(sarif.read_text())
    assert doc["runs"][0]["results"]
