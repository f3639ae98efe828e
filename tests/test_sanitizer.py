"""SimSanitizer tests: planted tiebreak race, lifecycle checks, invariance.

The regression core: a workload whose outcome rides on same-timestamp
event order MUST be reported as divergent, and the shipped DLFS
datapath MUST NOT be.
"""

import pytest

from repro.analysis import (
    LifecycleAudit,
    perturbed_tiebreaks,
    run_sanitizer,
)
from repro.errors import ResourceError
from repro.sim import Environment, Resource
from repro.sim import engine as sim_engine


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def racy_workload():
    """Outcome depends on which same-time process appends first."""
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c", "d", "e"):
        env.process(proc(tag))
    env.run()
    return {"order": "".join(order), "sim_time": env.now}


def commuting_workload():
    """Same-time events whose effects are order-independent."""
    env = Environment()
    total = [0]

    def proc(value):
        yield env.timeout(1.0)
        total[0] += value

    for value in (1, 2, 3):
        env.process(proc(value))
    env.run()
    return {"total": total[0], "sim_time": env.now}


# ---------------------------------------------------------------------------
# Tiebreak perturbation
# ---------------------------------------------------------------------------

def test_planted_race_is_detected():
    report = run_sanitizer(workload=racy_workload, runs=5)
    assert not report.ok
    assert report.determinism_violations
    assert any("order" in v for v in report.determinism_violations)
    # The race is in ordering, not in time: sim_time stays 1.0.
    assert all("sim_time" not in v for v in report.determinism_violations)


def test_commuting_workload_passes():
    report = run_sanitizer(workload=commuting_workload, runs=5)
    assert report.ok, report.render()


def test_perturbation_changes_event_order_not_time():
    baseline = racy_workload()
    with perturbed_tiebreaks((7, 0)):
        perturbed = racy_workload()
    assert baseline["sim_time"] == perturbed["sim_time"] == 1.0
    assert sorted(baseline["order"]) == sorted(perturbed["order"])


def test_hooks_restored_after_context():
    with perturbed_tiebreaks((1, 2), LifecycleAudit()):
        pass
    assert sim_engine._TIEBREAK_FACTORY is None
    assert sim_engine._LIFECYCLE_AUDIT is None


def test_perturbation_is_seed_deterministic():
    def run(seed):
        with perturbed_tiebreaks(seed):
            return racy_workload()["order"]

    assert run((3, 1)) == run((3, 1))


def test_run_sanitizer_rejects_bad_runs():
    with pytest.raises(ValueError):
        run_sanitizer(workload=commuting_workload, runs=0)


# ---------------------------------------------------------------------------
# Lifecycle audit
# ---------------------------------------------------------------------------

def test_leaked_resource_slot_is_reported():
    audit = LifecycleAudit()
    with perturbed_tiebreaks(None, audit):
        env = Environment()
        core = Resource(env, capacity=2, name="cpu0")

        def leaker():
            yield core.request()  # granted, never released

        env.process(leaker())
        env.run()
    violations = audit.finish()
    assert any("cpu0" in v and "still held" in v for v in violations)


def test_clean_run_has_no_lifecycle_violations():
    audit = LifecycleAudit()
    with perturbed_tiebreaks(None, audit):
        env = Environment()
        core = Resource(env, capacity=1, name="cpu0")

        def worker():
            yield from core.hold(1.0)

        env.process(worker())
        env.run()
    assert audit.finish() == []


def test_double_grant_raises_eagerly():
    env = Environment()
    core = Resource(env, capacity=1, name="cpu0")
    req = core.request()
    with pytest.raises(ResourceError, match="double grant"):
        core._grant(req)


def test_stale_delivery_check():
    class FakeQPair:
        name = "qp:test"
        _generation = 3

    audit = LifecycleAudit()
    audit.check_delivery(FakeQPair(), 3)
    assert audit.violations == []
    audit.check_delivery(FakeQPair(), 2)
    assert len(audit.violations) == 1
    assert "reset" in audit.violations[0]


def test_qpair_registration_attaches_audit():
    from repro.hw import NVMeDevice
    from repro.spdk import IOQPair

    audit = LifecycleAudit()
    with perturbed_tiebreaks(None, audit):
        env = Environment()
        qp = IOQPair(env, "host0", NVMeDevice(env))
    assert qp.audit is audit
    assert qp in audit.tracked


# ---------------------------------------------------------------------------
# The shipped datapath is tiebreak-invariant (the acceptance property)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["chunk", "sample"])
def test_dlfs_datapath_is_tiebreak_invariant(mode):
    def workload():
        from repro.bench.workloads import dlfs_observed

        return dlfs_observed(
            samples=192, batch=32, mode=mode, num_nodes=1,
            trace=False, metrics=False,
        )

    report = run_sanitizer(workload=workload, runs=3)
    assert report.ok, report.render()
    assert report.baseline["delivered"] == 192
    assert len(report.runs) == 3


def test_report_roundtrip_and_render():
    report = run_sanitizer(workload=commuting_workload, runs=2)
    d = report.to_dict()
    assert d["ok"] is True
    assert len(d["runs"]) == 2
    text = report.render()
    assert "PASS" in text and "baseline" in text
    assert "tiebreak seed" in text


def test_cli_sanitize_report(tmp_path, capsys, monkeypatch):
    import json

    from repro import cli
    from repro.analysis import sanitizer as san

    # Keep the CLI smoke fast: swap the default sweep for the toy one.
    monkeypatch.setitem(san.SWEEPS, "default", commuting_workload)
    out = tmp_path / "report.json"
    rc = cli.main([
        "sanitize", "--runs", "2", "--scenario", "default", "--out", str(out)
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    # The JSON artifact is keyed by scenario (--scenario all sweeps both
    # the flat datapath and the cluster crash-during-handoff workload).
    payload = json.loads(out.read_text())
    assert payload["default"]["ok"] is True
