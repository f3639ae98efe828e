"""Scenario DSL + golden-master harness tests.

Four layers under test, mirroring the package:

* the DSL (``dsl.py``): phase realization is exact spec arithmetic and
  validation rejects malformed timelines/tenants/events;
* the compiler (``compile.py``): scenarios lower to the engines' native
  inputs — windowed workloads, fault plans, crash schedules, envelopes;
* the runner (``runner.py``): fingerprints are bit-identical across
  runs, invariant under sanitizer tiebreak perturbation, and carry the
  phase-scoped sections the attribution diff needs;
* the golden store (``golden.py``): record/load round-trips, reviewed
  labels are mandatory, and drift attribution names the metric, the
  layer, and the phase window — proven end to end by the injected-rate
  perturbation self-check.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    compare_fingerprints,
    compile_crashes,
    compile_envelopes,
    compile_fault_plan,
    compile_workloads,
    fingerprint_digest,
    get_scenario,
    load_golden,
    realize_phases,
    render_drifts,
    rolling_upgrade,
    run_scenario,
    scenario_names,
    split_workload_name,
    write_golden,
)
from repro.scenarios.dsl import EventSpec, PhaseSpec, TenantDef

#: A cheap tenancy scenario for runner/golden tests (sub-second quick).
CHEAP = Scenario(
    name="cheap",
    engine="tenancy",
    horizon=0.008,
    quick_factor=0.5,
    num_samples=512,
    tenants=(
        TenantDef(name="a", kind="poisson", rate=2000.0, batch=4,
                  range_lo=0.0, range_hi=0.5),
        TenantDef(name="b", kind="poisson", rate=1000.0, batch=4,
                  range_lo=0.5, range_hi=1.0),
    ),
    phases=(
        PhaseSpec("calm", duration=1.0),
        PhaseSpec("busy", duration=1.0, level=2.0),
    ),
)


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

class TestRealizePhases:
    def test_steps_cover_unit_interval_exactly(self):
        steps = realize_phases((
            PhaseSpec("a", duration=2.0),
            PhaseSpec("b", duration=1.0, shape="ramp", level=3.0, steps=5),
            PhaseSpec("c", duration=0.5, shape="diurnal", steps=4),
        ))
        assert steps[0].lo == 0.0
        assert steps[-1].hi == 1.0
        for prev, cur in zip(steps, steps[1:]):
            assert prev.hi == cur.lo

    def test_ramp_starts_at_previous_level(self):
        steps = realize_phases((
            PhaseSpec("hold", level=2.0),
            PhaseSpec("down", shape="ramp", level=1.0, steps=2),
        ))
        ramp = [s.mult for s in steps if s.phase == "down"]
        # Step midpoints of a 2.0 -> 1.0 ramp: 1.75, 1.25.
        assert ramp == [pytest.approx(1.75), pytest.approx(1.25)]

    def test_diurnal_troughs_at_phase_start(self):
        steps = realize_phases((
            PhaseSpec("day", shape="diurnal", level=1.0, amplitude=0.5,
                      steps=8),
        ))
        mults = [s.mult for s in steps]
        assert mults[0] == min(mults)
        assert max(mults) == pytest.approx(1.5, rel=0.05)

    def test_realization_is_bit_identical(self):
        phases = (PhaseSpec("x", shape="diurnal", steps=7, amplitude=0.3),)
        assert realize_phases(phases) == realize_phases(phases)

    def test_duplicate_phase_rejected(self):
        with pytest.raises(ConfigError, match="duplicate phase"):
            realize_phases((PhaseSpec("p"), PhaseSpec("p")))

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="unknown shape"):
            realize_phases((PhaseSpec("p", shape="spiky"),))


class TestValidation:
    def test_train_tenant_cannot_churn(self):
        t = TenantDef(name="t", kind="train", join=0.2)
        with pytest.raises(ConfigError, match="churn/hot-swap"):
            t.validate()

    def test_tenant_name_at_sign_reserved(self):
        with pytest.raises(ConfigError, match="reserved"):
            TenantDef(name="a@b").validate()

    def test_lane_outage_needs_until(self):
        with pytest.raises(ConfigError, match="until"):
            EventSpec("lane_outage", at=0.5).validate()

    def test_event_engine_mismatch(self):
        scn = dataclasses.replace(
            CHEAP, events=(EventSpec("node_crash", at=0.5, until=0.6),)
        )
        with pytest.raises(ConfigError, match="does not\\s+apply"):
            scn.validate()

    def test_event_target_bounded_by_topology(self):
        scn = dataclasses.replace(
            CHEAP, engine="cluster", storage=4,
            events=(EventSpec("node_crash", at=0.5, until=0.6, target=4),),
        )
        with pytest.raises(ConfigError, match="out of range"):
            scn.validate()

    @pytest.mark.parametrize("engine,stages", [
        ("xform", ""), ("cluster", "parse"), ("tenancy", "parse"),
    ])
    def test_stages_belong_to_the_xform_engine(self, engine, stages):
        scn = dataclasses.replace(CHEAP, engine=engine, stages=stages)
        with pytest.raises(ConfigError, match="only by, the xform"):
            scn.validate()

    def test_fluid_rejects_closed_loop_cohorts(self):
        scn = dataclasses.replace(
            CHEAP, engine="fluid",
            tenants=(TenantDef(name="t", kind="train"),),
        )
        with pytest.raises(ConfigError, match="open\\s+loop"):
            scn.validate()

    def test_phase_windows_merge_steps(self):
        scn = dataclasses.replace(CHEAP, phases=(
            PhaseSpec("a", duration=1.0, shape="ramp", steps=3),
            PhaseSpec("b", duration=3.0),
        ))
        windows = scn.phase_windows()
        assert windows == (("a", 0.0, 0.25), ("b", 0.25, 1.0))


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------

class TestCompile:
    def test_split_workload_name(self):
        assert split_workload_name("api@peak.3") == ("api", "peak")
        assert split_workload_name("train") == ("train", "")

    def test_workload_per_active_interval(self):
        specs, workloads = compile_workloads(CHEAP)
        names = [w.name for w in workloads]
        assert names == ["a@calm.0", "a@busy.1", "b@calm.0", "b@busy.1"]
        assert [s.name for s in specs] == names

    def test_windows_scale_with_quick_horizon(self):
        _, full = compile_workloads(CHEAP, quick=False)
        _, quick = compile_workloads(CHEAP, quick=True)
        for wf, wq in zip(full, quick):
            assert wq.window[0] == pytest.approx(
                wf.window[0] * CHEAP.quick_factor)
            assert wq.window[1] == pytest.approx(
                wf.window[1] * CHEAP.quick_factor)

    def test_phase_level_multiplies_rate(self):
        _, workloads = compile_workloads(CHEAP)
        by_name = {w.name: w for w in workloads}
        assert by_name["a@busy.1"].rate == pytest.approx(
            by_name["a@calm.0"].rate * 2.0)

    def test_perturb_scales_every_open_loop_rate(self):
        _, base = compile_workloads(CHEAP)
        _, bumped = compile_workloads(CHEAP, perturb=0.01)
        for wb, wp in zip(base, bumped):
            assert wp.rate == pytest.approx(wb.rate * 1.01)

    def test_churn_cuts_the_grid(self):
        scn = dataclasses.replace(CHEAP, tenants=(
            TenantDef(name="late", kind="poisson", rate=500.0, join=0.75),
        ))
        _, workloads = compile_workloads(scn)
        assert [w.name for w in workloads] == ["late@busy.0"]
        assert workloads[0].window[0] == pytest.approx(0.75 * scn.horizon)

    def test_hotswap_flips_sample_range(self):
        scn = dataclasses.replace(CHEAP, tenants=(
            TenantDef(name="r", kind="poisson", rate=500.0,
                      range_lo=0.0, range_hi=0.5,
                      swap_at=0.5, swap_lo=0.5, swap_hi=1.0),
        ))
        _, workloads = compile_workloads(scn)
        pre, post = workloads
        assert (pre.sample_lo, pre.sample_hi) == (0, 256)
        assert (post.sample_lo, post.sample_hi) == (256, 512)

    def test_fault_plan_drip_ramps_with_midpoint(self):
        scn = dataclasses.replace(CHEAP, tenants=(
            TenantDef(name="v", kind="poisson", rate=500.0, fault_rate=0.2),
        ))
        plan = compile_fault_plan(scn)
        rates = dict(plan.tenant_faults)
        assert rates["v@calm.0"] == pytest.approx(0.2 * 0.25)
        assert rates["v@busy.1"] == pytest.approx(0.2 * 0.75)

    def test_fault_plan_none_when_clean(self):
        assert compile_fault_plan(CHEAP) is None

    def test_worker_crashes_stay_out_of_the_fault_plan(self):
        # FleetSpec.xform_crashes is the one worker-crash schedule; a plan
        # holding only worker crashes would still arm the fault injector.
        scn = dataclasses.replace(
            CHEAP, engine="xform", stages="parse",
            events=(EventSpec("worker_crash", at=0.25, until=0.5),),
        )
        assert compile_fault_plan(scn) is None
        assert compile_crashes(scn, "worker_crash", 1.0) == ((0, 0.25, 0.5),)

    def test_crashes_scale_and_skew_by_target(self):
        scn = dataclasses.replace(
            CHEAP, engine="cluster", storage=6,
            events=(
                EventSpec("node_crash", at=0.5, until=0.75, target=4),
                EventSpec("node_crash", at=0.5, until=0.75, target=5),
            ),
        )
        crashes = compile_crashes(scn, "node_crash", 1.0)
        (t4, at4, un4), (t5, at5, un5) = crashes
        assert (t4, t5) == (4, 5)
        # Same declared instant, distinct sim ticks (sanitizer contract).
        assert at4 != at5 and un4 != un5
        assert at5 - at4 == pytest.approx(1e-9, rel=0.01)

    def test_envelopes_cover_the_day_contiguously(self):
        scn = dataclasses.replace(
            CHEAP, engine="fluid", horizon=100.0, users=16, tenants=(
                TenantDef(name="c", kind="poisson", rate=0.5,
                          join=0.25, leave=0.75),
            ),
        )
        (name, envelope, flows), = compile_envelopes(scn)
        assert name == "c" and flows == 16
        assert envelope.start == 0.0 and envelope.end == 100.0
        # Churned-out windows are zero-rate segments, not gaps.
        assert envelope.rate_at(10.0) == 0.0
        assert envelope.rate_at(50.0) > 0.0
        assert envelope.rate_at(90.0) == 0.0


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

class TestRunner:
    def test_fingerprint_bit_identical_across_runs(self):
        a = run_scenario(CHEAP, quick=True)
        b = run_scenario(CHEAP, quick=True)
        assert a == b
        assert fingerprint_digest(a) == fingerprint_digest(b)

    def test_fingerprint_sections(self):
        fp = run_scenario(CHEAP, quick=True)
        assert fp["scenario"] == "cheap"
        assert fp["mode"] == "quick"
        assert set(fp["digests"]) == {"order", "latency"}
        assert fp["counters"]["delivered"] > 0
        assert "a" in fp["percentiles"]
        names = [p["name"] for p in fp["phases"]]
        assert names == ["calm", "busy"]
        for entry in fp["phases"]:
            lo, hi = entry["window"]
            assert 0.0 <= lo < hi

    def test_fingerprint_json_round_trips_exactly(self):
        fp = run_scenario(CHEAP, quick=True)
        assert json.loads(json.dumps(fp)) == fp

    def test_perturbation_changes_the_fingerprint(self):
        base = run_scenario(CHEAP, quick=True)
        bumped = run_scenario(CHEAP, quick=True, perturb=0.01)
        assert fingerprint_digest(base) != fingerprint_digest(bumped)

    def test_seed_changes_the_fingerprint(self):
        base = run_scenario(CHEAP, quick=True)
        other = run_scenario(CHEAP, quick=True, seed=7)
        assert fingerprint_digest(base) != fingerprint_digest(other)

    def test_tiebreak_perturbation_invariance(self):
        from repro.analysis.sanitizer import perturbed_tiebreaks

        base = fingerprint_digest(run_scenario(CHEAP, quick=True))
        for k in range(2):
            with perturbed_tiebreaks((2019, k)):
                assert fingerprint_digest(
                    run_scenario(CHEAP, quick=True)) == base


# ---------------------------------------------------------------------------
# the shipped pack
# ---------------------------------------------------------------------------

class TestPack:
    def test_pack_contents(self):
        assert scenario_names() == (
            "dataset-hotswap", "diurnal-day", "flash-crowd",
            "media-slow-drip", "pushdown-surge", "regional-failover",
            "rolling-upgrade", "tenant-churn",
        )
        engines = {s.engine for s in SCENARIOS.values()}
        assert engines == {"tenancy", "cluster", "xform", "fluid"}

    def test_every_scenario_validates(self):
        for scn in SCENARIOS.values():
            scn.validate()

    def test_unknown_scenario_names_the_pack(self):
        with pytest.raises(ConfigError, match="flash-crowd"):
            get_scenario("nope")

    def test_rolling_upgrade_wave(self):
        wave = rolling_upgrade(3, start=0.1, stagger=0.2, downtime=0.05)
        assert [e.target for e in wave] == [0, 1, 2]
        assert wave[2].at == pytest.approx(0.5)
        assert all(e.until == pytest.approx(e.at + 0.05) for e in wave)

    def test_rolling_upgrade_rejects_overrun(self):
        with pytest.raises(ConfigError, match="past the horizon"):
            rolling_upgrade(4, start=0.5, stagger=0.2, downtime=0.1)


# ---------------------------------------------------------------------------
# golden store + drift attribution
# ---------------------------------------------------------------------------

class TestGolden:
    def test_record_requires_label(self, tmp_path):
        with pytest.raises(ConfigError, match="label"):
            write_golden("cheap", "  ", {"quick": {}}, str(tmp_path))

    def test_round_trip(self, tmp_path):
        fp = run_scenario(CHEAP, quick=True)
        write_golden("cheap", "initial baseline", {"quick": fp},
                     str(tmp_path))
        doc = load_golden("cheap", str(tmp_path))
        assert doc["label"] == "initial baseline"
        assert doc["recorded"]["quick"] == fp

    def test_missing_golden_says_how_to_record(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario record"):
            load_golden("cheap", str(tmp_path))

    def test_identical_fingerprints_no_drift(self):
        fp = run_scenario(CHEAP, quick=True)
        assert compare_fingerprints(fp, fp) == []

    def test_counter_drift_names_metric_and_layer(self):
        fp = run_scenario(CHEAP, quick=True)
        cur = json.loads(json.dumps(fp))
        cur["counters"]["preemptions"] += 1
        cur["counters"]["recovery.degraded_time"] += 1.0
        drifts = {x.metric: x for x in compare_fingerprints(fp, cur)}
        d = drifts["counters.preemptions"]
        assert d.layer == "tenancy"
        assert d.current == d.golden + 1
        assert drifts["counters.recovery.degraded_time"].layer == "faults"

    def test_phase_drift_carries_window(self):
        fp = run_scenario(CHEAP, quick=True)
        cur = json.loads(json.dumps(fp))
        cur["phases"][1]["metrics"]["a.jobs"] += 5
        drifts = compare_fingerprints(fp, cur)
        d, = [x for x in drifts if x.metric == "phases.busy.a.jobs"]
        assert d.phase == "busy"
        assert len(d.window) == 2 and d.window[0] < d.window[1]
        text = render_drifts("cheap", "quick", drifts, label="baseline")
        assert "DRIFT cheap [quick]" in text
        assert "phases.busy.a.jobs" in text
        assert "phase 'busy', window" in text

    def test_injected_rate_drift_is_caught_and_attributed(self, tmp_path):
        """The acceptance self-check: a 1% open-loop rate perturbation
        against a freshly recorded golden must drift, and the diff must
        name a drifted metric inside a phase window."""
        fp = run_scenario(CHEAP, quick=True)
        write_golden("cheap", "self-check baseline", {"quick": fp},
                     str(tmp_path))
        golden = load_golden("cheap", str(tmp_path))["recorded"]["quick"]
        bumped = run_scenario(CHEAP, quick=True, perturb=0.01)
        drifts = compare_fingerprints(golden, bumped)
        assert drifts
        metrics = {d.metric for d in drifts}
        assert "digests.latency" in metrics
        assert any(d.phase and d.window for d in drifts)
