"""Tests for the CLI entry point."""

import pathlib
import re

import pytest

from repro.bench import subsystems
from repro.cli import COMMANDS, FIGURES, main
from repro.faults import ZERO_PLAN


class TestList:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_registry_complete(self):
        """Every committed table has exactly one producer, the registry."""
        assert set(FIGURES) == {
            "fig01", "fig06", "fig07a", "fig07b", "fig08", "fig09",
            "fig10", "fig11", "fig12", "fig13",
            "ablation_chunk_size", "ablation_copy_threads", "ablation_scq",
            "ablation_zero_copy", "ablation_metadata",
            "sweep_queue_depth", "sweep_window", "mount_breakdown",
            "chaos", "tenancy_fairness", "tenancy_isolation",
            "cluster_scaling", "cluster_failover", "cluster_isolation",
            "xform_crossover",
        }
        results = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"
        assert set(FIGURES) == {p.stem for p in results.glob("*.txt")}


class TestFigure:
    def test_runs_fig01_and_prints_table(self, capsys):
        assert main(["figure", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "ImageNet" in out
        assert "paper vs measured" in out

    def test_stdout_has_no_wall_time_line(self, capsys):
        assert main(["figure", "fig01"]) == 0
        captured = capsys.readouterr()
        assert not re.search(r"\[\S+ in [0-9.]+s\]", captured.out)
        assert re.fullmatch(r"\[figure in [0-9.]+s\]\n", captured.err)

    def test_writes_output_file(self, tmp_path, capsys):
        assert main(["figure", "fig01", "--out", str(tmp_path)]) == 0
        written = tmp_path / "fig01.txt"
        assert written.exists()
        assert "IMDB" in written.read_text()

    def test_scaled_figure_runs(self, capsys):
        assert main(["figure", "fig13", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Full_Rand" in out

    def test_failed_band_exits_1_and_is_named(self, monkeypatch, capsys):
        fn, desc = FIGURES["fig01"]
        name = "IMDB fraction <= 1.6 KB"

        def broken(**kwargs):
            result = fn(**kwargs)
            _, lo, hi = result.bands[name]
            result.bands[name] = (hi + 0.01, lo, hi)
            return result

        monkeypatch.setitem(FIGURES, "fig01", (broken, desc))
        assert main(["figure", "fig01"]) == 1
        out = capsys.readouterr().out
        assert f"FAILED fig01: {name}: measured 0.79, band [0.72, 0.78]" in out
        assert "claim bands: 2 of 3 hold" in out

    def test_chaos_sweep_accounts_and_recovers(self, capsys):
        assert main(["figure", "chaos"]) == 0
        assert "claim bands: 5 of 5 hold" in capsys.readouterr().out

    def test_chaos_without_faults_fails_the_retries_band(self, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(subsystems, "plan_for", lambda rate: ZERO_PLAN)
        assert main(["figure", "chaos"]) == 1
        out = capsys.readouterr().out
        assert "FAILED chaos: retries, max over the fault rates:" in out
        assert "claim bands: 4 of 5 hold" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestScenario:
    """The `scenario` subcommand: list/run/record/check round trip.

    Heavy paths stay on the cheapest scenario in quick mode; the pack's
    full-scale goldens are exercised by the committed-golden check in
    CI, not here.
    """

    def test_list_names_the_pack(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("flash-crowd", "rolling-upgrade", "diurnal-day"):
            assert name in out

    def test_list_json(self, capsys):
        import json

        assert main(["scenario", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} >= {"flash-crowd", "pushdown-surge"}
        assert all("golden" in r for r in rows)

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_quick_prints_digest(self, capsys):
        assert main(["scenario", "run", "flash-crowd", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "[quick]" in out and "digest" in out

    def test_record_requires_label(self, tmp_path, capsys):
        assert main([
            "scenario", "record", "flash-crowd",
            "--golden-root", str(tmp_path),
        ]) == 2
        assert "label" in capsys.readouterr().err

    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        import json

        root = str(tmp_path)
        # record writes both modes; check --quick replays the quick one.
        assert main([
            "scenario", "record", "flash-crowd",
            "--label", "test baseline", "--golden-root", root,
        ]) == 0
        assert (tmp_path / "scenarios" / "golden"
                / "flash-crowd.json").exists()
        capsys.readouterr()
        assert main([
            "scenario", "check", "flash-crowd", "--quick",
            "--golden-root", root,
        ]) == 0
        out = capsys.readouterr().out
        assert "OK flash-crowd [quick]" in out
        assert "scenario check: PASS" in out
        # the JSON report carries the per-mode verdicts
        assert main([
            "scenario", "check", "flash-crowd", "--quick", "--json",
            "--golden-root", root,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flash-crowd"]["quick"]["ok"] is True

    def test_check_catches_injected_drift(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main([
            "scenario", "record", "flash-crowd",
            "--label", "test baseline", "--golden-root", root,
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenario", "check", "flash-crowd", "--quick",
            "--perturb", "0.01", "--golden-root", root,
        ]) == 1
        out = capsys.readouterr().out
        assert "DRIFT flash-crowd [quick]" in out
        assert "label: test baseline" in out
        assert "scenario check: FAIL" in out
        # attribution: at least one drifted metric names a phase window
        assert "[phase " in out

    def test_check_without_golden_exits_2(self, tmp_path, capsys):
        assert main([
            "scenario", "check", "flash-crowd",
            "--golden-root", str(tmp_path),
        ]) == 2
        assert "no golden master" in capsys.readouterr().err


class TestFleet:
    """The `fleet` subcommand: one preset per serving deployment."""

    SECTIONS = {
        "serve": ("service_shares", "window_rows"),
        "cluster": ("balancer", "lifecycle"),
        "xform": ("tier", "links"),
    }

    @pytest.mark.parametrize("preset", sorted(SECTIONS))
    def test_preset_prints_only_its_own_sections(self, preset, capsys):
        import json

        assert main(["fleet", "--preset", preset, "--quick", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["preset"] == preset
        assert blob["delivered"] > 0 and blob["failed"] == 0
        for name, keys in self.SECTIONS.items():
            for key in keys:
                assert (key in blob) == (name == preset), key

    #: crash flag -> (preset it applies to, what its index names)
    CRASH_FLAGS = {"--crash": ("cluster", "LANE"),
                   "--worker-crash": ("xform", "WORKER")}

    @pytest.mark.parametrize("flag", sorted(CRASH_FLAGS))
    def test_malformed_crash_flag_exits_2(self, flag, capsys):
        preset, unit = self.CRASH_FLAGS[flag]
        assert main(["fleet", "--preset", preset, "--quick",
                     flag, "0=abc"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (f"error: {flag}: '0=abc': expected {unit}=T1[:T2] "
                          f"(integer {unit.lower()}, times in sim seconds)")

    def test_worker_crash_without_stages_exits_2(self, capsys):
        assert main(["fleet", "--preset", "xform", "--quick",
                     "--stages", "none", "--worker-crash", "0=0.001"]) == 2
        assert "no transform stages" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", [
        "xcrash.0=0.001:0.002",
        '{"xform_crashes": [[0, 0.001, 0.002]]}',
    ])
    def test_worker_crash_in_fault_plan_exits_2(self, plan, capsys):
        # --worker-crash is the one way to crash a transform worker.
        assert main(["fleet", "--preset", "xform", "--quick",
                     "--fault-plan", plan]) == 2
        assert "unknown fault-plan field" in capsys.readouterr().err


#: The readers preset's quick run on 2 clients under media errors and
#: periodic qpair resets: one epoch of 512 x 4 KiB samples.
CHAOS_QUICK = ["fleet", "--preset", "readers", "--quick", "--clients", "2",
               "--size", "4096", "--fault-plan", "media=0.01,reset_period=0.002"]
CHAOS_QUICK_VALUES = {
    "delivered": 512,
    "failed": 0,
    "expected": 512,
    "app_time": 0.0006906921223958334,
    "sample_throughput": 741285.4199408032,
    "fault_counts": {},
    "recovery": {"degraded_time": 0.0},
}

#: ``fleet --preset readers --reads 400 --samples 2000 --trace DIR``: the
#: summary lines, then ``breakdown.txt``.
TRACE_400_SUMMARY = """\
== fleet readers: 1 client(s), 0 storage + 0 transform nodes, 400 reads \
per reader of 2000 x 16384 B samples, seed 42 ==
throughput        125,577 samples/s
delivered         400
jobs              13
sim time          3.283 ms
expected          400  (accounted)
app time          3.185 ms
recovery degraded_time     0.000 ms

"""
TRACE_400_BREAKDOWN = """\
-- latency attribution: dlfs.node0.r0 --
  prep                               0.0026 ms    0.08%
  post                               0.0150 ms    0.46%
  poll_idle                          2.4058 ms   73.29%
  poll                               0.0090 ms    0.27%
  copy                               0.8504 ms   25.90%
  wait (device/fabric) + idle        0.0000 ms    0.00%
  total (sim time)                   3.2828 ms  100.00%

-- latency percentiles (estimated from fixed log buckets) --
  layer                   count        p50        p90        p99       p999
  nvme.latency               30   331.29us   674.87us   823.40us   823.40us
  qpair.latency              30   331.29us   674.87us   823.40us   823.40us
  reactor.job_latency        13   195.62us   693.63us   834.51us   834.51us
"""


class TestChaosAndTrace:
    """The readers preset's fault-injected and traced runs print the
    values pinned for them."""

    def test_chaos_quick_json(self, capsys):
        import json

        assert main([*CHAOS_QUICK, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["preset"] == "readers"
        assert {key: blob[key] for key in CHAOS_QUICK_VALUES} == CHAOS_QUICK_VALUES

    def test_trace_summary_and_breakdown(self, tmp_path, capsys):
        assert main(["fleet", "--preset", "readers", "--reads", "400",
                     "--samples", "2000", "--trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(TRACE_400_SUMMARY + TRACE_400_BREAKDOWN)
        assert (tmp_path / "breakdown.txt").read_text() == TRACE_400_BREAKDOWN
        assert f"wrote {tmp_path / 'trace.json'} (503 spans;" in out
        assert f"wrote {tmp_path / 'metrics.json'}" in out


class TestDriverRejects:
    """A config the driver rejects is a one-line error and exit 2."""

    @pytest.mark.parametrize("command", ["chaos", "trace"])
    def test_node_crash_without_cluster_exits_2(self, command, tmp_path,
                                                capsys):
        argv = ["fleet", "--preset", "readers", "--fault-plan", "crash.1=0.001"]
        if command == "trace":
            argv += ["--trace", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fault plan schedules node crashes")
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_reader_quota_on_a_traffic_preset_exits_2(self, capsys):
        assert main(["fleet", "--preset", "serve", "--reads", "10"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("error: readers replace tenant traffic: no tenant "
                          "specs, workloads, fair_queue or transform stages")
        assert len(err) == 2  # then the wall-time line


class TestCommands:
    def test_parser_subcommands_are_the_command_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out)
        assert listed.group(1).split(",") == list(COMMANDS)
        assert len(COMMANDS) == 10


class TestScale:
    """The `scale` subcommand: the hybrid-fidelity fleet day."""

    def test_day_too_dense_for_the_series_sums_exits_2(self, capsys):
        assert main(["scale", "--users", "100000000", "--rate", "100",
                     "--no-check"]) == 2
        assert "error: segment" in capsys.readouterr().err
