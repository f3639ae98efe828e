"""Tests of the end-to-end benchmark; run with ``PYTHONPATH=src pytest benchmarks/e2e``."""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import compare
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _suite(out_dir: Path, *args: str) -> tuple:
    """Run every workload once at ``--smoke`` size; (stdout, results)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "1",
         "--out", str(out), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    start = time.perf_counter()
    stdout, results = _suite(tmp_path_factory.mktemp("smoke"))
    return stdout, results, time.perf_counter() - start


def test_smoke_run_emits_every_metric_with_its_unit(smoke):
    stdout, results, elapsed = smoke
    assert elapsed < 60
    assert list(results["workloads"]) == list(run.WORKLOADS)
    printed = {}
    for line in stdout.splitlines():
        fields = line.split()
        if line.startswith("  ") and len(fields) >= 3:
            printed.setdefault(fields[0], set()).add(fields[2])
    for name, (unit, *_rest) in run.END_TO_END.items():
        assert printed[name] == {unit}, name
    for name in run.PER_LAYER:
        assert printed[name] == {run.unit_of(name)}, name
    for summary in results["workloads"].values():
        assert summary["correct"], summary["violations"]
        assert set(summary["per_layer"]) == set(run.PER_LAYER)


def test_sim_metrics_repeat_for_a_seed_and_change_with_it(smoke, tmp_path):
    _, first, _ = smoke
    _, again = _suite(tmp_path / "again", "--trace", "0")
    _, other = _suite(tmp_path / "other", "--trace", "0", "--seed", "43")
    for name in run.WORKLOADS:
        sim = first["workloads"][name]["sim"]
        assert again["workloads"][name]["sim"] == sim, name
        assert other["workloads"][name]["sim"] != sim, name


def test_every_module_has_a_layer():
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert modules
    for path in modules:
        assert child.layer_of(str(path)) in child.LAYER_NAMES, path
    assert child.layer_of(str(ROOT / "src/repro/core/prefetch.py")) is None
    assert child.layer_of(str(ROOT / "src/repro/newpkg/mod.py")) is None
    assert child.layer_of(str(HERE / "workloads.py")) == "bench"
    assert child.layer_of("~") == "builtins"


def test_gate_catches_a_truncated_witness(monkeypatch):
    real = workloads.dlfs_observed

    def truncated(**kwargs):
        report = real(**kwargs)
        return dataclasses.replace(report, samples_read=report.samples_read[:-1])

    monkeypatch.setattr(workloads, "dlfs_observed", truncated)
    with workloads.Probe() as probe:
        outcome = workloads.ingest(1, run.SMOKE_SCALE, False, probe)
    assert any("witness" in v for v in outcome.violations), outcome.violations


def _rep(witness: str, run_s: float = 1.0) -> dict:
    return {"violations": [], "events": 5, "run_s": run_s, "setup_s": 1.0,
            "peak_rss_mb": 1.0, "attempted": 1, "failed": 0,
            "sim": {"witness": witness, "samples_per_s": 1.0, "tail_ms": 1.0}}


def test_gate_catches_runs_that_disagree():
    assert run.summarize([_rep("a"), _rep("a")], {})["correct"]
    assert not run.summarize([_rep("a"), _rep("b")], {})["correct"]


def test_compare_flags_a_slowdown_beyond_the_bound():
    def results(scale: float) -> dict:
        reps = [_rep("a", run_s=scale * (1 + i / 100)) for i in range(5)]
        return {"seed": 1, "scale": 1,
                "workloads": {"serve": run.summarize(reps, {})}}

    verdicts = {row[1]: row[5] for row in compare.compare(results(1), results(1))}
    assert set(verdicts.values()) == {"unchanged"}
    verdicts = {row[1]: row[5] for row in compare.compare(results(1), results(1.5))}
    assert verdicts["run_s"] == "worse"
    verdicts = {row[1]: row[5] for row in compare.compare(results(1), results(0.5))}
    assert verdicts["run_s"] == "better"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == {
        name: (unit, better, bound)
        for name, (unit, better, bound, _domain) in run.END_TO_END.items()}
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric
