"""Tests for benchmarks/summarize.py artifact hardening.

The summarizer's contract after hardening: the only way to a written
BENCHMARKS.md is every ``BENCH_*.json`` parsing as a complete JSON
object with its summarizer's required keys.  A truncated or malformed
artifact aborts with exit code 2 and the offending *filename* in the
error — never a silently-rendered "unreadable artifact" row.
"""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "summarize", os.path.join(_ROOT, "benchmarks", "summarize.py")
)
summarize = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(summarize)


@pytest.fixture(autouse=True)
def _no_static_analysis(monkeypatch):
    """Skip the simlint/simflow posture row — it sweeps the real repo
    tree and is covered by test_simflow; these tests pin the artifact
    loader."""
    monkeypatch.setattr(summarize, "analysis_stats", lambda: None)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


class TestLoadArtifact:
    def test_valid_generic_artifact(self, tmp_path):
        path = _write(tmp_path, "BENCH_custom.json", {"ok": True, "n": 3})
        name, data = summarize.load_artifact(str(path))
        assert name == "custom"
        assert data == {"ok": True, "n": 3}

    def test_malformed_json_names_file(self, tmp_path):
        path = _write(tmp_path, "BENCH_cluster.json", '{"scaling": [{')
        with pytest.raises(summarize.ArtifactError) as exc:
            summarize.load_artifact(str(path))
        assert "BENCH_cluster.json" in str(exc.value)
        assert "partial write" in str(exc.value)

    def test_empty_file_is_rejected(self, tmp_path):
        path = _write(tmp_path, "BENCH_scale.json", "")
        with pytest.raises(summarize.ArtifactError) as exc:
            summarize.load_artifact(str(path))
        assert "BENCH_scale.json" in str(exc.value)
        assert "empty" in str(exc.value)

    def test_non_object_payload_is_rejected(self, tmp_path):
        path = _write(tmp_path, "BENCH_custom.json", "[1, 2, 3]")
        with pytest.raises(summarize.ArtifactError) as exc:
            summarize.load_artifact(str(path))
        assert "expected a JSON object" in str(exc.value)

    def test_missing_required_key_named_artifact(self, tmp_path):
        path = _write(tmp_path, "BENCH_cluster.json",
                      {"ok": True, "failover": {}})
        with pytest.raises(summarize.ArtifactError) as exc:
            summarize.load_artifact(str(path))
        assert "BENCH_cluster.json" in str(exc.value)
        assert "scaling" in str(exc.value)

    def test_missing_ok_generic_artifact(self, tmp_path):
        path = _write(tmp_path, "BENCH_future.json", {"speedup": 2.0})
        with pytest.raises(summarize.ArtifactError) as exc:
            summarize.load_artifact(str(path))
        assert "ok" in str(exc.value)

    def test_every_named_summarizer_has_required_keys(self):
        assert set(summarize.REQUIRED_KEYS) == set(summarize.SUMMARIZERS)


class TestMain:
    def test_renders_valid_artifacts(self, tmp_path, capsys):
        _write(tmp_path, "BENCH_tenancy.json", {
            "ok": True,
            "fairness": [{"weights": [2, 1],
                          "tenants": [{"err": 0.01}, {"err": 0.02}]}],
            "isolation": {"ratio": 1.1},
            "fairness_tolerance": 0.05,
            "isolation_ratio_bar": 3.0,
        })
        _write(tmp_path, "BENCH_custom.json", {"ok": True})
        assert summarize.main(["--root", str(tmp_path)]) == 0
        page = (tmp_path / "BENCHMARKS.md").read_text()
        assert "| tenancy | PASS |" in page
        assert "| custom | PASS |" in page

    def test_malformed_artifact_exits_2(self, tmp_path, capsys):
        _write(tmp_path, "BENCH_custom.json", '{"ok": tru')
        assert summarize.main(["--root", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "BENCH_custom.json" in err

    def test_one_bad_artifact_blocks_the_page(self, tmp_path, capsys):
        _write(tmp_path, "BENCH_custom.json", {"ok": True})
        _write(tmp_path, "BENCH_xform.json", {"ok": True})  # no "cells"
        assert summarize.main(["--root", str(tmp_path)]) == 2
        assert not (tmp_path / "BENCHMARKS.md").exists()
        err = capsys.readouterr().err
        assert "BENCH_xform.json" in err
        assert "cells" in err

    def test_no_artifacts_exits_1(self, tmp_path, capsys):
        assert summarize.main(["--root", str(tmp_path)]) == 1

    def test_real_repo_artifacts_still_parse(self, capsys):
        """The committed artifacts at the repo root satisfy the
        hardened loader (guards against REQUIRED_KEYS drifting ahead
        of what the benchmarks actually write)."""
        import glob
        for path in glob.glob(os.path.join(_ROOT, "BENCH_*.json")):
            summarize.load_artifact(path)
