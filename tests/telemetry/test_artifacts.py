"""BENCH_*.json artifact writing: merge-on-write, env-directed, atomic."""

import json

from repro.telemetry import BENCH_ARTIFACT_ENV, artifact_path, record_bench


def test_record_bench_writes_entry(tmp_path, monkeypatch):
    monkeypatch.setenv(BENCH_ARTIFACT_ENV, str(tmp_path))
    path = record_bench("BENCH_test.json", "alpha", {"req_per_s": 12.5})
    assert path == tmp_path / "BENCH_test.json"
    assert json.loads(path.read_text()) == {"alpha": {"req_per_s": 12.5}}


def test_entries_merge_across_calls(tmp_path, monkeypatch):
    monkeypatch.setenv(BENCH_ARTIFACT_ENV, str(tmp_path))
    record_bench("BENCH_test.json", "alpha", {"x": 1})
    record_bench("BENCH_test.json", "beta", {"y": 2})
    record_bench("BENCH_test.json", "alpha", {"x": 3})
    assert json.loads((tmp_path / "BENCH_test.json").read_text()) == {
        "alpha": {"x": 3},
        "beta": {"y": 2},
    }


def test_corrupt_existing_artifact_is_replaced(tmp_path, monkeypatch):
    monkeypatch.setenv(BENCH_ARTIFACT_ENV, str(tmp_path))
    (tmp_path / "BENCH_test.json").write_text("{not json")
    record_bench("BENCH_test.json", "alpha", {"x": 1})
    assert json.loads((tmp_path / "BENCH_test.json").read_text()) == {"alpha": {"x": 1}}


def test_nothing_written_without_artifact_dir(tmp_path, monkeypatch):
    monkeypatch.delenv(BENCH_ARTIFACT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert artifact_path("BENCH_test.json") is None
    assert record_bench("BENCH_test.json", "alpha", {"x": 1}) is None
    assert list(tmp_path.iterdir()) == []


def test_artifact_dir_is_created(tmp_path, monkeypatch):
    nested = tmp_path / "a" / "b"
    monkeypatch.setenv(BENCH_ARTIFACT_ENV, str(nested))
    record_bench("BENCH_test.json", "alpha", {"x": 1})
    assert (nested / "BENCH_test.json").exists()
