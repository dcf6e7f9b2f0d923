"""Smoke tests for the ``repro-serve`` CLI in both dispatch modes."""

import pytest

from repro.serving.demo import build_parser, main
from repro.telemetry.trace import main as trace_main


class TestDrainCli:
    def test_head_rows_column_renders(self, capsys):
        assert main(["--backend", "analytical", "--requests", "8", "--seq-lens", "64"]) == 0
        out = capsys.readouterr().out
        assert "head-rows/sec (device)" in out
        assert "requests/sec (device)" in out

    def test_compare_prints_head_rows_speedup(self, capsys):
        argv = ["--backend", "analytical", "--requests", "8", "--seq-lens", "64", "128"]
        assert main(argv + ["--compare"]) == 0
        out = capsys.readouterr().out
        assert "batched multi-shard speedup" in out
        assert out.count("head-rows/sec (device)") == 2  # both tables
        assert "head-rows/sec:" in out  # the explicit comparison line


class TestContinuousCli:
    def test_continuous_table_renders(self, capsys):
        argv = ["--mode", "continuous", "--backend", "analytical", "--requests", "8"]
        assert main(argv + ["--seq-lens", "64", "128"]) == 0
        out = capsys.readouterr().out
        assert "Continuous admission" in out
        assert "mean occupancy (slots)" in out
        assert "latency p95 [s]" in out
        assert "head-rows/sec (device)" in out

    def test_continuous_compare_prints_speedup(self, capsys):
        argv = ["--mode", "continuous", "--backend", "analytical", "--requests", "16"]
        argv += ["--seq-lens", "64", "256", "--batch-size", "2", "--compare"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Drain admission (same clock)" in out
        assert "continuous-over-drain speedup" in out
        assert "head-rows/sec:" in out


class TestModelCli:
    def test_model_drain_serves_forwards(self, capsys):
        argv = ["--model", "--model-layers", "3", "--backend", "analytical"]
        argv += ["--requests", "6", "--seq-lens", "64", "128", "--window-tokens", "32"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "whole-model forward requests" in out
        assert "3 layers x 2 heads per forward" in out
        assert "head-rows/sec (device)" in out

    def test_model_continuous_with_policy(self, capsys):
        argv = ["--model", "--mode", "continuous", "--policy", "sjf"]
        argv += ["--backend", "analytical", "--requests", "8"]
        argv += ["--seq-lens", "64", "--window-tokens", "32"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "admission policy" in out
        assert "sjf" in out

    def test_model_functional_backend(self, capsys):
        argv = ["--model", "--backend", "simulator", "--requests", "4"]
        argv += ["--seq-lens", "32", "--window-tokens", "16", "--model-layers", "2"]
        assert main(argv) == 0
        assert "whole-model forward" in capsys.readouterr().out


class TestEventLogCli:
    """``repro-serve --events`` handing a log to the ``repro-trace`` commands."""

    def _serve_with_events(self, tmp_path, extra=()):
        path = tmp_path / "run.jsonl"
        argv = ["--backend", "analytical", "--requests", "8", "--seq-lens", "64", "128"]
        argv += ["--events", str(path), *extra]
        assert main(argv) == 0
        assert path.exists()
        return path

    def test_drain_events_flag_writes_log(self, tmp_path, capsys):
        path = self._serve_with_events(tmp_path)
        out = capsys.readouterr().out
        assert f"repro-trace summarize {path}" in out
        assert "wrote" in out and "events" in out

    def test_continuous_events_replay_strict(self, tmp_path, capsys):
        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous"])
        capsys.readouterr()
        assert trace_main(["replay", str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "replay verified" in out
        assert "requests/sec (device)" in out

    def test_drain_events_replay_strict(self, tmp_path, capsys):
        path = self._serve_with_events(tmp_path)
        capsys.readouterr()
        assert trace_main(["replay", str(path), "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_continuous_compare_events_replay_strict(self, tmp_path, capsys):
        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous", "--compare"])
        capsys.readouterr()
        # --compare logs both runs into one file: continuous as run_id 0 and
        # drain as 1, each independently replayable bit-for-bit.
        assert trace_main(["replay", str(path), "--run-id", "0", "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out
        assert trace_main(["replay", str(path), "--run-id", "1", "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out
        # Without --run-id the replayer binds to the first run in the log.
        assert trace_main(["replay", str(path), "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_diurnal_trace_flag(self, tmp_path, capsys):
        path = self._serve_with_events(
            tmp_path, extra=["--mode", "continuous", "--trace", "diurnal"]
        )
        out = capsys.readouterr().out
        assert "diurnal load" in out
        capsys.readouterr()
        assert trace_main(["replay", str(path), "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_trace_summarize_counts_kinds(self, tmp_path, capsys):
        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous"])
        capsys.readouterr()
        assert trace_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Event log summary" in out
        assert "run_started" in out and "run_finished" in out
        assert "request_retired" in out

    def test_trace_summarize_json(self, tmp_path, capsys):
        import json

        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous"])
        capsys.readouterr()
        assert trace_main(["summarize", str(path), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["event counts"]["run_finished"] == 1

    def test_trace_summarize_binds_to_one_run_of_a_compare_log(self, tmp_path, capsys):
        import json

        # --compare logs 8 requests twice: continuous as run 0, drain as 1.
        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous", "--compare"])
        capsys.readouterr()
        snapshots = {}
        for run_id in (None, 0, 1):
            argv = ["summarize", str(path), "--json"]
            if run_id is not None:
                argv += ["--run-id", str(run_id)]
            assert trace_main(argv) == 0
            snapshots[run_id] = json.loads(capsys.readouterr().out)
        assert snapshots[None] == snapshots[0]
        assert snapshots[0]["run"] == "continuous (analytical)"
        assert snapshots[1]["run"] == "drain (analytical)"
        for snapshot in snapshots.values():
            assert snapshot["arrived / admitted / retired"] == "8 / 8 / 8"
            assert snapshot["event counts"]["run_started"] == 1
            assert snapshot["event counts"]["request_arrived"] == 8

    def test_trace_commands_read_the_log_once(self, tmp_path, capsys, monkeypatch):
        import repro.telemetry.log as log_module

        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous"])
        capsys.readouterr()
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(log_module, "open", counting_open, raising=False)
        for argv in (["replay", str(path), "--strict"], ["summarize", str(path)]):
            opened.clear()
            assert trace_main(argv) == 0
            assert opened == [path], argv
        capsys.readouterr()

    def test_trace_watch_once_plain(self, tmp_path, capsys):
        path = self._serve_with_events(tmp_path, extra=["--mode", "continuous"])
        capsys.readouterr()
        assert trace_main(["watch", str(path), "--once", "--plain"]) == 0
        out = capsys.readouterr().out
        assert "rolling req/s" in out
        assert "finished" in out

    def test_trace_missing_log_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            trace_main(["summarize", str(tmp_path / "absent.jsonl")])
        assert "does not exist" in capsys.readouterr().err


class TestExampleScript:
    def test_serving_demo_example_events_flag(self, tmp_path, capsys):
        """The examples/ walkthrough streams its continuous run to a log."""
        import runpy
        import sys
        from pathlib import Path
        from unittest import mock

        example = Path(__file__).resolve().parents[2] / "examples" / "serving_demo.py"
        log = tmp_path / "demo.jsonl"
        with mock.patch.object(sys, "argv", [str(example), "--events", str(log)]):
            runpy.run_path(str(example), run_name="__main__")
        out = capsys.readouterr().out
        assert "continuous batching on a poisson x4 trace" in out
        assert f"repro-trace summarize {log}" in out
        assert log.exists()
        capsys.readouterr()
        # The example logs both comparison runs; replay each by run id.
        assert trace_main(["replay", str(log), "--run-id", "0", "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out
        assert trace_main(["replay", str(log), "--run-id", "1", "--strict"]) == 0
        assert "replay verified" in capsys.readouterr().out

    def test_serving_demo_example_diurnal_trace(self, capsys):
        """The walkthrough's --trace diurnal variant runs end to end."""
        import runpy
        import sys
        from pathlib import Path
        from unittest import mock

        example = Path(__file__).resolve().parents[2] / "examples" / "serving_demo.py"
        with mock.patch.object(sys, "argv", [str(example), "--trace", "diurnal"]):
            runpy.run_path(str(example), run_name="__main__")
        assert "continuous batching on a diurnal x4 trace" in capsys.readouterr().out


class TestValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--shards", "0"],
            ["--batch-size", "0"],
            ["--requests", "-1"],
            ["--load", "0"],
            ["--iteration-rows", "0"],
            ["--mode", "streaming"],
            ["--model", "--model-layers", "0"],
            ["--model", "--model-heads", "-1"],
            ["--policy", "random"],
            ["--backend", "fused"],
        ],
    )
    def test_bad_arguments_exit(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_continuous_zero_requests_exits_cleanly(self, capsys):
        assert main(["--mode", "continuous", "--backend", "analytical", "--requests", "0"]) == 0
        assert "Continuous admission" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.mode == "drain"
        assert args.load == 3.0
        assert args.iteration_rows > 0
