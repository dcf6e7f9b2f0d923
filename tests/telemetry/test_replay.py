"""Acceptance tests: TraceReplayer reconstructs ServingStats bit-identically.

The contract proved here is the observability analogue of PR 4's cycle
conservation: a run's JSONL event log alone is a sufficient statistic for
its :class:`~repro.serving.stats.ServingStats`.  Every field — including the
accumulated floats (shard busy seconds, energy) and the percentile fields —
must come back *equal*, not approximately equal, for seeded Poisson and
bursty continuous traces and for drain-admission runs.
"""

from dataclasses import fields
from statistics import mean

import pytest

from repro.core.config import SWATConfig
from repro.serving.cache import PlanCache
from repro.serving.continuous import (
    bursty_arrivals,
    compare_modes,
    poisson_arrivals,
    serve_continuous,
)
from repro.serving.engine import ServingEngine
from repro.serving.request import make_requests
from repro.serving.stats import ServingStats
from repro.telemetry import (
    EventBus,
    EventLogReader,
    EventLogWriter,
    TraceReplayer,
    replay_stats,
    verify_log,
)


def _config():
    return SWATConfig(head_dim=16, window_tokens=8)


def _assert_stats_identical(live: ServingStats, replayed: ServingStats) -> None:
    """Field-by-field exact equality (floats compared with ==, never approx)."""
    for spec in fields(ServingStats):
        live_value = getattr(live, spec.name)
        replayed_value = getattr(replayed, spec.name)
        assert replayed_value == live_value, (
            f"{spec.name}: replayed {replayed_value!r} != live {live_value!r}"
        )


def _instrumented_log(tmp_path, name: str):
    path = tmp_path / name
    bus = EventBus()
    writer = EventLogWriter(path)
    bus.subscribe(writer)
    return path, bus, writer


class TestContinuousReplay:
    def test_poisson_trace_replays_bit_identically(self, tmp_path):
        config = _config()
        seq_lens = [24, 32, 48, 64, 24, 32] * 6
        arrivals = poisson_arrivals(len(seq_lens), 2000.0, seed=11)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        path, bus, writer = _instrumented_log(tmp_path, "poisson.jsonl")
        result = serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=4,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        )
        writer.close()
        _assert_stats_identical(result.stats, replay_stats(path))
        assert verify_log(path) == []

    def test_bursty_trace_replays_bit_identically(self, tmp_path):
        config = _config()
        seq_lens = [64, 24, 24, 24, 48, 32, 24, 96] * 4
        arrivals = bursty_arrivals(len(seq_lens), burst_size=8, burst_gap=0.002, seed=3)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        path, bus, writer = _instrumented_log(tmp_path, "bursty.jsonl")
        result = serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=3,
            max_batch_size=4,
            policy="sjf",
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        )
        writer.close()
        replayed = replay_stats(path)
        _assert_stats_identical(result.stats, replayed)
        assert replayed.policy == "sjf"
        assert verify_log(path) == []

    def test_functional_simulator_run_replays(self, tmp_path):
        """A functional backend exercises the plan cache, so hit/miss events matter."""
        config = _config()
        seq_lens = [32, 32, 24, 32, 24, 24] * 2
        arrivals = poisson_arrivals(len(seq_lens), 5000.0, seed=5)
        requests = make_requests(seq_lens, config.head_dim, seed=2, arrival_times=arrivals)
        path, bus, writer = _instrumented_log(tmp_path, "functional.jsonl")
        result = serve_continuous(
            requests,
            config=config,
            backend="simulator",
            num_shards=2,
            max_batch_size=4,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        )
        writer.close()
        replayed = replay_stats(path)
        _assert_stats_identical(result.stats, replayed)
        assert replayed.cache_hits + replayed.cache_misses > 0

    def test_compare_modes_logs_both_runs_replayably(self, tmp_path):
        """One compare_modes log holds both runs; each replays bit-identically."""
        config = _config()
        seq_lens = [24, 48, 32, 64] * 4
        arrivals = poisson_arrivals(len(seq_lens), 3000.0, seed=9)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        path, bus, writer = _instrumented_log(tmp_path, "compare.jsonl")
        comparison = compare_modes(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=4,
            bus=bus,
        )
        writer.close()
        continuous = replay_stats(path, run_id=0)
        _assert_stats_identical(comparison.continuous.stats, continuous)
        assert continuous.mode == "continuous"
        drain = replay_stats(path, run_id=1)
        _assert_stats_identical(comparison.drain.stats, drain)
        assert drain.mode == "drain"
        assert verify_log(path, run_id=0) == []
        assert verify_log(path, run_id=1) == []
        # Unselected replay binds to the first run in the log (the continuous
        # one) and skips the other run's events entirely.
        _assert_stats_identical(comparison.continuous.stats, replay_stats(path))

    def test_second_run_started_without_selection_raises(self, tmp_path):
        """Two runs under one run_id (or an explicit clash) is an error."""
        config = _config()
        requests = make_requests([24, 32], config.head_dim, functional=False)
        path, bus, writer = _instrumented_log(tmp_path, "tworuns.jsonl")
        serve_continuous(requests, config=config, backend="analytical", max_batch_size=2, bus=bus)
        serve_continuous(requests, config=config, backend="analytical", max_batch_size=2, bus=bus)
        writer.close()
        with pytest.raises(ValueError, match="more than one run_started"):
            replay_stats(path)
        with pytest.raises(ValueError, match="more than one run_started"):
            replay_stats(path, run_id=0)


class TestBurstFolding:
    def test_multi_iteration_bursts_replay_mean_occupancy_exactly(self):
        """Occupancy folds as occupancy x iterations, to the engine's bits.

        Three slots make the occupancies thirds, which no float holds
        exactly, so a mean that rounded per burst would drift.
        """
        config = _config()
        seq_lens = [24, 96, 48, 160, 32, 64] * 5
        arrivals = poisson_arrivals(len(seq_lens), 3e5, seed=21)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        result = serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=3,
            max_batch_size=3,
            iteration_rows=8,
            bus=bus,
        )
        bursts = [event for event in events if event.kind == "burst_advanced"]
        assert len({burst.shard for burst in bursts if burst.iterations > 1}) >= 2
        assert len({burst.occupancy for burst in bursts}) == 3
        replayed = TraceReplayer().feed_all(events).stats()
        assert replayed.mean_occupancy == result.stats.mean_occupancy
        iterations = sum(record.iterations for record in result.bursts)
        assert replayed.num_iterations == result.stats.num_iterations == iterations
        # Both equal statistics.mean over one occupancy per iteration.
        assert result.stats.mean_occupancy == mean(
            record.occupancy for record in result.bursts for _ in range(record.iterations)
        )
        _assert_stats_identical(result.stats, replayed)


class TestDrainReplay:
    def test_drain_run_replays_bit_identically(self, tmp_path):
        config = _config()
        requests = make_requests([24, 32, 48, 24, 64, 32] * 3, config.head_dim, seed=1)
        path, bus, writer = _instrumented_log(tmp_path, "drain.jsonl")
        engine = ServingEngine(
            config=config,
            backend="simulator",
            num_shards=3,
            max_batch_size=2,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        )
        result = engine.serve(requests)
        writer.close()
        replayed = replay_stats(path)
        _assert_stats_identical(result.stats, replayed)
        assert replayed.num_iterations == result.stats.num_iterations > 0
        assert verify_log(path) == []

    def test_paced_drain_run_replays(self, tmp_path):
        """Drain admission with staggered arrivals logs a replayable trace."""
        config = _config()
        requests = make_requests(
            [24, 32, 24, 32],
            config.head_dim,
            seed=4,
            functional=False,
            arrival_times=[0.0, 0.001, 0.002, 0.003],
        )
        path, bus, writer = _instrumented_log(tmp_path, "paced.jsonl")
        engine = ServingEngine(
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=2,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        )
        result = engine.serve(requests)
        writer.close()
        _assert_stats_identical(result.stats, replay_stats(path))
        assert result.stats.latency_p95_seconds > 0


class TestReplayerEdges:
    def test_empty_log_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no run_started"):
            TraceReplayer().feed_all(EventLogReader(path)).stats()

    def test_missing_run_finished_reported_by_verify(self, tmp_path):
        config = _config()
        requests = make_requests([24, 32], config.head_dim, functional=False)
        path, bus, writer = _instrumented_log(tmp_path, "truncated.jsonl")
        serve_continuous(requests, config=config, backend="analytical", max_batch_size=2, bus=bus)
        writer.close()
        lines = path.read_text().splitlines()
        assert "run_finished" in lines[-1]
        path.write_text("\n".join(lines[:-1]) + "\n")
        problems = verify_log(path)
        assert problems and "run_finished" in problems[0]

    def test_wall_seconds_comes_from_run_finished(self, tmp_path):
        config = _config()
        requests = make_requests([24], config.head_dim, functional=False)
        path, bus, writer = _instrumented_log(tmp_path, "wall.jsonl")
        result = serve_continuous(requests, config=config, backend="analytical", bus=bus)
        writer.close()
        assert replay_stats(path).wall_seconds == result.stats.wall_seconds > 0
