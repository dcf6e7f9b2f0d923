"""MetricsAggregator: streaming metrics over live event streams."""

import pytest

from repro.core.config import SWATConfig
from repro.serving.continuous import compare_modes, poisson_arrivals, serve_continuous
from repro.serving.request import make_requests
from repro.telemetry import EventBus, MetricsAggregator
from repro.telemetry.events import (
    BurstAdvanced,
    PlanCacheLookup,
    QueueDepth,
    RequestAdmitted,
    RequestArrived,
    RequestRetired,
    RunFinished,
    RunStarted,
)


def _burst(shard, start_tick, iterations, residents):
    return BurstAdvanced(
        shard=shard,
        start_tick=start_tick,
        iterations=iterations,
        ticks=3 * iterations,
        energy_ticks=3 * iterations,
        primed=False,
        residents=residents,
        occupancy=residents / 4,
    )


def _retired(request_id, arrival, admit, finish):
    return RequestRetired(
        request_id=request_id,
        shard=0,
        batch_id=0,
        batch_size=1,
        device_seconds=finish - admit,
        arrival_time=arrival,
        admit_time=admit,
        finish_time=finish,
    )


class TestCounters:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsAggregator(window=0)

    def test_request_lifecycle_counts(self):
        aggregator = MetricsAggregator()
        aggregator.feed(RequestArrived(request_id=0, seq_len=8, head_rows=8, arrival_time=0.0))
        aggregator.feed(RequestArrived(request_id=1, seq_len=8, head_rows=8, arrival_time=0.1))
        aggregator.feed(RequestAdmitted(request_id=0, shard=0, admit_time=0.2, residency=1))
        assert (aggregator.arrived, aggregator.admitted, aggregator.retired) == (2, 1, 0)
        assert aggregator.in_flight == 1
        aggregator.feed(_retired(0, arrival=0.0, admit=0.2, finish=0.5))
        assert aggregator.retired == 1
        assert aggregator.in_flight == 0

    def test_rolling_throughput_uses_latest_observed_instant(self):
        aggregator = MetricsAggregator()
        assert aggregator.requests_per_second == 0.0
        aggregator.feed(_retired(0, arrival=0.0, admit=0.0, finish=2.0))
        aggregator.feed(_retired(1, arrival=0.0, admit=0.0, finish=4.0))
        assert aggregator.requests_per_second == 2 / 4.0

    def test_cache_hit_rate(self):
        aggregator = MetricsAggregator()
        assert aggregator.cache_hit_rate == 0.0
        aggregator.feed(PlanCacheLookup(seq_len=32, hit=False, entries=0))
        aggregator.feed(PlanCacheLookup(seq_len=32, hit=True, entries=1))
        aggregator.feed(PlanCacheLookup(seq_len=32, hit=True, entries=1))
        assert aggregator.cache_hit_rate == 2 / 3

    def test_queue_depth_tracks_latest(self):
        aggregator = MetricsAggregator()
        aggregator.feed(QueueDepth(depth=4, time=0.0))
        aggregator.feed(QueueDepth(depth=2, time=1.0))
        assert aggregator.queue_depth == 2

    def test_shard_occupancy_sorted_and_latest(self):
        aggregator = MetricsAggregator()
        aggregator.feed(_burst(shard=1, start_tick=0, iterations=2, residents=2))
        aggregator.feed(_burst(shard=0, start_tick=0, iterations=5, residents=4))
        aggregator.feed(_burst(shard=1, start_tick=6, iterations=1, residents=1))
        assert aggregator.shard_occupancy() == {0: 1.0, 1: 0.25}

    def test_iterations_count_every_iteration_of_a_burst(self):
        aggregator = MetricsAggregator()
        aggregator.feed(_burst(shard=0, start_tick=0, iterations=5, residents=4))
        aggregator.feed(_burst(shard=1, start_tick=0, iterations=1, residents=2))
        aggregator.feed(_burst(shard=0, start_tick=15, iterations=3, residents=3))
        assert aggregator.iterations == 9


class TestWindowing:
    def test_latency_percentiles_are_windowed(self):
        aggregator = MetricsAggregator(window=4)
        for index in range(10):
            aggregator.feed(_retired(index, arrival=0.0, admit=0.0, finish=float(index + 1)))
        snapshot = aggregator.snapshot()
        # Window holds the last 4 latencies [7, 8, 9, 10]; p50 -> 8.0.
        assert snapshot["latency p50 [s] (last 4)"] == 8.0
        assert snapshot["latency p95 [s] (last 4)"] == 10.0


class TestSnapshot:
    def test_snapshot_on_a_real_run(self):
        config = SWATConfig(head_dim=16, window_tokens=8)
        seq_lens = [24, 32, 48, 24] * 3
        requests = make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(len(seq_lens), 2000.0, seed=7),
        )
        bus = EventBus()
        aggregator = MetricsAggregator()
        bus.subscribe(aggregator.feed)
        serve_continuous(requests, config=config, backend="analytical", num_shards=2, bus=bus)
        assert aggregator.finished
        assert aggregator.retired == len(seq_lens)
        snapshot = aggregator.snapshot()
        assert snapshot["status"] == "finished"
        assert snapshot["run"] == "continuous (analytical)"
        assert snapshot["arrived / admitted / retired"] == "12 / 12 / 12"
        assert snapshot["rolling req/s"] > 0
        assert "shard 0 occupancy" in snapshot and "shard 1 occupancy" in snapshot
        rendered = aggregator.to_table().render()
        assert "rolling req/s" in rendered

    def test_run_started_shapes_run_label(self):
        aggregator = MetricsAggregator()
        assert aggregator.snapshot()["run"] == "?"
        aggregator.feed(
            RunStarted(
                backend="simulator",
                num_shards=1,
                max_batch_size=8,
                num_requests=4,
                tick_seconds=0.5,
                power_w=10.0,
                mode="drain",
            )
        )
        assert aggregator.snapshot()["run"] == "drain (simulator)"
        # Burst ends convert through the run's tick.
        aggregator.feed(
            BurstAdvanced(
                shard=0,
                start_tick=2,
                iterations=3,
                ticks=6,
                energy_ticks=6,
                primed=False,
                residents=1,
                occupancy=0.125,
            )
        )
        assert aggregator.last_time == 4.0

    def test_run_finished_flips_status(self):
        aggregator = MetricsAggregator()
        assert aggregator.snapshot()["status"] == "running"
        aggregator.feed(RunFinished(wall_seconds=1.0, stats={}))
        assert aggregator.finished
        assert aggregator.snapshot()["status"] == "finished"


class TestMultiRunLog:
    def test_binds_to_the_first_run_of_a_compare_modes_log(self):
        # compare_modes streams its continuous run (run_id 0), then its
        # drain run (run_id 1), onto one bus.
        config = SWATConfig(head_dim=16, window_tokens=8)
        seq_lens = [24, 48, 32, 64] * 4
        requests = make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(len(seq_lens), 3000.0, seed=9),
        )
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        comparison = compare_modes(
            requests, config=config, backend="analytical", num_shards=2, max_batch_size=4, bus=bus
        )
        aggregator = MetricsAggregator(window=len(seq_lens)).feed_all(events)
        continuous = comparison.continuous.stats
        snapshot = aggregator.snapshot()
        assert snapshot["run"] == "continuous (analytical)"
        assert snapshot["arrived / admitted / retired"] == "16 / 16 / 16"
        assert snapshot["events"] == sum(event.run_id == 0 for event in events)
        assert aggregator.iterations == continuous.num_iterations
        assert snapshot["latency p95 [s] (last 16)"] == continuous.latency_p95_seconds
        # Selecting the second run (as repro-trace's --run-id does) binds to it.
        drain = MetricsAggregator().feed_all(event for event in events if event.run_id == 1)
        assert drain.snapshot()["run"] == "drain (analytical)"
        assert drain.iterations == comparison.drain.stats.num_iterations
