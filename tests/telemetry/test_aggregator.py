"""MetricsAggregator: streaming metrics over live event streams."""

import pytest

from repro.core.config import SWATConfig
from repro.serving.continuous import poisson_arrivals, serve_continuous
from repro.serving.request import make_requests
from repro.telemetry import EventBus, MetricsAggregator
from repro.telemetry.events import (
    IterationAdvanced,
    PlanCacheLookup,
    QueueDepth,
    RequestAdmitted,
    RequestArrived,
    RequestRetired,
    RunFinished,
    RunStarted,
    ShardOccupancy,
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
        aggregator.feed(ShardOccupancy(shard=1, residents=2, slots=4, occupancy=0.5, time=0.0))
        aggregator.feed(ShardOccupancy(shard=0, residents=4, slots=4, occupancy=1.0, time=0.0))
        aggregator.feed(ShardOccupancy(shard=1, residents=1, slots=4, occupancy=0.25, time=1.0))
        assert aggregator.shard_occupancy() == {0: 1.0, 1: 0.25}


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
        serve_continuous(
            requests, config=config, backend="analytical", num_shards=2, bus=bus
        )
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
        # Iteration ends convert through the run's tick.
        aggregator.feed(
            IterationAdvanced(
                index=0,
                shard=0,
                start_tick=2,
                ticks=6,
                energy_ticks=6,
                gate_rows=1,
                primed=False,
                num_resident=1,
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
