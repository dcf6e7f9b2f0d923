"""Tests for the serving engine facade, its accounting and request validation."""

import asyncio
import math

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.masks import swat_window_mask
from repro.core.config import SWATConfig
from repro.core.simulator import SWATSimulator
from repro.model import ModelSpec
from repro.serving.engine import ServingEngine
from repro.serving.request import (
    AttentionRequest,
    DecodeRequest,
    ForwardRequest,
    make_requests,
)


def _config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestFunctionalServing:
    def test_served_outputs_match_reference(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=2, max_batch_size=2)
        requests = make_requests([24, 24, 32, 32, 24], config.head_dim, seed=0)
        result = engine.serve(requests)
        assert len(result.completed) == len(requests)
        for request, done in zip(requests, result.completed):
            assert done.request.request_id == request.request_id
            expected = dense_attention(
                request.q,
                request.k,
                request.v,
                mask=swat_window_mask(request.seq_len, config.window_tokens),
            )
            np.testing.assert_allclose(done.output, expected, atol=1e-9)

    def test_output_for_lookup(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=1)
        requests = make_requests([16, 24], config.head_dim, seed=1)
        result = engine.serve(requests)
        assert np.array_equal(result.output_for(requests[1]), result.completed[1].output)
        with pytest.raises(KeyError):
            result.output_for(AttentionRequest(seq_len=16))

    def test_shared_plan_cache_across_shards(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=3, max_batch_size=1)
        requests = make_requests([32] * 6, config.head_dim, seed=2)
        result = engine.serve(requests)
        # One build for the shape, every other lookup is a pool-wide hit.
        assert result.stats.cache_misses == 1
        assert result.stats.cache_hits == 5
        assert result.stats.cache_hit_rate == pytest.approx(5 / 6)


class TestAccounting:
    def test_empty_request_set(self):
        engine = ServingEngine(config=_config(), backend="analytical")
        result = engine.serve([])
        assert result.stats.num_requests == 0
        assert result.stats.requests_per_second == 0.0
        assert result.stats.device_makespan_seconds == 0.0

    def test_batch_and_shard_accounting(self):
        engine = ServingEngine(
            config=_config(), backend="analytical", num_shards=2, max_batch_size=4
        )
        requests = [AttentionRequest(seq_len=64) for _ in range(8)]
        result = engine.serve(requests)
        stats = result.stats
        # Each shard admits one full batch of four and streams it in one
        # iteration of the default quantum.
        assert stats.num_iterations == 2
        assert stats.mean_occupancy == 1.0
        assert len(stats.shard_busy_seconds) == 2
        # Two equal batches on two shards: both busy, perfectly balanced.
        assert stats.shard_busy_seconds[0] == pytest.approx(stats.shard_busy_seconds[1])
        assert stats.device_makespan_seconds == pytest.approx(max(stats.shard_busy_seconds))
        assert {record.shard for record in result.bursts} == {0, 1}

    def test_makespan_throughput_definition(self):
        engine = ServingEngine(config=_config(), backend="analytical", num_shards=2)
        requests = [AttentionRequest(seq_len=48) for _ in range(6)]
        stats = engine.serve(requests).stats
        assert stats.requests_per_second == pytest.approx(6 / stats.device_makespan_seconds)
        assert stats.wall_seconds > 0
        assert stats.total_energy_joules > 0

    def test_stats_table_renders(self):
        engine = ServingEngine(config=_config(), backend="analytical", num_shards=1)
        stats = engine.serve([AttentionRequest(seq_len=32)]).stats
        text = stats.render()
        assert "requests/sec (device)" in text
        assert "analytical" in text

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    def test_single_request_occupies_one_shard(self, mode):
        config = _config()
        engine = ServingEngine(config=config, backend="analytical", num_shards=2, mode=mode)
        result = engine.serve([AttentionRequest(seq_len=96)])
        (done,) = result.completed
        assert (done.shard, done.batch_size) == (0, 1)
        assert result.stats.shard_busy_seconds[1] == 0.0
        # Sliced into quanta or not, a lone request costs its solo estimate.
        estimate = SWATSimulator(config).estimate(96)
        assert done.device_seconds == result.time_base.seconds(estimate.cycles)
        assert result.time_base.first_tick(done.device_seconds) == estimate.cycles
        assert result.stats.device_makespan_seconds == done.finish_time

    def test_total_head_rows_accounts_heads(self):
        engine = ServingEngine(config=_config(), backend="analytical", num_shards=1)
        requests = [AttentionRequest(seq_len=16, num_heads=3), AttentionRequest(seq_len=24)]
        assert engine.serve(requests).stats.total_head_rows == 3 * 16 + 24

    def test_invalid_batch_size_raises(self):
        engine = ServingEngine(config=_config(), backend="analytical", max_batch_size=0)
        with pytest.raises(ValueError, match="max_batch_size"):
            engine.serve([AttentionRequest(seq_len=16)])

    def test_serve_inside_a_running_event_loop(self):
        # serve() is synchronous simulated-clock code, so async callers (an
        # async server, a notebook cell) call it directly.
        engine = ServingEngine(config=_config(), backend="analytical", num_shards=2)

        async def handler():
            return engine.serve([AttentionRequest(seq_len=64) for _ in range(8)])

        result = asyncio.run(handler())
        assert result.stats.num_requests == 8
        assert all(done.output is None for done in result.completed)


class TestAdmissionModes:
    """A short request retires early beside a long one; only continuous
    admission refills its slot before the long one finishes."""

    def _serve(self, mode):
        config = _config()
        requests = make_requests([8, 48, 16, 16, 8], config.head_dim, functional=False)
        engine = ServingEngine(
            config=config,
            backend="analytical",
            num_shards=1,
            max_batch_size=2,
            mode=mode,
            iteration_rows=8,
        )
        return engine.serve(requests).completed

    def test_drain_refills_only_an_empty_shard(self):
        completed = self._serve("drain")
        waves = sorted({done.admit_time for done in completed})
        assert [sum(done.admit_time == wave for done in completed) for wave in waves] == [2, 2, 1]
        # Each wave is admitted the instant the previous one has fully retired.
        for previous, wave in zip(waves, waves[1:]):
            finished = [done.finish_time for done in completed if done.admit_time == previous]
            assert wave == max(finished)

    def test_continuous_refills_a_freed_slot(self):
        short, long_, first_waiting = self._serve("continuous")[:3]
        assert short.finish_time < long_.finish_time
        assert first_waiting.admit_time == short.finish_time


class TestArrivals:
    """Both modes honour ``arrival_time`` on the simulated clock."""

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    def test_admitted_in_arrival_order(self, mode):
        config = _config()
        arrivals = [3e-6, 0.0, 2e-6, 1e-6]
        requests = make_requests(
            [24] * 4, config.head_dim, functional=False, arrival_times=arrivals
        )
        engine = ServingEngine(
            config=config, backend="analytical", num_shards=1, max_batch_size=1, mode=mode
        )
        admitted = sorted(engine.serve(requests).completed, key=lambda done: done.admit_time)
        assert [done.request.arrival_time for done in admitted] == sorted(arrivals)
        for done in admitted:
            assert done.arrival_time <= done.admit_time < done.finish_time

    def test_latencies_share_the_device_clock(self):
        # Every request arrives at 0, so no latency can exceed the makespan:
        # queue waits, latencies and makespan are all simulated seconds.
        config = _config()
        requests = make_requests([24, 48, 24, 48] * 4, config.head_dim, functional=False)
        engine = ServingEngine(config=config, backend="analytical", num_shards=2, max_batch_size=2)
        stats = engine.serve(requests).stats
        assert 0 < stats.latency_p50_seconds <= stats.latency_p95_seconds
        assert stats.latency_p95_seconds <= stats.device_makespan_seconds
        assert stats.queue_p95_seconds < stats.device_makespan_seconds

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    def test_zero_arrivals_admit_at_time_zero(self, mode):
        config = _config()
        requests = make_requests([24] * 8, config.head_dim, functional=False)
        assert all(request.arrival_time == 0.0 for request in requests)
        engine = ServingEngine(
            config=config, backend="analytical", num_shards=2, max_batch_size=4, mode=mode
        )
        result = engine.serve(requests)
        assert [done.admit_time for done in result.completed] == [0.0] * 8
        assert result.stats.queue_p95_seconds == 0.0

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    def test_arrival_gaps_stretch_the_run_not_the_busy_time(self, mode):
        config = _config()
        arrivals = [0.0, 1e-3, 2e-3, 3e-3]  # gaps far longer than one request
        requests = make_requests(
            [24] * 4, config.head_dim, functional=False, arrival_times=arrivals
        )
        engine = ServingEngine(
            config=config, backend="analytical", num_shards=1, max_batch_size=1, mode=mode
        )
        result = engine.serve(requests)
        # An idle shard admits each request the instant it arrives.
        assert [done.admit_time for done in result.completed] == arrivals
        assert result.stats.device_makespan_seconds > arrivals[-1]
        # Busy time excludes the gaps, and the pipeline drains between
        # requests, so every request pays its own fill.
        cold = SWATSimulator(config).pipeline.cycles_for_rows(24)
        assert result.time_base.first_tick(result.stats.shard_busy_seconds[0]) == 4 * cold

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    def test_staggered_run_reports_latency_percentiles(self, mode):
        config = _config()
        requests = make_requests(
            [24, 32, 24, 32],
            config.head_dim,
            functional=False,
            arrival_times=[0.0, 1e-6, 2e-6, 3e-6],
        )
        engine = ServingEngine(
            config=config, backend="analytical", num_shards=1, max_batch_size=2, mode=mode
        )
        result = engine.serve(requests)
        stats = result.stats
        assert stats.latency_p95_seconds >= stats.latency_p50_seconds > 0
        assert stats.latency_p95_seconds == max(done.latency_seconds for done in result.completed)
        assert "latency p50 [s]" in stats.render()

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    def test_shared_late_arrival_idles_the_pool_until_then(self, mode):
        config = _config()
        requests = make_requests(
            [24] * 4, config.head_dim, functional=False, arrival_times=[5e-6] * 4
        )
        engine = ServingEngine(
            config=config, backend="analytical", num_shards=2, max_batch_size=2, mode=mode
        )
        result = engine.serve(requests)
        assert {done.admit_time for done in result.completed} == {5e-6}
        assert {done.shard for done in result.completed} == {0, 1}
        assert result.stats.queue_p95_seconds == 0.0
        # Latency counts from the arrival, not from the start of the clock.
        for done in result.completed:
            assert done.latency_seconds == done.finish_time - 5e-6


class TestThroughputScaling:
    def test_batched_multi_shard_beats_sequential_single_shard(self):
        """The acceptance property, at unit-test scale (see benchmarks too)."""
        config = _config()
        requests = [AttentionRequest(seq_len=64) for _ in range(16)]
        batched = ServingEngine(
            config=config, backend="analytical", num_shards=4, max_batch_size=4
        ).serve(requests)
        sequential = ServingEngine(
            config=config, backend="analytical", num_shards=1, max_batch_size=1
        ).serve(requests)
        assert batched.stats.requests_per_second > sequential.stats.requests_per_second

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError):
            ServingEngine(config=_config(), num_shards=0)


class TestRequestValidation:
    def test_partial_qkv_rejected(self):
        with pytest.raises(ValueError, match="together"):
            AttentionRequest(seq_len=8, q=np.zeros((8, 4)))

    def test_seq_len_mismatch_rejected(self):
        data = np.zeros((8, 4))
        with pytest.raises(ValueError, match="seq_len"):
            AttentionRequest(seq_len=16, q=data, k=data, v=data)

    def test_qkv_shape_mismatch_rejected(self):
        # A short v used to be accepted and only fail at retirement.
        data = np.zeros((128, 4))
        with pytest.raises(ValueError, match="shapes must match"):
            AttentionRequest(seq_len=128, q=data, k=data, v=np.zeros((64, 4)))

    def test_request_ids_monotonic(self):
        first = AttentionRequest(seq_len=8)
        second = AttentionRequest(seq_len=8)
        assert second.request_id > first.request_id

    @pytest.mark.parametrize("arrival_time", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected_by_every_kind(self, arrival_time):
        # nan slips past a plain sign check (nan < 0 is false) and would turn
        # every latency percentile into nan; inf would never arrive.
        spec = ModelSpec.uniform(1, 16, window_tokens=8, num_heads=1, head_dim=8)
        constructors = (
            lambda: AttentionRequest(seq_len=16, arrival_time=arrival_time),
            lambda: ForwardRequest(spec=spec, arrival_time=arrival_time),
            lambda: DecodeRequest(spec=spec, new_tokens=4, arrival_time=arrival_time),
        )
        for construct in constructors:
            with pytest.raises(ValueError, match="arrival_time must be finite"):
                construct()

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AttentionRequest(seq_len=16, arrival_time=-1.0)

    @pytest.mark.parametrize(
        "kind, size, value",
        [
            ("attention", "seq_len", 40.5),
            ("attention", "seq_len", True),
            ("attention", "num_heads", 2.5),
            ("decode", "new_tokens", 2.5),
            ("decode", "block_size", 1.5),
            ("spec", "seq_len", 16.0),
            ("spec", "num_heads", 2.5),
            ("spec", "head_dim", 16.0),
        ],
    )
    def test_non_integer_sizes_rejected_by_every_shape(self, kind, size, value):
        # 40.5 rows used to die inside pricing with an unrelated numpy error,
        # 2.5 heads were served as 3 heads' rows and True as one row.
        def build(**sizes):
            if kind == "attention":
                return AttentionRequest(**{"seq_len": 16, **sizes})
            if kind == "decode":
                spec = ModelSpec.uniform(1, 16, window_tokens=8, num_heads=1, head_dim=8)
                return DecodeRequest(**{"spec": spec, "new_tokens": 4, **sizes})
            return ModelSpec.uniform(1, **{"seq_len": 16, "window_tokens": 8, **sizes})

        with pytest.raises(TypeError, match=f"{size} must be an integer, got {value!r}"):
            build(**{size: value})
        # A numpy integer is accepted as the plain int it stands for.
        assert type(getattr(build(**{size: np.int64(4)}), size)) is int
