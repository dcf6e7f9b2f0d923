"""Property suite for continuous batching and its simulated-clock harness.

The load-bearing contracts of iteration-level scheduling:

* **Bit-identity** — for any seeded arrival trace, continuous-mode outputs
  are bit-identical per request to running each request alone through the
  same backend (the stacked executor's contract carried through admission
  and retirement).
* **Conservation** — every admitted request retires exactly once, occupancy
  never exceeds ``max_batch_size``, rows advanced sum to each request's
  total, per-burst priced ticks sum to the batch total a drained stream of
  the same gating rows would cost (no double-charged fill), and every
  request's device ticks and every shard's busy ticks are exactly the ticks
  of the bursts they cover.
* **Determinism** — the same seeded trace replays the same bursts, clocks
  and stats bit-for-bit; no scheduling decision reads the wall clock.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import fields
from types import SimpleNamespace

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel
from repro.serving.backends import create_backend
from repro.serving.continuous import (
    SCHEDULERS,
    ContinuousBatcher,
    ServingClock,
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.engine import ServingEngine
from repro.serving.request import AttentionRequest, make_request, make_requests
from repro.serving.stats import ServingStats, TimeBase, percentile
from repro.telemetry import EventBus
from tests.event_streams import (
    assert_records_equivalent,
    assert_same_completions,
    assert_streams_equivalent,
)

HEAD_DIM = 8


def _config(**overrides):
    defaults = dict(head_dim=HEAD_DIM, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


def _seq_len_program(request):
    """A stand-in row program: the request streams ``seq_len`` rows."""
    return SimpleNamespace(total_rows=request.seq_len)


# One trace spec: sequence lengths (mixed, spanning buckets), arrival seed,
# slot count and iteration quantum — everything the scheduler branches on.
trace_strategy = st.tuples(
    st.lists(st.sampled_from([5, 8, 16, 24, 33, 48]), min_size=1, max_size=12),
    st.integers(0, 2**16),
    st.integers(1, 4),
    st.sampled_from([4, 16, 64]),
)


def _trace_requests(seq_lens, arrival_seed, functional=True, rate=None):
    config = _config()
    if rate is None:
        rate = 3.0 * swat_request_rate(config, seq_lens)
    arrivals = poisson_arrivals(len(seq_lens), rate, seed=arrival_seed)
    return make_requests(
        seq_lens,
        config.head_dim,
        seed=arrival_seed,
        functional=functional,
        arrival_times=arrivals,
    )


class TestBitIdentity:
    @settings(deadline=None, max_examples=25)
    @given(trace=trace_strategy)
    def test_outputs_match_solo_execution_bitwise(self, trace):
        seq_lens, arrival_seed, max_batch_size, iteration_rows = trace
        config = _config()
        requests = _trace_requests(seq_lens, arrival_seed)
        result = serve_continuous(
            requests,
            config=config,
            backend="simulator",
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
        )
        solo = create_backend("simulator", config=config)
        assert len(result.completed) == len(requests)
        for done in result.completed:
            (reference,) = solo.compute_outputs([done.request])
            assert np.array_equal(done.output, reference)

    def test_outputs_match_drain_engine_bitwise(self):
        config = _config()
        requests = _trace_requests([16, 24, 33, 16, 48, 8], arrival_seed=7)
        continuous = serve_continuous(
            requests, config=config, backend="simulator", max_batch_size=3, iteration_rows=16
        )
        drain = ServingEngine(
            config=config, backend="simulator", num_shards=1, max_batch_size=3
        ).serve(requests)
        for cont_done, drain_done in zip(continuous.completed, drain.completed):
            assert cont_done.request.request_id == drain_done.request.request_id
            assert np.array_equal(cont_done.output, drain_done.output)


class TestConservation:
    @settings(deadline=None, max_examples=25)
    @given(trace=trace_strategy, num_shards=st.integers(1, 3))
    def test_invariants_hold_for_any_trace(self, trace, num_shards):
        seq_lens, arrival_seed, max_batch_size, iteration_rows = trace
        config = _config()
        requests = _trace_requests(seq_lens, arrival_seed, functional=False)
        result = serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
        )
        pipeline = SWATPipelineModel(config)
        backend = create_backend("analytical", config=config)

        # Every submitted request is admitted exactly once and retires
        # exactly once.
        admitted = [rid for record in result.bursts for rid in record.admitted]
        retired = [rid for record in result.bursts for rid in record.retired]
        expected_ids = sorted(request.request_id for request in requests)
        assert sorted(admitted) == expected_ids
        assert sorted(retired) == expected_ids
        assert sum(record.iterations for record in result.bursts) == result.stats.num_iterations

        # Occupancy never exceeds the slot bound.
        for record in result.bursts:
            assert 1 <= len(record.resident) <= max_batch_size
            assert record.occupancy == len(record.resident) / max_batch_size

        # Each request's slices sum to its total row work.
        rows_advanced: "dict[int, int]" = {}
        for record in result.bursts:
            for request_id, rows in record.resident:
                assert 0 < rows <= record.iterations * iteration_rows
                rows_advanced[request_id] = rows_advanced.get(request_id, 0) + rows
        for request in requests:
            assert rows_advanced[request.request_id] == backend.program(request).total_rows

        # No double-charged fill: per busy period, the per-burst ticks (SWAT
        # cycles) sum exactly to what one drained stream of the same gating
        # rows would cost (fill + (rows - 1) * II).  A burst's gating rows
        # are its largest resident's: every iteration but the last streams
        # the full quantum in every slot.
        for shard in range(num_shards):
            period_ticks = 0
            period_rows = 0
            for record in result.bursts:
                if record.shard != shard:
                    continue
                if not record.primed and period_rows:
                    assert period_ticks == pipeline.cycles_for_rows(period_rows)
                    period_ticks = period_rows = 0
                period_ticks += record.ticks
                period_rows += max(rows for _, rows in record.resident)
            if period_rows:
                assert period_ticks == pipeline.cycles_for_rows(period_rows)

        # Tick conservation.  ``first_tick`` inverts the one seconds
        # conversion exactly, so these compare integer ticks.
        time_base = result.time_base
        for done in result.completed:
            resident_ticks = sum(
                record.ticks
                for record in result.bursts
                if done.request.request_id in dict(record.resident)
            )
            assert time_base.first_tick(done.device_seconds) == resident_ticks
            assert done.arrival_time <= done.admit_time
        for shard in range(num_shards):
            shard_ticks = sum(record.ticks for record in result.bursts if record.shard == shard)
            assert time_base.first_tick(result.stats.shard_busy_seconds[shard]) == shard_ticks
        energy_ticks = sum(record.energy_ticks for record in result.bursts)
        assert result.stats.total_energy_joules == time_base.joules(energy_ticks)

    @settings(deadline=None, max_examples=25)
    @given(
        gaps=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        seq_len=st.sampled_from([5, 16, 48]),
        backend=st.sampled_from(["analytical", "gpu-dense", "dense-fpga"]),
    )
    def test_idle_shard_admits_within_one_tick_of_arrival(self, gaps, seq_len, backend):
        """An arrival finding the pool idle is admitted at its first tick."""
        config = _config()
        solo = serve_continuous(
            [AttentionRequest(seq_len=seq_len)], config=config, backend=backend
        ).completed[0]
        # Space arrivals past one solo service so every request finds the
        # pool idle; the gap fractions put arrivals at arbitrary floats.
        spacing = 2.0 * solo.latency_seconds
        arrivals = []
        instant = 0.0
        for gap in gaps:
            instant += spacing * (1.0 + gap)
            arrivals.append(instant)
        requests = make_requests(
            [seq_len] * len(arrivals), config.head_dim, functional=False, arrival_times=arrivals
        )
        result = serve_continuous(requests, config=config, backend=backend)
        time_base = result.time_base
        for done in result.completed:
            # At or after the arrival, with no tick in between.
            assert done.arrival_time <= done.admit_time
            assert time_base.first_tick(done.admit_time) == time_base.first_tick(done.arrival_time)

    def test_solo_request_costs_exactly_one_dispatch(self):
        # Slicing a lone request across iterations must not change its
        # modelled cost: the fill is paid once, then rows stream at the II —
        # bit-exactly the batch-of-one pricing of the drain path
        # (``batch_attention_cycles``, heads streamed back to back).
        config = _config()
        request = AttentionRequest(seq_len=100, num_heads=3, arrival_time=0.0)
        result = serve_continuous([request], config=config, backend="analytical", iteration_rows=17)
        pipeline = SWATPipelineModel(config)
        total_ticks = sum(record.ticks for record in result.bursts)
        assert total_ticks == pipeline.batch_attention_cycles(
            [(request.seq_len, request.num_heads)]
        )
        assert result.time_base.tick_seconds == config.clock_period_s

    @pytest.mark.parametrize("backend", ["gpu-dense", "gpu-chunked", "dense-fpga"])
    @pytest.mark.parametrize("iteration_rows", [1, 7, 17, 64, 10_000])
    def test_solo_rate_request_slices_sum_to_its_one_shot_ticks(self, backend, iteration_rows):
        """Positional slices of a lone request sum to exactly ``R`` ticks."""
        config = _config()
        request = AttentionRequest(seq_len=100, num_heads=3, arrival_time=0.0)
        pool = create_backend(backend, config=config)
        program = pool.program(request)
        one_shot = program.ticks
        assert program.rate_rows == program.total_rows
        result = serve_continuous(
            [request], config=config, backend=backend, iteration_rows=iteration_rows
        )
        assert sum(record.ticks for record in result.bursts) == one_shot
        (done,) = result.completed
        assert result.time_base.first_tick(done.device_seconds) == one_shot


class TestDeterminism:
    def test_same_trace_replays_bit_for_bit(self):
        config = _config()
        requests_a = _trace_requests([16, 33, 8, 48, 24, 16], arrival_seed=11)
        requests_b = _trace_requests([16, 33, 8, 48, 24, 16], arrival_seed=11)
        results = [
            serve_continuous(
                requests,
                config=config,
                backend="analytical",
                num_shards=2,
                max_batch_size=2,
                iteration_rows=16,
            )
            for requests in (requests_a, requests_b)
        ]
        first, second = results
        assert first.stats.device_makespan_seconds == second.stats.device_makespan_seconds
        assert first.stats.latency_p95_seconds == second.stats.latency_p95_seconds
        assert len(first.bursts) == len(second.bursts)
        for record_a, record_b in zip(first.bursts, second.bursts):
            assert record_a.shard == record_b.shard
            assert record_a.iterations == record_b.iterations
            assert record_a.ticks == record_b.ticks
            assert [rows for _, rows in record_a.resident] == [
                rows for _, rows in record_b.resident
            ]

    def test_seeded_arrival_generators_replay(self):
        assert poisson_arrivals(16, rate=100.0, seed=3) == poisson_arrivals(16, rate=100.0, seed=3)
        first = bursty_arrivals(16, burst_size=4, burst_gap=0.5, seed=3, jitter=0.01)
        second = bursty_arrivals(16, burst_size=4, burst_gap=0.5, seed=3, jitter=0.01)
        assert first == second
        arrivals = poisson_arrivals(64, rate=10.0, seed=0)
        assert arrivals == sorted(arrivals)
        assert all(instant >= 0 for instant in arrivals)

    def test_diurnal_arrivals_replay_sorted_and_validated(self):
        first = diurnal_arrivals(64, mean_rate=50.0, period=1.0, seed=7)
        second = diurnal_arrivals(64, mean_rate=50.0, period=1.0, seed=7)
        assert first == second
        assert first == sorted(first)
        assert len(first) == 64 and all(instant >= 0 for instant in first)
        assert diurnal_arrivals(0, mean_rate=1.0, period=1.0) == []
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=1.5)
        with pytest.raises(ValueError, match="period"):
            diurnal_arrivals(4, mean_rate=1.0, period=0.0)
        with pytest.raises(ValueError, match="mean_rate"):
            diurnal_arrivals(4, mean_rate=0.0, period=1.0)

    def test_diurnal_arrivals_cluster_in_the_daytime_half(self):
        # rate(t) = mean * (1 + sin(2 pi t / period)): with near-full
        # modulation, the rising half of each cycle must hold far more
        # arrivals than the overnight trough half.
        period = 2.0
        arrivals = diurnal_arrivals(512, mean_rate=256.0, period=period, amplitude=0.95, seed=1)
        day = sum(1 for instant in arrivals if (instant % period) < period / 2)
        night = len(arrivals) - day
        assert day > 3 * night

    def test_degenerate_arrival_parameters_rejected(self):
        # amplitude=1 zeroes the trough rate: the cumulative rate plateaus
        # and its inversion degenerates, so exactly 1.0 is out of domain.
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=-0.1)
        # The [0, 1) boundary itself stays valid.
        assert len(diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=0.0)) == 4
        assert len(diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=0.999)) == 4
        with pytest.raises(ValueError, match="jitter"):
            bursty_arrivals(4, burst_size=2, burst_gap=0.5, jitter=-0.01)
        with pytest.raises(ValueError, match="burst_gap"):
            bursty_arrivals(4, burst_size=2, burst_gap=0.0)
        with pytest.raises(ValueError, match="burst_gap"):
            bursty_arrivals(4, burst_size=2, burst_gap=-1.0)
        with pytest.raises(ValueError, match="burst_size"):
            bursty_arrivals(4, burst_size=0, burst_gap=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_arrival_parameters_rejected(self, bad):
        # nan passes every sign check (nan <= 0 is false): poisson_arrivals
        # would return nan instants at a nan rate and collapse onto the start
        # at an infinite one.  Every float parameter is checked.
        cases = [
            (poisson_arrivals, dict(count=3, rate=1.0), ("rate", "start")),
            (
                bursty_arrivals,
                dict(count=3, burst_size=1, burst_gap=1.0),
                ("burst_gap", "start", "jitter"),
            ),
            (
                diurnal_arrivals,
                dict(count=3, mean_rate=1.0, period=1.0),
                ("mean_rate", "period", "amplitude", "start", "phase"),
            ),
        ]
        for generator, valid, names in cases:
            for name in names:
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    generator(**{**valid, name: bad})


class TestSchedulerEquivalence:
    """The event-driven scheduler is a bit-exact drop-in for the reference loop.

    This is the tentpole contract of the vectorized scheduler: for any seeded
    trace it must reproduce the quantum-stepped reference loop's every
    accounting bit — the :class:`ServingStats` fields, the burst records and
    the telemetry event stream, both in canonical form (the reference's
    one-iteration bursts coalesced, ``wall_seconds`` excepted, since it
    reads the host clock).
    """

    def _run_both(self, requests, **kwargs):
        runs = {}
        for scheduler in SCHEDULERS:
            bus = EventBus()
            events = []
            bus.subscribe(events.append)
            result = serve_continuous(list(requests), scheduler=scheduler, bus=bus, **kwargs)
            runs[scheduler] = (result, events)
        return runs["event"], runs["reference"]

    @staticmethod
    def _assert_equivalent(event_run, reference_run):
        event_result, event_log = event_run
        reference_result, reference_log = reference_run
        for spec in fields(ServingStats):
            if spec.name == "wall_seconds":
                continue
            event_value = getattr(event_result.stats, spec.name)
            reference_value = getattr(reference_result.stats, spec.name)
            assert event_value == reference_value, (
                f"stats.{spec.name}: event {event_value!r} != reference {reference_value!r}"
            )
        assert_records_equivalent(event_result.bursts, reference_result.bursts)
        assert_same_completions(event_result.completed, reference_result.completed)
        assert_streams_equivalent(event_log, reference_log)

    @settings(deadline=None, max_examples=30)
    @given(
        trace=trace_strategy,
        num_shards=st.integers(1, 3),
        policy=st.sampled_from(["fcfs", "sjf"]),
        admission=st.sampled_from(["continuous", "drain"]),
        backend=st.sampled_from(["analytical", "gpu-dense", "dense-fpga"]),
    )
    def test_event_scheduler_matches_reference_bitwise(
        self, trace, num_shards, policy, admission, backend
    ):
        # The GPU and dense-FPGA backends answer the burst questions off
        # int64 prefix sums, SWAT attention bursts in closed form.
        seq_lens, arrival_seed, max_batch_size, iteration_rows = trace
        config = _config()
        event_run, reference_run = self._run_both(
            _trace_requests(seq_lens, arrival_seed, functional=False),
            config=config,
            backend=backend,
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
            policy=policy,
            admission=admission,
        )
        self._assert_equivalent(event_run, reference_run)

    def test_equivalence_holds_on_a_diurnal_functional_trace(self):
        # A functional backend adds plan-cache lookups to the stream and
        # real outputs to the completions; both must still line up exactly.
        config = _config()
        seq_lens = [16, 24, 33, 8, 48, 16, 24, 33] * 3
        rate = 3.0 * swat_request_rate(config, seq_lens, max_batch_size=3)
        arrivals = diurnal_arrivals(len(seq_lens), rate, period=len(seq_lens) / rate / 3.0, seed=13)
        event_run, reference_run = self._run_both(
            make_requests(seq_lens, config.head_dim, seed=13, arrival_times=arrivals),
            config=config,
            backend="simulator",
            num_shards=2,
            max_batch_size=3,
            iteration_rows=16,
        )
        self._assert_equivalent(event_run, reference_run)
        assert any(done.output is not None for done in event_run[0].completed)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            serve_continuous([], config=_config(), backend="analytical", scheduler="fifo")


class TestHeadOfLineBlocking:
    def test_continuous_beats_drain_on_mixed_lengths(self):
        # The motivating scenario: short requests stuck behind a long one.
        config = _config()
        seq_lens = [8, 8, 8, 48] * 16
        rate = 4.0 * swat_request_rate(config, seq_lens, max_batch_size=4)
        arrivals = poisson_arrivals(len(seq_lens), rate, seed=5)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        comparison = compare_modes(
            requests, config=config, backend="analytical", max_batch_size=4, iteration_rows=8
        )
        assert comparison.speedup > 1.2
        assert comparison.continuous.stats.mean_occupancy > comparison.drain.stats.mean_occupancy

    def test_uniform_traffic_shows_no_policy_gap(self):
        # Same-length requests leave nothing for mid-flight admission to
        # reclaim: both policies keep the slots full.
        config = _config()
        seq_lens = [32] * 32
        rate = 4.0 * swat_request_rate(config, seq_lens, max_batch_size=4)
        arrivals = poisson_arrivals(len(seq_lens), rate, seed=9)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        comparison = compare_modes(
            requests, config=config, backend="analytical", max_batch_size=4, iteration_rows=32
        )
        assert comparison.speedup == pytest.approx(1.0, rel=0.05)


class TestEngineMode:
    def test_engine_routes_continuous_mode(self):
        config = _config()
        requests = make_requests([16, 24, 16, 33], config.head_dim, seed=0)
        engine = ServingEngine(
            config=config,
            backend="simulator",
            num_shards=1,
            max_batch_size=2,
            mode="continuous",
            iteration_rows=16,
        )
        result = engine.serve(requests)
        assert result.stats.mode == "continuous"
        assert result.stats.num_iterations == sum(record.iterations for record in result.bursts) > 0
        assert all(done.output is not None for done in result.completed)

    def test_drain_mode_is_default_on_the_simulated_clock(self):
        config = _config()
        engine = ServingEngine(config=config, backend="analytical", num_shards=1)
        result = engine.serve(make_requests([16, 24], config.head_dim, functional=False))
        assert engine.mode == "drain"
        assert result.stats.mode == "drain"
        assert result.stats.num_iterations == sum(record.iterations for record in result.bursts) > 0

    @pytest.mark.parametrize("mode", ["drain", "continuous"])
    @pytest.mark.parametrize("backend", ["simulator", "analytical"])
    def test_engine_is_a_facade_over_serve_continuous(self, mode, backend):
        """Every modelled stat of ``ServingEngine.serve`` is ``serve_continuous``'s."""
        config = _config()
        functional = backend == "simulator"
        kwargs = dict(backend=backend, num_shards=2, max_batch_size=3, iteration_rows=16)
        engine_run = ServingEngine(config=config, mode=mode, **kwargs).serve(
            _trace_requests([16, 33, 8, 48, 24, 16, 8, 33], 3, functional=functional)
        )
        direct_run = serve_continuous(
            _trace_requests([16, 33, 8, 48, 24, 16, 8, 33], 3, functional=functional),
            config=config,
            admission=mode,
            **kwargs,
        )
        for spec in fields(ServingStats):
            if spec.name != "wall_seconds":
                assert getattr(engine_run.stats, spec.name) == getattr(
                    direct_run.stats, spec.name
                ), spec.name
        assert engine_run.stats.mode == mode
        for engine_done, direct_done in zip(engine_run.completed, direct_run.completed):
            if functional:
                assert np.array_equal(engine_done.output, direct_done.output)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ServingEngine(config=_config(), mode="streaming")


class TestClockAndLatency:
    def test_clock_only_moves_forward(self):
        clock = ServingClock()
        clock.advance(15)
        clock.jump_to(10)  # already past: no-op
        assert clock.now == 15
        clock.jump_to(20)
        assert clock.now == 20
        assert clock.busy_ticks == 15
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_latency_accounting_orders_sanely(self):
        config = _config()
        seq_lens = [16, 33, 8, 48, 24, 16, 8, 33]
        requests = _trace_requests(seq_lens, arrival_seed=2, functional=False)
        result = serve_continuous(
            requests, config=config, backend="analytical", max_batch_size=2, iteration_rows=16
        )
        for done in result.completed:
            assert done.admit_time >= done.arrival_time
            assert done.finish_time > done.admit_time
        stats = result.stats
        assert 0 <= stats.queue_p50_seconds <= stats.queue_p95_seconds
        assert 0 < stats.latency_p50_seconds <= stats.latency_p95_seconds
        assert 0 < stats.mean_occupancy <= 1.0
        table = stats.render()
        assert "latency p95 [s]" in table
        assert "mean occupancy (slots)" in table

    def test_bursty_trace_queues_longer_than_trickle(self):
        config = _config()
        seq_lens = [16] * 24
        burst = bursty_arrivals(len(seq_lens), burst_size=24, burst_gap=1.0)
        trickle_rate = 0.5 * swat_request_rate(config, seq_lens, max_batch_size=2)
        trickle = poisson_arrivals(len(seq_lens), trickle_rate, seed=1)
        results = {}
        for name, arrivals in (("burst", burst), ("trickle", trickle)):
            requests = make_requests(
                seq_lens, config.head_dim, functional=False, arrival_times=arrivals
            )
            results[name] = serve_continuous(
                requests, config=config, backend="analytical", max_batch_size=2, iteration_rows=16
            )
        assert (
            results["burst"].stats.queue_p95_seconds
            > results["trickle"].stats.queue_p95_seconds
        )


class TestContinuousBatcher:
    def test_admission_respects_arrival_times(self):
        batcher = ContinuousBatcher(max_batch_size=4)
        early = AttentionRequest(seq_len=8, arrival_time=0.0)
        late = AttentionRequest(seq_len=8, arrival_time=5.0)
        batcher.submit([late, early])
        admitted = batcher.admit(0, now=1, program_of=_seq_len_program)
        assert [inflight.request.request_id for inflight in admitted] == [early.request_id]
        assert batcher.next_arrival_tick() == 5  # one-second ticks by default
        assert not batcher.done

    def test_drain_admission_waits_for_empty_shard(self):
        batcher = ContinuousBatcher(max_batch_size=2, admission="drain")
        requests = [AttentionRequest(seq_len=8) for _ in range(4)]
        batcher.submit(requests)
        first = batcher.admit(0, now=0, program_of=_seq_len_program)
        assert len(first) == 2
        # Mid-batch: no admission even though slots could hold more work.
        assert batcher.admit(0, now=0, program_of=_seq_len_program) == []
        for inflight in first:
            inflight.rows_done = inflight.rows_total
        batcher.retire_finished(0, now=1)
        second = batcher.admit(0, now=1, program_of=_seq_len_program)
        assert len(second) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ContinuousBatcher(max_batch_size=0)
        with pytest.raises(ValueError, match="admission"):
            ContinuousBatcher(max_batch_size=1, admission="eager")
        with pytest.raises(ValueError, match="iteration_rows"):
            serve_continuous([], config=_config(), backend="analytical", iteration_rows=0)
        with pytest.raises(ValueError, match="backends"):
            serve_continuous(
                [],
                config=_config(),
                backend="analytical",
                num_shards=2,
                backends=[create_backend("analytical", config=_config())],
            )
        with pytest.raises(ValueError, match="num_shards"):
            serve_continuous([], config=_config(), backend="analytical", num_shards=0)

    @pytest.mark.parametrize("names", [("analytical", "gpu-dense"), ("gpu-dense", "analytical")])
    def test_mixed_backend_pool_rejected(self, names):
        # Shard 0's row model would price every shard (a GPU shard streaming
        # a quarter of its rows, or an analytical one four times too many),
        # and the shards would not share one tick: refuse, say why.
        config = _config(num_pipelines=2)
        requests = [AttentionRequest(seq_len=256, num_heads=4) for _ in range(2)]
        pool = [create_backend(name, config=config) for name in names]
        with pytest.raises(ValueError, match="same backend on the same config"):
            serve_continuous(
                requests,
                config=config,
                backend=names[0],
                num_shards=2,
                max_batch_size=1,
                backends=pool,
            )

    def test_mixed_config_pool_and_mislabelled_pool_rejected(self):
        pool = [
            create_backend("analytical", config=_config()),
            create_backend("analytical", config=_config(clock_mhz=200.0)),
        ]
        with pytest.raises(ValueError, match="same backend on the same config"):
            serve_continuous([], backend="analytical", num_shards=2, backends=pool)
        same = [create_backend("analytical", config=_config()) for _ in range(2)]
        with pytest.raises(ValueError, match="pass backend='analytical'"):
            serve_continuous([], backend="simulator", num_shards=2, backends=same)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("max_batch_size", 2.5),
            ("max_batch_size", True),
            ("iteration_rows", True),
            ("iteration_rows", 16.0),
            ("num_shards", 2.5),
            ("num_shards", True),
        ],
    )
    def test_non_integer_sizes_rejected(self, knob, value):
        # A 2.5-slot shard used to seat 3 residents (occupancy 1.2), a True
        # quantum streamed 1-row iterations and 2.5 shards died in range().
        requests = [AttentionRequest(seq_len=8) for _ in range(3)]
        with pytest.raises(TypeError, match=f"{knob} must be an int"):
            serve_continuous(requests, config=_config(), backend="analytical", **{knob: value})
        with pytest.raises(TypeError, match=f"{knob} must be an int"):
            ServingEngine(config=_config(), backend="analytical", **{knob: value}).serve(requests)
        if knob != "iteration_rows":
            with pytest.raises(TypeError, match=f"{knob} must be an int"):
                ContinuousBatcher(**{"max_batch_size": 2, knob: value})

    def test_duplicate_request_ids_rejected(self):
        # Both twins used to be served, sorted onto one position, and
        # output_for found only the first.
        first = AttentionRequest(seq_len=8)
        twin = AttentionRequest(seq_len=16, request_id=first.request_id)
        with pytest.raises(ValueError, match=f"request_id {first.request_id} appears more"):
            serve_continuous([first, twin], config=_config(), backend="analytical")
        with pytest.raises(ValueError, match=f"request_id {first.request_id} appears more"):
            ServingEngine(config=_config(), backend="analytical").serve([twin, first])

    def test_foreign_head_dim_rejected_when_served_alone(self):
        # Used to run at the pool's 1/sqrt(64) scale and come back ~0.3 off.
        narrow = make_request(16, 32, seed=1)
        with pytest.raises(
            ValueError, match=f"request_id {narrow.request_id} carries head_dim 32 .* head_dim 64"
        ):
            serve_continuous([narrow], config=_config(head_dim=64), backend="simulator")

    def test_foreign_head_dim_rejected_beside_a_matching_request(self):
        # Used to crash at retirement, stacking both into one PlanBatch.
        wide = make_request(16, 64, seed=0)
        narrow = make_request(16, 32, seed=1)
        with pytest.raises(
            ValueError, match=f"request_id {narrow.request_id} carries head_dim 32 .* head_dim 64"
        ):
            serve_continuous([wide, narrow], config=_config(head_dim=64), backend="simulator")

    def test_admission_instants_must_not_decrease(self):
        batcher = ContinuousBatcher(max_batch_size=2)
        batcher.submit([AttentionRequest(seq_len=8) for _ in range(2)])
        batcher.admit(0, now=5, program_of=_seq_len_program)
        batcher.admit(0, now=5, program_of=_seq_len_program)
        with pytest.raises(ValueError, match="must not decrease"):
            batcher.admit(0, now=4, program_of=_seq_len_program)

    @pytest.mark.parametrize("base", [0, 2**64])
    def test_simultaneous_arrivals_queue_by_request_id(self, base):
        # Ties in arrival_time admit in request_id order, also for ids past
        # int64.
        seq_lens = [8, 16, 24, 33]
        requests = [
            AttentionRequest(seq_len=seq_lens[offset], request_id=base + offset)
            for offset in (2, 0, 3, 1)
        ]
        result = serve_continuous(
            requests, config=_config(), backend="analytical", max_batch_size=1
        )
        by_finish = sorted(result.completed, key=lambda done: done.finish_time)
        assert [done.request.request_id - base for done in by_finish] == [0, 1, 2, 3]
        assert [done.request for done in result.completed] == requests

    def test_arrival_past_int64_ticks_rejected(self):
        # The queue keeps first ticks as int64: a serve rejects an arrival
        # past that range before it emits anything, and a bare batcher
        # queues nothing.
        late = AttentionRequest(seq_len=8, arrival_time=1e12)
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        with pytest.raises(ValueError, match="past the int64 tick range"):
            serve_continuous([late], config=_config(), backend="analytical", bus=bus)
        assert events == []
        batcher = ContinuousBatcher(max_batch_size=1, time_base=TimeBase(1e-9))
        with pytest.raises(OverflowError):
            batcher.submit([late])
        assert batcher.waiting_count == 0 and batcher.requests == []

    def test_second_submit_rejected(self):
        # A batcher serves one trace: a second submit used to re-rank the
        # waiting queue around the new requests.
        batcher = ContinuousBatcher(max_batch_size=2)
        batcher.submit([AttentionRequest(seq_len=8)])
        with pytest.raises(ValueError, match="already holds a trace"):
            batcher.submit([AttentionRequest(seq_len=16)])
        assert len(batcher.requests) == batcher.waiting_count == 1

    def test_free_slots_tracks_admission_policy(self):
        continuous = ContinuousBatcher(max_batch_size=3)
        drain = ContinuousBatcher(max_batch_size=3, admission="drain")
        for batcher in (continuous, drain):
            batcher.submit([AttentionRequest(seq_len=8) for _ in range(2)])
            assert batcher.free_slots(0) == 3
            batcher.admit(0, now=0, program_of=_seq_len_program)
        assert continuous.free_slots(0) == 1
        assert drain.free_slots(0) == 0  # mid-batch: membership is fixed


class TestAccounting:
    def test_device_seconds_sums_this_requests_iterations(self):
        config = _config()
        requests = _trace_requests([16, 48, 8, 33], arrival_seed=4, functional=False)
        result = serve_continuous(
            requests, config=config, backend="analytical", max_batch_size=2, iteration_rows=8
        )
        for done in result.completed:
            resident_ticks = sum(
                record.ticks
                for record in result.bursts
                if done.request.request_id in dict(record.resident)
            )
            assert done.device_seconds == result.time_base.seconds(resident_ticks)
            assert result.time_base.first_tick(done.device_seconds) == resident_ticks
            assert done.device_seconds > 0

    def test_engine_continuous_mode_reuses_its_shards(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=2, mode="continuous")
        result = engine.serve(make_requests([32] * 6, config.head_dim, seed=0))
        # One compile for the shape; every further lookup (either shard's
        # retirement pass) hits the engine's pool-wide cache.
        assert result.stats.cache_misses == 1

    def test_request_rate_accounts_heads(self):
        config = _config()
        single = swat_request_rate(config, [64, 128])
        double = swat_request_rate(config, [64, 128], num_heads=2)
        assert double == pytest.approx(single / 2)
        with pytest.raises(ValueError, match="num_heads"):
            swat_request_rate(config, [64], num_heads=0)

    @pytest.mark.parametrize(
        "knob, value, error",
        [
            ("num_shards", 0, ValueError),
            ("max_batch_size", -2, ValueError),
            ("num_shards", True, TypeError),
            ("max_batch_size", 2.5, TypeError),
        ],
    )
    def test_request_rate_rejects_bad_pool_sizes(self, knob, value, error):
        # Used to return 0.0 req/s for no shards and a negative rate for a
        # negative width, which poisson_arrivals then rejected as a rate.
        with pytest.raises(error, match=knob):
            swat_request_rate(_config(), [64], **{knob: value})


class TestPercentile:
    def test_nearest_rank_semantics(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101.0)


class TestAdmissionPolicy:
    """Seeded A/B of the shortest-job-first admission knob (fcfs vs sjf)."""

    def _policy_run(self, requests, policy, num_shards=1, max_batch_size=4):
        from repro.serving.cache import PlanCache

        return serve_continuous(
            list(requests),
            config=SWATConfig.longformer(window_tokens=128),
            backend="analytical",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=128,
            policy=policy,
            plan_cache=PlanCache(),
        )

    def _straggler_trace(self, count=64, load=6.0, seed=0):
        """Mostly-short traffic with a rare long straggler, overloaded."""
        config = SWATConfig.longformer(window_tokens=128)
        unit = [256] * 31 + [4096]
        seq_lens = (unit * ((count + len(unit) - 1) // len(unit)))[:count]
        rate = load * swat_request_rate(config, seq_lens, max_batch_size=4)
        return make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(count, rate, seed=seed),
        )

    def test_sjf_cuts_p95_latency_on_mixed_length_trace(self):
        """The A/B: same seeded trace, same clock, only the policy differs."""
        requests = self._straggler_trace()
        fcfs = self._policy_run(requests, "fcfs").stats
        sjf = self._policy_run(requests, "sjf").stats
        assert sjf.policy == "sjf" and fcfs.policy == "fcfs"
        # Shorts stop queueing behind the straggler: both latency and
        # queue-wait p95 improve, p50 does not regress.
        assert sjf.latency_p95_seconds < fcfs.latency_p95_seconds
        assert sjf.queue_p95_seconds < fcfs.queue_p95_seconds
        assert sjf.latency_p50_seconds <= fcfs.latency_p50_seconds
        # Same work either way: every request served, same totals.
        assert sjf.num_requests == fcfs.num_requests == len(requests)
        assert sjf.total_head_rows == fcfs.total_head_rows

    def test_policy_runs_are_deterministic(self):
        requests = self._straggler_trace(count=32)
        first = self._policy_run(requests, "sjf")
        second = self._policy_run(requests, "sjf")
        assert first.stats.latency_p95_seconds == second.stats.latency_p95_seconds
        assert [record.resident for record in first.bursts] == [
            record.resident for record in second.bursts
        ]

    def test_sjf_degenerates_to_fcfs_on_uniform_lengths(self):
        """Equal job sizes: the tie-break reproduces arrival order exactly."""
        config = SWATConfig.longformer(window_tokens=128)
        seq_lens = [256] * 24
        rate = 4.0 * swat_request_rate(config, seq_lens, max_batch_size=4)
        requests = make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(len(seq_lens), rate, seed=3),
        )
        fcfs = self._policy_run(requests, "fcfs")
        sjf = self._policy_run(requests, "sjf")
        assert [record.resident for record in fcfs.bursts] == [
            record.resident for record in sjf.bursts
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ContinuousBatcher(max_batch_size=2, policy="longest-first")

    def test_sjf_prefers_smaller_arrived_job(self):
        batcher = ContinuousBatcher(max_batch_size=1, policy="sjf")
        long_early = AttentionRequest(seq_len=64, arrival_time=0.0)
        short_late = AttentionRequest(seq_len=8, arrival_time=1.0)
        not_arrived = AttentionRequest(seq_len=2, arrival_time=9.0)
        batcher.submit([long_early, short_late, not_arrived])
        admitted = batcher.admit(0, now=2, program_of=_seq_len_program)
        assert [inflight.request.request_id for inflight in admitted] == [short_late.request_id]
        assert batcher.waiting_count == 2
        # The earliest waiting arrival is the passed-over long job, not the
        # heap's next pick or the queue's not-yet-arrived tail.
        assert batcher.next_arrival_tick() == 0
        admitted[0].rows_done = admitted[0].rows_total
        batcher.retire_finished(0, now=3)
        assert [
            inflight.request.request_id
            for inflight in batcher.admit(0, now=3, program_of=_seq_len_program)
        ] == [long_early.request_id]
        assert batcher.next_arrival_tick() == 9

    def _mixed_kind_trace(self, count=48):
        """The straggler trace with every third request a forward and every
        fifth a decode, of one small model."""
        from repro.model import ModelSpec
        from repro.serving.request import make_decode_request, make_forward_request

        spec = ModelSpec.uniform(2, 256, window_tokens=128, num_heads=2, head_dim=64)
        requests = []
        for index, request in enumerate(self._straggler_trace(count=count)):
            arrival = request.arrival_time
            if index % 5 == 4:
                request = make_decode_request(
                    spec, new_tokens=16, block_size=4, arrival_time=arrival
                )
            elif index % 3 == 2:
                request = make_forward_request(spec, functional=False, arrival_time=arrival)
            requests.append(request)
        return requests

    def test_sjf_ranks_each_request_once(self):
        # Rescanning the arrived backlog at every admission made SJF
        # quadratic in it, and pricing re-resolved a forward's or a decode's
        # plan on every burst: each request's program is now resolved
        # exactly once, through shard 0, under either policy.
        from repro.serving.cache import PlanCache

        requests = self._mixed_kind_trace()
        config = SWATConfig.longformer(window_tokens=128)
        for policy in ("fcfs", "sjf"):
            baseline = self._policy_run(requests, policy, num_shards=2).stats
            for scheduler in SCHEDULERS:
                resolved = []
                cache = PlanCache()
                pool = [create_backend("analytical", config=config, plan_cache=cache)]
                pool.append(create_backend("analytical", config=config, plan_cache=cache))
                for shard, backend in enumerate(pool):

                    def counted(request, shard=shard, program=backend.program):
                        resolved.append((shard, request.request_id))
                        return program(request)

                    backend.program = counted
                result = serve_continuous(
                    list(requests),
                    config=config,
                    backend="analytical",
                    num_shards=2,
                    max_batch_size=4,
                    iteration_rows=128,
                    policy=policy,
                    scheduler=scheduler,
                    backends=pool,
                    plan_cache=cache,
                )
                assert sorted(request_id for _, request_id in resolved) == sorted(
                    request.request_id for request in requests
                )
                assert {shard for shard, _ in resolved} == {0}
                for spec in fields(ServingStats):
                    if spec.name != "wall_seconds":
                        assert getattr(result.stats, spec.name) == getattr(baseline, spec.name)
