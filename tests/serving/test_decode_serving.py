"""Autoregressive decode serving: requests, plans, KV residency, stats.

Covers the decode request kind end to end — block schedules and K/V byte
accounting on :class:`DecodeRequest`, positional pricing through
:class:`~repro.model.plan.DecodePlan` (conservation and batch/scalar
equality), the :class:`~repro.serving.cache.KVResidency` counters, per-token
latency stats, and the tentpole invariant: a mixed prefill+decode trace runs
bit-identically through the ``"event"`` and ``"reference"`` continuous
schedulers, stats and telemetry (in canonical form) alike — including when
the event scheduler resumes a cut burst instead of pricing its resident set
again.
"""

from dataclasses import fields
from itertools import repeat
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.model import ModelSpec
from repro.model.plan import ModelPlanCompiler, compile_decode_plan
from repro.serving.backends import create_backend
from repro.serving.cache import KVResidency, PlanCache
from repro.serving.continuous import ContinuousBatcher, poisson_arrivals, serve_continuous
from repro.serving.request import (
    CompletedRequest,
    DecodeRequest,
    decode_block_schedule,
    make_decode_request,
    make_forward_request,
    make_requests,
)
from repro.serving.stats import ServingStats, decode_token_intervals
from repro.telemetry.bus import EventBus
from tests.event_streams import (
    BURST,
    assert_records_equivalent,
    assert_same_completions,
    assert_streams_equivalent,
)

CONTINUOUS_BACKENDS = ["simulator", "analytical", "gpu-dense", "gpu-chunked", "dense-fpga"]


def _config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


def _spec(seq_len=24, num_layers=2, num_heads=2):
    return ModelSpec.uniform(num_layers, seq_len, window_tokens=8, num_heads=num_heads, head_dim=16)


class TestDecodeBlockSchedule:
    def test_classic_autoregression_is_one_token_steps(self):
        assert decode_block_schedule(4) == (1, 1, 1, 1)

    def test_fixed_block_with_remainder(self):
        assert decode_block_schedule(10, block_size=4) == (4, 4, 2)

    def test_adaptive_ramp_doubles_to_cap(self):
        assert decode_block_schedule(14, block_size=4, adaptive=True) == (1, 2, 4, 4, 3)

    def test_schedule_sums_to_new_tokens(self):
        for block_size in (1, 3, 8):
            for adaptive in (False, True):
                schedule = decode_block_schedule(23, block_size, adaptive)
                assert sum(schedule) == 23

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="new_tokens"):
            decode_block_schedule(0)
        with pytest.raises(ValueError, match="block_size"):
            decode_block_schedule(4, block_size=0)


class TestDecodeRequest:
    def test_properties_hand_check(self):
        request = make_decode_request(_spec(seq_len=24), new_tokens=8, block_size=4)
        assert request.prompt_len == 16
        assert request.head_rows == 2 * 2 * 8
        assert request.block_schedule == (4, 4)
        per_token = 2 * request.spec.hidden_dim * 4 * 2
        assert request.kv_bytes_per_token == per_token
        assert request.kv_resident_bytes == 24 * per_token
        assert request.kv_traffic_bytes == (16 + 8) * per_token
        assert not request.is_functional

    def test_decode_must_leave_a_prompt(self):
        with pytest.raises(ValueError, match="prompt"):
            make_decode_request(_spec(seq_len=8), new_tokens=8)

    def test_new_tokens_must_be_positive(self):
        with pytest.raises(ValueError, match="new_tokens"):
            make_decode_request(_spec(), new_tokens=0)


class TestDecodePlan:
    def _plan(self, block_sizes=(4, 4), spec=None):
        model = ModelPlanCompiler(_config()).compile(spec or _spec())
        return compile_decode_plan(model, block_sizes)

    def test_conservation_spans_sum_to_total(self):
        """Any cold-start contiguous slicing reprices the whole plan exactly."""
        plan = self._plan()
        for step in (1, 3, 7, plan.total_rows):
            cycles = plan.span_cycles(0, min(step, plan.total_rows), primed=False)
            lo = min(step, plan.total_rows)
            while lo < plan.total_rows:
                hi = min(lo + step, plan.total_rows)
                cycles += plan.span_cycles(lo, hi, primed=True)
                lo = hi
            assert cycles == plan.total_cycles

    @pytest.mark.parametrize("primed", [False, True])
    def test_batch_matches_scalar_spans(self, primed):
        plan = self._plan(block_sizes=(1, 2, 4, 4, 3), spec=_spec(seq_len=32))
        rng = np.random.default_rng(0)
        cuts = np.sort(rng.choice(np.arange(1, plan.total_rows), size=6, replace=False))
        boundaries = np.concatenate(([0], cuts, [plan.total_rows]))
        batch = plan.span_cycles_batch(boundaries, primed)
        # First span inherits the burst's priming; later spans are primed.
        scalar = [plan.span_cycles(int(boundaries[0]), int(boundaries[1]), primed)] + [
            plan.span_cycles(int(lo), int(hi), True)
            for lo, hi in zip(boundaries[1:-1], boundaries[2:])
        ]
        assert np.array_equal(batch, np.asarray(scalar, dtype=np.int64))

    def test_out_of_range_span_raises(self):
        plan = self._plan()
        with pytest.raises(ValueError, match="out of range"):
            plan.span_cycles(0, plan.total_rows + 1, primed=True)


class TestKVResidency:
    def test_admit_touch_release_counters(self):
        residency = KVResidency()
        residency.admit(1, 1024)
        residency.admit(2, 2048)
        assert residency.misses == 2
        assert residency.resident_bytes == 3072
        assert residency.peak_bytes == 3072
        residency.touch(1, steps=3)
        residency.release(1)
        assert residency.hits == 3
        assert residency.resident_bytes == 2048
        assert residency.peak_bytes == 3072
        assert residency.hit_rate == pytest.approx(3 / 5)

    def test_double_admit_rejected(self):
        residency = KVResidency()
        residency.admit(1, 64)
        with pytest.raises(ValueError, match="already resident"):
            residency.admit(1, 64)

    def test_touch_and_release_require_residency(self):
        residency = KVResidency()
        with pytest.raises(ValueError, match="not resident"):
            residency.touch(9, steps=1)
        with pytest.raises(ValueError, match="not resident"):
            residency.release(9)


class TestDecodeTokenIntervals:
    def test_hand_check(self):
        ttft, gaps = decode_token_intervals((3.0, 5.0), (2, 2), arrival_time=1.0)
        assert ttft == 2.0
        # Tokens finalize at 3, 3, 5, 5: gaps after the first are 0, 2, 0.
        assert gaps == [0.0, 2.0, 0.0]

    def test_single_token(self):
        ttft, gaps = decode_token_intervals((4.0,), (1,), arrival_time=1.5)
        assert ttft == 2.5
        assert gaps == []

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            decode_token_intervals((1.0,), (1, 1), arrival_time=0.0)


def _mixed_trace(config, functional, count=12, seed=7):
    """A seeded mixed attention/prefill/decode arrival trace."""
    arrivals = poisson_arrivals(count, rate=30000.0, seed=seed)
    seq_lens = [32, 48, 64, 48] * (count // 4 + 1)
    requests = make_requests(
        seq_lens[:count], 16, seed=seed, functional=functional, arrival_times=arrivals
    )
    spec = _spec(seq_len=32)
    for index in range(0, count, 3):
        requests[index] = make_decode_request(
            spec,
            new_tokens=8,
            block_size=4 if index % 2 else 1,
            adaptive=bool(index % 2),
            arrival_time=arrivals[index],
        )
    for index in range(1, count, 4):
        requests[index] = make_forward_request(spec, functional=False, arrival_time=arrivals[index])
    return requests


def _run(requests, backend, scheduler, policy="sjf", bus=None):
    return serve_continuous(
        requests,
        config=_config(),
        backend=backend,
        num_shards=2,
        max_batch_size=4,
        iteration_rows=96,
        policy=policy,
        scheduler=scheduler,
        plan_cache=PlanCache(bus=bus),
        bus=bus,
    )


class TestMixedTraceSchedulerEquivalence:
    """The tentpole invariant: decode rides the same clock, bit-exactly."""

    @pytest.mark.parametrize("backend", CONTINUOUS_BACKENDS)
    def test_stats_bit_identical(self, backend):
        functional = backend == "simulator"
        requests = _mixed_trace(_config(), functional)
        event = _run(requests, backend, "event").stats
        reference = _run(requests, backend, "reference").stats
        for spec in fields(event):
            if spec.name == "wall_seconds":
                continue
            assert getattr(event, spec.name) == getattr(reference, spec.name), spec.name

    def test_telemetry_bit_identical(self):
        requests = _mixed_trace(_config(), functional=False)
        streams = {}
        for scheduler in ("event", "reference"):
            bus = EventBus()
            streams[scheduler] = []
            bus.subscribe(streams[scheduler].append)
            _run(requests, "analytical", scheduler, bus=bus)
        assert_streams_equivalent(streams["event"], streams["reference"])

    def test_decode_stats_populated(self):
        requests = _mixed_trace(_config(), functional=False)
        stats = _run(requests, "analytical", "event").stats
        num_decodes = sum(1 for r in requests if hasattr(r, "new_tokens"))
        assert stats.num_decode_requests == num_decodes
        assert stats.decode_tokens == 8 * num_decodes
        assert stats.tokens_per_second > 0
        assert stats.ttft_p95_seconds >= stats.ttft_p50_seconds > 0
        # One miss per decode admission; one hit per post-first block.
        assert stats.kv_misses == num_decodes
        blocks = sum(len(r.block_schedule) for r in requests if hasattr(r, "new_tokens"))
        assert stats.kv_hits == blocks - num_decodes
        assert stats.kv_hit_rate == pytest.approx(stats.kv_hits / blocks)
        rendered = stats.render()
        assert "tokens/sec" in rendered and "TTFT" in rendered


REQUEST_KINDS = ("attention", "forward", "decode", "adaptive")

#: Request kinds in arrival order, arrival seed and rate, shards, quantum.
carry_over_strategy = st.tuples(
    st.lists(st.sampled_from(REQUEST_KINDS), min_size=1, max_size=8),
    st.integers(0, 2**16),
    st.sampled_from([3e4, 3e5, 3e6]),
    st.integers(1, 3),
    st.sampled_from([1, 7, 32]),
)


def _kind_trace(kinds, seed, rate, functional=False):
    """One request per kind entry, on a seeded Poisson arrival trace.

    ``functional`` gives the attentions Q/K/V and the forwards embeddings
    (decodes are analytical either way).
    """
    arrivals = poisson_arrivals(len(kinds), rate=rate, seed=seed)
    spec = _spec(seq_len=16)
    requests = []
    for index, (kind, arrival) in enumerate(zip(kinds, arrivals)):
        if kind == "attention":
            requests.append(
                make_requests(
                    [24], 16, seed=seed + index, functional=functional, arrival_times=[arrival]
                )[0]
            )
        elif kind == "forward":
            requests.append(
                make_forward_request(
                    spec, seed=seed + index, functional=functional, arrival_time=arrival
                )
            )
        else:
            requests.append(
                make_decode_request(
                    spec,
                    new_tokens=6,
                    block_size=4,
                    adaptive=kind == "adaptive",
                    arrival_time=arrival,
                )
            )
    return requests


class _PricingSpy:
    """A backend's ``step_burst``, counting its calls."""

    def __init__(self, price):
        self.price = price
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.price(*args, **kwargs)


def _serve_spied(requests, scheduler, num_shards, quantum):
    """Serve on the bus, keeping burst records, with every ``step_burst`` call counted.

    Returns ``(result, events, pricing calls)``.
    """
    cache = PlanCache()
    backends = []
    for _ in range(num_shards):
        backend = create_backend("analytical", config=_config(), plan_cache=cache)
        backend.step_burst = _PricingSpy(backend.step_burst)
        backends.append(backend)
    bus = EventBus()
    events = []
    bus.subscribe(events.append)
    result = serve_continuous(
        requests,
        config=_config(),
        backend="analytical",
        num_shards=num_shards,
        max_batch_size=4,
        iteration_rows=quantum,
        scheduler=scheduler,
        backends=backends,
        bus=bus,
        record_iterations=True,
    )
    return result, events, sum(backend.step_burst.calls for backend in backends)


def _assert_schedulers_agree(requests, num_shards, quantum):
    """Event and reference serves agree bit for bit, records and telemetry in canonical form.

    The event serve keeps one burst record and emits one ``burst_advanced``
    per pricing call.  Returns the event serve's result and its pricing
    calls.
    """
    event, event_log, calls = _serve_spied(requests, "event", num_shards, quantum)
    reference, reference_log, _ = _serve_spied(requests, "reference", num_shards, quantum)
    assert sum(item.kind == BURST for item in event_log) == calls
    assert len(event.bursts) == calls
    assert sum(record.iterations for record in event.bursts) == event.stats.num_iterations
    for spec in fields(ServingStats):
        if spec.name == "wall_seconds":
            continue
        event_value = getattr(event.stats, spec.name)
        assert event_value == getattr(reference.stats, spec.name), spec.name
    assert_records_equivalent(event.bursts, reference.bursts)
    assert_streams_equivalent(event_log, reference_log)
    return event, calls


class TestBurstCarryOver:
    """A cut burst is resumed, not repriced, with every bit unchanged."""

    @settings(deadline=None, max_examples=40)
    @given(trace=carry_over_strategy)
    def test_resumed_bursts_match_reference(self, trace):
        kinds, seed, rate, num_shards, quantum = trace
        requests = _kind_trace(kinds, seed, rate)
        result, calls = _assert_schedulers_agree(requests, num_shards, quantum)
        # A resident set is priced only after it changed: each pricing call
        # follows an admission or a retirement on its shard.
        changes = sum(len(record.admitted) + len(record.retired) for record in result.bursts)
        assert calls <= changes

    def test_two_shard_trace_prices_fewer_times_than_it_activates(self, monkeypatch):
        requests = _kind_trace(REQUEST_KINDS * 2, seed=0, rate=3e5)
        _assert_schedulers_agree(requests, num_shards=2, quantum=7)
        activations = [0]
        seat = ContinuousBatcher.seat

        def counted_seat(self, *args, **kwargs):
            # The event loop calls seat once per shard activation.
            activations[0] += 1
            return seat(self, *args, **kwargs)

        monkeypatch.setattr(ContinuousBatcher, "seat", counted_seat)
        result, events, calls = _serve_spied(requests, "event", num_shards=2, quantum=7)
        assert calls < activations[0]
        # A resumed segment is no event of its own: one burst_advanced per
        # pricing call, together covering every iteration.
        bursts = [event for event in events if event.kind == BURST]
        assert len(bursts) == calls
        assert sum(burst.iterations for burst in bursts) == result.stats.num_iterations

    def test_closed_two_shard_batch_activates_at_most_twice_per_pricing_call(self, monkeypatch):
        # With nothing left to arrive, only the other shard's activation can
        # stop a burst, and only ahead of its retiring iteration: each priced
        # burst is consumed in at most two activations.  A burst stopped at
        # every activation of the other shard needs 33 activations for these
        # 8 pricing calls.
        spec = ModelSpec.uniform(2, 64, window_tokens=8, num_heads=2, head_dim=16)
        requests = [make_decode_request(spec, new_tokens=6 + 3 * index) for index in range(8)]
        _assert_schedulers_agree(requests, num_shards=2, quantum=4)
        activations = [0]
        seat = ContinuousBatcher.seat

        def counted_seat(self, *args, **kwargs):
            activations[0] += 1
            return seat(self, *args, **kwargs)

        monkeypatch.setattr(ContinuousBatcher, "seat", counted_seat)
        _, _, calls = _serve_spied(requests, "event", num_shards=2, quantum=4)
        assert activations[0] <= 2 * calls


class TestFastPath:
    """The default branch, which perfbench's quiet serves take: no bus and no burst records.

    Every other equivalence test serves with a bus or with records, which
    makes the event scheduler keep each shard's open burst and report it;
    this one pins the loop that keeps none against the reference loop on
    every stat and every completion field, outputs included.
    """

    @settings(deadline=None, max_examples=40)
    @given(
        trace=carry_over_strategy,
        max_batch_size=st.integers(1, 4),
        policy=st.sampled_from(["fcfs", "sjf"]),
        admission=st.sampled_from(["continuous", "drain"]),
        backend=st.sampled_from(["analytical", "gpu-dense", "dense-fpga", "simulator"]),
    )
    def test_fast_path_matches_reference(self, trace, max_batch_size, policy, admission, backend):
        kinds, seed, rate, num_shards, quantum = trace
        requests = _kind_trace(kinds, seed, rate, functional=backend == "simulator")
        results = {
            scheduler: serve_continuous(
                requests,
                config=_config(),
                backend=backend,
                num_shards=num_shards,
                max_batch_size=max_batch_size,
                iteration_rows=quantum,
                admission=admission,
                policy=policy,
                scheduler=scheduler,
                record_iterations=scheduler == "reference",
            )
            for scheduler in ("event", "reference")
        }
        event, reference = results["event"], results["reference"]
        assert event.bursts == ()
        for spec in fields(ServingStats):
            if spec.name != "wall_seconds":
                assert getattr(event.stats, spec.name) == getattr(
                    reference.stats, spec.name
                ), spec.name
        assert len(event.completed) == len(requests)
        assert_same_completions(event.completed, reference.completed)
        if backend == "simulator" and "attention" in kinds:
            assert any(done.output is not None for done in event.completed)


def test_duplicate_decode_ids_rejected_up_front():
    # Two decodes sharing an id used to die inside KVResidency.admit.
    first = make_decode_request(_spec(), new_tokens=4)
    twin = DecodeRequest(spec=_spec(), new_tokens=2, request_id=first.request_id)
    with pytest.raises(ValueError, match=f"request_id {first.request_id} appears more"):
        serve_continuous([first, twin], config=_config(), backend="analytical")


class TestDecodeReplay:
    def test_verify_log_round_trips_decode_fields(self, tmp_path):
        from repro.telemetry.log import EventLogReader, EventLogWriter
        from repro.telemetry.replay import replay_stats, verify_log

        path = tmp_path / "decode.jsonl"
        bus = EventBus()
        writer = EventLogWriter(path)
        bus.subscribe(writer)
        requests = _mixed_trace(_config(), functional=False)
        live = _run(requests, "analytical", "event", bus=bus).stats
        writer.close()
        assert verify_log(path) == []
        replayed = replay_stats(EventLogReader(path))
        for spec in fields(live):
            if spec.name == "wall_seconds":
                continue
            assert getattr(replayed, spec.name) == getattr(live, spec.name), spec.name


class TestAdmissionWorkRanking:
    """SJF ranks by total backend work, pinned by a seeded prefill A/B."""

    @pytest.mark.parametrize("backend", CONTINUOUS_BACKENDS)
    def test_forward_work_counts_every_layer(self, backend):
        """A forward's admission rank reflects L layers of rows, not one."""
        instance = create_backend(backend, config=_config(), plan_cache=PlanCache())
        spec = _spec(seq_len=32, num_layers=4, num_heads=1)
        forward = make_forward_request(spec, functional=False)
        attention = make_requests([32], 16, functional=False)[0]
        ratio = instance.program(forward).total_rows / instance.program(attention).total_rows
        assert ratio >= spec.num_layers

    def test_sjf_prefers_short_over_long_prefill(self):
        """With one slot, SJF admits the short queued prefill first."""
        arrivals = [0.0, 1e-9, 2e-9]
        long_spec = _spec(seq_len=64, num_layers=4)
        short = make_requests([32], 16, functional=False, arrival_times=[arrivals[2]])[0]
        blocker = make_requests([32], 16, functional=False, arrival_times=[arrivals[0]])[0]
        long_forward = make_forward_request(long_spec, functional=False, arrival_time=arrivals[1])
        requests = [blocker, long_forward, short]

        def finish_order(policy):
            result = serve_continuous(
                requests,
                config=_config(),
                backend="analytical",
                num_shards=1,
                max_batch_size=1,
                iteration_rows=32,
                policy=policy,
                scheduler="event",
            )
            ranked = sorted(result.completed, key=lambda completed: completed.finish_time)
            return [completed.request.request_id for completed in ranked]

        fcfs = finish_order("fcfs")
        sjf = finish_order("sjf")
        # FCFS serves in arrival order; SJF hoists the short attention over
        # the 4-layer forward that arrived just before it.
        assert fcfs == [requests[0].request_id, requests[1].request_id, requests[2].request_id]
        assert sjf == [requests[0].request_id, requests[2].request_id, requests[1].request_id]


def _eager_completions(batcher, outputs):
    """Every completion of a serve at once, built from its batcher's columns.

    The reference eager build: one pass, ticks to seconds a column at a
    time by the vectorized ``TimeBase`` product.
    """
    seconds = batcher.time_base.seconds

    def instants(ticks):
        return memoryview(seconds(np.frombuffer(ticks, dtype=np.int64)))

    return list(
        map(
            CompletedRequest,
            batcher.requests,
            outputs if outputs is not None else repeat(None),
            batcher.shard_of,
            batcher.batch_ids,
            batcher.batch_sizes,
            instants(batcher.device_ticks),
            map(attrgetter("arrival_time"), batcher.requests),
            instants(batcher.admit_ticks),
            instants(batcher.finish_ticks),
        )
    )


class TestCompletionsOnRead:
    """Every completion read through the result equals the eager build.

    ``ServingResult.completed`` builds each record when it is read.  By
    iteration, index, negative index or slice, every field must equal the
    eager oracle's in value, bit pattern and type, on mixed traces under
    either scheduler and every queue and admission policy.
    """

    @settings(deadline=None, max_examples=40)
    @given(
        trace=carry_over_strategy,
        max_batch_size=st.integers(1, 4),
        policy=st.sampled_from(["fcfs", "sjf"]),
        admission=st.sampled_from(["continuous", "drain"]),
        backend=st.sampled_from(["analytical", "simulator"]),
        scheduler=st.sampled_from(["event", "reference"]),
    )
    def test_every_field_equals_an_eager_build(
        self, trace, max_batch_size, policy, admission, backend, scheduler
    ):
        kinds, seed, rate, num_shards, quantum = trace
        requests = _kind_trace(kinds, seed, rate, functional=backend == "simulator")
        batchers = []
        submit = ContinuousBatcher.submit

        def captured(self, trace_requests):
            batchers.append(self)
            submit(self, trace_requests)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ContinuousBatcher, "submit", captured)
            result = serve_continuous(
                requests,
                config=_config(),
                backend=backend,
                num_shards=num_shards,
                max_batch_size=max_batch_size,
                iteration_rows=quantum,
                admission=admission,
                policy=policy,
                scheduler=scheduler,
            )
        (batcher,) = batchers
        completed = result.completed
        oracle = _eager_completions(batcher, completed.outputs)
        count = len(oracle)
        assert_same_completions(completed, oracle)
        assert_same_completions([completed[index - count] for index in range(count)], oracle)
        assert_same_completions(completed[1::2], oracle[1::2])
        for done in completed:
            assert done.arrival_time is done.request.arrival_time
        for name in ("queue_seconds", "latency_seconds"):
            samples = getattr(result, name)
            expected = np.array([getattr(done, name) for done in oracle], dtype=np.float64)
            assert samples.dtype == np.float64
            assert samples.tobytes() == expected.tobytes()
