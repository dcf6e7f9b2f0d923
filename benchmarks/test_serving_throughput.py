"""Benchmark: serving-level throughput — batching, sharding and plan caching.

Unlike the per-attention benchmarks, these track *request-level* speedups: the
modelled requests/sec of a batched multi-shard pool versus sequential
single-shard serving, of continuous over drain admission on one simulated
clock, the host cost of the event scheduler against the reference loop, and
the wall-time saved by the plan cache on repeated same-shape requests.

``SERVING_CONTINUOUS_REQUESTS`` overrides the request count of the
continuous-vs-drain scenario, ``SERVING_QUANTUM_SWEEP`` that of the
iteration-quantum sweep and ``SERVING_DIURNAL_REQUESTS`` that of the
event-scheduler diurnal replay; CI sets smaller counts so the speedup floors
still gate every PR without paying the full measurement (smoke mode).

The headline numbers land in ``BENCH_serving.json``
(:func:`repro.telemetry.artifacts.record_bench`), which CI uploads as a
per-run perf artifact.
"""

import os
import time

import numpy as np

from repro.core.config import SWATConfig
from repro.core.scheduler import RowMajorScheduler
from repro.core.simulator import SWATSimulator
from repro.serving.cache import PlanCache
from repro.serving.continuous import (
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.engine import ServingEngine
from repro.serving.request import AttentionRequest, make_requests
from repro.telemetry.artifacts import record_bench
from repro.workload.generator import attention_inputs

#: Modelled requests/sec floor for continuous over drain admission on the
#: seeded mixed-length high-load trace (acceptance criterion; conservative —
#: the measured ratio is ~1.9x at the smoke count and ~2.4x at the full one).
CONTINUOUS_SPEEDUP_FLOOR = 1.5
#: Iteration-advancement rate floor (iterations priced per wall second) for
#: the event-driven scheduler over the quantum-stepped reference loop on the
#: seeded diurnal trace (the vectorization acceptance criterion).
EVENT_DRIVEN_SPEEDUP_FLOOR = 10.0
#: Cap on the reference-loop leg of the event-vs-reference comparison: the
#: whole point of the event scheduler is that the reference cannot chew
#: through the full 100k-request trace in reasonable time, so its
#: per-iteration rate is measured on this prefix of the same trace.
DIURNAL_REFERENCE_PREFIX = 2_000


def _mixed_requests(count=32):
    seq_lens = [256, 512, 512, 1024]
    return [AttentionRequest(seq_len=seq_lens[i % len(seq_lens)]) for i in range(count)]


def _best_of(fn, rounds=3):
    """Minimum wall time over ``rounds`` runs (filters CI scheduler stalls)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_continuous_batching_beats_drain_on_mixed_length_trace(benchmark):
    """The continuous-batching acceptance number: admission policy, same clock.

    A seeded Poisson trace of mixed-length requests at 5x the pool's
    saturation rate is served under both admission policies on the *same*
    iteration-priced simulated clock (``compare_modes``), so the ratio
    isolates what mid-flight admission/retirement buys: drain holds every
    slot until the batch's slowest request retires (head-of-line blocking
    empties the slots), continuous refills them the next iteration.  A
    seeded bursty (flash-crowd) trace is checked alongside.  Everything is
    deterministic simulated time — no wall-clock in the modelled numbers.
    """
    config = SWATConfig.longformer(window_tokens=128)
    count = max(16, int(os.environ.get("SERVING_CONTINUOUS_REQUESTS", "256")) // 4 * 4)
    seq_lens = [256, 256, 512, 2048] * (count // 4)
    num_shards, max_batch_size = 2, 8
    rate = 5.0 * swat_request_rate(
        config, seq_lens, num_shards=num_shards, max_batch_size=max_batch_size
    )
    requests = make_requests(
        seq_lens,
        config.head_dim,
        functional=False,
        arrival_times=poisson_arrivals(count, rate, seed=0),
    )

    comparison = benchmark(
        compare_modes,
        requests,
        config=config,
        backend="analytical",
        num_shards=num_shards,
        max_batch_size=max_batch_size,
        iteration_rows=128,
    )
    continuous, drain = comparison.continuous.stats, comparison.drain.stats
    print(
        f"\npoisson x5 load: continuous {continuous.requests_per_second:.0f} req/s "
        f"(occupancy {continuous.mean_occupancy:.0%}) vs drain "
        f"{drain.requests_per_second:.0f} req/s (occupancy {drain.mean_occupancy:.0%}) "
        f"= {comparison.speedup:.2f}x; latency p95 "
        f"{continuous.latency_p95_seconds * 1e3:.2f} ms vs "
        f"{drain.latency_p95_seconds * 1e3:.2f} ms"
    )

    bursty_requests = make_requests(
        seq_lens,
        config.head_dim,
        functional=False,
        arrival_times=bursty_arrivals(count, burst_size=16, burst_gap=0.0005, seed=0, jitter=1e-5),
    )
    bursty = compare_modes(
        bursty_requests,
        config=config,
        backend="analytical",
        num_shards=num_shards,
        max_batch_size=max_batch_size,
        iteration_rows=128,
    )
    print(f"bursty flash-crowd: {bursty.speedup:.2f}x continuous over drain")

    record_bench(
        "BENCH_serving.json",
        "continuous_over_drain",
        {
            "requests": count,
            "poisson_speedup": round(comparison.speedup, 3),
            "bursty_speedup": round(bursty.speedup, 3),
            "continuous_req_per_s": round(continuous.requests_per_second, 1),
            "drain_req_per_s": round(drain.requests_per_second, 1),
            "continuous_occupancy": round(continuous.mean_occupancy, 4),
            "latency_p95_ms": round(continuous.latency_p95_seconds * 1e3, 3),
        },
    )
    # Acceptance property: >= 1.5x modelled req/s at high mixed-length load,
    # on both arrival patterns, and the gain is slot occupancy, not clock
    # trickery (same step model priced both runs).
    assert comparison.speedup >= CONTINUOUS_SPEEDUP_FLOOR
    assert bursty.speedup >= CONTINUOUS_SPEEDUP_FLOOR
    assert continuous.mean_occupancy > drain.mean_occupancy


def test_iteration_rows_quantum_sweep(benchmark):
    """ROADMAP follow-up: sweep the continuous engine's iteration quantum.

    ``iteration_rows`` trades scheduling granularity (small quanta refill
    freed slots sooner) against per-iteration bookkeeping (every iteration
    is one ``step`` pricing plus one admission pass).  The sweep serves one
    seeded overloaded mixed-length trace at each quantum on the same
    simulated clock and reports modelled requests/sec per quantum —
    everything deterministic, so the table is reproducible bit for bit.
    ``SERVING_QUANTUM_SWEEP`` caps the trace length in CI (smoke mode).
    """
    config = SWATConfig.longformer(window_tokens=128)
    count = max(16, int(os.environ.get("SERVING_QUANTUM_SWEEP", "256")) // 4 * 4)
    seq_lens = [256, 256, 512, 2048] * (count // 4)
    num_shards, max_batch_size = 2, 8
    rate = 5.0 * swat_request_rate(
        config, seq_lens, num_shards=num_shards, max_batch_size=max_batch_size
    )
    requests = make_requests(
        seq_lens,
        config.head_dim,
        functional=False,
        arrival_times=poisson_arrivals(count, rate, seed=0),
    )

    quanta = (32, 64, 128, 256, 512)

    def serve_at(quantum):
        return serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=quantum,
            plan_cache=PlanCache(),
        )

    results = {quantum: serve_at(quantum) for quantum in quanta}
    benchmark(serve_at, 128)

    print(f"\niteration-rows quantum sweep ({count} requests, Poisson x5 load):")
    for quantum, result in results.items():
        stats = result.stats
        print(
            f"  quantum {quantum:>4}: {stats.requests_per_second:8.0f} req/s, "
            f"{stats.num_iterations:5d} iterations, "
            f"occupancy {stats.mean_occupancy:.0%}, "
            f"latency p95 {stats.latency_p95_seconds * 1e3:.2f} ms"
        )

    for quantum, result in results.items():
        # Every quantum serves the full trace with positive modelled
        # throughput; coarser quanta never do more iterations than finer.
        assert len(result.completed) == count, quantum
        assert result.stats.requests_per_second > 0, quantum
    iteration_counts = [results[quantum].stats.num_iterations for quantum in quanta]
    assert iteration_counts == sorted(iteration_counts, reverse=True)


def test_event_scheduler_replays_100k_diurnal_trace_in_seconds(benchmark):
    """The event-scheduler acceptance number: a day of traffic in seconds.

    A seeded day/night (diurnal) trace — 100k long-context requests by
    default, ten full rate cycles, fully modulated so the trough goes silent
    — saturates a single SWAT device at a fine 32-row scheduling quantum,
    the regime where the old loop's per-iteration bookkeeping dominated
    (ROADMAP item 3).  The event-driven scheduler skips the clock across
    quiet stretches and prices each fixed-resident burst in one vectorized
    call; the quantum-stepped reference loop prices the *same* trace one
    Python ``step`` per iteration, so its per-iteration wall rate is
    measured on a prefix (``DIURNAL_REFERENCE_PREFIX``) and the ratio of
    iterations-priced-per-second is the vectorization speedup.  Both legs
    are bit-identical in every modelled number (asserted here on the prefix,
    property-tested in ``tests/serving/test_continuous.py``), so the ratio
    is pure host-side scheduling cost — no accounting shortcut.
    """
    config = SWATConfig.longformer(window_tokens=128)
    count = max(16, int(os.environ.get("SERVING_DIURNAL_REQUESTS", "100000")) // 4 * 4)
    seq_lens = [8192, 8192, 16384, 16384] * (count // 4)
    num_shards, max_batch_size, iteration_rows = 1, 4, 32
    mean_rate = 0.9 * swat_request_rate(
        config, seq_lens, num_shards=num_shards, max_batch_size=max_batch_size
    )
    period = count / mean_rate / 10.0
    requests = make_requests(
        seq_lens,
        config.head_dim,
        functional=False,
        arrival_times=diurnal_arrivals(count, mean_rate, period, amplitude=0.95, seed=0),
    )

    def serve_with(scheduler, subset, rounds):
        best = None
        for _ in range(rounds):
            result = serve_continuous(
                subset,
                config=config,
                backend="analytical",
                num_shards=num_shards,
                max_batch_size=max_batch_size,
                iteration_rows=iteration_rows,
                scheduler=scheduler,
                record_iterations=False,
                plan_cache=PlanCache(),
            )
            if best is None or result.stats.wall_seconds < best.stats.wall_seconds:
                best = result
        return best

    # One full-trace round when the trace is big (it is the measurement);
    # best-of-3 at smoke counts where wall noise would otherwise dominate.
    full_rounds = 1 if count > 2 * DIURNAL_REFERENCE_PREFIX else 3
    event = benchmark.pedantic(
        serve_with, args=("event", requests, full_rounds), rounds=1, iterations=1
    )
    prefix = requests[:DIURNAL_REFERENCE_PREFIX]
    reference = serve_with("reference", prefix, rounds=2)
    event_prefix = serve_with("event", prefix, rounds=1)

    # The prefix leg doubles as the bit-identity gate: same trace, same
    # modelled numbers, to the last bit, scheduler-independent.
    from dataclasses import fields as stats_fields

    for spec in stats_fields(type(reference.stats)):
        if spec.name == "wall_seconds":
            continue
        assert getattr(event_prefix.stats, spec.name) == getattr(
            reference.stats, spec.name
        ), spec.name

    event_rate = event.stats.num_iterations / event.stats.wall_seconds
    reference_rate = reference.stats.num_iterations / reference.stats.wall_seconds
    speedup = event_rate / reference_rate
    print(
        f"\ndiurnal trace, {count} requests over 10 rate cycles: event scheduler "
        f"priced {event.stats.num_iterations} iterations in "
        f"{event.stats.wall_seconds:.2f} s wall "
        f"({event_rate:,.0f} iterations/s) vs reference "
        f"{reference_rate:,.0f} iterations/s on the "
        f"{len(prefix)}-request prefix = {speedup:.1f}x"
    )
    record_bench(
        "BENCH_serving.json",
        "event_scheduler_diurnal",
        {
            "requests": count,
            "iterations": event.stats.num_iterations,
            "event_wall_seconds": round(event.stats.wall_seconds, 3),
            "event_iterations_per_s": round(event_rate, 1),
            "reference_iterations_per_s": round(reference_rate, 1),
            "speedup": round(speedup, 2),
        },
    )
    assert len(event.completed) == count
    # Acceptance property: the event scheduler advances priced iterations
    # >= 10x faster than the quantum-stepped loop it replaced.
    assert speedup >= EVENT_DRIVEN_SPEEDUP_FLOOR


def test_drain_mode_stays_bit_identical_under_continuous_refactor():
    """Admission policy never changes a served output.

    A default-mode (drain admission) ``ServingEngine`` and a continuous
    ``serve_continuous`` run of the same requests must return the same
    outputs bit for bit.
    """
    config = SWATConfig(head_dim=64, window_tokens=8)
    requests = make_requests([16, 48, 16, 32, 48, 16, 32, 16], config.head_dim, seed=0)
    drain = ServingEngine(
        config=config, backend="simulator", num_shards=1, max_batch_size=4
    ).serve(requests)

    continuous = serve_continuous(
        requests, config=config, backend="simulator", max_batch_size=4, iteration_rows=16
    )
    for drain_done, continuous_done in zip(drain.completed, continuous.completed):
        assert drain_done.request.request_id == continuous_done.request.request_id
        assert np.array_equal(drain_done.output, continuous_done.output)


def test_batched_multishard_beats_sequential_single_shard(benchmark):
    """The headline serving speedup: batching + 4-way sharding, drain admission."""
    config = SWATConfig.longformer(window_tokens=128)
    requests = _mixed_requests(32)
    pool = ServingEngine(config=config, backend="analytical", num_shards=4, max_batch_size=8)
    batched = benchmark(pool.serve, requests)
    sequential = ServingEngine(
        config=config, backend="analytical", num_shards=1, max_batch_size=1
    ).serve(requests)

    batched_rps = batched.stats.requests_per_second
    sequential_rps = sequential.stats.requests_per_second
    print(
        f"\nrequests/sec: batched 4-shard {batched_rps:.0f} vs sequential "
        f"{sequential_rps:.0f} ({batched_rps / sequential_rps:.2f}x), "
        f"slot occupancy {batched.stats.mean_occupancy:.0%}"
    )
    record_bench(
        "BENCH_serving.json",
        "multishard_over_sequential",
        {
            "batched_req_per_s": round(batched_rps, 1),
            "sequential_req_per_s": round(sequential_rps, 1),
            "speedup": round(batched_rps / sequential_rps, 3),
        },
    )
    # Acceptance property: strictly higher device throughput for the same set.
    assert batched_rps > sequential_rps
    assert batched.stats.mean_occupancy > 0.5


def test_functional_serving_wall_throughput(benchmark):
    """Wall-clock requests/sec of the functional (cycle-accurate) pool."""
    config = SWATConfig.longformer(window_tokens=64)
    requests = make_requests([256] * 8, config.head_dim, seed=0)
    engine = ServingEngine(config=config, backend="simulator", num_shards=2, max_batch_size=4)
    result = benchmark(engine.serve, requests)
    stats = result.stats
    print(
        f"\nfunctional pool: {stats.wall_requests_per_second:.1f} req/s wall, "
        f"{stats.requests_per_second:.0f} req/s device, "
        f"cache hit rate {stats.cache_hit_rate:.0%}"
    )
    assert all(done.output is not None for done in result.completed)
    assert stats.num_requests == 8


def test_plan_cache_speedup_on_repeated_shapes(benchmark):
    """Schedule reuse: repeated same-shape requests skip the per-shape build."""
    config = SWATConfig.bigbird(window_tokens=64, num_global_tokens=16, num_random_tokens=16)
    seq_len = 768
    repeats = 8

    def cold_run():
        for _ in range(repeats):
            RowMajorScheduler(config, seq_len).plans()

    def warm_run():
        cache = PlanCache()
        for _ in range(repeats):
            cache.lookup(config, seq_len)
        return cache

    cold_seconds = _best_of(cold_run, rounds=2)
    cache = benchmark(warm_run)
    warm_seconds = _best_of(warm_run, rounds=2)

    print(
        f"\nschedule path for {repeats} same-shape requests: "
        f"cold {cold_seconds * 1e3:.1f} ms vs cached {warm_seconds * 1e3:.1f} ms "
        f"({cold_seconds / warm_seconds:.1f}x)"
    )
    assert cache.hits == repeats - 1
    # Acceptance property: the cache makes repeated same-shape requests
    # measurably faster (one build + hits vs a build per request).
    assert warm_seconds < cold_seconds


def test_cached_simulation_end_to_end_speedup():
    """Whole-run effect: cached SWATSimulator.run beats uncached on repeats."""
    config = SWATConfig(head_dim=64, window_tokens=64, num_random_tokens=8)
    q, k, v = attention_inputs(512, 64, seed=0)
    repeats = 4

    cold_simulator = SWATSimulator(config)

    def cold_run():
        for _ in range(repeats):
            cold_simulator.run(q, k, v)

    warm_simulator = SWATSimulator(config, plan_cache=PlanCache())
    warm_simulator.run(q, k, v)  # prime the cache

    def warm_run():
        for _ in range(repeats):
            warm_simulator.run(q, k, v)

    cold_seconds = _best_of(cold_run, rounds=2)
    warm_seconds = _best_of(warm_run, rounds=2)

    print(
        f"\nend-to-end {repeats} repeated runs: cold {cold_seconds * 1e3:.0f} ms "
        f"vs cached {warm_seconds * 1e3:.0f} ms ({cold_seconds / warm_seconds:.2f}x)"
    )
    assert warm_seconds < cold_seconds
