"""Benchmark: telemetry instrumentation must be free when nobody listens.

The hot paths (the scheduler loop and the plan-cache lookup) are instrumented
behind ``if bus.active`` guards, so a run with zero event subscribers pays one
branch per would-be event and never constructs the event object.  This suite
holds that property structurally: every event class the engine and the plan
cache construct is swapped for a counting subclass, and an
instrumented-but-unsubscribed serve must construct none of them while
producing the uninstrumented run's modelled numbers.  The interleaved
best-of wall-time ratio of the two runs is recorded as a headline number, not
gated: wall clocks on shared runners are too noisy to gate on.

``TELEMETRY_OVERHEAD_REQUESTS`` caps the trace length (CI smoke mode).  The
measured ratio lands in ``BENCH_serving.json`` next to the throughput
numbers.
"""

import os
import time
from collections import Counter

import repro.serving.cache as serving_cache
import repro.serving.continuous as serving_continuous
from repro.core.config import SWATConfig
from repro.serving.cache import PlanCache
from repro.serving.continuous import poisson_arrivals, serve_continuous, swat_request_rate
from repro.serving.request import make_requests
from repro.telemetry import EventBus
from repro.telemetry.artifacts import record_bench
from repro.telemetry.events import Event


def _trace(config, count):
    seq_lens = [256, 256, 512, 1024] * (count // 4)
    rate = 5.0 * swat_request_rate(config, seq_lens, num_shards=2, max_batch_size=8)
    return make_requests(
        seq_lens,
        config.head_dim,
        functional=False,
        arrival_times=poisson_arrivals(len(seq_lens), rate, seed=0),
    )


def _count_event_constructions(monkeypatch) -> Counter:
    """Swap every event class the engine and plan cache emit for a counting subclass.

    Returns the live ``kind -> constructions`` counter.
    """
    constructed: Counter = Counter()
    for module in (serving_continuous, serving_cache):
        for name, cls in list(vars(module).items()):
            if isinstance(cls, type) and issubclass(cls, Event) and cls is not Event:

                def __init__(self, *args, _base=cls, **kwargs):
                    constructed[_base.kind] += 1
                    _base.__init__(self, *args, **kwargs)

                monkeypatch.setattr(module, name, type(name, (cls,), {"__init__": __init__}))
    return constructed


def test_zero_subscriber_instrumentation_is_free(benchmark, monkeypatch):
    """Instrumented serving with no sinks constructs no event object."""
    config = SWATConfig.longformer(window_tokens=128)
    count = max(16, int(os.environ.get("TELEMETRY_OVERHEAD_REQUESTS", "256")) // 4 * 4)
    requests = _trace(config, count)
    idle_bus = EventBus()  # active stays False: every emit site is one branch

    def serve(bus):
        return serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=8,
            iteration_rows=128,
            plan_cache=PlanCache(bus=bus) if bus is not None else PlanCache(),
            bus=bus,
        )

    constructed = _count_event_constructions(monkeypatch)
    baseline_result = serve(None)
    instrumented_result = serve(idle_bus)
    # Acceptance property: no subscribers -> not one event object built.
    assert constructed == Counter()

    def modelled(stats):
        record = stats.to_dict()
        # Wall-clock fields jitter run to run; everything modelled must match.
        return {key: value for key, value in record.items() if "wall" not in key}

    assert modelled(instrumented_result.stats) == modelled(baseline_result.stats)

    # The counting classes are the ones the emit sites build: a subscribed
    # bus constructs them.
    listening = EventBus()
    listening.subscribe(lambda event: None)
    serve(listening)
    assert constructed["burst_advanced"] > 0 and constructed["run_finished"] == 1

    # Interleave the timed rounds so drift (CPU frequency, page cache) hits
    # both variants equally; the ratio is recorded, not asserted.
    rounds = 5
    baseline_best = instrumented_best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        serve(None)
        baseline_best = min(baseline_best, time.perf_counter() - start)
        start = time.perf_counter()
        serve(idle_bus)
        instrumented_best = min(instrumented_best, time.perf_counter() - start)

    benchmark(serve, idle_bus)
    ratio = instrumented_best / baseline_best
    print(
        f"\nzero-subscriber telemetry: instrumented {instrumented_best * 1e3:.1f} ms "
        f"vs baseline {baseline_best * 1e3:.1f} ms ({ratio:.4f}x, {count} requests)"
    )
    record_bench(
        "BENCH_serving.json",
        "telemetry_zero_subscriber_overhead",
        {
            "requests": count,
            "baseline_ms": round(baseline_best * 1e3, 3),
            "instrumented_ms": round(instrumented_best * 1e3, 3),
            "ratio": round(ratio, 4),
        },
    )


def test_subscribed_bus_actually_collects(benchmark):
    """Sanity counterpart: with a sink subscribed the same run emits events."""
    config = SWATConfig.longformer(window_tokens=128)
    requests = _trace(config, 32)
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    result = benchmark.pedantic(
        lambda: serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=8,
            iteration_rows=128,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        ),
        iterations=1,
        rounds=1,
    )
    assert len(result.completed) == 32
    kinds = {type(event).kind for event in events}
    assert {"run_started", "request_retired", "burst_advanced", "run_finished"} <= kinds
