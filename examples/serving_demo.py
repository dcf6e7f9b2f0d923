"""Serving demo: batch, shard and cache attention requests on SWAT.

Programmatic tour of :mod:`repro.serving`: build a mixed-shape request set,
serve it through a batched 4-shard pool of cycle-accurate simulators, verify
one served output against the dense reference, compare the pool's
requests/sec (and head-rows/sec) against sequential single-shard dispatch,
then replay a seeded arrival trace through the continuous-batching
scheduler to show what mid-flight admission buys over drain batching.

Run with ``python examples/serving_demo.py`` — or use the installed
``repro-serve`` console script for the configurable CLI variant
(``repro-serve --mode continuous --compare`` for the continuous half).
``--trace diurnal`` swaps the flat Poisson arrivals for a rate-modulated
day-night cycle (``bursty`` clusters them).  Pass ``--events trace.jsonl``
to stream the continuous comparison's telemetry to a JSONL event log —
both runs land in one file (continuous as ``run_id`` 0, drain as 1) — then
inspect it with ``repro-trace``.
"""

import argparse

import numpy as np

from repro.attention import dense_attention, swat_window_mask
from repro.core.config import SWATConfig
from repro.serving import (
    PlanCache,
    ServingEngine,
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    make_requests,
    poisson_arrivals,
    swat_request_rate,
)
from repro.telemetry import EventBus, EventLogWriter


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="stream the continuous comparison's telemetry (both runs) to a JSONL event log",
    )
    parser.add_argument(
        "--trace",
        default="poisson",
        choices=("poisson", "diurnal", "bursty"),
        help="seeded arrival process for the continuous comparison (default: poisson)",
    )
    args = parser.parse_args(argv)
    bus = writer = None
    if args.events:
        bus = EventBus()
        writer = EventLogWriter(args.events)
        bus.subscribe(writer)
    try:
        _run(bus, trace=args.trace)
    finally:
        if writer is not None:
            writer.close()
    if args.events:
        print(
            f"\nwrote {writer.events_written} telemetry events to {args.events}; "
            "inspect them with:\n"
            f"  repro-trace summarize {args.events}\n"
            f"  repro-trace replay {args.events} --run-id 0 --strict\n"
            f"  repro-trace watch {args.events} --once --plain"
        )


def _run(bus=None, trace="poisson") -> None:
    # A scaled-down SWAT instance served by a pool of four shards.
    config = SWATConfig.longformer(window_tokens=64)
    print(f"SWAT configuration: {config.describe()}")

    # A bursty arrival mix: repeated shapes (cache-friendly) across two sizes.
    seq_lens = [256, 256, 512, 256, 512, 256, 512, 512] * 2
    requests = make_requests(seq_lens, config.head_dim, seed=0)

    pool = ServingEngine(
        config=config,
        backend="simulator",
        num_shards=4,
        max_batch_size=4,
        plan_cache=PlanCache(),
    )
    result = pool.serve(requests)
    print()
    print(result.stats.render())

    # Served outputs are the real attention results: check one end to end.
    first = requests[0]
    reference = dense_attention(
        first.q, first.k, first.v, mask=swat_window_mask(first.seq_len, config.window_tokens)
    )
    max_error = float(np.max(np.abs(result.output_for(first) - reference)))
    print(f"\nmax |served - dense reference| = {max_error:.2e}")

    # The serving-level speedup: same request set, no batching, one shard.
    sequential = ServingEngine(
        config=config, backend="simulator", num_shards=1, max_batch_size=1
    ).serve(requests)
    speedup = result.stats.requests_per_second / sequential.stats.requests_per_second
    print(
        f"batched 4-shard pool: {result.stats.requests_per_second:.0f} req/s (device) "
        f"vs sequential {sequential.stats.requests_per_second:.0f} req/s "
        f"-> {speedup:.2f}x"
    )
    # Per-head accounting makes multi-head traffic comparable across backends.
    print(
        f"head-rows/sec (device): batched {result.stats.head_rows_per_second:.3g} "
        f"vs sequential {sequential.stats.head_rows_per_second:.3g}"
    )

    # Continuous batching: a seeded arrival trace of mixed lengths at 4x the
    # pool's saturation rate, served with mid-flight admission/retirement and
    # with drain admission on the same simulated clock.  Short requests no
    # longer wait for the batch's slowest member, so the slots stay full.
    trace_lens = [256, 256, 512, 1024] * 8
    rate = 4.0 * swat_request_rate(config, trace_lens, max_batch_size=8)
    if trace == "diurnal":
        arrivals = diurnal_arrivals(
            len(trace_lens), rate, period=len(trace_lens) / rate / 4.0, seed=0
        )
    elif trace == "bursty":
        arrivals = bursty_arrivals(len(trace_lens), burst_size=4, burst_gap=4.0 / rate, seed=0)
    else:
        arrivals = poisson_arrivals(len(trace_lens), rate, seed=0)
    requests_trace = make_requests(
        trace_lens, config.head_dim, functional=False, arrival_times=arrivals
    )
    comparison = compare_modes(
        requests_trace, config=config, max_batch_size=8, iteration_rows=128, bus=bus
    )
    continuous, drain = comparison.continuous.stats, comparison.drain.stats
    print(
        f"\ncontinuous batching on a {trace} x4 trace: "
        f"{continuous.requests_per_second:.0f} req/s "
        f"(occupancy {continuous.mean_occupancy:.0%}, "
        f"latency p95 {continuous.latency_p95_seconds * 1e3:.2f} ms) vs drain "
        f"{drain.requests_per_second:.0f} req/s "
        f"(occupancy {drain.mean_occupancy:.0%}) -> {comparison.speedup:.2f}x"
    )
    print(
        f"head-rows/sec (device): continuous {continuous.head_rows_per_second:.3g} "
        f"vs drain {drain.head_rows_per_second:.3g}"
    )


if __name__ == "__main__":
    main()
