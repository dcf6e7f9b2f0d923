"""Serving-level accounting: throughput, occupancy, shard utilisation, cache.

The per-request :class:`~repro.core.simulator.TimingReport` answers "how fast
is one attention"; :class:`ServingStats` answers the serving questions on top
of it: requests/sec across the shard pool, how full the batch slots were,
how evenly the shards were loaded and how often the plan cache saved a
schedule rebuild.  Rendering goes through the shared
:class:`repro.analysis.report.Table` machinery so serving reports line up
with the paper-table reports.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields
from fractions import Fraction
from math import ceil, isfinite

import numpy as np

from repro.analysis.report import Table

__all__ = ["ServingStats", "TimeBase", "decode_token_intervals", "occupancy_mean", "percentile"]


@dataclass(frozen=True)
class TimeBase:
    """The serving clock's one time base: integer ticks of the kernel clock.

    The engine keeps every clock quantity in integer ticks of
    ``tick_seconds`` (the pool's ``config.clock_period_s``): shard clocks,
    busy time, request stamps and decode block stamps.  Energy is the
    integer count of ticks the backend's energy rule charges at ``power_w``
    (busy ticks on SWAT and the dense-FPGA baseline, summed slice ticks on
    the GPU models).  This is the one place ticks become seconds and joules.
    The engine converts at the stats/telemetry edge, and
    :class:`~repro.telemetry.replay.TraceReplayer` converts a log's ticks
    with the same two methods, so live and replayed stats agree bit for bit.
    """

    tick_seconds: float
    power_w: float = 0.0

    def __post_init__(self):
        if not (isfinite(self.tick_seconds) and self.tick_seconds > 0):
            raise ValueError(f"tick_seconds must be finite and positive, got {self.tick_seconds}")
        if not (isfinite(self.power_w) and self.power_w >= 0):
            raise ValueError(f"power_w must be finite and non-negative, got {self.power_w}")

    def seconds(self, ticks: int) -> float:
        """Simulated seconds of ``ticks`` (an instant or a duration)."""
        return ticks * self.tick_seconds

    def joules(self, energy_ticks: int) -> float:
        """Modelled energy of ``energy_ticks`` charged at ``power_w``."""
        return self.power_w * (energy_ticks * self.tick_seconds)

    def first_tick(self, seconds: float) -> int:
        """The first tick whose instant is at or after ``seconds``.

        Multiplying by the positive tick length is monotone, so
        ``seconds <= self.seconds(t)`` holds exactly when
        ``t >= first_tick(seconds)``.  The scheduler compares float arrival
        instants against its integer clock through this, and
        ``first_tick(self.seconds(t)) == t`` recovers a converted tick
        count exactly.
        """
        tick = max(0, ceil(seconds / self.tick_seconds))
        # The float quotient may land a tick off either way; settle on the
        # exact boundary of the monotone predicate.
        while tick * self.tick_seconds < seconds:
            tick += 1
        while tick > 0 and (tick - 1) * self.tick_seconds >= seconds:
            tick -= 1
        return tick

    def first_ticks(self, seconds: "list[float]") -> "list[int]":
        """:meth:`first_tick` of every instant in ``seconds``, in one numpy pass.

        The same ceiling and the same monotone fix-up, vectorized: an int64
        tick times the tick length is the same IEEE float64 product as the
        scalar path's, so every entry equals ``first_tick`` exactly.
        Instants too far out for int64 ticks take the scalar path.
        """
        instants = np.asarray(seconds, dtype=np.float64)
        quotients = np.ceil(instants / self.tick_seconds)
        if instants.size and not quotients.max() < 2.0**62:
            return [self.first_tick(instant) for instant in seconds]
        ticks = np.maximum(quotients, 0.0).astype(np.int64)
        while True:
            low = ticks * self.tick_seconds < instants
            if not low.any():
                break
            ticks[low] += 1
        while True:
            high = (ticks > 0) & ((ticks - 1) * self.tick_seconds >= instants)
            if not high.any():
                break
            ticks[high] -= 1
        return ticks.tolist()


def percentile(values: "Sequence[float] | np.ndarray", q: float) -> float:
    """Deterministic nearest-rank percentile (``q`` in [0, 100]) of a 1-D sample.

    The serving layer's latency reporting helper: no interpolation, so the
    returned value is always one actually observed — and the simulated-clock
    tests can assert on it exactly.  ``values`` is any 1-D float sequence, a
    float64 array included, in any order; the result is a Python ``float``.
    Returns 0.0 for an empty sample.

    Matches ``numpy.percentile(values, q, method="inverted_cdf")`` for every
    non-empty sample (property-tested), including numpy's evaluation of the
    rank position in float arithmetic — the previous integer-truncated rank
    dropped the fractional part of ``q * n`` before ceiling, under-ranking
    samples where ``q * n / 100`` has a fractional tail (e.g. q=28.0, n=50).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    count = len(values)
    if not count:
        return 0.0
    position = q / 100.0 * count - 1.0  # float, exactly as numpy evaluates it
    rank = min(count - 1, max(0, ceil(position)))
    return float(np.partition(np.asarray(values, dtype=np.float64), rank)[rank])


def occupancy_mean(counts: "Counter[float]") -> float:
    """Exact-rational mean of an occupancy multiset (value -> iterations).

    ``statistics.mean`` sums exact ``Fraction`` conversions of its float
    inputs and rounds once at the end; summing ``Fraction(value) * count``
    per distinct value is the same exact rational, so the rounded float is
    identical — without materialising one list entry per iteration.  The
    engine and :class:`~repro.telemetry.replay.TraceReplayer` both fold
    through it, so live and replayed ``mean_occupancy`` agree bit for bit.
    Returns 0.0 for an empty multiset.
    """
    total = sum(counts.values())
    if not total:
        return 0.0
    exact = sum(Fraction(value) * count for value, count in counts.items())
    return float(exact / total)


def decode_token_intervals(
    block_times: "tuple[float, ...]",
    block_sizes: "tuple[int, ...]",
    arrival_time: float,
) -> "tuple[float, list[float]]":
    """Per-token latency samples of one decode: ``(ttft, inter-token gaps)``.

    ``block_times`` holds the simulated completion time of each decode block
    (one entry per ``block_sizes`` entry).  TTFT is the wait from arrival to
    the *first block* finalising — the first token cannot appear earlier.
    Token emission times repeat each block's completion time ``k`` times (a
    block finalises its k tokens together), so the inter-token gaps of a
    block-decode run are zero within a block and the block's own latency at
    its boundary — exactly the signature the block-size knob is meant to
    surface.
    """
    if len(block_times) != len(block_sizes):
        raise ValueError(
            f"block_times and block_sizes must line up, "
            f"got {len(block_times)} != {len(block_sizes)}"
        )
    if not block_times:
        raise ValueError("a decode emits at least one block")
    ttft = block_times[0] - arrival_time
    gaps: "list[float]" = []
    previous = block_times[0]
    for time, size in zip(block_times, block_sizes):
        for index in range(size):
            gaps.append(time - previous)
            previous = time
    # Drop the leading self-gap of the first token: its latency is the TTFT,
    # leaving exactly (total tokens - 1) inter-token gaps.
    return ttft, gaps[1:]


@dataclass(frozen=True)
class ServingStats:
    """Aggregate accounting of one serving run.

    Attributes
    ----------
    backend:
        Name of the executing backend.
    num_requests, num_shards:
        Volume of the run.
    max_batch_size:
        Resident slots per shard (denominator of the occupancy).
    device_makespan_seconds:
        Simulated instant the last request finished, arrival gaps included —
        the denominator of the device throughput.
    shard_busy_seconds:
        Per-shard accelerator busy time (each shard's integer busy ticks,
        converted once through :class:`TimeBase`).
    total_energy_joules:
        Modelled energy of the run: the summed energy ticks of every
        iteration, converted once through :class:`TimeBase`.
    wall_seconds:
        Measured host wall-clock of the run (queueing + batching + execution).
    cache_hits, cache_misses:
        Plan-cache counters accumulated during the run.
    total_head_rows:
        Accounted ``num_heads * seq_len`` units served by the run — the
        backend-independent volume behind the throughput numbers.
    mode:
        Admission policy of the run: ``"drain"`` (a shard refills only once
        its whole batch has retired) or ``"continuous"`` (a freed slot admits
        mid-flight).
    policy:
        Queue-ordering policy of the run (``"fcfs"`` or ``"sjf"``).
    num_iterations:
        Priced pipeline iterations of the run.
    mean_occupancy:
        Mean resident requests per iteration as a fraction of
        ``max_batch_size`` slots — the slot-utilisation number head-of-line
        blocking depresses.
    queue_p50_seconds, queue_p95_seconds:
        Percentiles of the simulated wait between a request's arrival and
        its admission into a running batch (time to first scheduled slice —
        the TTFT analogue of this serving model).
    latency_p50_seconds, latency_p95_seconds:
        Percentiles of simulated arrival-to-completion request latency.
    num_decode_requests, decode_tokens:
        Decode volume of the run: retired :class:`DecodeRequest`\\ s and the
        new tokens they generated.
    kv_hits, kv_misses:
        :class:`~repro.serving.cache.KVResidency` counters — one miss per
        decode admission (prompt K/V load), one hit per subsequent decode
        step against the resident cache.
    ttft_p50_seconds, ttft_p95_seconds:
        Percentiles of decode time-to-first-token: arrival to the first
        decode block finalising on the simulated clock.
    inter_token_p50_seconds, inter_token_p95_seconds:
        Percentiles of the per-token emission gaps across all decodes
        (block decode emits k tokens at once, so within-block gaps are 0).
    """

    backend: str
    num_requests: int
    num_shards: int
    max_batch_size: int
    device_makespan_seconds: float
    shard_busy_seconds: "tuple[float, ...]"
    total_energy_joules: float
    wall_seconds: float
    cache_hits: int
    cache_misses: int
    total_head_rows: int = 0
    mode: str = "drain"
    policy: str = "fcfs"
    num_iterations: int = 0
    mean_occupancy: float = 0.0
    queue_p50_seconds: float = 0.0
    queue_p95_seconds: float = 0.0
    latency_p50_seconds: float = 0.0
    latency_p95_seconds: float = 0.0
    num_decode_requests: int = 0
    decode_tokens: int = 0
    kv_hits: int = 0
    kv_misses: int = 0
    ttft_p50_seconds: float = 0.0
    ttft_p95_seconds: float = 0.0
    inter_token_p50_seconds: float = 0.0
    inter_token_p95_seconds: float = 0.0

    @property
    def requests_per_second(self) -> float:
        """Device throughput: requests served per second of pool makespan."""
        if self.device_makespan_seconds <= 0:
            return 0.0
        return self.num_requests / self.device_makespan_seconds

    @property
    def wall_requests_per_second(self) -> float:
        """Host-side throughput over the measured wall clock."""
        return self.num_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def head_rows_per_second(self) -> float:
        """Device throughput in accounted head-row units per makespan second."""
        if self.device_makespan_seconds <= 0:
            return 0.0
        return self.total_head_rows / self.device_makespan_seconds

    @property
    def shard_utilisation(self) -> "tuple[float, ...]":
        """Per-shard busy time as a fraction of the pool makespan."""
        makespan = self.device_makespan_seconds
        if makespan <= 0:
            return tuple(0.0 for _ in self.shard_busy_seconds)
        return tuple(busy / makespan for busy in self.shard_busy_seconds)

    @property
    def cache_hit_rate(self) -> float:
        """Plan-cache hit fraction during the run."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def tokens_per_second(self) -> float:
        """Decode throughput: generated tokens per second of pool makespan."""
        if self.device_makespan_seconds <= 0:
            return 0.0
        return self.decode_tokens / self.device_makespan_seconds

    @property
    def kv_hit_rate(self) -> float:
        """KV-residency hit fraction across all decode steps of the run."""
        total = self.kv_hits + self.kv_misses
        return self.kv_hits / total if total else 0.0

    def to_table(self, title: "str | None" = None) -> Table:
        """Render the stats as a (metric, value) table.

        Decode rows (TTFT, inter-token gaps, tokens/sec, KV hit rate) appear
        only when the run served decode requests.
        """
        balance = min(self.shard_utilisation) if self.shard_busy_seconds else 0.0
        rows: "dict[str, object]" = {
            "backend": self.backend,
            "requests": self.num_requests,
            "mode": self.mode,
            "admission policy": self.policy,
            "iterations": self.num_iterations,
            "shards": self.num_shards,
            "mean occupancy (slots)": self.mean_occupancy,
            "queue wait p50 [s]": self.queue_p50_seconds,
            "queue wait p95 [s]": self.queue_p95_seconds,
            "latency p50 [s]": self.latency_p50_seconds,
            "latency p95 [s]": self.latency_p95_seconds,
        }
        if self.num_decode_requests > 0:
            rows.update(
                {
                    "decode requests": self.num_decode_requests,
                    "decode tokens": self.decode_tokens,
                    "tokens/sec (device)": self.tokens_per_second,
                    "TTFT p50 [s]": self.ttft_p50_seconds,
                    "TTFT p95 [s]": self.ttft_p95_seconds,
                    "inter-token p50 [s]": self.inter_token_p50_seconds,
                    "inter-token p95 [s]": self.inter_token_p95_seconds,
                    "KV-residency hit rate": self.kv_hit_rate,
                }
            )
        rows.update(
            {
                "device makespan [s]": self.device_makespan_seconds,
                "requests/sec (device)": self.requests_per_second,
                "requests/sec (wall)": self.wall_requests_per_second,
                "head-rows/sec (device)": self.head_rows_per_second,
                "shard balance (min util)": balance,
                "energy [J]": self.total_energy_joules,
                "plan-cache hit rate": self.cache_hit_rate,
            }
        )
        return Table.from_mapping(
            title if title is not None else f"Serving stats ({self.backend})", rows
        )

    def to_dict(self) -> "dict[str, object]":
        """Lossless JSON-able mapping of every field (tuples become lists).

        Numeric values are coerced to exact Python scalars, so the dict
        round-trips through JSON bit-identically — the contract the
        telemetry layer's ``run_finished`` event and
        :meth:`from_dict` rely on.
        """
        record: "dict[str, object]" = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "shard_busy_seconds":
                record[spec.name] = [float(busy) for busy in value]
            elif isinstance(value, str):
                record[spec.name] = value
            elif spec.type in ("int", int):
                record[spec.name] = int(value)
            else:
                record[spec.name] = float(value)
        return record

    @classmethod
    def from_dict(cls, record: "dict[str, object]") -> "ServingStats":
        """Rebuild stats from a :meth:`to_dict` mapping."""
        payload = dict(record)
        payload["shard_busy_seconds"] = tuple(payload["shard_busy_seconds"])
        return cls(**payload)

    def render(self) -> str:
        """Plain-text report (the table, rendered)."""
        return self.to_table().render()
