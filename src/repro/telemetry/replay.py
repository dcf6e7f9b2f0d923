"""Bit-exact reconstruction of :class:`ServingStats` from an event log.

The engine emits events at exactly its accounting points, in accounting
order (see :mod:`repro.telemetry.events`), so replaying a log means folding
the same floats through the same aggregation functions in the same sequence:

- per-shard busy ticks and total energy ticks are integer sums, converted
  once through the run's :class:`~repro.serving.stats.TimeBase` (the
  ``tick_seconds`` and ``power_w`` of ``run_started``) — the engine's own
  conversion;
- makespan is the ``max`` retirement instant (order-free);
- queue/latency percentiles go through the engine's own
  :func:`repro.serving.stats.percentile` (it sorts, so order-free);
- mean occupancy goes through :func:`statistics.mean` (exact rational
  arithmetic, same as the engine).

The only field a log cannot reproduce is the measured ``wall_seconds``; the
``run_finished`` event carries it (plus the engine's own stats dict, used by
``repro-trace replay --strict`` as an end-to-end cross-check).
"""

from __future__ import annotations

from statistics import mean

from repro.serving.stats import ServingStats, TimeBase, decode_token_intervals, percentile
from repro.telemetry.events import (
    Event,
    IterationAdvanced,
    PlanCacheLookup,
    RequestArrived,
    RequestDecoded,
    RequestRetired,
    RunFinished,
    RunStarted,
)
from repro.telemetry.log import EventLogReader

__all__ = ["TraceReplayer", "replay_stats", "verify_log"]


class TraceReplayer:
    """Fold a run's events back into the engine's :class:`ServingStats`.

    ``run_id`` selects which run of a multi-run log to fold (e.g. a
    :func:`~repro.serving.continuous.compare_modes` log holds the continuous
    run as 0 and the drain run as 1); events of other runs are skipped.
    With the default ``run_id=None`` the replayer binds to the first
    ``run_started`` event it sees and then insists the log is single-run —
    feeding a second run without selecting one is an error, not a silent
    blend of two runs' accounting.
    """

    def __init__(self, run_id: "int | None" = None) -> None:
        self.run_id = run_id
        self.run: "RunStarted | None" = None
        self.finished: "RunFinished | None" = None
        self.time_base: "TimeBase | None" = None
        self._shard_busy: "list[int]" = []
        self._energy_ticks = 0
        self._num_iterations = 0
        self._arrived_head_rows = 0
        self._occupancies: "list[float]" = []
        self._queue_waits: "list[float]" = []
        self._latencies: "list[float]" = []
        self._finish_times: "list[float]" = []
        self._cache_hits = 0
        self._cache_misses = 0
        self._num_decodes = 0
        self._decode_tokens = 0
        self._kv_hits = 0
        self._kv_misses = 0
        self._ttfts: "list[float]" = []
        self._token_gaps: "list[float]" = []

    def feed(self, event: Event) -> None:
        """Fold one event into the running aggregation (skipping other runs)."""
        if self.run_id is not None and event.run_id != self.run_id:
            return
        if isinstance(event, RunStarted):
            if self.run is not None:
                if self.run_id is None:
                    raise ValueError(
                        "log contains more than one run_started event; select one "
                        "with run_id= (repro-trace: --run-id)"
                    )
                raise ValueError(
                    f"log contains more than one run_started event for run_id={self.run_id}"
                )
            self.run = event
            # Bind to the first run's id so later events of other runs are
            # skipped rather than folded in.
            if self.run_id is None:
                self.run_id = event.run_id
            self.time_base = TimeBase(event.tick_seconds, event.power_w)
            self._shard_busy = [0] * event.num_shards
        elif isinstance(event, RequestArrived):
            self._arrived_head_rows += event.head_rows
        elif isinstance(event, IterationAdvanced):
            self._num_iterations += 1
            self._shard_busy[event.shard] += event.ticks
            self._energy_ticks += event.energy_ticks
            self._occupancies.append(event.occupancy)
        elif isinstance(event, RequestDecoded):
            self._num_decodes += 1
            self._decode_tokens += event.new_tokens
            # The engine's residency convention: one miss at admission (the
            # prompt K/V load), one hit per decode block after the first.
            self._kv_misses += 1
            self._kv_hits += len(event.block_times) - 1
            ttft, gaps = decode_token_intervals(
                event.block_times, event.block_sizes, event.arrival_time
            )
            self._ttfts.append(ttft)
            self._token_gaps.extend(gaps)
        elif isinstance(event, RequestRetired):
            self._queue_waits.append(event.admit_time - event.arrival_time)
            self._latencies.append(event.finish_time - event.arrival_time)
            self._finish_times.append(event.finish_time)
        elif isinstance(event, PlanCacheLookup):
            if event.hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
        elif isinstance(event, RunFinished):
            self.finished = event

    def feed_all(self, events) -> "TraceReplayer":
        """Fold every event of an iterable; returns ``self`` for chaining."""
        for event in events:
            self.feed(event)
        return self

    @property
    def wall_seconds(self) -> float:
        """Measured wall clock carried by ``run_finished`` (0.0 if absent)."""
        return self.finished.wall_seconds if self.finished is not None else 0.0

    def stats(self) -> ServingStats:
        """The reconstructed :class:`ServingStats` of the replayed run."""
        run = self.run
        if run is None:
            raise ValueError("log contains no run_started event; nothing to replay")
        time_base = self.time_base
        return ServingStats(
            backend=run.backend,
            num_requests=run.num_requests,
            num_shards=run.num_shards,
            max_batch_size=run.max_batch_size,
            device_makespan_seconds=max(self._finish_times, default=0.0),
            shard_busy_seconds=tuple(time_base.seconds(busy) for busy in self._shard_busy),
            total_energy_joules=time_base.joules(self._energy_ticks),
            wall_seconds=self.wall_seconds,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            total_head_rows=self._arrived_head_rows,
            mode=run.mode,
            policy=run.policy,
            num_iterations=self._num_iterations,
            mean_occupancy=mean(self._occupancies) if self._occupancies else 0.0,
            queue_p50_seconds=percentile(self._queue_waits, 50.0),
            queue_p95_seconds=percentile(self._queue_waits, 95.0),
            latency_p50_seconds=percentile(self._latencies, 50.0),
            latency_p95_seconds=percentile(self._latencies, 95.0),
            num_decode_requests=self._num_decodes,
            decode_tokens=self._decode_tokens,
            kv_hits=self._kv_hits,
            kv_misses=self._kv_misses,
            ttft_p50_seconds=percentile(self._ttfts, 50.0),
            ttft_p95_seconds=percentile(self._ttfts, 95.0),
            inter_token_p50_seconds=percentile(self._token_gaps, 50.0),
            inter_token_p95_seconds=percentile(self._token_gaps, 95.0),
        )


def replay_stats(events, run_id: "int | None" = None) -> ServingStats:
    """Replay an iterable of events (or a log path) into :class:`ServingStats`.

    ``run_id`` selects one run of a multi-run log; by default the log must
    be single-run.
    """
    if isinstance(events, (str, bytes)) or hasattr(events, "__fspath__"):
        events = EventLogReader(events)
    return TraceReplayer(run_id=run_id).feed_all(events).stats()


def verify_log(path, run_id: "int | None" = None) -> "list[str]":
    """Cross-check a log's reconstruction against its recorded stats.

    Replays the log (one run of it, when ``run_id`` is given), compares
    every field of the reconstructed stats against the ``run_finished``
    event's recorded :meth:`ServingStats.to_dict`, and returns a list of
    human-readable mismatch descriptions (empty when the reconstruction is
    bit-identical).
    """
    replayer = TraceReplayer(run_id=run_id).feed_all(EventLogReader(path))
    reconstructed = replayer.stats().to_dict()
    if replayer.finished is None:
        return ["log has no run_finished event; recorded stats unavailable"]
    recorded = replayer.finished.stats
    mismatches = []
    for field_name in sorted(set(recorded) | set(reconstructed)):
        got = reconstructed.get(field_name)
        want = recorded.get(field_name)
        if got != want:
            mismatches.append(f"{field_name}: replayed {got!r} != recorded {want!r}")
    return mismatches
