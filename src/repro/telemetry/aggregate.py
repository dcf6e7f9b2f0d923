"""Streaming metrics over a live event stream.

Where :class:`~repro.telemetry.replay.TraceReplayer` reconstructs the final
stats of a *finished* run, :class:`MetricsAggregator` answers "how is the
run going right now": rolling throughput, windowed latency/queue-wait
percentiles (through the engine's own nearest-rank
:func:`repro.serving.stats.percentile`), instantaneous queue depth and
per-shard slot occupancy.  It is the model behind both ``repro-trace watch``
renderings (textual and plain-ANSI) and ``repro-trace summarize``.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.report import Table
from repro.serving.stats import TimeBase, percentile
from repro.telemetry.events import (
    Event,
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

__all__ = ["MetricsAggregator"]


class MetricsAggregator:
    """Incremental per-event aggregation with a bounded percentile window."""

    def __init__(self, window: int = 256):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.run: "RunStarted | None" = None
        self.time_base: "TimeBase | None" = None
        self.finished = False
        self.events_seen = 0
        self.arrived = 0
        self.admitted = 0
        self.retired = 0
        self.iterations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.queue_depth = 0
        self.last_time = 0.0
        self._latencies: "deque[float]" = deque(maxlen=window)
        self._queue_waits: "deque[float]" = deque(maxlen=window)
        self._shard_occupancy: "dict[int, float]" = {}

    def feed(self, event: Event) -> None:
        """Fold one event into the live metrics."""
        self.events_seen += 1
        if isinstance(event, RunStarted):
            self.run = event
            self.time_base = TimeBase(event.tick_seconds, event.power_w)
        elif isinstance(event, RequestArrived):
            self.arrived += 1
            self.last_time = max(self.last_time, event.arrival_time)
        elif isinstance(event, RequestAdmitted):
            self.admitted += 1
            self.last_time = max(self.last_time, event.admit_time)
        elif isinstance(event, RequestRetired):
            self.retired += 1
            self.last_time = max(self.last_time, event.finish_time)
            self._latencies.append(event.finish_time - event.arrival_time)
            self._queue_waits.append(event.admit_time - event.arrival_time)
        elif isinstance(event, IterationAdvanced):
            self.iterations += 1
            if self.time_base is not None:
                end = self.time_base.seconds(event.start_tick + event.ticks)
                self.last_time = max(self.last_time, end)
        elif isinstance(event, ShardOccupancy):
            self._shard_occupancy[event.shard] = event.occupancy
        elif isinstance(event, QueueDepth):
            self.queue_depth = event.depth
        elif isinstance(event, PlanCacheLookup):
            if event.hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        elif isinstance(event, RunFinished):
            self.finished = True

    def feed_all(self, events) -> "MetricsAggregator":
        """Fold every event of an iterable; returns ``self`` for chaining."""
        for event in events:
            self.feed(event)
        return self

    @property
    def requests_per_second(self) -> float:
        """Rolling throughput: retirements over the latest observed instant."""
        return self.retired / self.last_time if self.last_time > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet retired."""
        return self.admitted - self.retired

    def shard_occupancy(self) -> "dict[int, float]":
        """Latest known slot occupancy per shard (shard -> fraction)."""
        return dict(sorted(self._shard_occupancy.items()))

    def snapshot(self) -> "dict[str, object]":
        """The current metrics as an ordered (label -> value) mapping."""
        run = self.run
        labels: "dict[str, object]" = {
            "run": f"{run.mode} ({run.backend})" if run else "?",
            "status": "finished" if self.finished else "running",
            "events": self.events_seen,
            "arrived / admitted / retired": (
                f"{self.arrived} / {self.admitted} / {self.retired}"
            ),
            "in flight": self.in_flight,
            "queue depth": self.queue_depth,
            "rolling req/s": self.requests_per_second,
            f"latency p50 [s] (last {self.window})": percentile(list(self._latencies), 50.0),
            f"latency p95 [s] (last {self.window})": percentile(list(self._latencies), 95.0),
            f"queue wait p95 [s] (last {self.window})": percentile(list(self._queue_waits), 95.0),
            "plan-cache hit rate": self.cache_hit_rate,
        }
        for shard, occupancy in self.shard_occupancy().items():
            labels[f"shard {shard} occupancy"] = occupancy
        return labels

    def to_table(self, title: str = "Live serving metrics") -> Table:
        """Render :meth:`snapshot` through the shared report machinery."""
        return Table.from_mapping(title, self.snapshot())
