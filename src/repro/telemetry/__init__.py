"""Observability layer: typed event stream, JSONL logs, replay, live metrics.

The serving engine (:mod:`repro.serving.continuous`) emits typed events at
its accounting points onto an :class:`EventBus`: lifecycle events per
request and one ``burst_advanced`` per priced burst of device iterations.
With zero sinks subscribed the cost is a single branch per would-be event
(the benchmark guard asserts no event object is built); with an
:class:`EventLogWriter` subscribed every event lands as one JSON line in an
append-only log that :class:`EventLogReader` (and ``repro-trace``) can read
back — including bit-exact :class:`TraceReplayer` reconstruction of the
run's :class:`~repro.serving.stats.ServingStats` from the log alone.
"""

from repro.telemetry.aggregate import MetricsAggregator
from repro.telemetry.artifacts import BENCH_ARTIFACT_ENV, artifact_path, record_bench
from repro.telemetry.bus import NULL_BUS, EventBus
from repro.telemetry.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    BurstAdvanced,
    Event,
    PlanCacheLookup,
    QueueDepth,
    RequestAdmitted,
    RequestArrived,
    RequestRetired,
    RunFinished,
    RunStarted,
    from_record,
    to_record,
)
from repro.telemetry.log import EventLogReader, EventLogWriter
from repro.telemetry.replay import TraceReplayer, replay_stats, verify_log

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "Event",
    "RunStarted",
    "RunFinished",
    "RequestArrived",
    "RequestAdmitted",
    "RequestRetired",
    "BurstAdvanced",
    "QueueDepth",
    "PlanCacheLookup",
    "to_record",
    "from_record",
    "EventBus",
    "NULL_BUS",
    "EventLogWriter",
    "EventLogReader",
    "TraceReplayer",
    "replay_stats",
    "verify_log",
    "MetricsAggregator",
    "BENCH_ARTIFACT_ENV",
    "artifact_path",
    "record_bench",
]
