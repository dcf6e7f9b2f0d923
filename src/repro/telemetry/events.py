"""Versioned, typed serving events.

Every event the serving layer emits is a frozen dataclass below, tagged with
a string ``kind`` and sharing one :data:`SCHEMA_VERSION`.  Events are emitted
*at the accounting points, in accounting order* — each event carries exactly
the numbers the engine folds into its own
:class:`~repro.serving.stats.ServingStats`, so a log of one run is a
sufficient statistic: :class:`~repro.telemetry.replay.TraceReplayer` re-runs
the same aggregation over the same values in the same order and reproduces
the stats bit-identically.

Serialisation is symmetric and lossless: :func:`to_record` maps an event to
a flat JSON-able dict (``{"v": ..., "kind": ..., **fields}``) and
:func:`from_record` maps it back.  Floats survive the JSON round trip
bit-exactly (``repr`` of a float is re-read to the same bits), which is what
makes replay *bit*-identical rather than merely approximate.

Every event carries a ``run_id``, so one log can hold several runs (e.g.
:func:`~repro.serving.continuous.compare_modes` streams its continuous run
as ``run_id=0`` and its drain run as ``run_id=1``);
:class:`~repro.telemetry.replay.TraceReplayer` selects one run to fold.
:class:`RequestDecoded` carries the per-token accounting of one retired
decode (block completion times on the simulated clock), from which the
replayer reconstructs TTFT/inter-token percentiles, token counts and the
KV-residency hit/miss split.

Schema version 5 streams device time per *burst*, not per iteration.
Between an admission and the next retirement a shard's resident set is
fixed, and the engine prices that whole stretch of iterations at once; one
:class:`BurstAdvanced` carries it: the shard, the burst's integer
``start_tick``, ``iterations``, ``ticks`` and ``energy_ticks``, the first
iteration's ``primed`` flag, and the residents with their slot
``occupancy``.  The event is emitted once, when something ends the burst:
ahead of the retirement at its last iteration (before that retirement's
plan-cache lookups, ``request_decoded`` and ``request_retired`` events), or
ahead of an admission that re-prices the shard (before its
``request_admitted`` and ``queue_depth`` events).  A burst cut short by
another shard or an arrival and resumed later is still one event.  The
reference scheduler emits a one-iteration burst per priced iteration;
coalescing a shard's consecutive bursts between admissions and retirements
gives the event scheduler's stream.  The replayer sums the integer ticks per
shard and converts once through :class:`~repro.serving.stats.TimeBase`,
exactly as the engine does, and folds ``occupancy`` weighted by
``iterations`` into the same exact-rational mean.  :class:`RunStarted`
carries ``tick_seconds`` (the pool's kernel-clock period) and ``power_w``
(the power its energy rule charges per energy tick).  Lifecycle instants
(arrival, admit, finish, block times) stay seconds.  Logs of versions 1-4
are rejected with a message to re-record them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "EVENT_TYPES",
    "Event",
    "RunStarted",
    "RunFinished",
    "RequestArrived",
    "RequestAdmitted",
    "RequestDecoded",
    "RequestRetired",
    "BurstAdvanced",
    "QueueDepth",
    "PlanCacheLookup",
    "to_record",
    "from_record",
]

#: Version stamped into every serialised record; bumped on any field change.
SCHEMA_VERSION = 5

#: Schema versions :func:`from_record` can still deserialise.
SUPPORTED_VERSIONS = (5,)


@dataclass(frozen=True)
class Event:
    """Base class every serving event derives from.

    ``run_id`` tags which run of a (possibly multi-run) log the event
    belongs to; single-run emitters leave it at 0.
    """

    kind: ClassVar[str] = ""
    run_id: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class RunStarted(Event):
    """A serving run began.

    ``mode`` is the run's *admission policy* (``"continuous"`` or
    ``"drain"``), matching :attr:`~repro.serving.stats.ServingStats.mode`.
    ``tick_seconds`` and ``power_w`` are the run's
    :class:`~repro.serving.stats.TimeBase`: they convert the log's integer
    ticks to the seconds and joules of the recorded stats.
    """

    kind: ClassVar[str] = "run_started"
    backend: str
    num_shards: int
    max_batch_size: int
    num_requests: int
    tick_seconds: float
    power_w: float
    mode: str = "drain"
    policy: str = "fcfs"
    #: Rows per iteration slice of the run.
    iteration_rows: int = 0


@dataclass(frozen=True)
class RequestArrived(Event):
    """A request became visible to the scheduler."""

    kind: ClassVar[str] = "request_arrived"
    request_id: int
    seq_len: int
    #: Accounted ``num_heads * seq_len`` work units (summed over layers for
    #: whole-model forwards) — what ``total_head_rows`` sums on the
    #: continuous engine.
    head_rows: int
    arrival_time: float


@dataclass(frozen=True)
class RequestAdmitted(Event):
    """A request was admitted into a shard's running batch."""

    kind: ClassVar[str] = "request_admitted"
    request_id: int
    shard: int
    admit_time: float
    #: Residents on the shard right after admission.
    residency: int


@dataclass(frozen=True)
class RequestDecoded(Event):
    """A decode request retired; carries its per-token clock accounting.

    Emitted immediately before the decode's ``request_retired`` event, in
    the engine's retirement order.  ``block_times`` holds the simulated
    completion time of each decode block (lined up with ``block_sizes``, the
    request's block schedule), which is a sufficient statistic for TTFT and
    the inter-token gaps — and, with the KV-residency convention of one miss
    per admission plus one hit per post-first block, for the cache split.
    """

    kind: ClassVar[str] = "request_decoded"
    request_id: int
    new_tokens: int
    block_sizes: "tuple[int, ...]"
    block_times: "tuple[float, ...]"
    arrival_time: float

    def __post_init__(self):
        # JSON round-trips tuples as lists; normalise so a deserialised
        # event compares equal to the emitted one.
        object.__setattr__(self, "block_sizes", tuple(self.block_sizes))
        object.__setattr__(self, "block_times", tuple(self.block_times))


@dataclass(frozen=True)
class RequestRetired(Event):
    """A request completed; carries its full lifecycle accounting."""

    kind: ClassVar[str] = "request_retired"
    request_id: int
    shard: int
    batch_id: int
    batch_size: int
    device_seconds: float
    arrival_time: float
    admit_time: float
    finish_time: float


@dataclass(frozen=True)
class BurstAdvanced(Event):
    """A priced burst of iterations over one fixed resident set of a shard.

    ``start_tick``, ``ticks`` and ``energy_ticks`` are integer ticks of the
    run's ``tick_seconds`` (see :class:`RunStarted`), summed over the
    burst's ``iterations``; the burst streamed without a gap, so it ends at
    ``start_tick + ticks``.
    """

    kind: ClassVar[str] = "burst_advanced"
    shard: int
    start_tick: int
    iterations: int
    ticks: int
    #: The ticks the backend's energy rule charged for the burst.
    energy_ticks: int
    #: Whether the burst's first iteration found the pipeline primed.
    primed: bool
    residents: int
    #: Residents as a fraction of ``max_batch_size`` slots.
    occupancy: float


@dataclass(frozen=True)
class QueueDepth(Event):
    """Depth of the waiting/pending queue after a batcher mutation."""

    kind: ClassVar[str] = "queue_depth"
    depth: int
    time: float


@dataclass(frozen=True)
class PlanCacheLookup(Event):
    """One plan-cache lookup resolved (hit or compile-on-miss)."""

    kind: ClassVar[str] = "plan_cache_lookup"
    seq_len: int
    hit: bool
    entries: int


@dataclass(frozen=True)
class RunFinished(Event):
    """The run completed.

    ``wall_seconds`` is the one stats field a log cannot reconstruct (it is
    measured, not accounted), and ``stats`` is the engine's own rendered
    :meth:`~repro.serving.stats.ServingStats.to_dict` — carried so
    ``repro-trace replay --strict`` can cross-check the reconstruction
    against what the live run reported, without the tests depending on it.
    """

    kind: ClassVar[str] = "run_finished"
    wall_seconds: float
    stats: "dict[str, object]"


#: ``kind`` string -> event class, for deserialisation.
EVENT_TYPES: "dict[str, type[Event]]" = {
    cls.kind: cls
    for cls in (
        RunStarted,
        RequestArrived,
        RequestAdmitted,
        RequestDecoded,
        RequestRetired,
        BurstAdvanced,
        QueueDepth,
        PlanCacheLookup,
        RunFinished,
    )
}


def to_record(event: Event) -> "dict[str, object]":
    """Serialise ``event`` to a flat JSON-able dict (version + kind + fields)."""
    record: "dict[str, object]" = {"v": SCHEMA_VERSION, "kind": event.kind}
    for spec in fields(event):
        record[spec.name] = getattr(event, spec.name)
    return record


def from_record(record: "dict[str, object]") -> Event:
    """Deserialise one :func:`to_record` dict back into its event class."""
    version = record.get("v")
    if version not in SUPPORTED_VERSIONS:
        if isinstance(version, int) and version < SCHEMA_VERSION:
            raise ValueError(
                f"event schema version {version} predates the burst schema "
                f"(version {SCHEMA_VERSION}): its device time comes per iteration, not per "
                "burst; re-record the log with this version (repro-serve ... --events PATH)"
            )
        raise ValueError(
            f"unsupported event schema version {version!r} (expected one of {SUPPORTED_VERSIONS})"
        )
    kind = record.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    payload = {key: value for key, value in record.items() if key not in ("v", "kind")}
    return cls(**payload)
