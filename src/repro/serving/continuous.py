"""The serving engine: admit and retire requests between pipeline iterations.

This module is the one engine behind every serve (:class:`ServingEngine
<repro.serving.engine.ServingEngine>` is a configured facade over
:func:`serve_continuous`): an *iteration-level* scheduler on a simulated
clock.  Two admission policies share it.  ``"continuous"`` (vLLM-style)
re-forms the running batch between pipeline steps, so a freed slot takes
the next arrived request mid-flight.  ``"drain"`` (static batching) refills
a shard only once its whole batch has retired — under mixed-length traffic
the batch is gated by its slowest request while finished members' slots sit
idle (head-of-line blocking).

Device model
------------
A shard executes **iterations** over a running batch of at most
``max_batch_size`` resident requests.  The residents occupy parallel slots of
the stacked batch axis (the ``G`` axis a :class:`~repro.core.plan.PlanBatch`
executes in one pass), so an iteration advances every resident by a row
slice of up to ``iteration_rows`` rows *in lockstep* and lasts as long as its
largest (gating) slice.  Pricing is the backend's
:meth:`~repro.serving.backends.AttentionBackend.step`: on the SWAT pipeline a
cold iteration pays the fill (``depth + (rows - 1) * II``) and a primed one
streams at ``rows * II``, so the per-iteration cycles of a busy period sum
bit-exactly to what
:meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles` charges
for the same gating rows streamed as one batch — the fill is charged once
per busy period, never once per admission.

Both admission policies price through this same clock, so
drain-vs-continuous numbers compare scheduling policies on one device model.

Schedulers
----------
Two scheduler implementations produce bit-identical results
(property-tested; ``scheduler=`` selects one):

``"event"`` (default)
    Event-driven and vectorized.  A heap over per-shard activation ticks
    replaces the linear scan, and between an admission and the next
    retirement the resident set is fixed — the backend prices that whole
    *burst* of iterations in one
    :meth:`~repro.serving.backends.AttentionBackend.step_burst` call, and
    the loop folds it into the accounting with integer prefix sums (an
    attention-only SWAT burst answers them in closed form from two ints,
    the fewest and the most rows left).  The shard, not the resident, is
    what the loop advances: residents stream in lockstep, so each shard
    keeps one row counter, a burst moves only that counter, and a
    resident's rows and device ticks are stamped once, at retirement (its
    device ticks are the shard's busy ticks over its residency).  A burst
    cut short by an arrival or by another shard's activation is resumed,
    not repriced, at the shard's next activation unless that activation
    admits.  Pricing cost scales with *resident-set changes*, not
    iterations or activations: a 100k-request diurnal trace replays in
    about a second.

``"reference"``
    The retained quantum-stepped loop: one Python iteration per priced
    device iteration.  The executable specification the property tests pin
    the event scheduler against.

Clock
-----
Everything runs on a deterministic simulated clock (:class:`ServingClock`)
kept in integer ticks of the pool's kernel clock (``config.clock_period_s``,
one SWAT cycle): shard clocks, busy time, request stamps and decode block
stamps are ints, so the two schedulers agree in plain integer arithmetic.
Seconds and joules appear only at the stats/telemetry edge, through the one
:class:`~repro.serving.stats.TimeBase` conversion.  Request
``arrival_time``\\ s stay floats; a shard admits a request from the first
tick at or after its arrival.  They come from seeded generators
(:func:`~repro.serving.request.poisson_arrivals`,
:func:`~repro.serving.request.bursty_arrivals`,
:func:`~repro.serving.request.diurnal_arrivals`), shards advance
event-driven (the shard with the earliest activation time runs next), and no
scheduling decision reads the host clock — the same seed replays the same
trace, iteration for iteration.

Functional outputs are computed at retirement through the backend's stacked
:meth:`~repro.serving.backends.AttentionBackend.compute_outputs` pass, so
per-request bits are identical to running each request alone (the stacked
executor's contract), whatever the admission policy.
"""

from __future__ import annotations

import heapq
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from math import ceil
from operator import attrgetter
from statistics import mean

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel
from repro.serving.backends import Residents, StepBurst, batch_head_rows, create_backend
from repro.serving.cache import KVResidency, PlanCache
from repro.serving.request import (
    AttentionRequest,
    CompletedRequest,
    DecodeRequest,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.serving.stats import (
    ServingStats,
    TimeBase,
    decode_token_intervals,
    occupancy_mean,
    percentile,
)
from repro.telemetry.bus import NULL_BUS
from repro.telemetry.events import (
    BurstAdvanced,
    QueueDepth,
    RequestAdmitted,
    RequestArrived,
    RequestDecoded,
    RequestRetired,
    RunFinished,
    RunStarted,
)

__all__ = [
    "ServingClock",
    "InFlightRequest",
    "IterationRecord",
    "ServingResult",
    "ContinuousBatcher",
    "QUEUE_POLICIES",
    "SCHEDULERS",
    "serve_continuous",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "swat_request_rate",
    "ScenarioComparison",
    "compare_modes",
]

#: Admission policies the iteration-level loop understands.
ADMISSION_MODES = ("continuous", "drain")

#: Queue-ordering policies deciding which arrived request a free slot admits.
QUEUE_POLICIES = ("fcfs", "sjf")

#: Scheduler implementations (bit-identical results; see module docstring).
SCHEDULERS = ("event", "reference")

#: Default rows a resident request advances per iteration.
DEFAULT_ITERATION_ROWS = 128


#: Why each size knob must be a whole number, for :func:`check_count`.
_WHOLE_COUNTS = {
    "max_batch_size": (
        "a shard seats whole residents, and a fractional width seats one more than "
        "it has room for (occupancy above 1)"
    ),
    "iteration_rows": "every resident advances the same whole rows per iteration, in lockstep",
    "num_shards": "the pool runs one clock per shard",
}


def check_count(name: str, value) -> None:
    """Reject a size knob that is not a positive ``int`` (a ``bool`` included).

    ``name`` is ``"max_batch_size"``, ``"iteration_rows"`` or
    ``"num_shards"``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"{name} must be an int, got {value!r} ({type(value).__name__}): "
            f"{_WHOLE_COUNTS[name]}"
        )
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


class ServingClock:
    """One shard's simulated device clock, in integer ticks.

    ``now`` is the tick count since the start of the run and ``busy_ticks``
    the ticks the shard spent streaming.  The clock only ever moves
    forward: :meth:`advance` adds a priced iteration (counted as busy time),
    :meth:`jump_to` skips idle gaps to an arrival's first tick (not counted
    as busy).  The event scheduler adds a burst's
    :meth:`~repro.serving.backends.StepBurst.ticks_through` directly —
    integer sums, so no order of additions can change a bit.
    """

    __slots__ = ("now", "busy_ticks")

    def __init__(self) -> None:
        self.now = 0
        self.busy_ticks = 0

    def advance(self, ticks: int) -> None:
        """Advance by one priced iteration of ``ticks`` busy time."""
        if ticks < 0:
            raise ValueError(f"cannot advance the clock by {ticks} ticks")
        self.now += ticks
        self.busy_ticks += ticks

    def jump_to(self, tick: int) -> None:
        """Skip idle time forward to ``tick`` (no-op when already past)."""
        if tick > self.now:
            self.now = tick


@dataclass(slots=True)
class InFlightRequest:
    """A request resident in (or retired from) a shard's running batch.

    Clock stamps are integer ticks; ``admit_time`` is the admit instant in
    seconds, converted once per admitting activation and shared by that
    activation's admits.

    The reference scheduler advances ``rows_done`` and ``device_ticks``
    every iteration.  The event scheduler advances its shard's lockstep row
    counter instead and stamps both once, at retirement: ``rows_done`` is
    then ``rows_total``, and ``device_ticks`` is the shard's busy ticks at
    retirement minus ``busy_at_admit``.  Mid-flight they read as unstamped
    on that path.
    """

    request: AttentionRequest
    shard: int
    rows_total: int
    admit_tick: int
    admit_time: float
    #: Monotonically increasing admission event id (reported as the
    #: completion's ``batch_id``).
    admission_id: int
    #: Residents on the shard right after this request was admitted.
    residency_at_admit: int
    rows_done: int = 0
    finish_tick: "int | None" = None
    #: Summed ticks of every iteration this request was resident in (an
    #: iteration's duration is counted for each of its residents — they
    #: share the clock, not split it).
    device_ticks: int = 0
    #: Decode requests only: cumulative row offsets at which each decode
    #: block finalises (last entry equals ``rows_total``); ``None`` for
    #: prefill/attention requests.
    token_boundaries: "tuple[int, ...] | None" = None
    #: Decode requests only: clock tick each block completed at, appended
    #: as the row stream crosses ``token_boundaries``.
    block_ticks: "list[int] | None" = None
    #: Event scheduler only: the shard's busy ticks when this request was
    #: admitted.
    busy_at_admit: int = 0

    @property
    def remaining_rows(self) -> int:
        """Row-work units still to stream before retirement."""
        return self.rows_total - self.rows_done

    @property
    def finished(self) -> bool:
        """True once every row of the request has streamed."""
        return self.rows_done >= self.rows_total


@dataclass(frozen=True)
class IterationRecord:
    """Accounting for one priced iteration of one shard, in integer ticks."""

    index: int
    shard: int
    start_tick: int
    ticks: int
    #: The ticks the backend's energy rule charged for the iteration.
    energy_ticks: int
    #: Rows of the gating (largest) slice — what the pipeline streamed for
    #: the duration of the iteration.
    gate_rows: int
    #: Whether the pipeline was primed (busy in the immediately preceding
    #: iteration of this shard) — a primed iteration pays no fill.
    primed: bool
    #: ``(request_id, slice_rows)`` per resident, in slot order.
    resident: "tuple[tuple[int, int], ...]"
    admitted: "tuple[int, ...]"
    retired: "tuple[int, ...]"
    #: Residents as a fraction of ``max_batch_size`` slots.
    occupancy: float


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving run produced.

    ``iterations`` holds one :class:`IterationRecord` per priced pipeline
    iteration, or nothing when the run passed ``record_iterations=False``.
    ``time_base`` is the pool's tick and energy-rule power: it converts the
    records' ticks to the seconds and joules of ``stats``.
    """

    completed: "list[CompletedRequest]"
    stats: ServingStats
    time_base: TimeBase
    iterations: "tuple[IterationRecord, ...]" = ()

    def output_for(self, request: AttentionRequest):
        """Return the output served for ``request``.

        ``None`` when the request was served by a non-functional backend (or
        was analytical); raises :class:`KeyError` when ``request`` was not
        part of this run at all.
        """
        for done in self.completed:
            if done.request.request_id == request.request_id:
                return done.output
        raise KeyError(f"request {request.request_id} was not served in this run")


class ContinuousBatcher:
    """Iteration-level batching state: waiting queue plus per-shard residents.

    Requests wait (ordered by ``(arrival_time, submission order)``) until a
    shard admits them.  Under ``admission="continuous"`` a shard admits
    whenever a slot is free — a retirement frees its ``(config, seq_len)``
    slot for the next arrived request *mid-flight*.  Under
    ``admission="drain"`` a shard admits only when its running batch is
    empty (the static-batching policy the scenario runner compares against);
    membership is then fixed until every member retires.

    ``policy`` decides which *arrived* waiting request a free slot takes:
    ``"fcfs"`` admits in arrival order, ``"sjf"`` (shortest-job-first) the
    arrived request with the least *total backend work*
    (:meth:`~repro.serving.backends.AttentionBackend.request_work`: an
    L-layer forward ranks at all L layers' rows, a decode at the rows of its
    remaining new tokens — audited against the per-kind row models, so a
    forward never ranks as if it were one layer) — ties broken by
    ``(arrival_time, request_id)``, so the schedule stays deterministic and
    degenerates to FCFS on uniform-length traffic.  Under bursty mixed-length
    load SJF stops a long request from parking ahead of a queue of short
    ones, cutting p95 latency (the seeded A/B test in the suite).

    ``kv_residency`` (a :class:`~repro.serving.cache.KVResidency`) tracks
    decode K/V: admitted decodes pin their final-context bytes (one miss for
    the prompt load), retirement counts one hit per post-first block and
    releases the bytes.

    Clock instants (``now``) are integer ticks of ``time_base`` (by default
    one-second ticks, so plain seconds work too).  A request is admissible
    at ``now`` when ``arrival_time <= time_base.seconds(now)``, i.e. from
    its first tick on; :meth:`submit` computes every request's first tick
    once.  Admission instants never decrease (both schedulers activate
    shards in tick order), and :meth:`admit` rejects one that does: under
    SJF each request is ranked once, when the admission clock first reaches
    its arrival, and kept in a heap keyed ``(work, arrival_time,
    request_id)``.
    """

    def __init__(
        self,
        max_batch_size: int,
        num_shards: int = 1,
        admission: str = "continuous",
        policy: str = "fcfs",
        kv_residency: "KVResidency | None" = None,
        time_base: "TimeBase | None" = None,
    ):
        check_count("max_batch_size", max_batch_size)
        check_count("num_shards", num_shards)
        if admission not in ADMISSION_MODES:
            raise ValueError(f"admission must be one of {ADMISSION_MODES}, got {admission!r}")
        if policy not in QUEUE_POLICIES:
            raise ValueError(f"policy must be one of {QUEUE_POLICIES}, got {policy!r}")
        self.max_batch_size = max_batch_size
        self.num_shards = num_shards
        self.admission = admission
        self.policy = policy
        self.kv_residency = kv_residency
        self.time_base = time_base if time_base is not None else TimeBase(1.0)
        self.running: "list[list[InFlightRequest]]" = [[] for _ in range(num_shards)]
        self._admission_ids = 0
        # The last admission instant: instants never decrease.
        self._now = 0
        # Submitted requests in (arrival_time, request_id) order, with their
        # first ticks.  The admission clock has reached the first ``_next``
        # of them: FCFS admitted them, SJF moved them into ``_arrived``.
        # ``_oldest`` is the first one still waiting, ``_taken`` the indices
        # past it SJF already admitted.
        self._queue: "list[AttentionRequest]" = []
        self._queue_ticks: "array[int] | list[int]" = []
        self._next = 0
        self._oldest = 0
        self._taken: "set[int]" = set()
        self._arrived: "list[tuple]" = []
        self._waiting = 0

    def submit(self, requests: "list[AttentionRequest]") -> None:
        """Queue ``requests``; admission order is ``(arrival_time, submit order)``."""
        waiting = [entry[-1] for entry in self._arrived] + self._queue[self._next :]
        self._queue = sorted(waiting + list(requests), key=attrgetter("arrival_time", "request_id"))
        ticks = self.time_base.first_ticks([request.arrival_time for request in self._queue])
        # Eight bytes a tick, not one int object each (the queue is sorted,
        # so its last tick is the largest; ticks past int64 stay a list).
        self._queue_ticks = array("q", ticks) if not ticks or ticks[-1] < 1 << 63 else ticks
        self._next = self._oldest = 0
        self._taken = set()
        self._arrived = []
        self._waiting = len(self._queue)

    @property
    def waiting_count(self) -> int:
        """Requests queued but not yet admitted."""
        return self._waiting

    @property
    def done(self) -> bool:
        """True when nothing is waiting and no shard has residents."""
        return not self._waiting and not any(self.running)

    def next_arrival_tick(self) -> "int | None":
        """First tick at or after the earliest waiting arrival (``None`` if empty)."""
        if self._oldest < len(self._queue):
            return self._queue_ticks[self._oldest]
        return None

    def free_slots(self, shard: int) -> int:
        """Slots a shard could still fill under its admission policy.

        Continuous admission exposes every unoccupied slot; drain admission
        exposes the full batch width when the shard is empty and nothing
        mid-flight (membership is fixed until the batch retires).
        """
        resident = len(self.running[shard])
        if self.admission == "drain" and resident:
            return 0
        return self.max_batch_size - resident

    def _rank_arrived(self, now: int, work_of) -> None:
        """SJF: move every request arrived by ``now`` into the work heap.

        Each request is ranked once, as the admission clock reaches its
        first tick; the heap pops the smallest ``(work, arrival_time,
        request_id)``, ties broken by queue order.
        """
        queue = self._queue
        ticks = self._queue_ticks
        index = self._next
        while index < len(queue) and ticks[index] <= now:
            request = queue[index]
            heapq.heappush(
                self._arrived,
                (work_of(request), request.arrival_time, request.request_id, index, request),
            )
            index += 1
        self._next = index

    def _take_ranked(self, now: int, slots: int, work_of) -> "list[AttentionRequest]":
        """SJF: remove and return up to ``slots`` arrived requests, least work first."""
        self._rank_arrived(now, work_of)
        taken = []
        while self._arrived and len(taken) < slots:
            *_, index, request = heapq.heappop(self._arrived)
            taken.append(request)
            self._taken.add(index)
        while self._oldest in self._taken:
            self._taken.discard(self._oldest)
            self._oldest += 1
        return taken

    def admit(self, shard: int, now: int, rows_of, work_of=None) -> "list[InFlightRequest]":
        """Admit arrived waiting requests into ``shard``'s free slots at tick ``now``.

        ``rows_of`` maps a request to its total row-work on the serving
        backend (how many rows it must stream before retiring); ``work_of``
        is the SJF job-size ranking key
        (:meth:`~repro.serving.backends.AttentionBackend.request_work`) and
        defaults to ``rows_of`` — on every current backend the two coincide.
        Returns the newly admitted in-flight records; occupancy never
        exceeds ``max_batch_size``.  The admits share one ``admit_time``
        float, ``now`` converted once.  ``now`` must not be earlier than
        the previous call's.
        """
        if now < self._now:
            raise ValueError(
                f"admission instants must not decrease: tick {now} after tick {self._now} "
                "(SJF ranks a request once, when the admission clock reaches it)"
            )
        self._now = now
        slots = self.free_slots(shard)
        if slots <= 0 or not self._waiting:
            return []
        if self.policy == "fcfs":
            # The queue is in (arrival_time, request_id) order, so the
            # arrived requests are the leading run of what is left of it.
            first = stop = self._next
            limit = min(len(self._queue), first + slots)
            ticks = self._queue_ticks
            while stop < limit and ticks[stop] <= now:
                stop += 1
            if stop == first:
                return []
            self._next = self._oldest = stop
            chosen = self._queue[first:stop]
        else:
            chosen = self._take_ranked(now, slots, work_of if work_of is not None else rows_of)
            if not chosen:
                return []
        self._waiting -= len(chosen)
        now_seconds = self.time_base.seconds(now)
        running = self.running[shard]
        admitted: "list[InFlightRequest]" = []
        for request in chosen:
            inflight = InFlightRequest(
                request,
                shard,
                rows_of(request),
                now,
                now_seconds,
                self._admission_ids,
                len(running) + 1,
            )
            if isinstance(request, DecodeRequest):
                # The decode's row axis is uniform per token on every
                # backend, so block boundaries sit at cumulative-token
                # multiples of the per-token row count.
                per_token = inflight.rows_total // request.new_tokens
                boundaries = []
                tokens_done = 0
                for size in request.block_schedule:
                    tokens_done += size
                    boundaries.append(tokens_done * per_token)
                boundaries[-1] = inflight.rows_total
                inflight.token_boundaries = tuple(boundaries)
                inflight.block_ticks = []
                if self.kv_residency is not None:
                    self.kv_residency.admit(request.request_id, request.kv_resident_bytes)
            self._admission_ids += 1
            running.append(inflight)
            admitted.append(inflight)
        return admitted

    def slices(self, shard: int, iteration_rows: int) -> "list[tuple[InFlightRequest, int]]":
        """The next iteration's row slice per resident, in slot order."""
        return [
            (inflight, min(iteration_rows, inflight.remaining_rows))
            for inflight in self.running[shard]
        ]

    def retire_finished(self, shard: int, now: int) -> "list[InFlightRequest]":
        """Remove the :attr:`~InFlightRequest.finished` residents (see :meth:`retire_slots`)."""
        return self.retire_slots(
            shard,
            [slot for slot, inflight in enumerate(self.running[shard]) if inflight.finished],
            now,
        )

    def retire_slots(self, shard: int, slots: "list[int]", now: int) -> "list[InFlightRequest]":
        """Remove the residents at ``slots`` (ascending), stamping their completion tick.

        Returns them in slot order.  Retiring a decode settles its KV
        residency: every block after the first re-read the resident cache
        (one hit each), and the request's bytes leave device memory.
        """
        running = self.running[shard]
        retired = []
        for slot in reversed(slots):
            retired.append(running.pop(slot))
        retired.reverse()
        for inflight in retired:
            inflight.finish_tick = now
            if inflight.token_boundaries is not None and self.kv_residency is not None:
                request = inflight.request
                self.kv_residency.touch(request.request_id, len(request.block_schedule) - 1)
                self.kv_residency.release(request.request_id)
        return retired


class _RunState:
    """Mutable accounting one serve call's scheduler loop folds into."""

    __slots__ = (
        "shards",
        "batcher",
        "time_base",
        "clocks",
        "primed",
        "rows_of",
        "work_of",
        "iteration_rows",
        "max_batch_size",
        "bus",
        "run_id",
        "record_iterations",
        "records",
        "occupancy_counts",
        "num_iterations",
        "completed",
        "energy_ticks",
        "num_decode",
        "decode_tokens",
        "ttfts",
        "token_gaps",
    )

    def __init__(
        self,
        shards,
        batcher: ContinuousBatcher,
        iteration_rows: int,
        max_batch_size: int,
        bus,
        run_id: int,
        record_iterations: bool,
    ) -> None:
        self.shards = shards
        self.batcher = batcher
        self.time_base = batcher.time_base
        self.clocks = [ServingClock() for _ in range(batcher.num_shards)]
        self.primed = [False] * batcher.num_shards
        # Every shard is the same backend on the same config (checked by
        # serve_continuous), so shard 0 answers for the pool.
        self.rows_of = shards[0].request_rows
        self.work_of = shards[0].request_work
        self.iteration_rows = iteration_rows
        self.max_batch_size = max_batch_size
        self.bus = bus
        self.run_id = run_id
        self.record_iterations = record_iterations
        self.records: "list[IterationRecord]" = []
        #: occupancy value -> iteration count (see :func:`occupancy_mean`).
        self.occupancy_counts: "Counter[float]" = Counter()
        self.num_iterations = 0
        self.completed: "list[CompletedRequest]" = []
        self.energy_ticks = 0
        self.num_decode = 0
        self.decode_tokens = 0
        self.ttfts: "list[float]" = []
        self.token_gaps: "list[float]" = []


def _check_pool(shards, backend: str) -> None:
    """Reject a pool whose shards would not share one pricing and time base."""
    first = shards[0]
    for index, shard in enumerate(shards[1:], start=1):
        if shard.name != first.name or shard.config != first.config:
            raise ValueError(
                f"shard {index} is a {shard.name!r} backend on {shard.config.describe()}, "
                f"but shard 0 is a {first.name!r} backend on {first.config.describe()}: "
                "every shard of a pool must be the same backend on the same config "
                "(they share one row model and one tick); serve each backend in its "
                "own serve_continuous call"
            )
    if backend != first.name:
        raise ValueError(
            f"backend={backend!r} labels the run, but its shards are {first.name!r} "
            f"backends; pass backend={first.name!r}"
        )


def serve_continuous(
    requests: "list[AttentionRequest]",
    config: "SWATConfig | None" = None,
    backend: str = "simulator",
    num_shards: int = 1,
    max_batch_size: int = 8,
    iteration_rows: int = DEFAULT_ITERATION_ROWS,
    admission: str = "continuous",
    policy: str = "fcfs",
    plan_cache: "PlanCache | None" = None,
    backends: "list | None" = None,
    bus=None,
    scheduler: str = "event",
    record_iterations: bool = True,
    run_id: int = 0,
) -> ServingResult:
    """Serve ``requests`` through the iteration-level scheduler.

    The deterministic simulated-clock engine: shards advance event-driven
    (the one with the earliest activation tick runs next), each iteration
    admits arrived requests under the ``admission`` policy, prices the
    backend's :meth:`~repro.serving.backends.AttentionBackend.step` clock,
    advances every resident's slice and retires finished requests — whose
    functional outputs are computed right there through the backend's
    stacked pass.  Whole-model
    :class:`~repro.serving.request.ForwardRequest`\\ s ride the same clock:
    their slices advance along the compiled model's row axis
    (layer-iteration granularity), priced positionally by the backend.
    :class:`~repro.serving.request.DecodeRequest`\\ s ride it too — only
    their new rows stream (prompt K/V resident, tracked by a per-run
    :class:`~repro.serving.cache.KVResidency`), block completions are
    stamped on the simulated clock as the row stream crosses token
    boundaries, and the run's TTFT / inter-token / tokens-per-sec stats fold
    from those stamps — so mixed prefill+decode traces run through this one
    entry point unchanged.

    The clock counts integer ticks of the pool's kernel clock; the
    backend's :attr:`~repro.serving.backends.AttentionBackend.time_base`
    converts them to the seconds and joules of the returned stats.

    ``scheduler`` selects the implementation: ``"event"`` (default) skips
    ahead between scheduling events and prices whole iteration bursts with
    one :meth:`~repro.serving.backends.AttentionBackend.step_burst` call;
    ``"reference"`` steps one Python loop per iteration.  Both produce
    bit-identical results (stats, records, completions, and telemetry once
    the reference's one-iteration bursts are coalesced) — the property tests
    pin them against each other.

    ``admission="drain"`` runs the same clock with static batching (a shard
    refills only once empty), so drain and continuous numbers differ by
    scheduling policy alone, never by device model.  ``policy`` orders the
    waiting queue (``"fcfs"`` or ``"sjf"``, see
    :class:`ContinuousBatcher`).  ``backends`` reuses one
    already-constructed backend instance per shard (they should share
    ``plan_cache`` for the cache counters to mean anything); by default one
    is created per shard.  Every shard must be the same backend on the same
    config, named by ``backend``.  ``bus`` (an
    :class:`~repro.telemetry.bus.EventBus`) streams the run's lifecycle
    events and one :class:`~repro.telemetry.events.BurstAdvanced` per priced
    burst (the reference scheduler's bursts are one iteration long), all
    stamped with ``run_id`` (multi-run logs replay one run at a time); with
    no bus (or no sinks) every emission collapses to one branch.
    ``record_iterations=False`` skips building the per-iteration
    :class:`IterationRecord` tuple — stats are unchanged, and large traces
    avoid materialising millions of records.

    Every request of a serve needs its own ``request_id``, and
    ``num_shards``, ``max_batch_size`` and ``iteration_rows`` must be
    positive ints; anything else is rejected before the run starts.
    """
    check_count("iteration_rows", iteration_rows)
    check_count("num_shards", num_shards)
    check_count("max_batch_size", max_batch_size)
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    position = {request.request_id: index for index, request in enumerate(requests)}
    if len(position) != len(requests):
        counts = Counter(request.request_id for request in requests)
        duplicate = next(request_id for request_id, count in counts.items() if count > 1)
        raise ValueError(
            f"request_id {duplicate} appears more than once in one serve: completions, "
            "outputs and KV residency are keyed by request_id, so give every request of "
            "a serve its own id"
        )
    config = config if config is not None else SWATConfig()
    bus = bus if bus is not None else NULL_BUS
    if plan_cache is None:
        plan_cache = PlanCache(bus=bus, run_id=run_id) if bus.active else PlanCache()
    start_wall = time.perf_counter()
    cache_before = plan_cache.counters()
    if backends is not None:
        if len(backends) != num_shards:
            raise ValueError(f"got {len(backends)} backends for {num_shards} shards")
        shards = list(backends)
    else:
        shards = [
            create_backend(backend, config=config, plan_cache=plan_cache)
            for _ in range(num_shards)
        ]
    _check_pool(shards, backend)
    time_base = shards[0].time_base

    if bus.active:
        bus.emit(
            RunStarted(
                backend=backend,
                num_shards=num_shards,
                max_batch_size=max_batch_size,
                num_requests=len(requests),
                tick_seconds=time_base.tick_seconds,
                power_w=time_base.power_w,
                mode=admission,
                policy=policy,
                iteration_rows=iteration_rows,
                run_id=run_id,
            )
        )
        for request in requests:
            bus.emit(
                RequestArrived(
                    request_id=request.request_id,
                    seq_len=request.seq_len,
                    head_rows=request.head_rows,
                    arrival_time=request.arrival_time,
                    run_id=run_id,
                )
            )

    kv_residency = KVResidency()
    batcher = ContinuousBatcher(
        max_batch_size,
        num_shards=num_shards,
        admission=admission,
        policy=policy,
        kv_residency=kv_residency,
        time_base=time_base,
    )
    batcher.submit(list(requests))
    state = _RunState(
        shards=shards,
        batcher=batcher,
        iteration_rows=iteration_rows,
        max_batch_size=max_batch_size,
        bus=bus,
        run_id=run_id,
        record_iterations=record_iterations,
    )
    if scheduler == "event":
        _event_loop(state)
    else:
        _reference_loop(state)

    wall_seconds = time.perf_counter() - start_wall
    cache_after = plan_cache.counters()
    completed = state.completed
    completed.sort(key=lambda done: position[done.request.request_id])
    makespan = max((done.finish_time for done in completed), default=0.0)
    queue_waits = [done.queue_seconds for done in completed]
    latencies = [done.latency_seconds for done in completed]
    # Sorted once: each percentile's own sort is then a linear pass.
    for samples in (queue_waits, latencies, state.ttfts, state.token_gaps):
        samples.sort()
    stats = ServingStats(
        backend=backend,
        num_requests=len(requests),
        num_shards=num_shards,
        max_batch_size=max_batch_size,
        device_makespan_seconds=makespan,
        shard_busy_seconds=tuple(time_base.seconds(clock.busy_ticks) for clock in state.clocks),
        total_energy_joules=time_base.joules(state.energy_ticks),
        wall_seconds=wall_seconds,
        cache_hits=cache_after["hits"] - cache_before["hits"],
        cache_misses=cache_after["misses"] - cache_before["misses"],
        total_head_rows=batch_head_rows(list(requests)),
        mode=admission,
        policy=policy,
        num_iterations=state.num_iterations,
        mean_occupancy=occupancy_mean(state.occupancy_counts),
        queue_p50_seconds=percentile(queue_waits, 50.0),
        queue_p95_seconds=percentile(queue_waits, 95.0),
        latency_p50_seconds=percentile(latencies, 50.0),
        latency_p95_seconds=percentile(latencies, 95.0),
        num_decode_requests=state.num_decode,
        decode_tokens=state.decode_tokens,
        kv_hits=kv_residency.hits,
        kv_misses=kv_residency.misses,
        ttft_p50_seconds=percentile(state.ttfts, 50.0),
        ttft_p95_seconds=percentile(state.ttfts, 95.0),
        inter_token_p50_seconds=percentile(state.token_gaps, 50.0),
        inter_token_p95_seconds=percentile(state.token_gaps, 95.0),
    )
    if bus.active:
        bus.emit(RunFinished(wall_seconds=wall_seconds, stats=stats.to_dict(), run_id=run_id))
    return ServingResult(
        completed=completed,
        stats=stats,
        time_base=time_base,
        iterations=tuple(state.records),
    )


def _reference_loop(state: _RunState) -> None:
    """The quantum-stepped scheduler: one Python loop per priced iteration.

    The executable specification of the continuous engine — the event
    scheduler below must reproduce its every accounting bit.  Each loop
    iteration picks the earliest-activating shard by linear scan, admits,
    prices one :meth:`~repro.serving.backends.AttentionBackend.step` (a
    one-iteration burst on the bus), advances residents and retires the
    finished.
    """
    batcher = state.batcher
    bus = state.bus
    while not batcher.done:
        shard = _next_active_shard(batcher, state.clocks)
        clock = state.clocks[shard]
        if not batcher.running[shard]:
            # Idle shard: skip forward to its next arrival (idle, not busy).
            next_arrival = batcher.next_arrival_tick()
            if next_arrival is not None:
                clock.jump_to(next_arrival)
        admitted = batcher.admit(shard, clock.now, state.rows_of, work_of=state.work_of)
        residents = batcher.running[shard]
        if not residents:  # pragma: no cover - defensive; admit() always lands one
            continue
        if bus.active and admitted:
            _emit_admissions(state, shard, admitted, batcher.waiting_count)
        slices = batcher.slices(shard, state.iteration_rows)
        cost = state.shards[shard].step(
            [(inflight.request, inflight.rows_done, rows) for inflight, rows in slices],
            state.primed[shard],
        )
        start = clock.now
        clock.advance(cost.ticks)
        state.energy_ticks += cost.energy_ticks
        was_primed = state.primed[shard]
        if bus.active:
            _emit_burst(
                state, shard, start, 1, cost.ticks, cost.energy_ticks, was_primed, len(slices)
            )
        for inflight, rows in slices:
            inflight.rows_done += rows
            inflight.device_ticks += cost.ticks
            if inflight.token_boundaries is not None:
                _mark_blocks(inflight, clock.now)
        retired = batcher.retire_finished(shard, clock.now)
        done = _complete(state, shard, retired)
        if bus.active:
            for inflight, completion in zip(retired, done):
                _emit_retired(state, inflight, completion)
        index = state.num_iterations
        state.num_iterations += 1
        occupancy = len(slices) / state.max_batch_size
        state.occupancy_counts[occupancy] += 1
        if state.record_iterations:
            state.records.append(
                IterationRecord(
                    index=index,
                    shard=shard,
                    start_tick=start,
                    ticks=cost.ticks,
                    energy_ticks=cost.energy_ticks,
                    gate_rows=cost.gate_rows,
                    primed=was_primed,
                    resident=tuple(
                        (inflight.request.request_id, rows) for inflight, rows in slices
                    ),
                    admitted=tuple(inflight.request.request_id for inflight in admitted),
                    retired=tuple(inflight.request.request_id for inflight in retired),
                    occupancy=occupancy,
                )
            )
        # The pipeline stays primed only while the shard keeps streaming.
        state.primed[shard] = bool(batcher.running[shard])


def _event_loop(state: _RunState) -> None:
    """The event-driven scheduler: skip ahead, price iteration bursts.

    A heap of ``(activation tick, shard, version)`` entries replaces the
    reference loop's linear scan (tuple order reproduces its tie-break:
    earliest activation, then lowest shard index).  Per-shard version
    counters invalidate stale entries lazily — an admission that moves the
    queue head re-versions every empty shard, since their activations quote
    the old head's arrival tick.

    The shard, not the resident, is the unit the loop advances.  Residents
    stream in lockstep, so each shard keeps one row counter
    (:class:`~repro.serving.backends.Residents`).  Admission stamps a
    resident's finish row (counter plus its rows) and the shard's busy
    ticks; a burst adds ``length * iteration_rows`` to the counter and
    touches no resident; a resident retires once the counter reaches its
    finish row, and only then are its ``rows_done`` and its
    ``device_ticks`` (busy ticks now minus at admission) stamped.  Both
    equal the reference loop's per-iteration sums exactly: every resident
    advances the same rows until the burst's first retirement ends it, and
    a request's device ticks are the ticks of the shard's iterations it was
    resident in.  Only decode residents are visited per activation, to
    stamp the blocks the burst completed.

    After admitting at the popped shard the resident set is fixed until the
    next retirement, so the backend prices the whole run of iterations to
    that retirement in one
    :meth:`~repro.serving.backends.AttentionBackend.step_burst` call; the
    burst is then cut short at the first iteration whose start would admit a
    newly arrived request (it starts at or after the arrival's first tick),
    or at another shard's activation — one
    :meth:`~repro.serving.backends.StepBurst.first_start_at` question.  A
    cut burst keeps its unconsumed
    :meth:`~repro.serving.backends.StepBurst.tail`, and the shard's next
    activation continues from it unless it admits — only a retirement ends a
    burst, so the residents are the ones it was priced for, and its primed
    entries are the ticks a fresh call would return.  Clock, busy time and
    energy add the burst's integer
    :meth:`~repro.serving.backends.StepBurst.ticks_through` sums, so they
    equal the reference loop's one-at-a-time additions exactly.

    With a listening bus, each priced burst is one
    :class:`~repro.telemetry.events.BurstAdvanced`, cut segments and all:
    the shard's open burst keeps its start tick, primed flag and residents
    and sums the iterations and energy of each segment consumed, and is
    emitted when something ends it — ahead of the retirement at its last
    iteration, or of an admission that re-prices the shard.
    """
    batcher = state.batcher
    clocks = state.clocks
    num_shards = batcher.num_shards
    quantum = state.iteration_rows
    version = [0] * num_shards
    heap: "list[tuple[int, int, int]]" = []
    # Per shard: its last burst and the iterations consumed of it, or None
    # once a retirement ended it.
    pending: "list[tuple[StepBurst, int] | None]" = [None] * num_shards
    # Per shard, while a bus listens: the burst priced but not yet emitted,
    # as [start tick, iterations, energy ticks, primed, residents].
    open_bursts: "list[list | None]" = [None] * num_shards
    # Per shard: the residents as lockstep columns, slot-aligned with
    # ``batcher.running``; the decode residents with their start rows; the
    # other shards.
    lanes = [Residents() for _ in range(num_shards)]
    decoding: "list[list[tuple[InFlightRequest, int]]]" = [[] for _ in range(num_shards)]
    peers = [[other for other in range(num_shards) if other != one] for one in range(num_shards)]
    # Hot-loop locals: the while body below runs once per shard activation,
    # up to hundreds of thousands of times per serve.
    shards = state.shards
    primed = state.primed
    rows_of = state.rows_of
    work_of = state.work_of
    listening = state.bus.active
    record = state.record_iterations
    occupancy_counts = state.occupancy_counts
    max_batch_size = state.max_batch_size
    running = batcher.running
    next_arrival_tick = batcher.next_arrival_tick
    admit = batcher.admit
    free_slots = batcher.free_slots
    retire_slots = batcher.retire_slots
    heappush = heapq.heappush
    heappop = heapq.heappop

    def emit_open_burst(shard: int) -> None:
        start_tick, iterations, energy, was_primed, count = open_bursts[shard]
        open_bursts[shard] = None
        ticks = clocks[shard].now - start_tick
        _emit_burst(state, shard, start_tick, iterations, ticks, energy, was_primed, count)

    def push(shard: int) -> None:
        version[shard] += 1
        if running[shard]:
            activation = clocks[shard].now
        else:
            next_arrival = next_arrival_tick()
            if next_arrival is None:
                return
            activation = max(clocks[shard].now, next_arrival)
        heappush(heap, (activation, shard, version[shard]))

    for shard in range(num_shards):
        push(shard)
    # Run totals, written back to the state once the loop ends.
    energy_ticks = state.energy_ticks
    num_iterations = state.num_iterations

    # Every shard with residents, and every empty one while requests wait,
    # holds a current heap entry: the heap runs dry exactly when the
    # batcher is done.
    while heap:
        _, shard, entry_version = heappop(heap)
        if entry_version != version[shard]:
            continue
        clock = clocks[shard]
        lane = lanes[shard]
        head_before = next_arrival_tick()
        if not running[shard] and head_before is not None and head_before > clock.now:
            clock.now = head_before
        admitted = admit(shard, clock.now, rows_of, work_of)
        residents = running[shard]
        if not residents:  # pragma: no cover - defensive; admit() always lands one
            push(shard)
            continue
        head_now = next_arrival_tick()
        if admitted:
            busy = clock.busy_ticks
            for inflight in admitted:
                inflight.busy_at_admit = busy
                if inflight.token_boundaries is not None:
                    decoding[shard].append((inflight, lane.row))
                lane.add(inflight.request, inflight.rows_total)
            if head_now != head_before:
                # The queue head moved: empty shards' queued activations
                # quoted the old head and must be re-versioned.
                for other in peers[shard]:
                    if not running[other]:
                        push(other)
            if listening:
                if open_bursts[shard] is not None:
                    # This admission ends the cut burst: it is re-priced below.
                    emit_open_burst(shard)
                _emit_admissions(state, shard, admitted, batcher.waiting_count)
        if admitted or pending[shard] is None:
            burst = shards[shard].step_burst(lane, primed[shard], quantum)
            if listening:
                open_bursts[shard] = [clock.now, 0, 0, primed[shard], len(residents)]
        else:
            cut, consumed = pending[shard]
            burst = cut.tail(consumed)
        length = burst.iterations
        start = clock.now
        # The burst ends before its first iteration starting at or after
        # ``cut_at``: an admission-eligible arrival's first tick (the
        # iteration starting there would admit it), or another shard's
        # activation (at an exact tie the reference scan prefers the lower
        # shard index).
        cut_at = head_now if head_now is not None and free_slots(shard) > 0 else None
        while heap and heap[0][2] != version[heap[0][1]]:
            heappop(heap)
        if heap:
            other_activation, other_shard, _ = heap[0]
            other_cut = other_activation + 1 if shard < other_shard else other_activation
            if cut_at is None or other_cut < cut_at:
                cut_at = other_cut
        if cut_at is not None:
            first = burst.first_start_at(cut_at - start)
            if first < length:
                length = first if first > 1 else 1
        retiring = length == burst.iterations
        pending[shard] = None if retiring else (burst, length)
        row = lane.row
        if record:
            resident = [
                (request.request_id, finish - row)
                for request, finish in zip(lane.requests, lane.finishes)
            ]
        ticks = burst.ticks_through(length)
        clock.now = start + ticks
        clock.busy_ticks += ticks
        energy = burst.energy_through(length)
        energy_ticks += energy
        lane.row = row + length * quantum
        for inflight, row_start in decoding[shard]:
            _mark_blocks_burst(
                inflight, row - row_start, lane.row - row_start, burst, start, quantum
            )
        occupancy = len(residents) / max_batch_size
        occupancy_counts[occupancy] += length
        base_index = num_iterations
        num_iterations += length
        if listening:
            this_burst = open_bursts[shard]
            this_burst[1] += length
            this_burst[2] += energy
            if retiring:
                # Emitted ahead of the retirement's lookups and events.
                emit_open_burst(shard)
        if retiring:
            retired = retire_slots(shard, lane.retire(), clock.now)
            busy = clock.busy_ticks
            for inflight in retired:
                inflight.rows_done = inflight.rows_total
                inflight.device_ticks = busy - inflight.busy_at_admit
            if decoding[shard]:
                decoding[shard] = [
                    entry for entry in decoding[shard] if entry[0].finish_tick is None
                ]
        else:
            retired = ()
        done = _complete(state, shard, retired)
        if listening:
            for inflight, completion in zip(retired, done):
                _emit_retired(state, inflight, completion)
        if record:
            _record_iterations(
                state, shard, resident, burst, start, base_index, admitted, length, retired
            )
        if residents:
            primed[shard] = True
            version[shard] += 1
            heappush(heap, (clock.now, shard, version[shard]))
        else:
            primed[shard] = False
            push(shard)
    state.energy_ticks = energy_ticks
    state.num_iterations = num_iterations
    if not batcher.done:  # pragma: no cover - defensive
        raise RuntimeError("the event scheduler ran out of activations with requests unserved")


def _record_iterations(
    state: _RunState,
    shard: int,
    resident,
    burst,
    start: int,
    base_index: int,
    admitted,
    length: int,
    retired,
) -> None:
    """Expand the activation's ``length`` burst iterations into records.

    The event scheduler's records path, entered only when the run keeps
    per-iteration records.  ``resident`` holds ``(request_id, rows_left)``
    per resident as the activation found them; ``retired`` is empty unless
    the activation's last iteration retires.
    """
    quantum = state.iteration_rows
    occupancy = len(resident) / state.max_batch_size
    full_resident = tuple((request_id, quantum) for request_id, _ in resident)
    admitted_ids = tuple(inflight.request.request_id for inflight in admitted)
    retired_ids = tuple(inflight.request.request_id for inflight in retired)
    ticks = burst.ticks
    energy_ticks = burst.energy_ticks
    gate_rows = burst.gate_rows
    for index in range(length):
        final = index == length - 1
        if final and retired:
            resident_rows = tuple(
                (request_id, min(quantum, rows_left - (length - 1) * quantum))
                for request_id, rows_left in resident
            )
        else:
            resident_rows = full_resident
        state.records.append(
            IterationRecord(
                index=base_index + index,
                shard=shard,
                start_tick=start + burst.ticks_through(index),
                ticks=int(ticks[index]),
                energy_ticks=int(energy_ticks[index]),
                gate_rows=int(gate_rows[index]),
                primed=state.primed[shard] if index == 0 else True,
                resident=resident_rows,
                admitted=admitted_ids if index == 0 else (),
                retired=retired_ids if final else (),
                occupancy=occupancy,
            )
        )


def _emit_burst(
    state: _RunState,
    shard: int,
    start_tick: int,
    iterations: int,
    ticks: int,
    energy_ticks: int,
    primed: bool,
    residents: int,
) -> None:
    """One priced burst of ``iterations`` over ``residents`` on ``shard``."""
    state.bus.emit(
        BurstAdvanced(
            shard=shard,
            start_tick=start_tick,
            iterations=iterations,
            ticks=ticks,
            energy_ticks=energy_ticks,
            primed=primed,
            residents=residents,
            occupancy=residents / state.max_batch_size,
            run_id=state.run_id,
        )
    )


def _emit_admissions(state: _RunState, shard: int, admitted, queue_depth: int) -> None:
    """Admission events plus the queue-depth sample, in reference order."""
    for inflight in admitted:
        state.bus.emit(
            RequestAdmitted(
                request_id=inflight.request.request_id,
                shard=shard,
                admit_time=inflight.admit_time,
                residency=inflight.residency_at_admit,
                run_id=state.run_id,
            )
        )
    state.bus.emit(QueueDepth(depth=queue_depth, time=admitted[0].admit_time, run_id=state.run_id))


def _mark_blocks(inflight: InFlightRequest, now: int) -> None:
    """Stamp every decode block the request's row stream just crossed.

    Called after an iteration advanced ``rows_done``: a block completes at
    the end of the iteration that streams past its boundary, so its tick is
    the advanced clock.
    """
    boundaries = inflight.token_boundaries
    blocks = inflight.block_ticks
    while len(blocks) < len(boundaries) and inflight.rows_done >= boundaries[len(blocks)]:
        blocks.append(now)


def _mark_blocks_burst(
    inflight: InFlightRequest, start_rows: int, streamed: int, burst, start: int, quantum: int
) -> None:
    """Burst-path block stamping: boundaries map to burst iteration ends.

    The decode had streamed ``start_rows`` rows when the burst started and
    ``streamed`` when it ended (past its ``rows_total`` if it retires: the
    lockstep counter runs on).  A boundary crossed in the burst's iteration
    ``j`` (1-based) completes at ``start + burst.ticks_through(j)`` — the
    tick the reference loop's clock shows after that iteration.
    """
    boundaries = inflight.token_boundaries
    blocks = inflight.block_ticks
    while len(blocks) < len(boundaries) and streamed >= boundaries[len(blocks)]:
        iteration = -(-(boundaries[len(blocks)] - start_rows) // quantum)
        blocks.append(start + burst.ticks_through(iteration))


def _complete(state: _RunState, shard: int, retired) -> "list[CompletedRequest]":
    """Completions of one activation's retirees (one stacked output pass).

    The finish instant is converted to seconds once and shared by every
    retiree, as their admit instant was at admission; each decode's
    per-token accounting folds into the run state.
    """
    if not retired:
        return []
    time_base = state.time_base
    finish_time = time_base.seconds(retired[0].finish_tick)
    backend = state.shards[shard]
    if backend.functional:
        outputs = backend.compute_outputs([inflight.request for inflight in retired])
    else:
        outputs = (None,) * len(retired)
    done = []
    for inflight, output in zip(retired, outputs):
        request = inflight.request
        done.append(
            CompletedRequest(
                request,
                output,
                inflight.shard,
                inflight.admission_id,
                inflight.residency_at_admit,
                time_base.seconds(inflight.device_ticks),
                request.arrival_time,
                inflight.admit_time,
                finish_time,
            )
        )
        if inflight.token_boundaries is not None:
            state.num_decode += 1
            state.decode_tokens += request.new_tokens
            ttft, gaps = decode_token_intervals(
                _block_times(state, inflight), request.block_schedule, request.arrival_time
            )
            state.ttfts.append(ttft)
            state.token_gaps.extend(gaps)
    state.completed.extend(done)
    return done


def _block_times(state: _RunState, inflight: InFlightRequest) -> "tuple[float, ...]":
    """A decode's block completion instants, in seconds.

    Blocks finishing in the same iteration share its end tick (stamps never
    decrease), and each distinct tick is converted once, so those blocks
    share one float.
    """
    times = []
    last_tick = None
    for tick in inflight.block_ticks:
        if tick != last_tick:
            last_tick = tick
            instant = state.time_base.seconds(tick)
        times.append(instant)
    return tuple(times)


def _emit_retired(state: _RunState, inflight: InFlightRequest, done: CompletedRequest) -> None:
    """Emit one retirement's events: decode accounting first, then retired."""
    request = inflight.request
    if inflight.token_boundaries is not None:
        state.bus.emit(
            RequestDecoded(
                request_id=request.request_id,
                new_tokens=request.new_tokens,
                block_sizes=request.block_schedule,
                block_times=_block_times(state, inflight),
                arrival_time=request.arrival_time,
                run_id=state.run_id,
            )
        )
    state.bus.emit(
        RequestRetired(
            request_id=request.request_id,
            shard=done.shard,
            batch_id=done.batch_id,
            batch_size=done.batch_size,
            device_seconds=done.device_seconds,
            arrival_time=done.arrival_time,
            admit_time=done.admit_time,
            finish_time=done.finish_time,
            run_id=state.run_id,
        )
    )


def _next_active_shard(batcher: ContinuousBatcher, clocks: "list[ServingClock]") -> int:
    """The shard whose next iteration starts earliest (event-driven order).

    A shard with residents activates at its own clock; an empty shard
    activates at the first tick of the next waiting arrival.  Ties break on
    shard index, so the loop is deterministic.
    """
    next_arrival = batcher.next_arrival_tick()
    best_shard = None
    best_time = None
    for shard, clock in enumerate(clocks):
        if batcher.running[shard]:
            activation = clock.now
        elif next_arrival is not None:
            activation = max(clock.now, next_arrival)
        else:
            continue
        if best_time is None or activation < best_time:
            best_shard, best_time = shard, activation
    assert best_shard is not None  # batcher.done guards the loop
    return best_shard


def swat_request_rate(
    config: SWATConfig,
    seq_lens: "list[int]",
    num_shards: int = 1,
    max_batch_size: int = 8,
    num_heads: int = 1,
    num_layers: int = 1,
) -> float:
    """Requests/sec a fully occupied continuous pool can stream (SWAT clock).

    At full occupancy every iteration advances ``max_batch_size`` slices in
    parallel, one gating row per initiation interval, so the pool streams
    ``num_shards * max_batch_size / (II * clock_period)`` rows per second;
    dividing by the mean rows per request of the traffic mix (each request
    carrying ``num_heads`` heads per layer over ``num_layers`` layers, heads
    spread across the replicated pipelines exactly as the backend's
    ``request_rows``) gives the saturation request rate — multiply by a load
    factor > 1 for an overloaded trace.  ``num_layers > 1`` sizes the rate
    for whole-model forward traffic.
    """
    if not seq_lens:
        raise ValueError("seq_lens must be non-empty")
    if num_heads <= 0:
        raise ValueError(f"num_heads must be positive, got {num_heads}")
    if num_layers <= 0:
        raise ValueError(f"num_layers must be positive, got {num_layers}")
    pipeline = SWATPipelineModel(config)
    mean_rows = mean(
        num_layers * ceil(num_heads / config.num_pipelines) * seq_len for seq_len in seq_lens
    )
    rows_per_second = (
        num_shards * max_batch_size / (pipeline.initiation_interval * config.clock_period_s)
    )
    return rows_per_second / mean_rows


# --------------------------------------------------------------------- #
# Scenario runner: the continuous-vs-drain comparison tests and
# benchmarks share
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScenarioComparison:
    """Both admission policies run over one trace on one iteration clock."""

    continuous: ServingResult
    drain: ServingResult

    @property
    def speedup(self) -> float:
        """Modelled continuous-over-drain requests/sec ratio."""
        drain_rps = self.drain.stats.requests_per_second
        if drain_rps <= 0:
            return float("inf")
        return self.continuous.stats.requests_per_second / drain_rps


#: ``run_id`` each admission policy's events carry in a compare_modes log.
COMPARE_RUN_IDS = {"continuous": 0, "drain": 1}


def compare_modes(
    requests: "list[AttentionRequest]",
    config: "SWATConfig | None" = None,
    backend: str = "analytical",
    num_shards: int = 1,
    max_batch_size: int = 8,
    iteration_rows: int = DEFAULT_ITERATION_ROWS,
    policy: str = "fcfs",
    bus=None,
) -> ScenarioComparison:
    """Run one arrival trace under both admission policies, same clock.

    Both runs price iterations with the identical backend ``step`` model, so
    the reported :attr:`ScenarioComparison.speedup` isolates what mid-flight
    admission/retirement buys over static drain batching.  Each policy gets
    its own :class:`~repro.serving.cache.PlanCache` so cache counters stay
    comparable.  ``bus`` instruments **both** runs into one multi-run log:
    the continuous run's events carry ``run_id=0`` and the drain run's
    ``run_id=1`` (:data:`COMPARE_RUN_IDS`), so ``repro-trace replay
    --run-id`` (or :class:`~repro.telemetry.replay.TraceReplayer` with
    ``run_id=``) reconstructs either side of the comparison from one log.
    """
    results = {}
    for admission in ADMISSION_MODES:
        run_id = COMPARE_RUN_IDS[admission]
        results[admission] = serve_continuous(
            requests,
            config=config,
            backend=backend,
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
            admission=admission,
            policy=policy,
            plan_cache=PlanCache(bus=bus, run_id=run_id) if bus is not None else PlanCache(),
            bus=bus,
            run_id=run_id,
        )
    return ScenarioComparison(continuous=results["continuous"], drain=results["drain"])
