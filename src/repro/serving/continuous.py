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
largest (gating) slice.  Each request is resolved once, at admission, to
its *row program* on the pool's backend
(:meth:`~repro.serving.backends.AttentionBackend.program`), and pricing is
the backend's :meth:`~repro.serving.backends.AttentionBackend.step` over the
residents' programs: on the SWAT pipeline a cold iteration pays the fill
(``depth + (rows - 1) * II``) and a primed one streams at ``rows * II``, so
the per-iteration cycles of a busy period sum bit-exactly to what
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
    Event-driven and columnar.  A request is an index into int64 columns
    from submission to completion (:class:`ContinuousBatcher`): admission
    writes its admit tick, shard, admission id and residency, retirement
    its finish and device ticks, and the completions are built from the
    columns in one pass at the end; only a decode keeps a record of its
    own, for its block stamps.  A heap over per-shard activation ticks
    replaces the linear scan, and between an admission and the next
    retirement the resident set is fixed — the backend prices that whole
    *burst* of iterations in one
    :meth:`~repro.serving.backends.AttentionBackend.step_burst` call, and
    the loop folds it into the accounting with integer prefix sums (an
    attention-only SWAT burst answers them in closed form from two ints,
    the fewest and the most rows left).  The shard, not the resident, is
    what the loop advances: residents stream in lockstep, so each shard
    keeps one row counter, a burst moves only that counter, and a
    resident's device ticks are stamped once, at retirement (the shard's
    busy ticks over its residency).  A burst stopped by an arrival, or
    ahead of its retiring iteration by another shard's activation, is
    resumed, not repriced, at the shard's next activation unless that
    activation admits.  Pricing cost scales with *resident-set changes*,
    not iterations or activations: a 100k-request diurnal trace replays in
    under a second.  So does reporting: each priced burst is one
    :class:`BurstRecord` in :attr:`ServingResult.bursts` and, on a listening
    bus, one ``burst_advanced`` event, however many iterations it runs.

``"reference"``
    The retained quantum-stepped loop: one Python iteration per priced
    device iteration, over one :class:`InFlightRequest` per resident.  Its
    records and events are one-iteration bursts.  The executable
    specification the property tests pin the event scheduler against.

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
from itertools import accumulate, repeat
from math import ceil
from operator import attrgetter
from statistics import mean

import numpy as np

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
    "BurstRecord",
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
            f"{name} must be an int, got {value!r} ({type(value).__name__}): {_WHOLE_COUNTS[name]}"
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
    """The reference scheduler's record of a request resident in a shard.

    :meth:`ContinuousBatcher.admit` builds one per admission, on top of the
    index-level :meth:`~ContinuousBatcher.seat`, which has already written
    the request's admission columns; the event scheduler builds none.
    ``index`` is the request's submission index, the key of those columns.

    ``program`` is the request's row program on the pool's backend,
    resolved once at admission, and ``rows_total`` its ``total_rows``: the
    request retires once it has streamed them.  The reference loop advances
    ``rows_done`` and ``device_ticks`` every iteration.
    """

    request: AttentionRequest
    index: int
    program: object
    rows_total: int
    rows_done: int = 0
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

    @property
    def remaining_rows(self) -> int:
        """Row-work units still to stream before retirement."""
        return self.rows_total - self.rows_done

    @property
    def finished(self) -> bool:
        """True once every row of the request has streamed."""
        return self.rows_done >= self.rows_total


@dataclass(frozen=True)
class BurstRecord:
    """Accounting for one priced burst of one shard, in integer ticks.

    A burst is the run of iterations the backend priced in one go: from an
    admission, or the retirement before it, to the next retirement or the
    admission that re-prices the shard.  Its residents are fixed throughout.
    """

    shard: int
    start_tick: int
    iterations: int
    ticks: int
    #: The ticks the backend's energy rule charged for the burst.
    energy_ticks: int
    #: Whether the pipeline was primed at the burst's first iteration (busy
    #: in the immediately preceding iteration of this shard); the later
    #: iterations are primed by construction, and a primed one pays no fill.
    primed: bool
    #: Residents as a fraction of ``max_batch_size`` slots.
    occupancy: float
    #: ``(request_id, rows streamed in the burst)`` per resident, in slot order.
    resident: "tuple[tuple[int, int], ...]"
    admitted: "tuple[int, ...]"
    retired: "tuple[int, ...]"


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving run produced.

    ``bursts`` holds one :class:`BurstRecord` per priced burst, in
    ``(start_tick, shard)`` order, or nothing when the run passed
    ``record_iterations=False``.  ``time_base`` is the pool's tick and
    energy-rule power: it converts the records' ticks to the seconds and
    joules of ``stats``.
    """

    completed: "list[CompletedRequest]"
    stats: ServingStats
    time_base: TimeBase
    bursts: "tuple[BurstRecord, ...]" = ()

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
    """Iteration-level batching state: the waiting queue and the request columns.

    :meth:`submit` makes each request an *index*, its position in
    :attr:`requests`, and from then until the stats are built the engine
    handles it as that int.  The queue orders indices, and each lifecycle
    stamp is written into an int64 column (an ``array('q')``) at it:
    ``admit_ticks``, ``shard_of``, ``batch_ids`` and ``batch_sizes`` at
    admission, ``finish_ticks`` and ``device_ticks`` at retirement.  Only a
    decode keeps a per-request record, in :attr:`decodes`: its token
    boundaries and block ticks.

    Requests wait, ordered by ``(arrival_time, request_id)``, until a shard
    admits them.  Under ``admission="continuous"`` a shard admits whenever a
    slot is free — a retirement frees its slot for the next arrived request
    *mid-flight*.  Under ``admission="drain"`` a shard admits only when it
    has no residents (the static-batching policy the scenario runner
    compares against); membership is then fixed until every member retires.

    ``policy`` decides which *arrived* waiting request a free slot takes.
    ``"fcfs"`` admits in arrival order, so the queue is a cursor.  ``"sjf"``
    (shortest-job-first) admits the arrived request with the least *total
    backend work*, its row program's ``total_rows`` (an L-layer forward
    ranks at all L layers' rows, a decode at the rows of its new tokens, so
    a forward never ranks as if it were one layer), ties broken by
    ``(arrival_time, request_id)``, so the schedule stays deterministic and
    degenerates to FCFS on uniform-length traffic.  Each request is ranked
    once, when the admission clock first reaches its arrival, into a heap of
    indices keyed ``(total_rows, arrival_time, request_id)``; the program it
    was ranked by is kept for its admission.  Under bursty mixed-length load
    SJF stops a long request from parking ahead of a queue of short ones,
    cutting p95 latency (the seeded A/B test in the suite).

    ``kv_residency`` (a :class:`~repro.serving.cache.KVResidency`) tracks
    decode K/V: admitted decodes pin their final-context bytes (one miss for
    the prompt load), retirement counts one hit per post-first block and
    releases the bytes.

    Clock instants (``now``) are integer ticks of ``time_base`` (by default
    one-second ticks, so plain seconds work too).  A request is admissible
    at ``now`` when ``arrival_time <= time_base.seconds(now)``, i.e. from
    its first tick on; :meth:`submit` computes every request's first tick
    once.  Admission instants never decrease (both schedulers activate
    shards in tick order), and :meth:`seat` rejects one that does.

    The event scheduler drives the index level, :meth:`seat` and
    :meth:`release`.  The reference scheduler drives a thin
    :class:`InFlightRequest` layer over them (:meth:`admit`, :meth:`slices`
    and :meth:`retire_finished`, with each shard's records in
    :attr:`running`), so both schedulers run one queue.
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
        #: Submitted requests; a request's index is its position here.
        self.requests: "list[AttentionRequest]" = []
        #: Arrival instants by index (float64); ``None`` until :meth:`submit`.
        self.arrivals: "np.ndarray | None" = None
        self.admit_ticks = array("q")
        self.shard_of = array("q")
        self.batch_ids = array("q")
        self.batch_sizes = array("q")
        #: The event scheduler parks the shard's busy ticks at admission
        #: here until the request retires.
        self.device_ticks = array("q")
        self.finish_ticks = array("q")
        #: Decodes in flight, by index: ``(token boundaries, block ticks)``.
        self.decodes: "dict[int, tuple[tuple[int, ...], list[int]]]" = {}
        #: Residents per shard.
        self.resident = [0] * num_shards
        #: The reference scheduler's in-flight records per shard, in slot order.
        self.running: "list[list[InFlightRequest]]" = [[] for _ in range(num_shards)]
        # The queue: indices in (arrival_time, request_id) order and their
        # first ticks.  The admission clock has reached the first ``_next``
        # positions: FCFS admitted them, SJF ranked them into the heap
        # ``_ranked`` (entry ``total_rows * len(_order) + position``, so it
        # pops the least work first, then the earliest position) with their
        # programs in ``_programs``.  ``_oldest`` is the first position still
        # waiting, and ``_head_tick`` its first tick (``None`` when none
        # waits); ``_taken`` flags the positions past it SJF admitted.
        self._head_tick: "int | None" = None
        self._order = array("q")
        self._ticks = array("q")
        self._next = 0
        self._oldest = 0
        self._taken = bytearray()
        self._ranked: "list[int]" = []
        self._programs: "dict[int, object]" = {}
        self._waiting = 0
        self._admission_ids = 0
        # The last admission instant: instants never decrease.
        self._now = 0

    def submit(self, requests: "list[AttentionRequest]") -> None:
        """Queue the trace ``requests``: a batcher serves one trace.

        A request's index is its position in ``requests``, and admission
        order is ``(arrival_time, request_id)``.  A second call raises
        ``ValueError``.  The queue keeps first ticks as int64: an arrival
        whose first tick does not fit raises ``OverflowError`` with nothing
        queued.
        """
        if self.arrivals is not None:
            raise ValueError(
                "this batcher already holds a trace: submit every request of a serve in one call"
            )
        requests = list(requests)
        order = sorted(
            range(len(requests)),
            key=lambda index: (requests[index].arrival_time, requests[index].request_id),
        )
        arrivals = np.fromiter(map(attrgetter("arrival_time"), requests), float)
        ticks = array("q", self.time_base.first_ticks(arrivals[order]))
        self.requests, self.arrivals = requests, arrivals
        for column in (
            self.admit_ticks,
            self.shard_of,
            self.batch_ids,
            self.batch_sizes,
            self.device_ticks,
            self.finish_ticks,
        ):
            column.frombytes(bytes(8 * len(requests)))
        self._order = array("q", order)
        self._ticks = ticks
        if self.policy == "sjf":
            self._taken = bytearray(len(order))
        self._waiting = len(order)
        self._head_tick = ticks[0] if ticks else None

    @property
    def waiting_count(self) -> int:
        """Requests queued but not yet admitted."""
        return self._waiting

    @property
    def done(self) -> bool:
        """True when nothing is waiting and no shard has residents."""
        return not self._waiting and not any(self.resident)

    def next_arrival_tick(self) -> "int | None":
        """First tick at or after the earliest waiting arrival (``None`` if empty)."""
        return self._head_tick

    def free_slots(self, shard: int) -> int:
        """Slots a shard could still fill under its admission policy.

        Continuous admission exposes every unoccupied slot; drain admission
        exposes the full batch width when the shard is empty and nothing
        mid-flight (membership is fixed until the batch retires).
        """
        resident = self.resident[shard]
        if self.admission == "drain" and resident:
            return 0
        return self.max_batch_size - resident

    def _take_ranked(self, now: int, slots: int, program_of) -> "tuple[list[int], list]":
        """SJF: rank every request arrived by ``now``, then take up to ``slots``.

        Each request is resolved and ranked once, as the admission clock
        reaches its first tick.  Returns the taken indices, least work
        first, and the programs they were ranked by.
        """
        order, ticks, requests = self._order, self._ticks, self.requests
        count = len(order)
        ranked, programs = self._ranked, self._programs
        position = self._next
        while position < count and ticks[position] <= now:
            program = programs[position] = program_of(requests[order[position]])
            heapq.heappush(ranked, program.total_rows * count + position)
            position += 1
        self._next = position
        taken = self._taken
        indices, chosen = [], []
        while ranked and len(indices) < slots:
            position = heapq.heappop(ranked) % count
            taken[position] = 1
            indices.append(order[position])
            chosen.append(programs.pop(position))
        oldest = self._oldest
        while oldest < count and taken[oldest]:
            oldest += 1
        self._oldest = oldest
        return indices, chosen

    def seat(self, shard: int, now: int, program_of) -> "tuple":
        """Admit arrived waiting requests into ``shard``'s free slots at tick ``now``.

        ``program_of`` resolves a request to its row program on the serving
        backend (:meth:`~repro.serving.backends.AttentionBackend.program`),
        once per request: here under FCFS, when it is ranked under SJF.
        Writes each admitted request's admission columns (admit tick, shard,
        admission id, and the shard's residents right after it) and sets up
        a decode's record and K/V residency.  Returns ``(indices,
        programs)`` in admission order; occupancy never exceeds
        ``max_batch_size``.  ``now`` must not be earlier than the previous
        call's.
        """
        if now < self._now:
            raise ValueError(
                f"admission instants must not decrease: tick {now} after tick {self._now} "
                "(SJF ranks a request once, when the admission clock reaches it)"
            )
        self._now = now
        slots = self.free_slots(shard)
        if slots <= 0 or not self._waiting:
            return (), ()
        resident = self.resident[shard]
        requests = self.requests
        if self.policy == "fcfs":
            # The queue is in (arrival_time, request_id) order, so the
            # arrived requests are the leading run of what is left of it.
            first = stop = self._next
            limit = min(len(self._order), first + slots)
            ticks = self._ticks
            while stop < limit and ticks[stop] <= now:
                stop += 1
            if stop == first:
                return (), ()
            self._next = self._oldest = stop
            indices = self._order[first:stop]
            programs = list(map(program_of, map(requests.__getitem__, indices)))
        else:
            indices, programs = self._take_ranked(now, slots, program_of)
            if not indices:
                return (), ()
        self._waiting -= len(indices)
        oldest = self._oldest
        self._head_tick = self._ticks[oldest] if oldest < len(self._ticks) else None
        admit_ticks, shard_of = self.admit_ticks, self.shard_of
        batch_ids, batch_sizes = self.batch_ids, self.batch_sizes
        batch_id = self._admission_ids
        for index, program in zip(indices, programs):
            resident += 1
            admit_ticks[index] = now
            shard_of[index] = shard
            batch_ids[index] = batch_id
            batch_sizes[index] = resident
            batch_id += 1
            request = requests[index]
            if isinstance(request, DecodeRequest):
                self._seat_decode(index, request, program.total_rows)
        self._admission_ids = batch_id
        self.resident[shard] = resident
        return indices, programs

    def _seat_decode(self, index: int, request: DecodeRequest, rows_total: int) -> None:
        """A decode's record: the rows its blocks finalise at, and no block ticks yet."""
        # The decode's row axis is uniform per token on every backend, so
        # block boundaries sit at cumulative-token multiples of the
        # per-token row count.
        per_token = rows_total // request.new_tokens
        boundaries = list(accumulate(size * per_token for size in request.block_schedule))
        boundaries[-1] = rows_total
        self.decodes[index] = (tuple(boundaries), [])
        if self.kv_residency is not None:
            self.kv_residency.admit(request.request_id, request.kv_resident_bytes)

    def release(self, shard: int, indices, now: int) -> None:
        """Retire ``indices`` from ``shard`` at tick ``now``, stamping their finish ticks.

        Retiring a decode settles its K/V residency: every block after the
        first re-read the resident cache (one hit each), and the request's
        bytes leave device memory.
        """
        finish_ticks = self.finish_ticks
        for index in indices:
            finish_ticks[index] = now
        self.resident[shard] -= len(indices)
        if self.decodes and self.kv_residency is not None:
            for index in indices:
                if index in self.decodes:
                    request = self.requests[index]
                    self.kv_residency.touch(request.request_id, len(request.block_schedule) - 1)
                    self.kv_residency.release(request.request_id)

    def admit(self, shard: int, now: int, program_of) -> "list[InFlightRequest]":
        """:meth:`seat`, with one :class:`InFlightRequest` per admitted request.

        The records join ``running[shard]`` in slot order; returns them.
        """
        indices, programs = self.seat(shard, now, program_of)
        running = self.running[shard]
        admitted: "list[InFlightRequest]" = []
        for index, program in zip(indices, programs):
            inflight = InFlightRequest(self.requests[index], index, program, program.total_rows)
            if index in self.decodes:
                inflight.token_boundaries, inflight.block_ticks = self.decodes[index]
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
        """Remove the :attr:`~InFlightRequest.finished` records and :meth:`release` them.

        Returns them in slot order.
        """
        running = self.running[shard]
        retired = [inflight for inflight in running if inflight.finished]
        running[:] = [inflight for inflight in running if not inflight.finished]
        self.release(shard, [inflight.index for inflight in retired], now)
        return retired


class _RunState:
    """Mutable accounting one serve call's scheduler loop folds into."""

    __slots__ = (
        "shards",
        "batcher",
        "time_base",
        "clocks",
        "primed",
        "program_of",
        "iteration_rows",
        "max_batch_size",
        "bus",
        "run_id",
        "record_iterations",
        "records",
        "occupancy_counts",
        "num_iterations",
        "outputs",
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
        # serve_continuous), so shard 0 resolves every request's program.
        self.program_of = shards[0].program
        self.iteration_rows = iteration_rows
        self.max_batch_size = max_batch_size
        self.bus = bus
        self.run_id = run_id
        self.record_iterations = record_iterations
        self.records: "list[BurstRecord]" = []
        #: occupancy value -> iteration count (see :func:`occupancy_mean`).
        self.occupancy_counts: "Counter[float]" = Counter()
        self.num_iterations = 0
        #: A functional pool's outputs, by request index.
        self.outputs = [None] * len(batcher.requests) if shards[0].functional else None
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


def _check_head_dims(requests, pool) -> None:
    """Reject functional attentions whose ``head_dim`` the pool does not run.

    A functional pool executes every attention at its config's
    ``1/sqrt(head_dim)`` scale and stacks same-``seq_len`` retirees into one
    tensor, so foreign-width data would come back wrong when served alone
    and fail to stack beside a matching request.  Forwards carry their own
    :class:`~repro.model.spec.ModelSpec` and are exempt.
    """
    if not pool.functional:
        return
    head_dim = pool.config.head_dim
    for request in requests:
        if not isinstance(request, AttentionRequest) or not request.is_functional:
            continue
        data_dim = request.q.shape[-1]
        if data_dim != head_dim:
            raise ValueError(
                f"request_id {request.request_id} carries head_dim {data_dim} data, but the "
                f"{pool.name!r} pool runs head_dim {head_dim}; serve it on a pool whose "
                f"config has head_dim {data_dim}"
            )


def _check_arrival_ticks(requests, time_base: TimeBase) -> None:
    """Reject a trace whose latest arrival's first tick does not fit an int64.

    The queue keeps every request's first tick in an int64 column.
    """
    latest = max(map(attrgetter("arrival_time"), requests), default=0.0)
    if time_base.first_tick(latest) >= 1 << 63:
        raise ValueError(
            f"arrival_time {latest} is past the int64 tick range of a "
            f"{time_base.tick_seconds} s tick; serve the trace on a clock that reaches it"
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
    bit-identical results (stats, completions, and burst records and
    telemetry once the reference's one-iteration bursts are coalesced) — the
    property tests pin them against each other.

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
    ``ServingResult.bursts`` holds one :class:`BurstRecord` per priced burst
    (one per iteration under the reference scheduler);
    ``record_iterations=False`` skips them, leaving the stats unchanged.

    The result lists every request's completion in submission order.
    Every request of a serve needs its own ``request_id`` and an arrival
    whose first tick fits an int64, a functional pool's attentions must
    carry data of its config's ``head_dim``, and ``num_shards``,
    ``max_batch_size`` and ``iteration_rows`` must be positive ints;
    anything else is rejected before the run starts.
    """
    check_count("iteration_rows", iteration_rows)
    check_count("num_shards", num_shards)
    check_count("max_batch_size", max_batch_size)
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    if len({request.request_id for request in requests}) != len(requests):
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
    _check_head_dims(requests, shards[0])
    time_base = shards[0].time_base
    _check_arrival_ticks(requests, time_base)

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
    batcher.submit(requests)
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

    completed, queue_waits, latencies = _completions(state)
    wall_seconds = time.perf_counter() - start_wall
    cache_after = plan_cache.counters()
    makespan = time_base.seconds(max(batcher.finish_ticks, default=0))
    # Sorted once: each percentile's own sort is then a linear pass.
    for samples in (state.ttfts, state.token_gaps):
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
        total_head_rows=batch_head_rows(requests),
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
        bursts=tuple(sorted(state.records, key=attrgetter("start_tick", "shard"))),
    )


def _completions(state: _RunState) -> "tuple[list[CompletedRequest], list[float], list[float]]":
    """Every request's :class:`CompletedRequest`, in submission order, and the
    run's queue-wait and latency samples, sorted.

    One pass over the columns.  Ticks become seconds a column at a time, by
    the one :class:`~repro.serving.stats.TimeBase` product, so every float
    equals the per-request conversion bit for bit.
    """
    batcher = state.batcher
    requests = batcher.requests
    seconds = state.time_base.seconds
    admit_times = seconds(np.frombuffer(batcher.admit_ticks, dtype=np.int64))
    finish_times = seconds(np.frombuffer(batcher.finish_ticks, dtype=np.int64))
    completed = list(
        map(
            CompletedRequest,
            requests,
            state.outputs if state.outputs is not None else repeat(None),
            batcher.shard_of,
            batcher.batch_ids,
            batcher.batch_sizes,
            # Memoryviews hand map one Python float at a time.
            memoryview(seconds(np.frombuffer(batcher.device_ticks, dtype=np.int64))),
            map(attrgetter("arrival_time"), requests),
            memoryview(admit_times),
            memoryview(finish_times),
        )
    )
    # The instants become the samples in place (the subtractions of
    # CompletedRequest.queue_seconds and latency_seconds), sorted once: each
    # percentile's own sort is then a linear pass.
    admit_times -= batcher.arrivals
    admit_times.sort()
    finish_times -= batcher.arrivals
    finish_times.sort()
    return completed, admit_times.tolist(), finish_times.tolist()


def _reference_loop(state: _RunState) -> None:
    """The quantum-stepped scheduler: one Python loop per priced iteration.

    The executable specification of the continuous engine — the event
    scheduler below must reproduce its every accounting bit.  Each loop
    iteration picks the earliest-activating shard by linear scan, admits,
    prices one :meth:`~repro.serving.backends.AttentionBackend.step` (a
    one-iteration burst, reported through :func:`_report_burst`), advances
    residents and retires the finished.
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
        admitted = batcher.admit(shard, clock.now, state.program_of)
        residents = batcher.running[shard]
        if not residents:  # pragma: no cover - defensive; admit() always lands one
            continue
        if bus.active and admitted:
            _emit_admissions(state, shard, admitted, batcher.waiting_count)
        slices = batcher.slices(shard, state.iteration_rows)
        cost = state.shards[shard].step(
            [(inflight.program, inflight.rows_done, rows) for inflight, rows in slices],
            state.primed[shard],
        )
        start = clock.now
        clock.advance(cost.ticks)
        state.energy_ticks += cost.energy_ticks
        for inflight, rows in slices:
            inflight.rows_done += rows
            inflight.device_ticks += cost.ticks
            if inflight.token_boundaries is not None:
                _mark_blocks(inflight, clock.now)
        retired = batcher.retire_finished(shard, clock.now)
        if bus.active or state.record_iterations:
            _report_burst(
                state,
                shard,
                start,
                1,
                cost.ticks,
                cost.energy_ticks,
                state.primed[shard],
                len(slices),
                [(inflight.index, rows) for inflight, rows in slices],
                [inflight.index for inflight in admitted],
                [inflight.index for inflight in retired],
            )
        done = _complete(state, shard, retired)
        if bus.active:
            for inflight, completion in zip(retired, done):
                _emit_retired(state, inflight, completion)
        state.num_iterations += 1
        state.occupancy_counts[len(slices) / state.max_batch_size] += 1
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

    A request is its index here, from admission to retirement: the loop
    builds no per-request object.  :meth:`ContinuousBatcher.seat` writes the
    admission columns, the loop parks the shard's busy ticks in the
    request's ``device_ticks`` entry and seats its program in the shard's
    :class:`~repro.serving.backends.Residents` beside its index, and
    :meth:`ContinuousBatcher.release` stamps its finish tick.  The shard,
    not the resident, is what the loop advances: residents stream in
    lockstep, so each shard keeps one row counter, a burst moves only that
    counter, and a resident retires once the counter reaches its finish
    row.  Its device ticks are then the busy ticks now minus those at
    admission, which equals the reference loop's per-iteration sum: a
    request's device ticks are the ticks of the shard's iterations it was
    resident in.  Only decode residents are visited per activation, to
    stamp the blocks the burst completed.

    After admitting at the popped shard the resident set is fixed until the
    next retirement, so the backend prices the whole run of iterations to
    that retirement in one
    :meth:`~repro.serving.backends.AttentionBackend.step_burst` call.  Two
    events stop a burst early, each one
    :meth:`~repro.serving.backends.StepBurst.first_start_at` or
    :meth:`~repro.serving.backends.StepBurst.ticks_through` question:

    * an arrival the shard could admit: the burst ends before its first
      iteration starting at or after the arrival's first tick (that
      iteration would admit it);
    * another shard's activation, for the retiring iteration only: when
      another shard activates at or before that iteration's start (on a
      tie, the lower shard goes first), the burst stops one iteration
      short.  A retirement is the one thing a burst does that the rest of
      the pool sees (its events, its outputs, a freed slot), so only it
      must wait its turn; iterations before it touch no shared state, and
      the burst leapfrogs the other shards' activations through them.

    A stopped burst keeps its unconsumed
    :meth:`~repro.serving.backends.StepBurst.tail`, and the shard's next
    activation continues from it unless it admits — only a retirement ends
    a burst, so the residents are the ones it was priced for, and its primed
    entries are the ticks a fresh call would return.  Clock, busy time and
    energy add the burst's integer
    :meth:`~repro.serving.backends.StepBurst.ticks_through` sums, so they
    equal the reference loop's one-at-a-time additions exactly.

    With a listening bus or burst records, each priced burst is reported
    once (:func:`_report_burst`), stopped segments and all: the shard's open
    burst keeps its start tick, primed flag, residents and admissions and
    sums the iterations and energy of each segment consumed, and is reported
    when something ends it — the retirement at its last iteration, ahead of
    that retirement's lookups and events, or an admission that re-prices the
    shard, before the admission is seated.  Only records read the residents
    one by one: the rows each has left when the burst is priced.
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
    # Per shard, while a bus listens or the run records: the burst priced
    # but not yet reported, as [start tick, iterations, energy ticks,
    # primed, resident count, admitted indices, and when recording
    # (index, rows left) per resident].
    open_bursts: "list[list | None]" = [None] * num_shards
    # Per shard: the residents as lockstep columns; the decode residents as
    # (token boundaries, block ticks, start row); the other shards.
    lanes = [Residents() for _ in range(num_shards)]
    decoding: "list[list[tuple[tuple[int, ...], list[int], int]]]" = [[] for _ in range(num_shards)]
    peers = [[other for other in range(num_shards) if other != one] for one in range(num_shards)]
    # Hot-loop locals: the while body below runs once per shard activation,
    # up to hundreds of thousands of times per serve.
    shards = state.shards
    primed = state.primed
    program_of = state.program_of
    listening = state.bus.active
    record = state.record_iterations
    reporting = listening or record
    # A retirement needs _settle for functional outputs or retirement
    # events, and for decode stats while a decode is in flight.
    settles = shards[0].functional or listening
    max_batch_size = state.max_batch_size
    # Iterations by resident count: occupancy is count / max_batch_size.
    iterations_by_residents = [0] * (max_batch_size + 1)
    can_admit_mid_batch = batcher.admission == "continuous"
    device_ticks = batcher.device_ticks
    decodes = batcher.decodes
    seat = batcher.seat
    release = batcher.release
    next_arrival_tick = batcher.next_arrival_tick
    heappush = heapq.heappush
    heappop = heapq.heappop

    def report_open_burst(shard: int, retired=()) -> None:
        start_tick, iterations, energy, was_primed, count, admitted, left = open_bursts[shard]
        open_bursts[shard] = None
        # The lockstep counter moved iterations * quantum rows in the burst.
        streamed = iterations * quantum
        _report_burst(
            state,
            shard,
            start_tick,
            iterations,
            clocks[shard].now - start_tick,
            energy,
            was_primed,
            count,
            [(index, min(rows, streamed)) for index, rows in left],
            admitted,
            retired,
        )

    def push(shard: int) -> None:
        version[shard] += 1
        if lanes[shard].indices:
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
        residents = lane.indices
        head_before = next_arrival_tick()
        if not residents and head_before is not None and head_before > clock.now:
            clock.now = head_before
        admitted, programs = seat(shard, clock.now, program_of)
        head_now = next_arrival_tick()
        if admitted:
            if reporting and open_bursts[shard] is not None:
                # This admission ends the stopped burst: it is re-priced below.
                report_open_burst(shard)
            busy = clock.busy_ticks
            for index, program in zip(admitted, programs):
                device_ticks[index] = busy
                if decodes and index in decodes:
                    boundaries, blocks = decodes[index]
                    decoding[shard].append((boundaries, blocks, lane.row))
                lane.add(index, program, program.total_rows)
            if head_now != head_before:
                # The queue head moved: empty shards' queued activations
                # quoted the old head and must be re-versioned.
                for other in peers[shard]:
                    if not lanes[other].indices:
                        push(other)
            if listening:
                _emit_admitted(state, shard, admitted, batcher.waiting_count)
        elif not residents:  # pragma: no cover - defensive; seat() always lands one
            push(shard)
            continue
        start = clock.now
        if admitted or pending[shard] is None:
            burst = shards[shard].step_burst(lane, primed[shard], quantum)
            if reporting:
                left = ()
                if record:
                    row = lane.row
                    left = [(index, end - row) for index, end in zip(residents, lane.finishes)]
                open_bursts[shard] = [start, 0, 0, primed[shard], len(residents), admitted, left]
        else:
            stopped, consumed = pending[shard]
            burst = stopped.tail(consumed)
        length = burst.iterations
        if head_now is not None and can_admit_mid_batch and len(residents) < max_batch_size:
            # The iteration starting at or after the arrival's first tick
            # would admit it.
            first = burst.first_start_at(head_now - start)
            if first < length:
                length = first if first > 1 else 1
        if heap and length == burst.iterations and length > 1:
            while heap and heap[0][2] != version[heap[0][1]]:
                heappop(heap)
            if heap:
                other_activation, other_shard, _ = heap[0]
                last_start = start + burst.ticks_through(length - 1)
                if other_activation < last_start or (
                    other_activation == last_start and other_shard < shard
                ):
                    # The other shard runs first: retire at the next activation.
                    length -= 1
        retiring = length == burst.iterations
        pending[shard] = None if retiring else (burst, length)
        row = lane.row
        ticks = burst.ticks_through(length)
        clock.now = start + ticks
        clock.busy_ticks += ticks
        energy = burst.energy_through(length)
        energy_ticks += energy
        lane.row = row + length * quantum
        for boundaries, blocks, row_start in decoding[shard]:
            _mark_blocks_burst(
                boundaries, blocks, row - row_start, lane.row - row_start, burst, start, quantum
            )
        iterations_by_residents[len(residents)] += length
        num_iterations += length
        if reporting:
            this_burst = open_bursts[shard]
            this_burst[1] += length
            this_burst[2] += energy
        if retiring:
            retired = lane.retire()
            busy = clock.busy_ticks
            for index in retired:
                device_ticks[index] = busy - device_ticks[index]
            release(shard, retired, clock.now)
            if reporting:
                # Reported ahead of the retirement's lookups and events.
                report_open_burst(shard, retired)
            if decoding[shard]:
                decoding[shard] = [
                    (boundaries, blocks, row_start)
                    for boundaries, blocks, row_start in decoding[shard]
                    if lane.row - row_start < boundaries[-1]
                ]
            if settles or decodes:
                block_times = _settle(state, shard, retired)
                if listening:
                    for index, times in zip(retired, block_times):
                        _emit_retirement(state, index, times)
        if residents:
            primed[shard] = True
            version[shard] += 1
            heappush(heap, (clock.now, shard, version[shard]))
        else:
            primed[shard] = False
            push(shard)
    state.energy_ticks = energy_ticks
    state.num_iterations = num_iterations
    for count, iterations in enumerate(iterations_by_residents):
        if iterations:
            state.occupancy_counts[count / max_batch_size] += iterations
    if not batcher.done:  # pragma: no cover - defensive
        raise RuntimeError("the event scheduler ran out of activations with requests unserved")


def _report_burst(
    state: _RunState,
    shard: int,
    start_tick: int,
    iterations: int,
    ticks: int,
    energy_ticks: int,
    primed: bool,
    residents: int,
    resident,
    admitted,
    retired,
) -> None:
    """Report one priced burst of ``iterations`` over ``residents`` on ``shard``.

    A listening bus gets its :class:`~repro.telemetry.events.BurstAdvanced`
    and a recording run its :class:`BurstRecord`.  ``resident`` (``(index,
    rows streamed)`` per resident, in slot order), ``admitted`` and
    ``retired`` (indices) are read only by the record.
    """
    occupancy = residents / state.max_batch_size
    if state.bus.active:
        state.bus.emit(
            BurstAdvanced(
                shard=shard,
                start_tick=start_tick,
                iterations=iterations,
                ticks=ticks,
                energy_ticks=energy_ticks,
                primed=primed,
                residents=residents,
                occupancy=occupancy,
                run_id=state.run_id,
            )
        )
    if state.record_iterations:
        requests = state.batcher.requests
        state.records.append(
            BurstRecord(
                shard,
                start_tick,
                iterations,
                ticks,
                energy_ticks,
                primed,
                occupancy,
                tuple((requests[index].request_id, rows) for index, rows in resident),
                tuple(requests[index].request_id for index in admitted),
                tuple(requests[index].request_id for index in retired),
            )
        )


def _emit_admitted(state: _RunState, shard: int, admitted, queue_depth: int) -> None:
    """Admission events of ``admitted`` (indices) plus the queue-depth sample.

    In reference order; the admits share one ``admit_time``, their admit
    tick converted once.
    """
    batcher = state.batcher
    admit_time = state.time_base.seconds(batcher.admit_ticks[admitted[0]])
    for index in admitted:
        state.bus.emit(
            RequestAdmitted(
                request_id=batcher.requests[index].request_id,
                shard=shard,
                admit_time=admit_time,
                residency=batcher.batch_sizes[index],
                run_id=state.run_id,
            )
        )
    state.bus.emit(QueueDepth(depth=queue_depth, time=admit_time, run_id=state.run_id))


def _emit_admissions(state: _RunState, shard: int, admitted, queue_depth: int) -> None:
    """The reference loop's :func:`_emit_admitted`, over its in-flight records."""
    _emit_admitted(state, shard, [inflight.index for inflight in admitted], queue_depth)


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
    boundaries: "tuple[int, ...]",
    blocks: "list[int]",
    start_rows: int,
    streamed: int,
    burst,
    start: int,
    quantum: int,
) -> None:
    """Burst-path block stamping: boundaries map to burst iteration ends.

    The decode (its token ``boundaries`` and the ``blocks`` ticks stamped so
    far) had streamed ``start_rows`` rows when the burst started and
    ``streamed`` when it ended (past its total rows if it retires: the
    lockstep counter runs on).  A boundary crossed in the burst's iteration
    ``j`` (1-based) completes at ``start + burst.ticks_through(j)`` — the
    tick the reference loop's clock shows after that iteration.
    """
    while len(blocks) < len(boundaries) and streamed >= boundaries[len(blocks)]:
        iteration = -(-(boundaries[len(blocks)] - start_rows) // quantum)
        blocks.append(start + burst.ticks_through(iteration))


def _complete(state: _RunState, shard: int, retired) -> "list[tuple[float, ...] | None]":
    """The reference loop's retirees: their device ticks into the column, then :func:`_settle`.

    Returns :func:`_settle`'s block instants, one entry per retiree, for
    :func:`_emit_retired`.  This and the other two adapters over
    in-flight records keep the reference loop, the oracle the event loop
    is pinned against, as it was.
    """
    device_ticks = state.batcher.device_ticks
    for inflight in retired:
        device_ticks[inflight.index] = inflight.device_ticks
    return _settle(state, shard, [inflight.index for inflight in retired])


def _settle(state: _RunState, shard: int, retired) -> "list[tuple[float, ...] | None]":
    """Outputs and decode accounting of one activation's retirees (indices).

    A functional pool computes their outputs in one stacked pass into the
    outputs column; each decode's per-token accounting folds into the run
    state and its record is dropped.  Returns each retiree's block
    instants (``None`` for a request that is not a decode), computed once
    for the stats and the retirement events.
    """
    batcher = state.batcher
    requests = batcher.requests
    backend = state.shards[shard]
    if retired and backend.functional:
        outputs = backend.compute_outputs([requests[index] for index in retired])
        for index, output in zip(retired, outputs):
            state.outputs[index] = output
    decodes = batcher.decodes
    block_times = []
    for index in retired:
        decode = decodes.pop(index, None)
        if decode is None:
            block_times.append(None)
            continue
        request = requests[index]
        times = _block_times(state.time_base, decode[1])
        state.num_decode += 1
        state.decode_tokens += request.new_tokens
        ttft, gaps = decode_token_intervals(times, request.block_schedule, request.arrival_time)
        state.ttfts.append(ttft)
        state.token_gaps.extend(gaps)
        block_times.append(times)
    return block_times


def _block_times(time_base: TimeBase, block_ticks: "list[int]") -> "tuple[float, ...]":
    """A decode's block completion instants, in seconds.

    Blocks finishing in the same iteration share its end tick (stamps never
    decrease), and each distinct tick is converted once, so those blocks
    share one float.
    """
    times = []
    last_tick = None
    for tick in block_ticks:
        if tick != last_tick:
            last_tick = tick
            instant = time_base.seconds(tick)
        times.append(instant)
    return tuple(times)


def _emit_retirement(state: _RunState, index: int, block_times) -> None:
    """Emit one retirement's events: decode accounting first, then retired.

    ``block_times`` is the decode's block instants (``None`` for any other
    request); the rest is read off the columns at ``index``.
    """
    batcher = state.batcher
    request = batcher.requests[index]
    seconds = state.time_base.seconds
    if block_times is not None:
        state.bus.emit(
            RequestDecoded(
                request_id=request.request_id,
                new_tokens=request.new_tokens,
                block_sizes=request.block_schedule,
                block_times=block_times,
                arrival_time=request.arrival_time,
                run_id=state.run_id,
            )
        )
    state.bus.emit(
        RequestRetired(
            request_id=request.request_id,
            shard=batcher.shard_of[index],
            batch_id=batcher.batch_ids[index],
            batch_size=batcher.batch_sizes[index],
            device_seconds=seconds(batcher.device_ticks[index]),
            arrival_time=request.arrival_time,
            admit_time=seconds(batcher.admit_ticks[index]),
            finish_time=seconds(batcher.finish_ticks[index]),
            run_id=state.run_id,
        )
    )


def _emit_retired(state: _RunState, inflight: InFlightRequest, block_times) -> None:
    """The reference loop's :func:`_emit_retirement`, over its in-flight record."""
    _emit_retirement(state, inflight.index, block_times)


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
    spread across the replicated pipelines exactly as a SWAT backend's row
    programs spread them) gives the saturation request rate — multiply by a load
    factor > 1 for an overloaded trace.  ``num_layers > 1`` sizes the rate
    for whole-model forward traffic.  ``num_shards`` and ``max_batch_size``
    must be positive ints, as for :func:`serve_continuous`.
    """
    check_count("num_shards", num_shards)
    check_count("max_batch_size", max_batch_size)
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
