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
    Event-driven and vectorized.  A heap over per-shard activation times
    replaces the linear scan, and between an admission and the next
    retirement the resident set is fixed — the backend prices that whole
    *burst* of iterations in one closed-form
    :meth:`~repro.serving.backends.AttentionBackend.step_burst` call, and
    the loop folds it into the accounting with sequential ``cumsum``\\ s that
    reproduce the per-iteration float additions bit for bit.  A burst cut
    short by an arrival or by another shard's activation is resumed, not
    repriced, at the shard's next activation unless that activation admits.
    Pricing cost scales with *resident-set changes*, not iterations or
    activations: a 100k-request diurnal trace replays in seconds.

``"reference"``
    The retained quantum-stepped loop: one Python iteration per priced
    device iteration.  The executable specification the property tests pin
    the event scheduler against.

Clock
-----
Everything runs on a deterministic simulated clock (:class:`ServingClock`):
request ``arrival_time``\\ s come from seeded generators
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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from statistics import mean

import numpy as np

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel
from repro.serving.backends import StepBurst, batch_head_rows, create_backend
from repro.serving.cache import KVResidency, PlanCache
from repro.serving.request import (
    AttentionRequest,
    CompletedRequest,
    DecodeRequest,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.serving.stats import ServingStats, decode_token_intervals, percentile
from repro.telemetry.bus import NULL_BUS
from repro.telemetry.events import (
    IterationAdvanced,
    QueueDepth,
    RequestAdmitted,
    RequestArrived,
    RequestDecoded,
    RequestRetired,
    RunFinished,
    RunStarted,
    ShardOccupancy,
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


class ServingClock:
    """One shard's simulated device clock, advanced in priced time slices.

    ``now`` is simulated seconds since the start of the run.  The clock only
    ever moves forward: :meth:`advance` adds a priced iteration (counted as
    busy time), :meth:`jump_to` skips idle gaps to the next arrival (not
    counted as busy).  The event scheduler writes ``now``/``busy_seconds``
    directly from cumulative sums whose sequential accumulation reproduces
    per-iteration :meth:`advance` calls bit for bit.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.busy_seconds = 0.0

    def advance(self, seconds: float) -> None:
        """Advance by one priced iteration of ``seconds`` busy time."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds} seconds")
        self.now += seconds
        self.busy_seconds += seconds

    def jump_to(self, instant: float) -> None:
        """Skip idle time forward to ``instant`` (no-op when already past)."""
        if instant > self.now:
            self.now = instant


@dataclass
class InFlightRequest:
    """A request resident in (or retired from) a shard's running batch."""

    request: AttentionRequest
    shard: int
    rows_total: int
    admit_time: float
    #: Monotonically increasing admission event id (reported as the
    #: completion's ``batch_id``).
    admission_id: int
    #: Residents on the shard right after this request was admitted.
    residency_at_admit: int
    rows_done: int = 0
    finish_time: "float | None" = None
    #: Summed seconds of every iteration this request was resident in (an
    #: iteration's duration is counted for each of its residents — they
    #: share the clock, not split it).
    device_seconds: float = 0.0
    #: Decode requests only: cumulative row offsets at which each decode
    #: block finalises (last entry equals ``rows_total``); ``None`` for
    #: prefill/attention requests.
    token_boundaries: "tuple[int, ...] | None" = None
    #: Decode requests only: simulated clock instant each block completed,
    #: appended as the row stream crosses ``token_boundaries``.
    block_times: "list[float] | None" = None

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
    """Accounting for one priced iteration of one shard."""

    index: int
    shard: int
    start_seconds: float
    seconds: float
    cycles: "int | None"
    energy_joules: float
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
    """

    completed: "list[CompletedRequest]"
    stats: ServingStats
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
    """

    def __init__(
        self,
        max_batch_size: int,
        num_shards: int = 1,
        admission: str = "continuous",
        policy: str = "fcfs",
        kv_residency: "KVResidency | None" = None,
    ):
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if admission not in ADMISSION_MODES:
            raise ValueError(f"admission must be one of {ADMISSION_MODES}, got {admission!r}")
        if policy not in QUEUE_POLICIES:
            raise ValueError(f"policy must be one of {QUEUE_POLICIES}, got {policy!r}")
        self.max_batch_size = max_batch_size
        self.num_shards = num_shards
        self.admission = admission
        self.policy = policy
        self.kv_residency = kv_residency
        from collections import deque

        self._waiting: "deque[AttentionRequest]" = deque()
        self.running: "list[list[InFlightRequest]]" = [[] for _ in range(num_shards)]
        self._admission_ids = 0

    def submit(self, requests: "list[AttentionRequest]") -> None:
        """Queue ``requests``; admission order is ``(arrival_time, submit order)``."""
        from collections import deque

        ordered = sorted(
            list(self._waiting) + list(requests),
            key=lambda request: (request.arrival_time, request.request_id),
        )
        self._waiting = deque(ordered)

    @property
    def waiting_count(self) -> int:
        """Requests queued but not yet admitted."""
        return len(self._waiting)

    @property
    def done(self) -> bool:
        """True when nothing is waiting and no shard has residents."""
        return not self._waiting and not any(self.running)

    def next_arrival_time(self) -> "float | None":
        """Arrival instant of the earliest waiting request (``None`` if empty)."""
        return self._waiting[0].arrival_time if self._waiting else None

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

    def _pop_next(self, now: float, work_of) -> "AttentionRequest | None":
        """Remove and return the next admissible waiting request, if any.

        The queue is kept in ``(arrival_time, request_id)`` order, so the
        arrived candidates are its leading run.  FCFS takes the front; SJF
        scans that run for the smallest ``(work_of, arrival_time, id)``.
        """
        if not self._waiting or self._waiting[0].arrival_time > now:
            return None
        if self.policy == "fcfs":
            return self._waiting.popleft()
        best_index = 0
        best_key = None
        for index, request in enumerate(self._waiting):
            if request.arrival_time > now:
                break
            key = (work_of(request), request.arrival_time, request.request_id)
            if best_key is None or key < best_key:
                best_index, best_key = index, key
        request = self._waiting[best_index]
        del self._waiting[best_index]
        return request

    def admit(self, shard: int, now: float, rows_of, work_of=None) -> "list[InFlightRequest]":
        """Admit arrived waiting requests into ``shard``'s free slots.

        ``rows_of`` maps a request to its total row-work on the serving
        backend (how many rows it must stream before retiring); ``work_of``
        is the SJF job-size ranking key
        (:meth:`~repro.serving.backends.AttentionBackend.request_work`) and
        defaults to ``rows_of`` — on every current backend the two coincide.
        Returns the newly admitted in-flight records; occupancy never
        exceeds ``max_batch_size``.
        """
        admitted: "list[InFlightRequest]" = []
        slots = self.free_slots(shard)
        while slots > 0:
            request = self._pop_next(now, work_of if work_of is not None else rows_of)
            if request is None:
                break
            slots -= 1
            inflight = InFlightRequest(
                request=request,
                shard=shard,
                rows_total=rows_of(request),
                admit_time=now,
                admission_id=self._admission_ids,
                residency_at_admit=len(self.running[shard]) + 1,
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
                inflight.block_times = []
                if self.kv_residency is not None:
                    self.kv_residency.admit(request.request_id, request.kv_resident_bytes)
            self._admission_ids += 1
            self.running[shard].append(inflight)
            admitted.append(inflight)
        return admitted

    def slices(self, shard: int, iteration_rows: int) -> "list[tuple[InFlightRequest, int]]":
        """The next iteration's row slice per resident, in slot order."""
        return [
            (inflight, min(iteration_rows, inflight.remaining_rows))
            for inflight in self.running[shard]
        ]

    def retire_finished(self, shard: int, now: float) -> "list[InFlightRequest]":
        """Remove finished residents, stamping their completion instant.

        Retiring a decode settles its KV residency: every block after the
        first re-read the resident cache (one hit each), and the request's
        bytes leave device memory.
        """
        retired = [inflight for inflight in self.running[shard] if inflight.finished]
        if retired:
            self.running[shard] = [
                inflight for inflight in self.running[shard] if not inflight.finished
            ]
            for inflight in retired:
                inflight.finish_time = now
                request = inflight.request
                if inflight.token_boundaries is not None and self.kv_residency is not None:
                    self.kv_residency.touch(request.request_id, len(request.block_schedule) - 1)
                    self.kv_residency.release(request.request_id)
        return retired


class _RunState:
    """Mutable accounting one serve call's scheduler loop folds into."""

    __slots__ = (
        "shards",
        "batcher",
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
        "total_energy",
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
        self.clocks = [ServingClock() for _ in range(batcher.num_shards)]
        self.primed = [False] * batcher.num_shards
        self.rows_of = shards[0].request_rows
        self.work_of = shards[0].request_work
        self.iteration_rows = iteration_rows
        self.max_batch_size = max_batch_size
        self.bus = bus
        self.run_id = run_id
        self.record_iterations = record_iterations
        self.records: "list[IterationRecord]" = []
        #: occupancy value -> iteration count; the exact-rational mean over
        #: this multiset equals ``statistics.mean`` over the expanded list.
        self.occupancy_counts: "Counter[float]" = Counter()
        self.num_iterations = 0
        self.completed: "list[CompletedRequest]" = []
        self.total_energy = 0.0
        self.num_decode = 0
        self.decode_tokens = 0
        self.ttfts: "list[float]" = []
        self.token_gaps: "list[float]" = []


def _occupancy_mean(counts: "Counter[float]") -> float:
    """Exact-rational mean of an occupancy multiset.

    ``statistics.mean`` sums exact ``Fraction`` conversions of its float
    inputs and rounds once at the end; summing ``Fraction(value) * count``
    per distinct value is the same exact rational, so the rounded float is
    identical — without materialising one list entry per iteration.
    """
    total = sum(counts.values())
    if not total:
        return 0.0
    exact = sum(Fraction(value) * count for value, count in counts.items())
    return float(exact / total)


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
    (the one with the earliest activation instant runs next), each iteration
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

    ``scheduler`` selects the implementation: ``"event"`` (default) skips
    ahead between scheduling events and prices whole iteration bursts with
    one vectorized :meth:`~repro.serving.backends.AttentionBackend.step_burst`
    call; ``"reference"`` steps one Python loop per iteration.  Both produce
    bit-identical results (stats, records, completions and telemetry) — the
    property tests pin them against each other.

    ``admission="drain"`` runs the same clock with static batching (a shard
    refills only once empty), so drain and continuous numbers differ by
    scheduling policy alone, never by device model.  ``policy`` orders the
    waiting queue (``"fcfs"`` or ``"sjf"``, see
    :class:`ContinuousBatcher`).  ``backends`` reuses one
    already-constructed backend instance per shard (they should share
    ``plan_cache`` for the cache counters to mean anything); by default one
    is created per shard.  ``bus`` (an
    :class:`~repro.telemetry.bus.EventBus`) streams the run's lifecycle,
    iteration and occupancy events, all stamped with ``run_id`` (multi-run
    logs replay one run at a time); with no bus (or no sinks) every emission
    collapses to one branch.  ``record_iterations=False`` skips building the
    per-iteration :class:`IterationRecord` tuple — stats are unchanged, and
    large traces avoid materialising millions of records.
    """
    if iteration_rows <= 0:
        raise ValueError(f"iteration_rows must be positive, got {iteration_rows}")
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
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

    if bus.active:
        bus.emit(
            RunStarted(
                engine="continuous",
                backend=backend,
                num_shards=num_shards,
                max_batch_size=max_batch_size,
                num_requests=len(requests),
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
    position = {request.request_id: index for index, request in enumerate(requests)}
    completed.sort(key=lambda done: position[done.request.request_id])
    makespan = max((done.finish_time for done in completed), default=0.0)
    queue_waits = [done.queue_seconds for done in completed]
    latencies = [done.latency_seconds for done in completed]
    stats = ServingStats(
        backend=backend,
        num_requests=len(requests),
        num_batches=state.num_iterations,
        num_shards=num_shards,
        max_batch_size=max_batch_size,
        device_makespan_seconds=makespan,
        shard_busy_seconds=tuple(clock.busy_seconds for clock in state.clocks),
        total_energy_joules=state.total_energy,
        wall_seconds=wall_seconds,
        cache_hits=cache_after["hits"] - cache_before["hits"],
        cache_misses=cache_after["misses"] - cache_before["misses"],
        total_head_rows=batch_head_rows(list(requests)),
        mode=admission,
        policy=policy,
        num_iterations=state.num_iterations,
        mean_occupancy=_occupancy_mean(state.occupancy_counts),
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
    return ServingResult(completed=completed, stats=stats, iterations=tuple(state.records))


def _reference_loop(state: _RunState) -> None:
    """The quantum-stepped scheduler: one Python loop per priced iteration.

    The executable specification of the continuous engine — the event
    scheduler below must reproduce its every accounting bit.  Each loop
    iteration picks the earliest-activating shard by linear scan, admits,
    prices one :meth:`~repro.serving.backends.AttentionBackend.step`,
    advances residents and retires the finished.
    """
    batcher = state.batcher
    bus = state.bus
    while not batcher.done:
        shard = _next_active_shard(batcher, state.clocks)
        clock = state.clocks[shard]
        if not batcher.running[shard]:
            # Idle shard: skip forward to its next arrival (idle, not busy).
            next_arrival = batcher.next_arrival_time()
            if next_arrival is not None:
                clock.jump_to(next_arrival)
        admitted = batcher.admit(shard, clock.now, state.rows_of, work_of=state.work_of)
        residents = batcher.running[shard]
        if not residents:  # pragma: no cover - defensive; admit() always lands one
            continue
        if bus.active and admitted:
            _emit_admissions(state, shard, admitted, batcher.waiting_count, clock.now)
        slices = batcher.slices(shard, state.iteration_rows)
        cost = state.shards[shard].step(
            [(inflight.request, inflight.rows_done, rows) for inflight, rows in slices],
            state.primed[shard],
        )
        start = clock.now
        clock.advance(cost.seconds)
        state.total_energy += cost.energy_joules
        for inflight, rows in slices:
            inflight.rows_done += rows
            inflight.device_seconds += cost.seconds
            if inflight.token_boundaries is not None:
                _mark_blocks(inflight, clock.now)
        retired = batcher.retire_finished(shard, clock.now)
        outputs = _retirement_outputs(state.shards[shard], retired)
        for inflight, output in zip(retired, outputs):
            state.completed.append(_completion(inflight, output))
            _fold_decode(state, inflight)
            if bus.active:
                _emit_retired(state, inflight)
        index = state.num_iterations
        state.num_iterations += 1
        occupancy = len(slices) / state.max_batch_size
        state.occupancy_counts[occupancy] += 1
        was_primed = state.primed[shard]
        if state.record_iterations:
            state.records.append(
                IterationRecord(
                    index=index,
                    shard=shard,
                    start_seconds=start,
                    seconds=cost.seconds,
                    cycles=cost.cycles,
                    energy_joules=cost.energy_joules,
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
        if bus.active:
            bus.emit(
                IterationAdvanced(
                    index=index,
                    shard=shard,
                    start_seconds=start,
                    seconds=cost.seconds,
                    cycles=cost.cycles,
                    energy_joules=cost.energy_joules,
                    gate_rows=cost.gate_rows,
                    primed=was_primed,
                    num_resident=len(slices),
                    occupancy=occupancy,
                    run_id=state.run_id,
                )
            )
            bus.emit(
                ShardOccupancy(
                    shard=shard,
                    residents=len(slices),
                    slots=state.max_batch_size,
                    occupancy=occupancy,
                    time=start,
                    run_id=state.run_id,
                )
            )
        # The pipeline stays primed only while the shard keeps streaming.
        state.primed[shard] = bool(batcher.running[shard])


def _event_loop(state: _RunState) -> None:
    """The event-driven scheduler: skip ahead, price iteration bursts.

    A heap of ``(activation, shard, version)`` entries replaces the
    reference loop's linear scan (tuple order reproduces its tie-break:
    earliest activation, then lowest shard index).  Per-shard version
    counters invalidate stale entries lazily — an admission that moves the
    queue head re-versions every empty shard, since their activations quote
    the old head's arrival.

    After admitting at the popped shard the resident set is fixed until the
    next retirement, so the backend prices the whole run of iterations to
    that retirement in one vectorized
    :meth:`~repro.serving.backends.AttentionBackend.step_burst` call; the
    burst is then cut short at the first iteration whose start would admit a
    newly arrived request, or at another shard's activation.  A cut burst
    keeps its unconsumed :meth:`~repro.serving.backends.StepBurst.tail`, and
    the shard's next activation continues from it unless it admits — only a
    retirement ends a burst, so the residents are the ones it was priced
    for, and its primed entries are the bits a fresh call would return.
    All float accounting (clock, busy time, energy, per-resident device
    seconds) folds through sequential ``cumsum``\\ s over the same values the
    reference loop adds one at a time, keeping every accumulator
    bit-identical.
    """
    batcher = state.batcher
    clocks = state.clocks
    num_shards = batcher.num_shards
    quantum = state.iteration_rows
    version = [0] * num_shards
    heap: "list[tuple[float, int, int]]" = []
    # Per shard: its last burst and the iterations consumed of it, or None
    # once a retirement ended it.
    pending: "list[tuple[StepBurst, int] | None]" = [None] * num_shards
    # Hot-loop locals: the while body below runs once per shard activation,
    # up to hundreds of thousands of times per serve.
    shards = state.shards
    primed = state.primed
    rows_of = state.rows_of
    work_of = state.work_of
    bus = state.bus
    record = state.record_iterations
    occupancy_counts = state.occupancy_counts
    completed = state.completed
    max_batch_size = state.max_batch_size
    running = batcher.running
    next_arrival_time = batcher.next_arrival_time
    admit = batcher.admit
    free_slots = batcher.free_slots

    def push(shard: int) -> None:
        version[shard] += 1
        if running[shard]:
            activation = clocks[shard].now
        else:
            next_arrival = next_arrival_time()
            if next_arrival is None:
                return
            activation = max(clocks[shard].now, next_arrival)
        heapq.heappush(heap, (activation, shard, version[shard]))

    for shard in range(num_shards):
        push(shard)

    while not batcher.done:
        while True:
            _, shard, entry_version = heapq.heappop(heap)
            if entry_version == version[shard]:
                break
        clock = clocks[shard]
        if not running[shard]:
            next_arrival = next_arrival_time()
            if next_arrival is not None:
                clock.jump_to(next_arrival)
        head_before = next_arrival_time()
        admitted = admit(shard, clock.now, rows_of, work_of=work_of)
        residents = running[shard]
        if not residents:  # pragma: no cover - defensive; admit() always lands one
            push(shard)
            continue
        head_now = next_arrival_time()
        if admitted and head_now != head_before:
            # The queue head moved: empty shards' queued activations quoted
            # the old head and must be re-versioned.
            for other in range(num_shards):
                if other != shard and not running[other]:
                    push(other)
        if admitted and bus.active:
            _emit_admissions(state, shard, admitted, batcher.waiting_count, clock.now)
        burst_slices = [
            (inflight.request, inflight.rows_done, inflight.remaining_rows)
            for inflight in residents
        ]
        if admitted or pending[shard] is None:
            burst = shards[shard].step_burst(burst_slices, primed[shard], quantum)
        else:
            cut, consumed = pending[shard]
            burst = cut.tail(consumed)
        length = burst.iterations
        # times[j] is the start of iteration j + 1; times[length] the end.
        # Built as [now, s0, s1, ...] then cumsummed in place: numpy's cumsum
        # adds strictly left to right, so every entry carries the exact bits
        # the reference loop's one-at-a-time ``+=`` would produce.
        times = np.empty(length + 1)
        times[0] = clock.now
        times[1:] = burst.seconds
        np.cumsum(times, out=times)
        if head_now is not None and free_slots(shard) > 0:
            # An admission-eligible arrival ends the burst at the first
            # iteration whose start would admit it (arrival <= start).
            length = min(
                length, 1 + int(np.searchsorted(times[1:length], head_now, side="left"))
            )
        other_entry = _peek_valid(heap, version)
        if other_entry is not None:
            # Another shard activates first: run only the iterations that
            # start strictly before it (at an exact tie the reference scan
            # prefers the lower shard index).
            other_activation, other_shard, _ = other_entry
            side = "right" if shard < other_shard else "left"
            length = min(
                length,
                1 + int(np.searchsorted(times[1:length], other_activation, side=side)),
            )
        retiring = length == burst.iterations
        pending[shard] = None if retiring else (burst, length)
        if length == 1:
            seconds0 = float(burst.seconds[0])
            clock.now += seconds0
            clock.busy_seconds += seconds0
            state.total_energy += float(burst.energy_joules[0])
            for inflight in residents:
                inflight.rows_done += min(quantum, inflight.rows_total - inflight.rows_done)
                inflight.device_seconds += seconds0
                if inflight.token_boundaries is not None:
                    _mark_blocks(inflight, clock.now)
        else:
            durations = burst.seconds[:length]
            clock.now = float(times[length])
            clock.busy_seconds = _chained_sum(clock.busy_seconds, durations)
            state.total_energy = _chained_sum(
                state.total_energy, burst.energy_joules[:length]
            )
            device = np.empty((len(residents), length + 1))
            for index, inflight in enumerate(residents):
                device[index, 0] = inflight.device_seconds
            device[:, 1:] = durations
            np.cumsum(device, axis=1, out=device)
            advanced = length * quantum
            for index, inflight in enumerate(residents):
                start_rows = inflight.rows_done
                inflight.rows_done += min(advanced, inflight.rows_total - inflight.rows_done)
                inflight.device_seconds = float(device[index, length])
                if inflight.token_boundaries is not None:
                    _mark_blocks_burst(inflight, start_rows, times, quantum)
        occupancy = len(residents) / max_batch_size
        occupancy_counts[occupancy] += length
        base_index = state.num_iterations
        state.num_iterations += length
        slow = record or bus.active
        if slow and length > 1:
            # Non-final iterations record/emit before retirement, matching
            # the reference loop's event interleaving (retirement may emit
            # plan-cache lookups of its own).
            _record_iterations(
                state, shard, burst_slices, burst, length, times, occupancy,
                base_index, admitted, 0, length - 1, retiring, (),
            )
        retired = batcher.retire_finished(shard, clock.now) if retiring else []
        if retired:
            outputs = _retirement_outputs(shards[shard], retired)
            for inflight, output in zip(retired, outputs):
                completed.append(_completion(inflight, output))
                _fold_decode(state, inflight)
        if slow:
            _record_iterations(
                state, shard, burst_slices, burst, length, times, occupancy,
                base_index, admitted, length - 1, length, retiring, retired,
            )
        primed[shard] = bool(running[shard])
        push(shard)


def _chained_sum(initial: float, values: "np.ndarray") -> float:
    """``initial`` plus ``values`` added strictly left to right.

    The vectorized form of the reference loop's per-iteration ``+=`` on a
    float accumulator: an in-place ``cumsum`` over ``[initial, v0, v1, ...]``
    performs the identical sequence of additions, so the returned float is
    bit-identical — never a closed form, never a pairwise reduction.
    """
    chain = np.empty(len(values) + 1)
    chain[0] = initial
    chain[1:] = values
    np.cumsum(chain, out=chain)
    return float(chain[-1])


def _peek_valid(heap, version) -> "tuple[float, int, int] | None":
    """Earliest valid heap entry (pruning stale versions), or ``None``."""
    while heap and heap[0][2] != version[heap[0][1]]:
        heapq.heappop(heap)
    return heap[0] if heap else None


def _record_iterations(
    state: _RunState,
    shard: int,
    burst_slices,
    burst,
    length: int,
    times,
    occupancy: float,
    base_index: int,
    admitted,
    start: int,
    stop: int,
    retiring: bool,
    retired,
) -> None:
    """Expand burst iterations ``[start, stop)`` into records and events.

    The slow path of the event scheduler, entered only when iteration
    records or an active bus ask for per-iteration granularity.  The caller
    splits the burst around retirement so emission order matches the
    reference loop exactly: non-final iterations first, then retirement
    (whose functional pass may emit plan-cache lookups), then the retired
    events ahead of the final iteration's advancement events.
    """
    bus = state.bus
    quantum = state.iteration_rows
    full_resident = tuple((request.request_id, quantum) for request, _, _ in burst_slices)
    admitted_ids = tuple(inflight.request.request_id for inflight in admitted)
    retired_ids = tuple(inflight.request.request_id for inflight in retired)
    for index in range(start, stop):
        final = index == length - 1
        if final and retiring:
            resident = tuple(
                (request.request_id, min(quantum, rows_left - (length - 1) * quantum))
                for request, _, rows_left in burst_slices
            )
        else:
            resident = full_resident
        was_primed = state.primed[shard] if index == 0 else True
        start_value = float(times[index])
        seconds_value = float(burst.seconds[index])
        energy_value = float(burst.energy_joules[index])
        gate_value = int(burst.gate_rows[index])
        cycles_value = int(burst.cycles[index]) if burst.cycles is not None else None
        if state.record_iterations:
            state.records.append(
                IterationRecord(
                    index=base_index + index,
                    shard=shard,
                    start_seconds=start_value,
                    seconds=seconds_value,
                    cycles=cycles_value,
                    energy_joules=energy_value,
                    gate_rows=gate_value,
                    primed=was_primed,
                    resident=resident,
                    admitted=admitted_ids if index == 0 else (),
                    retired=retired_ids if final else (),
                    occupancy=occupancy,
                )
            )
        if bus.active:
            if final:
                for inflight in retired:
                    _emit_retired(state, inflight)
            bus.emit(
                IterationAdvanced(
                    index=base_index + index,
                    shard=shard,
                    start_seconds=start_value,
                    seconds=seconds_value,
                    cycles=cycles_value,
                    energy_joules=energy_value,
                    gate_rows=gate_value,
                    primed=was_primed,
                    num_resident=len(burst_slices),
                    occupancy=occupancy,
                    run_id=state.run_id,
                )
            )
            bus.emit(
                ShardOccupancy(
                    shard=shard,
                    residents=len(burst_slices),
                    slots=state.max_batch_size,
                    occupancy=occupancy,
                    time=start_value,
                    run_id=state.run_id,
                )
            )


def _emit_admissions(state: _RunState, shard: int, admitted, queue_depth: int, now: float) -> None:
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
    state.bus.emit(QueueDepth(depth=queue_depth, time=now, run_id=state.run_id))


def _mark_blocks(inflight: InFlightRequest, now: float) -> None:
    """Stamp every decode block the request's row stream just crossed.

    Called after an iteration advanced ``rows_done``: a block completes at
    the end of the iteration that streams past its boundary, so its time is
    the advanced clock.
    """
    boundaries = inflight.token_boundaries
    times = inflight.block_times
    while len(times) < len(boundaries) and inflight.rows_done >= boundaries[len(times)]:
        times.append(now)


def _mark_blocks_burst(
    inflight: InFlightRequest, start_rows: int, times, quantum: int
) -> None:
    """Burst-path block stamping: boundaries map to burst iteration ends.

    ``times`` is the burst's cumulative clock (``times[j]`` is the end of
    iteration ``j``), already carrying the reference loop's exact bits, so a
    boundary crossed in iteration ``j`` gets the identical completion time
    the reference loop would stamp.
    """
    boundaries = inflight.token_boundaries
    blocks = inflight.block_times
    while len(blocks) < len(boundaries) and inflight.rows_done >= boundaries[len(blocks)]:
        iteration = -(-(boundaries[len(blocks)] - start_rows) // quantum)
        blocks.append(float(times[iteration]))


def _fold_decode(state: _RunState, inflight: InFlightRequest) -> None:
    """Fold one retired decode's per-token accounting into the run state."""
    if inflight.token_boundaries is None:
        return
    request = inflight.request
    state.num_decode += 1
    state.decode_tokens += request.new_tokens
    ttft, gaps = decode_token_intervals(
        tuple(inflight.block_times), request.block_schedule, request.arrival_time
    )
    state.ttfts.append(ttft)
    state.token_gaps.extend(gaps)


def _emit_retired(state: _RunState, inflight: InFlightRequest) -> None:
    """Emit one retirement's events: decode accounting first, then retired."""
    if inflight.token_boundaries is not None:
        request = inflight.request
        state.bus.emit(
            RequestDecoded(
                request_id=request.request_id,
                new_tokens=request.new_tokens,
                block_sizes=request.block_schedule,
                block_times=tuple(inflight.block_times),
                arrival_time=request.arrival_time,
                run_id=state.run_id,
            )
        )
    state.bus.emit(_retired_event(inflight, run_id=state.run_id))


def _completion(inflight: InFlightRequest, output) -> CompletedRequest:
    """The :class:`CompletedRequest` of one retired in-flight record."""
    return CompletedRequest(
        request=inflight.request,
        output=output,
        shard=inflight.shard,
        batch_id=inflight.admission_id,
        batch_size=inflight.residency_at_admit,
        device_seconds=inflight.device_seconds,
        arrival_time=inflight.request.arrival_time,
        admit_time=inflight.admit_time,
        finish_time=inflight.finish_time,
    )


def _retired_event(inflight: InFlightRequest, run_id: int) -> RequestRetired:
    """The telemetry event mirroring one retirement's accounting."""
    return RequestRetired(
        request_id=inflight.request.request_id,
        shard=inflight.shard,
        batch_id=inflight.admission_id,
        batch_size=inflight.residency_at_admit,
        device_seconds=inflight.device_seconds,
        arrival_time=inflight.request.arrival_time,
        admit_time=inflight.admit_time,
        finish_time=inflight.finish_time,
        run_id=run_id,
    )


def _next_active_shard(batcher: ContinuousBatcher, clocks: "list[ServingClock]") -> int:
    """The shard whose next iteration starts earliest (event-driven order).

    A shard with residents activates at its own clock; an empty shard
    activates when the next waiting request arrives.  Ties break on shard
    index, so the loop is deterministic.
    """
    next_arrival = batcher.next_arrival_time()
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


def _retirement_outputs(backend, retired: "list[InFlightRequest]"):
    """Functional outputs for this iteration's retirees (one stacked pass)."""
    if not retired:
        return ()
    if not backend.functional:
        return (None,) * len(retired)
    return backend.compute_outputs([inflight.request for inflight in retired])


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
