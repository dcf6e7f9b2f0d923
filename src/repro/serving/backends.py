"""Pluggable pricing backends behind one row-program protocol.

Every way this repository can price (and, for the simulator, execute) an
attention computation is wrapped as an :class:`AttentionBackend` and
registered by name, so the serving engine, the demo CLI and the benchmarks
select execution paths with a string:

``simulator``
    The cycle-accurate, functionally-exact :class:`~repro.core.simulator.SWATSimulator`.
``analytical``
    SWAT's analytical timing model only (no functional output) — the
    high-throughput capacity-planning path.
``gpu-dense`` / ``gpu-chunked``
    The analytical GPU models of :mod:`repro.gpu` (dense and sliding-chunks).
``dense-fpga``
    The dense-attention FPGA baseline of :mod:`repro.baselines.dense_fpga`.

Row programs
------------
A backend prices a request through its *row program*, which the engine
resolves once per request, at admission (when SJF ranks it, under SJF),
with :meth:`AttentionBackend.program`.  A program is the request's row axis on
that backend: ``total_rows`` rows to stream, ``span_cycles(lo, hi,
primed)`` the integer ticks of streaming rows ``[lo, hi)`` in one iteration,
and ``primed_grid(quantum, phase)`` the memoised primed ticks of every
``quantum``-row span aligned at ``phase``.  Ticks are integer ticks of the
pool's kernel clock (``config.clock_period_s``;
:attr:`AttentionBackend.time_base` converts them to seconds, and energy
ticks to joules at the backend's ``power_w``).  Each backend family has one
``program()``, and it is the only place here, with :func:`split_batch`,
that tests a request's kind:

* SWAT (``simulator``, ``analytical``): a forward is its
  :class:`~repro.model.plan.ModelPlan` and a decode its
  :class:`~repro.model.plan.DecodePlan` — segmented row axes whose geometry
  switches pay their refill exactly once, memoised per spec (and block
  schedule) — and a plain attention a one-segment
  :class:`~repro.model.plan.StreamPlan`, memoised per
  ``(seq_len, num_heads)``.
* The rate family (the GPU models and the dense-FPGA baseline): one
  memoised :class:`_RateProgram` per shape, ``R`` one-shot ticks over ``T``
  rate rows of which the request streams its ``head_rows``.  A decode is
  priced off its full context's one-shot ticks, scaled to its new rows, so
  per new token it still attends the whole context — the KV-cache advantage
  the decode benchmark measures against re-prefilling.

Pricing
-------
:meth:`AttentionBackend.step` and :meth:`AttentionBackend.step_burst` are
derived from the programs, once, in the base class.  ``step`` prices one
iteration of ``(program, rows_done, rows)`` slices — the reference
scheduler's clock: residents stream in parallel slots, so an iteration
lasts as long as its largest slice, and a primed pipeline pays no refill,
so a busy period pays its fill once.  ``step_burst`` prices every iteration
until the first retirement in one call, reading each resident's ticks off
its program's ``primed_grid``.  The energy rule is one flag,
:attr:`AttentionBackend.charges_slice_work`: the GPU models charge every
slice's ticks (energy tracks work), SWAT and the dense-FPGA baseline the
busy ticks.  Every kind's energy is its energy ticks times ``power_w``.

The closed form is chosen off the programs, not the request types: when a
shard's :class:`Residents` count no segmented program, every SWAT resident
is one stream at the pipeline's initiation interval, and SWAT's
``step_burst`` returns a :class:`StreamBurst` priced from two ints.

Functional outputs are separate from pricing: at retirement the engine asks
the backend for :meth:`AttentionBackend.compute_outputs`.  The ``simulator``
partitions the retirees into ``(config, seq_len)`` groups and runs every
group as ONE stacked tensor program (:class:`repro.core.plan.PlanBatch`) —
the slab GEMMs and extras gathers vectorize over all ``B x H`` stacked heads,
with per-head results bit-identical to per-request execution.  Forwards
group by ``(spec, weight_seed)`` and run through one memoised
:class:`~repro.model.executor.ModelExecutor` per group, the serving layer's
model registry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.baselines.dense_fpga import DenseFPGABaseline
from repro.core.config import SWATConfig
from repro.core.plan import PlanBatch
from repro.core.power import PowerModel
from repro.core.simulator import SWATSimulator
from repro.gpu.chunked_runner import SlidingChunksAttentionGPU
from repro.gpu.dense_runner import DenseAttentionGPU
from repro.model.executor import ModelExecutor
from repro.model.plan import (
    DecodePlan,
    ModelPlan,
    ModelPlanCompiler,
    StreamPlan,
    compile_decode_plan,
)
from repro.serving.cache import PlanCache
from repro.serving.request import AttentionRequest, DecodeRequest, ForwardRequest
from repro.serving.stats import TimeBase

__all__ = [
    "StepCost",
    "StepBurst",
    "StreamBurst",
    "Residents",
    "AttentionBackend",
    "BackendRegistry",
    "REGISTRY",
    "register_backend",
    "create_backend",
    "available_backends",
    "batch_head_rows",
    "indexed_seq_len_groups",
    "split_batch",
]


@dataclass(frozen=True)
class StepCost:
    """Price of one continuous-batching iteration on the pool's tick clock.

    Attributes
    ----------
    ticks:
        Modelled device time of the iteration, in integer ticks of the
        pool's kernel clock (``config.clock_period_s``).  Resident slices
        stream in parallel across the stacked batch axis, so the iteration
        lasts as long as its *gating* (largest) slice, not the sum of all
        slices.
    energy_ticks:
        The ticks the backend's energy rule charges at its
        :attr:`~AttentionBackend.power_w`: the busy ``ticks`` on SWAT and
        the dense-FPGA baseline, every slice's ticks summed on the GPU
        models (energy tracks the work of all slices).
    """

    ticks: int
    energy_ticks: int


class StepBurst:
    """Prices of a *burst* of consecutive iterations over fixed residents.

    Between an admission and the next retirement the resident set of a shard
    is constant, so every iteration of the burst advances the same slices —
    the whole burst is a closed-form function of the residents' remaining
    rows.  :meth:`AttentionBackend.step_burst` prices all of them in one
    call from the shard's :class:`Residents` columns; iteration ``j`` is
    bit-identical to what the corresponding
    :meth:`~AttentionBackend.step` call would have returned.

    The scheduler asks a burst two questions, both in integer ticks:
    :meth:`ticks_through` (the ticks of its first ``j`` iterations, with
    :meth:`energy_through` the energy-rule counterpart) and
    :meth:`first_start_at` (the first iteration whose start reaches a given
    offset).  This class answers them off the int64 prefix sums of the
    per-iteration ticks and energy ticks it is built from;
    :class:`StreamBurst` answers them in closed form.

    A burst may be consumed across several activations of its shard: when
    an arrival or another shard's activation cuts it short, the scheduler
    keeps the unconsumed :meth:`tail` and continues from it at the shard's
    next activation unless that activation admits.  Every entry after the
    first is priced primed at the row offsets a fresh call would use, so the
    tail holds the same ticks a fresh :meth:`~AttentionBackend.step_burst`
    call would return.  A tail shares its parent's prefix sums and reads
    them from an offset, so cutting a burst costs O(1).

    Attributes
    ----------
    iterations:
        Burst length: iterations until the resident with the fewest
        remaining rows retires.
    """

    __slots__ = ("iterations", "_base", "_starts", "_energy_starts")

    def __init__(self, ticks, energy_ticks=None):
        """``ticks`` (and ``energy_ticks``, by default ``ticks``) per iteration."""
        self.iterations = len(ticks)
        # The index of this burst's first iteration in the prefix sums.
        self._base = 0
        # starts[j]: ticks of the first j iterations (iteration j's start).
        self._starts = np.zeros(self.iterations + 1, dtype=np.int64)
        np.cumsum(ticks, out=self._starts[1:])
        if energy_ticks is None:
            self._energy_starts = self._starts
        else:
            self._energy_starts = np.zeros(self.iterations + 1, dtype=np.int64)
            np.cumsum(energy_ticks, out=self._energy_starts[1:])

    def ticks_through(self, count: int) -> int:
        """Ticks of the burst's first ``count`` iterations."""
        base = self._base
        return int(self._starts[base + count] - self._starts[base])

    def energy_through(self, count: int) -> int:
        """Energy-rule ticks of the burst's first ``count`` iterations."""
        base = self._base
        return int(self._energy_starts[base + count] - self._energy_starts[base])

    def first_start_at(self, offset: int) -> int:
        """The first iteration starting ``offset`` or more ticks into the burst.

        Iteration ``j`` starts ``ticks_through(j)`` ticks in; returns
        ``iterations`` when no iteration of the burst starts that late.
        """
        base = self._base
        index = int(np.searchsorted(self._starts, self._starts[base] + offset, side="left"))
        return min(max(index - base, 0), self.iterations)

    def _check_tail(self, offset: int) -> None:
        if not 0 < offset < self.iterations:
            raise ValueError(f"tail offset must be in (0, {self.iterations}), got {offset}")

    def tail(self, offset: int) -> "StepBurst":
        """The burst after its first ``offset`` iterations."""
        self._check_tail(offset)
        tail = object.__new__(StepBurst)
        for name in StepBurst.__slots__:
            setattr(tail, name, getattr(self, name))
        tail.iterations -= offset
        tail._base += offset
        return tail


class StreamBurst(StepBurst):
    """A closed-form SWAT burst: one row per initiation interval.

    With the resident set fixed and every program a one-segment stream, a
    burst is ``first`` (the fill-or-primed first iteration), then
    ``iterations - 2`` primed full iterations of ``body`` ticks, then the
    primed remainder of ``last`` ticks; a one-iteration burst is ``first``
    alone.  Both scheduler questions are O(1) arithmetic, and no
    per-iteration array exists.  The energy rule charges the busy ticks.
    """

    __slots__ = ("_first", "_body", "_last")

    def __init__(self, iterations: int, first: int, body: int, last: int):
        self.iterations = iterations
        self._first = first
        self._body = body
        self._last = last

    def ticks_through(self, count: int) -> int:
        if count <= 0:
            return 0
        if count < self.iterations:
            return self._first + (count - 1) * self._body
        if self.iterations == 1:
            return self._first
        return self._first + (self.iterations - 2) * self._body + self._last

    # The energy rule charges the busy ticks.
    energy_through = ticks_through

    def first_start_at(self, offset: int) -> int:
        if offset <= 0:
            return 0
        if offset <= self._first or self.iterations == 1:
            return 1
        return min(1 + -(-(offset - self._first) // self._body), self.iterations)

    def tail(self, offset: int) -> "StreamBurst":
        self._check_tail(offset)
        left = self.iterations - offset
        return StreamBurst(left, self._last if left == 1 else self._body, self._body, self._last)


class Residents:
    """A shard's resident set as columns: the input of ``step_burst``.

    Residents stream in lockstep (every iteration advances each of them by
    the same ``iteration_rows`` until one retires), so one row counter
    ``row`` places them all.  Resident ``i`` streams ``programs[i]``, joined
    at row ``starts[i]`` and retires once ``row`` reaches ``finishes[i]``:
    it has streamed ``row - starts[i]`` rows and has ``finishes[i] - row``
    left.  ``indices[i]`` names it (the engine seats each request's
    submission index there).  Advancing a burst moves ``row`` alone and
    touches no resident.

    ``segmented`` counts the residents whose program is segmented (a
    forward's or a decode's plan); at zero a SWAT burst needs only the
    fewest and the most rows left.  :meth:`add` and :meth:`retire` keep it
    current, so no burst scans the programs.
    """

    __slots__ = ("programs", "starts", "finishes", "indices", "row", "segmented")

    def __init__(self) -> None:
        self.programs: list = []
        self.starts: "list[int]" = []
        self.finishes: "list[int]" = []
        self.indices: "list[int]" = []
        self.row = 0
        self.segmented = 0

    @classmethod
    def from_slices(
        cls, slices: "list[tuple[AttentionRequest, int, int]]", program_of
    ) -> "Residents":
        """Columns of ``(request, rows_done, rows_left)`` slices, in slot order.

        ``program_of`` resolves each request to its row program (a backend's
        :meth:`~AttentionBackend.program`).
        """
        residents = cls()
        residents.row = max((rows_done for _, rows_done, _ in slices), default=0)
        for index, (request, rows_done, rows_left) in enumerate(slices):
            residents.add(index, program_of(request), rows_done + rows_left, rows_done)
        return residents

    def add(self, index: int, program, rows_total: int, rows_done: int = 0) -> None:
        """Seat resident ``index``: ``program``, ``rows_done`` of its ``rows_total`` rows streamed.

        ``index`` names it in what :meth:`retire` returns.
        """
        start = self.row - rows_done
        self.indices.append(index)
        self.programs.append(program)
        self.starts.append(start)
        self.finishes.append(start + rows_total)
        if program.segmented:
            self.segmented += 1

    def retire(self) -> "list[int]":
        """Drop every resident whose finish row ``row`` has reached.

        Returns their :attr:`indices`, in slot order.
        """
        row = self.row
        finishes = self.finishes
        retired = []
        # Last slot first, so a deletion never shifts a slot still to visit.
        for slot in range(len(finishes) - 1, -1, -1):
            if finishes[slot] <= row:
                retired.append(self.indices[slot])
                if self.segmented and self.programs[slot].segmented:
                    self.segmented -= 1
                del self.programs[slot], self.starts[slot], finishes[slot], self.indices[slot]
        retired.reverse()
        return retired

    def fewest_left(self) -> int:
        """Rows left to the first retirement (validated positive)."""
        if not self.finishes:
            raise ValueError("a burst needs at least one resident slice")
        fewest = min(self.finishes) - self.row
        if fewest <= 0:
            raise ValueError(f"remaining rows must be positive, got {fewest}")
        return fewest

    def slices(self) -> "list[tuple[object, int, int]]":
        """``(program, rows_done, rows_left)`` per resident, in slot order."""
        row = self.row
        return [
            (program, row - start, finish - row)
            for program, start, finish in zip(self.programs, self.starts, self.finishes)
        ]


class AttentionBackend(ABC):
    """Common protocol of every pricing path: row programs on one tick clock.

    Subclasses declare ``name`` (the registry key) and ``functional``
    (whether functional requests get an output array back from
    :meth:`compute_outputs`), and implement :meth:`program`.  The
    simulated-clock engine of :mod:`repro.serving.continuous` advances by
    :meth:`step` and :meth:`step_burst`, both derived from the programs here.
    """

    name: str = ""
    functional: bool = False
    #: Whether the energy rule charges every slice's ticks (work-proportional
    #: energy) instead of the iteration's busy ticks.
    charges_slice_work: bool = False

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        self.config = config if config is not None else SWATConfig()
        self.plan_cache = plan_cache
        # The backend's model registry: compiled whole-forward plans per spec
        # and executors (plans + weights) per (spec, weight_seed).
        self._model_plans: "dict[tuple, ModelPlan]" = {}
        self._model_executors: "dict[tuple, ModelExecutor]" = {}
        self._decode_plans: "dict[tuple, DecodePlan]" = {}

    # ------------------------------------------------------------------ #
    # Whole-model registry (ForwardRequest support)
    # ------------------------------------------------------------------ #

    def model_plan(self, request: ForwardRequest) -> ModelPlan:
        """The compiled :class:`~repro.model.plan.ModelPlan` of ``request``'s spec.

        Memoised per spec; per-shape execution plans resolve through the
        pool-shared :class:`~repro.serving.cache.PlanCache` when one is
        attached, so repeated shapes — across layers *and* across models —
        compile once pool-wide.
        """
        key = request.spec.fingerprint()
        if key not in self._model_plans:
            executor = self._model_executors.get((key, request.weight_seed))
            if executor is not None:
                self._model_plans[key] = executor.model_plan
            else:
                self._model_plans[key] = ModelPlanCompiler(
                    base_config=self.config, plan_cache=self.plan_cache
                ).compile(request.spec)
        return self._model_plans[key]

    def model_executor(self, request: ForwardRequest) -> ModelExecutor:
        """The memoised executor serving ``request``'s ``(spec, weight_seed)``."""
        key = (request.spec.fingerprint(), request.weight_seed)
        if key not in self._model_executors:
            self._model_executors[key] = ModelExecutor(
                request.spec,
                base_config=self.config,
                plan_cache=self.plan_cache,
                weight_seed=request.weight_seed,
            )
        return self._model_executors[key]

    def decode_plan(self, request: DecodeRequest) -> DecodePlan:
        """The compiled :class:`~repro.model.plan.DecodePlan` of ``request``.

        Memoised per ``(spec, block schedule)``: the decode plan lays the
        model plan's per-layer pipelines block-major along the decode's own
        row axis, so two decodes of the same model and block schedule share
        one plan regardless of their prompt lengths.
        """
        key = (request.spec.fingerprint(), request.block_schedule)
        if key not in self._decode_plans:
            self._decode_plans[key] = compile_decode_plan(
                self.model_plan(request), request.block_schedule
            )
        return self._decode_plans[key]

    def _stacked_forward_outputs(
        self,
        forwards: "list[tuple[int, ForwardRequest]]",
        outputs: "list[np.ndarray | None]",
    ) -> None:
        """Execute the functional forwards of a retirement, scattering outputs.

        Forwards group by ``(spec, weight_seed)`` — each group is one served
        model — and every group runs as one stacked
        :meth:`~repro.model.executor.ModelExecutor.forward_batch` pass, so
        all ``B x H`` heads of each layer execute together.
        """
        groups: "OrderedDict[tuple, list[tuple[int, ForwardRequest]]]" = OrderedDict()
        for index, request in forwards:
            if request.is_functional:
                key = (request.spec.fingerprint(), request.weight_seed)
                groups.setdefault(key, []).append((index, request))
        for members in groups.values():
            executor = self.model_executor(members[0][1])
            stacked = executor.forward_batch(np.stack([request.x for _, request in members]))
            for (index, _), output in zip(members, stacked):
                outputs[index] = output

    # ------------------------------------------------------------------ #
    # Iteration-level protocol (continuous batching)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def program(self, request: AttentionRequest):
        """``request``'s row program on this backend (see the module docstring).

        The engine calls this once per request, at admission (or when SJF
        ranks it by the program's ``total_rows``), and prices the request
        off the returned program from then on.
        """

    def step(self, slices: "list[tuple[object, int, int]]", primed: bool) -> StepCost:
        """Price one iteration advancing each ``(program, rows_done, rows)`` slice.

        Each slice streams rows ``[rows_done, rows_done + rows)`` of its
        program, priced by ``span_cycles`` — positionally, so a forward's
        slice knows which layers (and geometry switches) it covers.  Resident
        slices stream in parallel across the stacked batch axis (the ``G``
        axis of :class:`~repro.core.plan.PlanBatch`), so the iteration is
        gated by its largest slice.  ``primed`` is
        ``True`` when the pipeline was busy in the immediately preceding
        iteration: a primed pipeline pays no refill, which is how a batch's
        fill cost is amortised across admissions instead of being re-charged
        per dispatch.
        """
        if not slices:
            raise ValueError("an iteration needs at least one resident slice")
        ticks = -1
        work = 0
        for program, rows_done, rows in slices:
            if rows <= 0:
                raise ValueError(f"slice rows must be positive, got {rows}")
            slice_ticks = program.span_cycles(rows_done, rows_done + rows, primed)
            work += slice_ticks
            if slice_ticks > ticks:
                ticks = slice_ticks
        return StepCost(ticks=ticks, energy_ticks=work if self.charges_slice_work else ticks)

    def step_burst(self, residents: Residents, primed: bool, iteration_rows: int) -> StepBurst:
        """Price every iteration until the first resident retires, in one call.

        ``residents`` is the shard's resident set as lockstep columns
        (:class:`Residents`): each resident's program, rows done and rows
        *left to stream* — not one iteration's slice: the burst derives each
        iteration's slices itself (``min(iteration_rows, remaining)``,
        shrinking only on the final iteration).  ``primed`` applies to the
        first iteration; later iterations of a burst are primed by
        construction (the shard streamed in the immediately preceding
        iteration).

        Each resident's int64 tick row is a slice of its program's memoised
        ``primed_grid`` for ``(iteration_rows, rows_done % iteration_rows)``;
        only a cold first span, or a final span stopping short of its grid
        span's end, is priced by the scalar ``span_cycles``.  The maximum
        down the slice axis is :meth:`step`'s gating slice, so iteration
        ``j`` equals the ``step`` the reference scheduler prices for it.
        """
        iterations = -(-residents.fewest_left() // iteration_rows)
        streamed = (iterations - 1) * iteration_rows
        slices = residents.slices()
        cycle_rows = np.empty((len(slices), iterations), dtype=np.int64)
        for row, (program, rows_done, rows_left) in zip(cycle_rows, slices):
            first = rows_done // iteration_rows
            grid = program.primed_grid(iteration_rows, rows_done % iteration_rows)
            row[:] = grid[first : first + iterations]
            last_lo = rows_done + streamed
            last = min(iteration_rows, rows_left - streamed)
            if last_lo + last < min(last_lo + iteration_rows, program.total_rows):
                # The slice stops before its grid span's end.
                row[-1] = program.span_cycles(last_lo, last_lo + last, True)
            if not primed:
                # For a one-iteration burst this overwrites the final entry:
                # a cold slice pays the fill, as the reference loop's first
                # iteration does.
                row[0] = program.span_cycles(
                    rows_done, rows_done + min(iteration_rows, rows_left), False
                )
        return StepBurst(
            cycle_rows.max(axis=0), cycle_rows.sum(axis=0) if self.charges_slice_work else None
        )

    @property
    def power_w(self) -> float:
        """The power the backend's energy rule charges per energy tick."""
        raise NotImplementedError(f"backend {self.name!r} declares no power_w")

    @property
    def time_base(self) -> TimeBase:
        """The backend's tick (its config's kernel clock) and energy-rule power."""
        return TimeBase(self.config.clock_period_s, self.power_w)

    def compute_outputs(self, batch: "list[AttentionRequest]") -> "tuple[np.ndarray | None, ...]":
        """Functional outputs of ``batch`` without touching the timing model.

        The engine prices execution through :meth:`step_burst` and asks for
        outputs separately at retirement; non-functional backends return
        ``None`` per request.
        """
        return (None,) * len(batch)

    def describe(self) -> str:
        """Human-readable one-liner used by the demo CLI."""
        kind = "functional" if self.functional else "analytical"
        return f"{self.name} ({kind}): {self.config.describe()}"


class BackendRegistry:
    """Name -> backend-class registry with a decorator-based registration."""

    def __init__(self):
        self._backends: "dict[str, type[AttentionBackend]]" = {}

    def register(self, cls: "type[AttentionBackend]") -> "type[AttentionBackend]":
        """Class decorator: register ``cls`` under its ``name`` attribute."""
        if not cls.name:
            raise ValueError(f"backend class {cls.__name__} must set a non-empty name")
        if cls.name in self._backends:
            raise ValueError(f"backend {cls.name!r} is already registered")
        self._backends[cls.name] = cls
        return cls

    def backend_class(self, name: str) -> "type[AttentionBackend]":
        """Return the backend class registered under ``name``."""
        try:
            return self._backends[name]
        except KeyError:
            raise KeyError(
                f"unknown backend {name!r}; available: {sorted(self._backends)}"
            ) from None

    def create(
        self,
        name: str,
        config: "SWATConfig | None" = None,
        plan_cache: "PlanCache | None" = None,
    ) -> AttentionBackend:
        """Instantiate the backend registered under ``name``."""
        return self.backend_class(name)(config=config, plan_cache=plan_cache)

    def names(self) -> "tuple[str, ...]":
        """Registered backend names, sorted."""
        return tuple(sorted(self._backends))

    def __contains__(self, name: str) -> bool:
        return name in self._backends


#: The process-wide registry the serving engine resolves names against.
REGISTRY = BackendRegistry()
register_backend = REGISTRY.register


def create_backend(
    name: str,
    config: "SWATConfig | None" = None,
    plan_cache: "PlanCache | None" = None,
) -> AttentionBackend:
    """Instantiate a backend from the process-wide registry."""
    return REGISTRY.create(name, config=config, plan_cache=plan_cache)


def available_backends() -> "tuple[str, ...]":
    """Names of all registered backends."""
    return REGISTRY.names()


def batch_head_rows(batch: "list[AttentionRequest]") -> int:
    """Accounted head-row units of a batch (``num_heads * seq_len`` per
    attention request, summed over layers for forwards).

    The backend-independent work measure behind
    :attr:`~repro.serving.stats.ServingStats.total_head_rows`: the same trace
    reports the same value on every backend.
    """
    return sum(request.head_rows for request in batch)


def split_batch(
    batch: "list[AttentionRequest]",
) -> (
    "tuple[list[tuple[int, AttentionRequest]], list[tuple[int, ForwardRequest]],"
    " list[tuple[int, DecodeRequest]]]"
):
    """Partition a batch into attention, forward and decode items.

    Returns ``(attentions, forwards, decodes)`` as ``(batch_index, request)``
    pairs in batch order — the kinds execute through different paths, but the
    result tuple must line up with the original batch.
    """
    attentions: "list[tuple[int, AttentionRequest]]" = []
    forwards: "list[tuple[int, ForwardRequest]]" = []
    decodes: "list[tuple[int, DecodeRequest]]" = []
    for index, request in enumerate(batch):
        if isinstance(request, DecodeRequest):
            decodes.append((index, request))
        elif isinstance(request, ForwardRequest):
            forwards.append((index, request))
        else:
            attentions.append((index, request))
    return attentions, forwards, decodes


def indexed_seq_len_groups(
    pairs,
) -> "OrderedDict[int, list[tuple[int, AttentionRequest]]]":
    """Partition ``(batch_index, request)`` pairs into same-``seq_len`` groups.

    Returns ``seq_len -> [(batch_index, request), ...]`` in first-seen order,
    keeping original batch indices for output scatter.  One batch may mix
    sequence lengths; each exact shape shares one compiled plan and executes
    as one stacked :class:`~repro.core.plan.PlanBatch` pass.
    """
    groups: "OrderedDict[int, list[tuple[int, AttentionRequest]]]" = OrderedDict()
    for index, request in pairs:
        groups.setdefault(request.seq_len, []).append((index, request))
    return groups


class _SWATBackendBase(AttentionBackend):
    """Shared SWAT machinery: simulator, row programs and the closed-form burst."""

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        super().__init__(config=config, plan_cache=plan_cache)
        if self.plan_cache is None:
            # Plans resolve per shape for pricing and execution; a private
            # cache keeps repeated shapes from recompiling even when no
            # pool-wide cache was supplied.
            self.plan_cache = PlanCache()
        self.simulator = SWATSimulator(self.config, plan_cache=self.plan_cache)
        # Hot-loop constants of the step clock, resolved once: the continuous
        # scheduler prices millions of iterations through these, and the
        # attribute chains (pipeline model, power breakdown) are pure
        # functions of the frozen config.
        self._initiation_interval = self.simulator.pipeline.initiation_interval
        self._total_power_w = self.simulator.power_model.total_power_w
        # Plain-attention streams per (seq_len, num_heads).
        self._streams: "dict[tuple[int, int], StreamPlan]" = {}

    @property
    def power_w(self) -> float:
        """The board power SWAT's energy rule charges per busy tick."""
        return self._total_power_w

    def program(self, request: AttentionRequest) -> "StreamPlan | ModelPlan | DecodePlan":
        """The request's row axis on the SWAT pipeline.

        A forward streams its model plan's rows, every layer's in turn
        (:attr:`~repro.model.plan.ModelPlan.total_rows`); a decode only its
        new rows, block-major
        (:attr:`~repro.model.plan.DecodePlan.total_rows`).  A plain
        attention streams ``ceil(num_heads / num_pipelines) * seq_len`` rows
        on the most-loaded pipeline replica, heads back to back, as one
        segment at the pipeline's initiation interval — so a solo request's
        per-iteration cycles sum bit-exactly to
        :meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles`
        of a batch of one (fill paid once).  SWAT's ticks are its cycles.
        """
        if isinstance(request, DecodeRequest):
            return self.decode_plan(request)
        if isinstance(request, ForwardRequest):
            return self.model_plan(request)
        key = (request.seq_len, request.num_heads)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = StreamPlan(
                ceil(request.num_heads / self.config.num_pipelines) * request.seq_len,
                self._initiation_interval,
                self.simulator.pipeline.timing.pipeline_depth_cycles,
            )
        return stream

    def step_burst(self, residents: Residents, primed: bool, iteration_rows: int) -> StepBurst:
        """The closed-form burst when no resident program is segmented.

        Every resident is then one stream at the pipeline's initiation
        interval, and every iteration before the last advances exactly
        ``iteration_rows`` gating rows, so the burst is a
        :class:`StreamBurst` — ``[fill-or-primed first, (K - 2) primed full
        slices, one primed remainder]`` — priced from two ints, the fewest
        and the most rows left, with no per-resident work and no
        per-iteration array at all.  Otherwise the grid burst of
        :meth:`AttentionBackend.step_burst` prices it.
        """
        if residents.segmented:
            return super().step_burst(residents, primed, iteration_rows)
        iterations = -(-residents.fewest_left() // iteration_rows)
        streamed = (iterations - 1) * iteration_rows
        ii = self._initiation_interval
        # The final iteration is gated by the resident with the most rows left.
        last_rows = min(iteration_rows, max(residents.finishes) - residents.row - streamed)
        first_rows = iteration_rows if iterations > 1 else last_rows
        return StreamBurst(
            iterations,
            first_rows * ii if primed else self.simulator.pipeline.cycles_for_rows(first_rows),
            iteration_rows * ii,
            last_rows * ii,
        )


@register_backend
class SimulatorBackend(_SWATBackendBase):
    """Cycle-accurate SWAT: functional outputs plus fill-amortised timing.

    Functional execution is batched per ``(config, seq_len)`` group: every
    functional request of a group stacks its data heads onto the group's
    compiled plan and one :meth:`~repro.core.plan.PlanBatch.execute` pass
    runs the whole stack, bit-identical per head to the per-request
    :meth:`~repro.core.simulator.SWATSimulator.run` loop it replaced.
    """

    name = "simulator"
    functional = True

    def compute_outputs(self, batch: "list[AttentionRequest]") -> "tuple[np.ndarray | None, ...]":
        """Stacked functional pass — one ``PlanBatch`` per shape group.

        The engine prices iterations through :meth:`step_burst` and fetches
        outputs here at retirement, so by the stacked executor's contract the
        per-head bits equal running each request alone.  Whole-model forwards
        group by ``(spec, weight_seed)`` and execute as one stacked
        :meth:`~repro.model.executor.ModelExecutor.forward_batch` per group —
        all ``B x H`` heads of each layer in one pass over the layer's shared
        plan.  Decodes are analytical and return ``None``.
        """
        outputs: "list[np.ndarray | None]" = [None] * len(batch)
        attentions, forwards, _ = split_batch(batch)
        for seq_len, members in indexed_seq_len_groups(attentions).items():
            # Resolved for analytical groups too: every group's lookup counts
            # in the run's plan-cache stats.
            plan = self.simulator.resolve_plan(seq_len)
            functional = [(index, request) for index, request in members if request.is_functional]
            if not functional:
                continue
            plan_batch = PlanBatch.from_items(
                plan, [(request.q, request.k, request.v) for _, request in functional]
            )
            stacked = plan_batch.execute(scale=1.0 / np.sqrt(self.config.head_dim))
            for (index, _), output in zip(functional, plan_batch.split(stacked)):
                outputs[index] = output
        self._stacked_forward_outputs(forwards, outputs)
        return tuple(outputs)


@register_backend
class AnalyticalBackend(_SWATBackendBase):
    """SWAT timing model only — prices iterations without touching the data."""

    name = "analytical"
    functional = False


def _ceil_div(numerator, denominator):
    """Exact integer ceiling of ``numerator / denominator`` (ints or int64 arrays)."""
    return -(-numerator // denominator)


class _RateProgram:
    """A rate-family row axis: ``ticks`` (``R``) over ``rate_rows`` (``T``).

    The request streams ``total_rows`` of the rate rows.  Rows ``[lo, hi)``
    cost ``ceil(R * hi / T) - ceil(R * lo / T)`` ticks, so however the engine
    slices a solo request, its slices sum to exactly
    ``ceil(R * total_rows / T)`` — ``R`` itself whenever the request streams
    its whole rate axis.  No fill state: ``primed`` is ignored.
    """

    __slots__ = ("ticks", "rate_rows", "total_rows", "_grids")
    segmented = False

    def __init__(self, ticks: int, rate_rows: int, total_rows: int):
        self.ticks = ticks
        self.rate_rows = rate_rows
        self.total_rows = total_rows
        self._grids: "dict[tuple[int, int], np.ndarray]" = {}

    def span_cycles(self, row_lo: int, row_hi: int, primed: bool) -> int:
        """Ticks of rows ``[row_lo, row_hi)``, this request's positional share."""
        del primed  # no streaming fill to amortise
        return _ceil_div(self.ticks * row_hi, self.rate_rows) - _ceil_div(
            self.ticks * row_lo, self.rate_rows
        )

    def primed_grid(self, quantum: int, phase: int) -> np.ndarray:
        """Ticks of every ``quantum``-row span aligned at ``phase``, up to ``total_rows``.

        Memoised per ``(quantum, phase)`` and returned read-only.
        """
        key = (quantum, phase)
        grid = self._grids.get(key)
        if grid is None:
            bounds = np.append(np.arange(phase, self.total_rows, quantum), self.total_rows)
            grid = np.diff(_ceil_div(self.ticks * bounds, self.rate_rows))
            grid.flags.writeable = False
            self._grids[key] = grid
        return grid


class _RateBackendBase(AttentionBackend):
    """The rate family: a request's one-shot ticks spread over its row axis."""

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        super().__init__(config=config, plan_cache=plan_cache)
        self._programs: "dict[tuple[int, int, int, int], _RateProgram]" = {}

    def program(self, request: AttentionRequest) -> _RateProgram:
        """The request's :class:`_RateProgram`, memoised per shape.

        A request of ``num_layers x num_heads`` heads over ``seq_len`` tokens
        has ``num_layers * num_heads * seq_len`` context rows and streams its
        ``head_rows`` of them: every one for an attention or a forward, one
        per new token per layer-head for a decode.
        """
        key = (request.seq_len, request.num_heads, request.num_layers, request.head_rows)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = _RateProgram(*self._rate(*key), request.head_rows)
        return program

    def _rate(self, seq_len: int, num_heads: int, num_layers: int, head_rows: int):
        """``(R, T)`` of a shape: its one-shot ticks and its rate-row count."""
        raise NotImplementedError


class _GPUBackendBase(_RateBackendBase):
    """Shared GPU accounting: one batched report per program.

    A request's ``L x H`` kernel instances fold into one batched kernel
    stream (:meth:`~repro.gpu.dense_runner.DenseAttentionGPU.run_batch`,
    every instance riding one launch per kernel), priced once per program as
    its seconds rounded up to a tick — the report is deterministic per
    shape, so the runner is invoked once however many iterations price it.
    Energy is the board power times every slice's ticks (it tracks the work
    of every slice, not the gate).
    """

    charges_slice_work = True

    @property
    def power_w(self) -> float:
        """The GPU board power its energy rule charges per slice tick."""
        return self.runner.device.board_power_w

    def _rate(self, seq_len: int, num_heads: int, num_layers: int, head_rows: int):
        """The shape's report ticks over its full-context rows.

        A decode's report is its *context* shape — ``L x H`` kernels at the
        final ``seq_len``, exactly the re-prefill it avoids — and it streams
        one query row per new token per layer-head, so each generated row
        costs a ``1 / seq_len`` share of one instance: the dense-GPU KV-cache
        model.
        """
        items = num_layers * num_heads
        report = self.runner.run_batch(seq_len, items=items)
        return self.time_base.first_tick(report.seconds), items * seq_len


@register_backend
class GPUDenseBackend(_GPUBackendBase):
    """Naive dense softmax attention on the modelled server GPU."""

    name = "gpu-dense"
    functional = False

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        super().__init__(config=config, plan_cache=plan_cache)
        self.runner = DenseAttentionGPU(
            precision=self.config.precision.name, head_dim=self.config.head_dim
        )


@register_backend
class GPUChunkedBackend(_GPUBackendBase):
    """Longformer sliding-chunks window attention on the modelled GPU."""

    name = "gpu-chunked"
    functional = False

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        super().__init__(config=config, plan_cache=plan_cache)
        self.runner = SlidingChunksAttentionGPU(
            window=self.config.window_half_width,
            precision=self.config.precision.name,
            head_dim=self.config.head_dim,
        )


@register_backend
class DenseFPGABackend(_RateBackendBase):
    """Dense attention on a SWAT-sized core array (the ablation baseline).

    Its ticks are the baseline's cycles; the energy rule charges the board
    power per busy tick.
    """

    name = "dense-fpga"
    functional = False

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        super().__init__(config=config, plan_cache=plan_cache)
        self.baseline = DenseFPGABaseline(self.config)
        self.power_model = PowerModel(self.config)

    @property
    def power_w(self) -> float:
        """The board power the dense baseline's energy rule charges per busy tick."""
        return self.power_model.total_power_w

    def _rate(self, seq_len: int, num_heads: int, num_layers: int, head_rows: int):
        """The dense-baseline cycles of the streamed rows, over those rows.

        A forward runs one dense attention per layer (the baseline ignores
        schedule geometry — it attends everything).  A decode's new tokens
        each attend the full context but compute only their own query row,
        so its cycles are the full-context forward's scaled to its share of
        the context rows, rounded up to keep the clock integral.
        """
        full = num_layers * self.baseline.run(seq_len, num_heads=num_heads).cycles
        return _ceil_div(full * head_rows, num_layers * num_heads * seq_len), head_rows
