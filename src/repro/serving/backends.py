"""Pluggable pricing backends behind one iteration-level protocol.

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

Every backend prices on a *modelled* clock for the simulated-clock engine of
:mod:`repro.serving.continuous`, in integer ticks of the pool's kernel clock
(``config.clock_period_s``; :attr:`AttentionBackend.time_base` converts
ticks to seconds and energy ticks to joules at the backend's ``power_w``).
:meth:`AttentionBackend.step` prices one iteration of
``(request, rows_done, rows)`` slices: the pipeline fill is charged only
when the pipeline was idle before the iteration, so the per-iteration ticks
(SWAT cycles) of a busy period sum exactly to what
:meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles` would
charge for the same rows streamed as one batch.
:meth:`AttentionBackend.step_burst` prices every iteration over a fixed
resident set in one call, reading the residents as lockstep columns
(:class:`Residents`: one row counter plus each resident's start and finish
row).  The GPU backends price off one memoised
``run_batch`` report per distinct ``(seq_len, items)`` shape, rounded up to
a tick, with the launch-amortisation knob of :mod:`repro.gpu` deciding how
much of the per-kernel launch cost the batch hides; they and the
dense-FPGA baseline spread a request's ticks over its rows positionally,
so a solo request's slices sum to its one-shot ticks exactly.

Functional outputs are separate from pricing: at retirement the engine asks
the backend for :meth:`AttentionBackend.compute_outputs`.  The ``simulator``
partitions the retirees into ``(config, seq_len)`` groups and runs every
group as ONE stacked tensor program (:class:`repro.core.plan.PlanBatch`) —
the slab GEMMs and extras gathers vectorize over all ``B x H`` stacked heads,
with per-head results bit-identical to per-request execution.

Whole-model forwards
--------------------
Every backend also serves :class:`~repro.serving.request.ForwardRequest`\\ s:
a request carrying a :class:`~repro.model.spec.ModelSpec` instead of one
attention's Q/K/V.  Backends memoise one compiled
:class:`~repro.model.plan.ModelPlan` per spec (pricing: per-layer + total
cycles/bytes/energy off the plan's model-wide prefix sums) and one
:class:`~repro.model.executor.ModelExecutor` per ``(spec, weight_seed)``
(functional execution: same-spec forwards of a retirement stack into one
``(B, H, seq, head_dim)`` pass per layer) — the serving layer's model
registry.  On the simulated clock a forward advances through its model-wide
row axis; its slices are priced positionally
(:meth:`~repro.model.plan.ModelPlan.span_cycles`), so layer-geometry switches
pay their refill exactly once wherever the iteration boundaries fall.

Autoregressive decode
---------------------
A :class:`~repro.serving.request.DecodeRequest` is the prefill's tail: the
prompt's K/V is already resident, and only the newly generated row(s) of
each step stream through the device.  SWAT backends price decodes
positionally off a :class:`~repro.model.plan.DecodePlan` (the model plan's
per-layer pipelines laid out block-major along the decode's own row axis,
memoised per ``(spec, block schedule)``); the GPU and dense-FPGA baselines
scale their full-context reports to the generated rows — per new token they
still attend the whole context, which is exactly the KV-cache advantage the
decode benchmark measures against re-prefilling.  Decode steps are tiny, so
every ``step_burst`` override prices them closed-form — no looped-``step``
fallback anywhere on the continuous path.
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
from repro.model.plan import DecodePlan, ModelPlan, ModelPlanCompiler, compile_decode_plan
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
    gate_rows:
        Row-work units of the gating slice — the quantity the pipeline
        actually streamed for the duration of the iteration.
    """

    ticks: int
    energy_ticks: int
    gate_rows: int = 0


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
    offset).  This class answers them off int64 per-iteration arrays and
    their prefix sums — the positional (forward/decode) and flat-rate
    bursts.  :class:`StreamBurst` answers them in closed form.

    A burst may be consumed across several activations of its shard: when
    an arrival or another shard's activation cuts it short, the scheduler
    keeps the unconsumed :meth:`tail` and continues from it at the shard's
    next activation unless that activation admits.  Every entry after the
    first is priced primed at the row offsets a fresh call would use, so the
    tail holds the same ticks a fresh :meth:`~AttentionBackend.step_burst`
    call would return.

    Attributes
    ----------
    ticks:
        Per-iteration device ticks (int64 array).
    energy_ticks:
        Per-iteration ticks the energy rule charges (int64 array; the
        ``ticks`` array itself when the rule charges busy time).
    gate_rows:
        Per-iteration rows of the gating slice (int64 array).
    iterations:
        Burst length: iterations until the resident with the fewest
        remaining rows retires.
    """

    __slots__ = ("iterations", "_ticks", "_energy_ticks", "_gate_rows", "_starts", "_energy_starts")

    def __init__(self, ticks, gate_rows, energy_ticks=None):
        self.iterations = len(ticks)
        self._ticks = ticks
        self._gate_rows = gate_rows
        self._energy_ticks = ticks if energy_ticks is None else energy_ticks
        # starts[j]: ticks of the first j iterations (iteration j's start).
        self._starts = np.zeros(self.iterations + 1, dtype=np.int64)
        np.cumsum(ticks, out=self._starts[1:])
        if energy_ticks is None:
            self._energy_starts = self._starts
        else:
            self._energy_starts = np.zeros(self.iterations + 1, dtype=np.int64)
            np.cumsum(energy_ticks, out=self._energy_starts[1:])

    @property
    def ticks(self) -> np.ndarray:
        return self._ticks

    @property
    def energy_ticks(self) -> np.ndarray:
        return self._energy_ticks

    @property
    def gate_rows(self) -> np.ndarray:
        return self._gate_rows

    def ticks_through(self, count: int) -> int:
        """Ticks of the burst's first ``count`` iterations."""
        return int(self._starts[count])

    def energy_through(self, count: int) -> int:
        """Energy-rule ticks of the burst's first ``count`` iterations."""
        return int(self._energy_starts[count])

    def first_start_at(self, offset: int) -> int:
        """The first iteration starting ``offset`` or more ticks into the burst.

        Iteration ``j`` starts ``ticks_through(j)`` ticks in; returns
        ``iterations`` when no iteration of the burst starts that late.
        """
        return min(int(np.searchsorted(self._starts, offset, side="left")), self.iterations)

    def _check_tail(self, offset: int) -> None:
        if not 0 < offset < self.iterations:
            raise ValueError(f"tail offset must be in (0, {self.iterations}), got {offset}")

    def tail(self, offset: int) -> "StepBurst":
        """The burst after its first ``offset`` iterations."""
        self._check_tail(offset)
        return StepBurst(
            self._ticks[offset:],
            self._gate_rows[offset:],
            None if self._energy_ticks is self._ticks else self._energy_ticks[offset:],
        )


class StreamBurst(StepBurst):
    """A closed-form SWAT burst: one row per initiation interval.

    With the resident set fixed and every slice a plain attention, a burst
    is ``first`` (the fill-or-primed first iteration, ``first_rows`` gating
    rows), then ``iterations - 2`` primed full iterations of ``body`` ticks
    (``body_rows`` rows), then the primed remainder of ``last`` ticks
    (``last_rows`` rows); a one-iteration burst is ``first`` alone.  Both
    scheduler questions are O(1) arithmetic, and the per-iteration arrays
    are built only when iteration records or a telemetry bus ask for them.
    The energy rule charges the busy ticks.
    """

    __slots__ = ("_first", "_body", "_last", "_first_rows", "_body_rows", "_last_rows")

    def __init__(
        self,
        iterations: int,
        first: int,
        body: int,
        last: int,
        first_rows: int,
        body_rows: int,
        last_rows: int,
    ):
        self.iterations = iterations
        self._first = first
        self._body = body
        self._last = last
        self._first_rows = first_rows
        self._body_rows = body_rows
        self._last_rows = last_rows
        self._ticks = None
        self._gate_rows = None

    def _expand(self, first, body, last) -> np.ndarray:
        values = np.full(self.iterations, body, dtype=np.int64)
        values[-1] = last
        values[0] = first
        return values

    @property
    def ticks(self) -> np.ndarray:
        if self._ticks is None:
            self._ticks = self._expand(self._first, self._body, self._last)
        return self._ticks

    @property
    def gate_rows(self) -> np.ndarray:
        if self._gate_rows is None:
            self._gate_rows = self._expand(self._first_rows, self._body_rows, self._last_rows)
        return self._gate_rows

    @property
    def energy_ticks(self) -> np.ndarray:
        return self.ticks

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
        if left == 1:
            first, first_rows = self._last, self._last_rows
        else:
            first, first_rows = self._body, self._body_rows
        return StreamBurst(
            left, first, self._body, self._last, first_rows, self._body_rows, self._last_rows
        )


#: Request kinds priced positionally along a compiled plan's row axis.
_POSITIONAL_KINDS = (DecodeRequest, ForwardRequest)


class Residents:
    """A shard's resident set as columns: the input of ``step_burst``.

    Residents stream in lockstep (every iteration advances each of them by
    the same ``iteration_rows`` until one retires), so one row counter
    ``row`` places them all.  Resident ``i`` joined at row ``starts[i]`` and
    retires once ``row`` reaches ``finishes[i]``: it has streamed
    ``row - starts[i]`` rows and has ``finishes[i] - row`` left.  Advancing
    a burst moves ``row`` alone and touches no resident.

    ``positional`` counts the residents priced positionally (forwards and
    decodes); at zero a SWAT burst needs only the fewest and the most rows
    left.  :meth:`add` and :meth:`retire` keep it current, so no burst
    scans the residents' kinds.
    """

    __slots__ = ("requests", "starts", "finishes", "row", "positional")

    def __init__(self) -> None:
        self.requests: "list[AttentionRequest]" = []
        self.starts: "list[int]" = []
        self.finishes: "list[int]" = []
        self.row = 0
        self.positional = 0

    @classmethod
    def from_slices(cls, slices: "list[tuple[AttentionRequest, int, int]]") -> "Residents":
        """Columns of ``(request, rows_done, rows_left)`` slices, in slot order."""
        residents = cls()
        residents.row = max((rows_done for _, rows_done, _ in slices), default=0)
        for request, rows_done, rows_left in slices:
            residents.add(request, rows_done + rows_left, rows_done)
        return residents

    def add(self, request: AttentionRequest, rows_total: int, rows_done: int = 0) -> None:
        """Seat ``request``, ``rows_done`` of its ``rows_total`` rows already streamed."""
        start = self.row - rows_done
        self.requests.append(request)
        self.starts.append(start)
        self.finishes.append(start + rows_total)
        if isinstance(request, _POSITIONAL_KINDS):
            self.positional += 1

    def retire(self) -> "list[int]":
        """Drop every resident whose finish row ``row`` has reached.

        Returns their slot indices, ascending.
        """
        row = self.row
        gone = []
        for slot, finish in enumerate(self.finishes):
            if finish <= row:
                gone.append(slot)
        for slot in reversed(gone):
            if self.positional and isinstance(self.requests[slot], _POSITIONAL_KINDS):
                self.positional -= 1
            del self.requests[slot], self.starts[slot], self.finishes[slot]
        return gone

    def fewest_left(self) -> int:
        """Rows left to the first retirement (validated positive)."""
        if not self.finishes:
            raise ValueError("a burst needs at least one resident slice")
        fewest = min(self.finishes) - self.row
        if fewest <= 0:
            raise ValueError(f"remaining rows must be positive, got {fewest}")
        return fewest

    def slices(self) -> "list[tuple[AttentionRequest, int, int]]":
        """``(request, rows_done, rows_left)`` per resident, in slot order."""
        row = self.row
        return [
            (request, row - start, finish - row)
            for request, start, finish in zip(self.requests, self.starts, self.finishes)
        ]


class AttentionBackend(ABC):
    """Common protocol of every pricing path: one modelled iteration clock.

    Subclasses declare ``name`` (the registry key) and ``functional``
    (whether functional requests get an output array back from
    :meth:`compute_outputs`), and implement :meth:`step`, the iteration
    price the simulated-clock engine of :mod:`repro.serving.continuous`
    advances deterministically.
    """

    name: str = ""
    functional: bool = False

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

    def request_rows(self, request: AttentionRequest) -> int:
        """Total row-work units ``request`` must stream on this backend.

        The continuous engine splits this into per-iteration slices; a
        request retires when its slices sum to this value.  The default is
        ``request.head_rows`` (one stream per head — for a forward, summed
        over its layers); backends that spread heads across replicated
        pipelines override it to match their batch timing model.
        """
        return request.head_rows

    def request_work(self, request: AttentionRequest) -> int:
        """Total work units used to rank ``request`` for SJF admission.

        Defaults to :meth:`request_rows`, which already *is* total work on
        every backend: an L-layer forward streams all L layers' rows (the
        model plan's full row axis), and a decode's rows scale with its
        remaining new tokens.  The SJF ranking audit is pinned by
        ``tests/serving/test_continuous.py`` — backends whose row axis ever
        diverges from total work must override this so admission keeps
        ranking by the work a request actually occupies the device for.
        """
        return self.request_rows(request)

    @abstractmethod
    def step(
        self, slices: "list[tuple[AttentionRequest, int, int]]", primed: bool
    ) -> StepCost:
        """Price one iteration advancing each ``(request, rows_done, rows)`` slice.

        ``rows_done`` is how far the request had streamed before this
        iteration — whole-model forwards are priced positionally along their
        model-wide row axis, so a slice knows which layers (and geometry
        switches) it covers.  Resident slices stream in parallel across the
        stacked batch axis (the ``G`` axis of
        :class:`~repro.core.plan.PlanBatch`), so the iteration is gated by
        its largest slice.  ``primed`` is ``True`` when the pipeline was busy
        in the immediately preceding iteration: a primed pipeline pays no
        refill, which is how a batch's fill cost is amortised across
        admissions instead of being re-charged per dispatch.
        """

    def step_burst(self, residents: Residents, primed: bool, iteration_rows: int) -> StepBurst:
        """Price every iteration until the first resident retires, in one call.

        ``residents`` is the shard's resident set as lockstep columns
        (:class:`Residents`): each resident's rows done and rows *left to
        stream* — not one iteration's slice: the burst derives each
        iteration's slices itself (``min(iteration_rows, remaining)``,
        shrinking only on the final iteration).  ``primed`` applies to the
        first iteration; later iterations of a burst are primed by
        construction (the shard streamed in the immediately preceding
        iteration).

        The default implementation loops :meth:`step` once per iteration —
        bit-identical to the quantum-stepped scheduler by definition, and
        the oracle the backend overrides are tested against.  Overrides
        price the same integer ticks closed-form (:class:`StreamBurst`) or
        as int64 rows (:class:`StepBurst`) without the Python loop.
        """
        iterations = -(-residents.fewest_left() // iteration_rows)
        slices = residents.slices()
        ticks = np.empty(iterations, dtype=np.int64)
        energy = np.empty(iterations, dtype=np.int64)
        gate_rows = np.empty(iterations, dtype=np.int64)
        for index in range(iterations):
            advanced = index * iteration_rows
            cost = self.step(
                [
                    (request, rows_done + advanced, min(iteration_rows, rows_left - advanced))
                    for request, rows_done, rows_left in slices
                ],
                primed if index == 0 else True,
            )
            ticks[index] = cost.ticks
            energy[index] = cost.energy_ticks
            gate_rows[index] = cost.gate_rows
        return StepBurst(ticks, gate_rows, energy)

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
    """Shared SWAT machinery: simulator, iteration timing and energy."""

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
        # Plain-attention pipeline rows per (seq_len, num_heads).
        self._attention_rows: "dict[tuple[int, int], int]" = {}

    @property
    def power_w(self) -> float:
        """The board power SWAT's energy rule charges per busy tick."""
        return self._total_power_w

    def _stream_cycles(self, rows: int, primed: bool) -> int:
        """The one SWAT clock primitive every timing path prices through.

        ``rows`` gating rows streamed serially on the most-loaded pipeline
        replica: a cold stream pays the fill
        (:meth:`~repro.core.pipeline.SWATPipelineModel.cycles_for_rows`,
        ``depth + (rows - 1) * II``), a primed one runs at ``rows * II``.
        Plain attention slices of :meth:`step` price through this function,
        whichever admission policy the engine runs.
        """
        if rows <= 0:
            return 0
        if primed:
            return rows * self._initiation_interval
        return self.simulator.pipeline.cycles_for_rows(rows)

    # ------------------------------------------------------------------ #
    # Iteration-level pricing
    # ------------------------------------------------------------------ #

    def request_rows(self, request: AttentionRequest) -> int:
        """Pipeline rows of the request, heads spread across the replicas.

        Matches
        :meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles`:
        ``ceil(num_heads / num_pipelines) * seq_len`` rows stream serially on
        the most-loaded replica, so a solo request's per-iteration cycles sum
        bit-exactly to ``batch_attention_cycles`` of a batch of one (fill
        paid once, heads streamed back to back).  A whole-model forward
        streams that many rows per layer
        (:attr:`~repro.model.plan.ModelPlan.total_rows`); a decode streams
        only its new rows, block-major
        (:attr:`~repro.model.plan.DecodePlan.total_rows`).  Plain-attention
        rows are memoised per ``(seq_len, num_heads)``.
        """
        if isinstance(request, DecodeRequest):
            return self.decode_plan(request).total_rows
        if isinstance(request, ForwardRequest):
            return self.model_plan(request).total_rows
        key = (request.seq_len, request.num_heads)
        rows = self._attention_rows.get(key)
        if rows is None:
            rows = self._attention_rows[key] = (
                ceil(request.num_heads / self.config.num_pipelines) * request.seq_len
            )
        return rows

    def _positional_plan(self, request: AttentionRequest) -> "DecodePlan | ModelPlan | None":
        """The row-span pricing plan of ``request``, or ``None`` for plain
        attention slices (which price through the flat stream clock)."""
        if isinstance(request, DecodeRequest):
            return self.decode_plan(request)
        if isinstance(request, ForwardRequest):
            return self.model_plan(request)
        return None

    def step(
        self, slices: "list[tuple[AttentionRequest, int, int]]", primed: bool
    ) -> StepCost:
        """One iteration on the SWAT pipeline: gated by the largest slice.

        Resident slices stream in parallel on the stacked batch axis; the
        gating slice's rows pass through the pipeline at one row per
        initiation interval.  A cold pipeline pays the fill
        (``depth + (rows - 1) * II``, exactly
        :meth:`~repro.core.pipeline.SWATPipelineModel.cycles_for_rows`); a
        primed one streams at ``rows * II``.  Summed over a busy period the
        fill is therefore charged once — the same total
        :meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles`
        charges for the period's gating rows streamed as one batch.  Forward
        and decode slices are priced positionally along their plan's row axis
        (:meth:`~repro.model.plan._RowSpanPricing.span_cycles`): their
        segments' own initiation intervals, with geometry-switch refills
        charged exactly once wherever the iteration boundaries fall — a solo
        forward's (or decode's) slices sum bit-exactly to its plan's
        ``total_cycles``.  SWAT's ticks are its cycles, and its energy rule
        charges the busy ticks.
        """
        if not slices:
            raise ValueError("an iteration needs at least one resident slice")
        cycles = -1
        gate_rows = 0
        for request, rows_done, rows in slices:
            if rows <= 0:
                raise ValueError(f"slice rows must be positive, got {rows}")
            plan = self._positional_plan(request)
            if plan is not None:
                slice_cycles = plan.span_cycles(rows_done, rows_done + rows, primed)
            else:
                slice_cycles = self._stream_cycles(rows, primed)
            if slice_cycles > cycles:
                cycles = slice_cycles
                gate_rows = rows
        return StepCost(ticks=cycles, energy_ticks=cycles, gate_rows=gate_rows)

    def step_burst(self, residents: Residents, primed: bool, iteration_rows: int) -> StepBurst:
        """Closed-form SWAT burst: the pipeline streams one row per II.

        With the resident set fixed, every iteration before the last
        advances exactly ``iteration_rows`` gating rows, so an attention-only
        burst is a :class:`StreamBurst` — ``[fill-or-primed first, (K - 2)
        primed full slices, one primed remainder]`` — priced from two ints,
        the fewest and the most rows left, with no per-resident work and no
        per-iteration array at all.  Forward and decode slices are
        priced positionally: each resident's int64 cycle row is a slice of
        its plan's memoised
        :meth:`~repro.model.plan._RowSpanPricing.primed_grid` for
        ``(iteration_rows, rows_done % iteration_rows)``, with only a cold
        first span (or a final span stopping short of the plan's end) priced
        by the scalar :meth:`~repro.model.plan._RowSpanPricing.span_cycles`.
        ``np.argmax`` down the slice axis reproduces the reference loop's
        first-strict-max gating — no looped-``step`` fallback on any slice
        kind.
        """
        iterations = -(-residents.fewest_left() // iteration_rows)
        streamed = (iterations - 1) * iteration_rows
        ii = self._initiation_interval
        if not residents.positional:
            # Attention only.  The final iteration is gated by the resident
            # with the most rows left.
            last_rows = min(iteration_rows, max(residents.finishes) - residents.row - streamed)
            first_rows = iteration_rows if iterations > 1 else last_rows
            return StreamBurst(
                iterations,
                self._stream_cycles(first_rows, primed),
                iteration_rows * ii,
                last_rows * ii,
                first_rows,
                iteration_rows,
                last_rows,
            )
        slices = residents.slices()
        plans = [self._positional_plan(request) for request, _, _ in slices]
        cycle_rows = np.empty((len(slices), iterations), dtype=np.int64)
        last_slice_rows = np.empty(len(slices), dtype=np.int64)
        for index, ((_, rows_done, rows_left), plan) in enumerate(zip(slices, plans)):
            last_slice_rows[index] = min(iteration_rows, rows_left - streamed)
            row = cycle_rows[index]
            if plan is None:
                row[:] = iteration_rows * ii
                row[-1] = last_slice_rows[index] * ii
                if not primed:
                    # For a one-iteration burst this overwrites the remainder
                    # entry: a cold slice prices the fill, exactly as the
                    # reference loop's first iteration does.
                    row[0] = self.simulator.pipeline.cycles_for_rows(
                        min(iteration_rows, rows_left)
                    )
            else:
                first = rows_done // iteration_rows
                grid = plan.primed_grid(iteration_rows, rows_done % iteration_rows)
                row[:] = grid[first : first + iterations]
                last_lo = rows_done + streamed
                last_hi = last_lo + int(last_slice_rows[index])
                if last_hi < min(last_lo + iteration_rows, plan.total_rows):
                    # The slice stops before its grid span's end.
                    row[-1] = plan.span_cycles(last_lo, last_hi, True)
                if not primed:
                    row[0] = plan.span_cycles(
                        rows_done, rows_done + min(iteration_rows, rows_left), False
                    )
        gate_index = np.argmax(cycle_rows, axis=0)
        cycles = cycle_rows[gate_index, np.arange(iterations)]
        gate_rows = np.full(iterations, iteration_rows, dtype=np.int64)
        gate_rows[-1] = int(last_slice_rows[gate_index[-1]])
        return StepBurst(cycles, gate_rows)


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


class _RateBackendBase(AttentionBackend):
    """Flat-rate pricing: a request's one-shot ticks spread over its row axis.

    A request costs ``R`` ticks over ``T`` rate rows (:meth:`_rate`).  A
    slice of rows ``[lo, hi)`` is priced positionally as
    ``ceil(R * hi / T) - ceil(R * lo / T)`` ticks, so however the engine
    slices a solo request, its slices sum to exactly ``ceil(R * rows / T)``
    — ``R`` itself whenever the request streams its whole rate axis.  No
    fill state: ``primed`` is ignored.  An iteration lasts as long as its
    slowest slice.
    """

    #: Whether the energy rule charges every slice's ticks (work-proportional
    #: energy) instead of the iteration's busy ticks.
    charges_slice_work = False

    def _rate(self, request: AttentionRequest) -> "tuple[int, int]":
        """``(R, T)``: the request's one-shot ticks and its rate-row count."""
        raise NotImplementedError

    def step(
        self, slices: "list[tuple[AttentionRequest, int, int]]", primed: bool
    ) -> StepCost:
        """One iteration: each slice's positional share of its request's ticks."""
        del primed  # no streaming fill to amortise
        if not slices:
            raise ValueError("an iteration needs at least one resident slice")
        ticks = -1
        gate_rows = 0
        work = 0
        for request, rows_done, rows in slices:
            if rows <= 0:
                raise ValueError(f"slice rows must be positive, got {rows}")
            total, rate_rows = self._rate(request)
            slice_ticks = _ceil_div(total * (rows_done + rows), rate_rows) - _ceil_div(
                total * rows_done, rate_rows
            )
            work += slice_ticks
            if slice_ticks > ticks:
                ticks = slice_ticks
                gate_rows = rows
        return StepCost(
            ticks=ticks,
            energy_ticks=work if self.charges_slice_work else ticks,
            gate_rows=gate_rows,
        )

    def step_burst(self, residents: Residents, primed: bool, iteration_rows: int) -> StepBurst:
        """The burst as int64 rows: every resident's slice ticks at once.

        Row ``r``, column ``j`` is resident ``r``'s positional slice of
        iteration ``j``; ``np.argmax`` down the slice axis reproduces the
        reference loop's first-strict-max gating.
        """
        del primed  # no streaming fill to amortise
        iterations = -(-residents.fewest_left() // iteration_rows)
        remaining = np.array(residents.finishes, dtype=np.int64) - residents.row
        # Per resident (rows): R, T and rows_done as int64 columns.
        rates = np.array([self._rate(request) for request in residents.requests], dtype=np.int64)
        total, rate_rows = rates[:, :1], rates[:, 1:]
        rows_done = residents.row - np.array(residents.starts, dtype=np.int64)[:, None]
        # Rows each resident has streamed at every iteration boundary.
        streamed = np.minimum(
            np.arange(iterations + 1, dtype=np.int64) * iteration_rows, remaining[:, None]
        )
        slice_ticks = np.diff(_ceil_div(total * (rows_done + streamed), rate_rows), axis=1)
        gate = np.argmax(slice_ticks, axis=0)
        columns = np.arange(iterations)
        return StepBurst(
            slice_ticks[gate, columns],
            np.diff(streamed, axis=1)[gate, columns],
            slice_ticks.sum(axis=0) if self.charges_slice_work else None,
        )


class _GPUBackendBase(_RateBackendBase):
    """Shared GPU accounting: one batched report per distinct shape.

    A request's ``B x H`` (or, for a forward, ``L x H``) instances fold into
    one batched kernel stream
    (:meth:`~repro.gpu.dense_runner.DenseAttentionGPU.run_batch`), memoised
    per ``(seq_len, items)`` as its seconds rounded up to a tick — the
    report is deterministic per shape, so the runner is invoked once however
    many iterations price it.  How much of the per-kernel launch cost the
    stream hides is the runner's ``launch_amortisation`` knob: at ``0.0`` it
    reprices exactly the looped per-head dispatch, the contrast with the
    fill-once SWAT pipeline the serving benchmarks surface.  Energy is the
    board power times every slice's ticks (it tracks the work of every
    slice, not the gate).
    """

    #: The runner's launch-amortisation knob (see :meth:`GPUKernelModel.batched`).
    launch_amortisation: float = 1.0
    charges_slice_work = True

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        plan_cache: "PlanCache | None" = None,
        launch_amortisation: "float | None" = None,
    ):
        super().__init__(config=config, plan_cache=plan_cache)
        if launch_amortisation is not None:
            self.launch_amortisation = launch_amortisation
        self._shape_ticks: "dict[tuple[int, int], int]" = {}

    def _runner_run_batch(self, seq_len: int, items: int):
        raise NotImplementedError

    @property
    def power_w(self) -> float:
        """The GPU board power its energy rule charges per slice tick."""
        return self.runner.device.board_power_w

    def _report_items(self, request: AttentionRequest) -> int:
        """Kernel instances of the request's full-context shape report.

        A decode's report is its *context* shape — ``L x H`` kernels at the
        final ``seq_len``, exactly the re-prefill it avoids — so the KV-cache
        advantage falls out of the rate division below, not a separate model.
        """
        if isinstance(request, DecodeRequest):
            return request.num_layers * request.num_heads
        return request.head_rows // request.seq_len

    def _rate(self, request: AttentionRequest) -> "tuple[int, int]":
        """The memoised shape report's ticks over the report's own rows.

        For attention and forward requests the rate rows are
        :meth:`request_rows` (their report covers exactly their rows).  A
        decode's full-context report covers ``L x H x seq_len`` rows but the
        decode only streams one query row per new token per layer-head — each
        generated row costs a ``1 / seq_len`` share of the report, the
        dense-GPU KV-cache model.
        """
        key = (request.seq_len, self._report_items(request))
        ticks = self._shape_ticks.get(key)
        if ticks is None:
            report = self._runner_run_batch(*key)
            ticks = self._shape_ticks[key] = self.time_base.first_tick(report.seconds)
        if isinstance(request, DecodeRequest):
            return ticks, request.num_layers * request.num_heads * request.seq_len
        return ticks, self.request_rows(request)


@register_backend
class GPUDenseBackend(_GPUBackendBase):
    """Naive dense softmax attention on the modelled server GPU."""

    name = "gpu-dense"
    functional = False

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        plan_cache: "PlanCache | None" = None,
        launch_amortisation: "float | None" = None,
    ):
        super().__init__(
            config=config, plan_cache=plan_cache, launch_amortisation=launch_amortisation
        )
        self.runner = DenseAttentionGPU(
            precision=self.config.precision.name,
            head_dim=self.config.head_dim,
            launch_amortisation=self.launch_amortisation,
        )

    def _runner_run_batch(self, seq_len: int, items: int):
        return self.runner.run_batch(seq_len, items=items)


@register_backend
class GPUChunkedBackend(_GPUBackendBase):
    """Longformer sliding-chunks window attention on the modelled GPU."""

    name = "gpu-chunked"
    functional = False

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        plan_cache: "PlanCache | None" = None,
        launch_amortisation: "float | None" = None,
    ):
        super().__init__(
            config=config, plan_cache=plan_cache, launch_amortisation=launch_amortisation
        )
        self.runner = SlidingChunksAttentionGPU(
            window=self.config.window_half_width,
            precision=self.config.precision.name,
            head_dim=self.config.head_dim,
            launch_amortisation=self.launch_amortisation,
        )

    def _runner_run_batch(self, seq_len: int, items: int):
        return self.runner.run_batch(seq_len, items=items)


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
        self._step_cycles: "dict[tuple[int, int], int]" = {}

    @property
    def power_w(self) -> float:
        """The board power the dense baseline's energy rule charges per busy tick."""
        return self.power_model.total_power_w

    def _request_cycles(self, request: AttentionRequest) -> int:
        """Memoised dense-baseline cycles of one request.

        A whole-model forward runs one dense attention per layer (the
        baseline ignores schedule geometry — it attends everything), so its
        cycles are ``num_layers`` times the per-layer report.  A decode's
        new tokens each attend the full context but compute only their own
        query row, so its cycles are the full-context forward's scaled to
        ``new_tokens / seq_len`` (rounded up to keep the clock integral).
        """
        key = (request.seq_len, request.num_heads)
        if key not in self._step_cycles:
            self._step_cycles[key] = self.baseline.run(
                request.seq_len, num_heads=request.num_heads
            ).cycles
        if isinstance(request, DecodeRequest):
            full = request.num_layers * self._step_cycles[key]
            return -(-full * request.new_tokens // request.seq_len)
        layers = request.num_layers if isinstance(request, ForwardRequest) else 1
        return layers * self._step_cycles[key]

    def _rate(self, request: AttentionRequest) -> "tuple[int, int]":
        """The request's dense cycles over its own rows."""
        return self._request_cycles(request), self.request_rows(request)
