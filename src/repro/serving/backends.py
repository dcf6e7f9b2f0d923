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
:mod:`repro.serving.continuous`.  :meth:`AttentionBackend.step` prices one
iteration of ``(request, rows_done, rows)`` slices: the pipeline fill is
charged only when the pipeline was idle before the iteration, so the
per-iteration cycles of a busy period sum exactly to what
:meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles` would
charge for the same rows streamed as one batch.
:meth:`AttentionBackend.step_burst` prices every iteration over a fixed
resident set in one closed-form call.  The GPU backends price off one
memoised ``run_batch`` report per distinct ``(seq_len, items)`` shape, with
the launch-amortisation knob of :mod:`repro.gpu` deciding how much of the
per-kernel launch cost the batch hides.

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

__all__ = [
    "StepCost",
    "StepBurst",
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
    """Price of one continuous-batching iteration on a backend's clock.

    Attributes
    ----------
    seconds:
        Modelled device time of the iteration.  Resident slices stream in
        parallel across the stacked batch axis, so the iteration lasts as
        long as its *gating* (largest) slice, not the sum of all slices.
    cycles:
        Modelled cycle count when the backend has a cycle-accurate clock
        domain, else ``None``.
    energy_joules:
        Modelled energy of the iteration.
    gate_rows:
        Row-work units of the gating slice — the quantity the pipeline
        actually streamed for the duration of the iteration.
    """

    seconds: float
    cycles: "int | None"
    energy_joules: float
    gate_rows: int = 0


@dataclass(frozen=True)
class StepBurst:
    """Prices of a *burst* of consecutive iterations over fixed residents.

    Between an admission and the next retirement the resident set of a shard
    is constant, so every iteration of the burst advances the same slices —
    the whole burst is a closed-form function of the residents' remaining
    rows.  :meth:`AttentionBackend.step_burst` prices all of them in one
    call; the arrays hold one entry per iteration, in order, each entry
    bit-identical to what the corresponding :meth:`~AttentionBackend.step`
    call would have returned.

    A burst may be consumed across several activations of its shard: when
    an arrival or another shard's activation cuts it short, the scheduler
    keeps the unconsumed :meth:`tail` and continues from it at the shard's
    next activation unless that activation admits.  Every entry after the
    first is priced primed at the row offsets a fresh call would use, so the
    tail holds the same bits a fresh :meth:`~AttentionBackend.step_burst`
    call would return.

    Attributes
    ----------
    seconds, energy_joules:
        Per-iteration device time and energy (``float64`` arrays).
    cycles:
        Per-iteration cycle counts (``int64`` array) when the backend has a
        cycle-accurate clock domain, else ``None``.
    gate_rows:
        Per-iteration rows of the gating slice (``int64`` array).
    iterations:
        Burst length: iterations until the resident with the fewest
        remaining rows retires.
    """

    seconds: "np.ndarray"
    cycles: "np.ndarray | None"
    energy_joules: "np.ndarray"
    gate_rows: "np.ndarray"
    iterations: int

    def tail(self, offset: int) -> "StepBurst":
        """The burst after its first ``offset`` iterations (array views)."""
        if not 0 < offset < self.iterations:
            raise ValueError(f"tail offset must be in (0, {self.iterations}), got {offset}")
        return StepBurst(
            seconds=self.seconds[offset:],
            cycles=None if self.cycles is None else self.cycles[offset:],
            energy_joules=self.energy_joules[offset:],
            gate_rows=self.gate_rows[offset:],
            iterations=self.iterations - offset,
        )


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

    def step_burst(
        self,
        slices: "list[tuple[AttentionRequest, int, int]]",
        primed: bool,
        iteration_rows: int,
    ) -> StepBurst:
        """Price every iteration until the first resident retires, in one call.

        ``slices`` holds ``(request, rows_done, remaining_rows)`` per
        resident — note the third element is the rows *left to stream*, not
        one iteration's slice: the burst derives each iteration's slices
        itself (``min(iteration_rows, remaining)``, shrinking only on the
        final iteration).  ``primed`` applies to the first iteration; later
        iterations of a burst are primed by construction (the shard streamed
        in the immediately preceding iteration).

        The default implementation loops :meth:`step` once per iteration —
        bit-identical to the quantum-stepped scheduler by definition.
        Vectorized backends override it with closed-form array pricing that
        reproduces the same bits without the Python loop.
        """
        if not slices:
            raise ValueError("a burst needs at least one resident slice")
        remaining = [rows_left for _, _, rows_left in slices]
        if min(remaining) <= 0:
            raise ValueError(f"remaining rows must be positive, got {min(remaining)}")
        iterations = -(-min(remaining) // iteration_rows)
        seconds = np.empty(iterations)
        energy = np.empty(iterations)
        gate_rows = np.empty(iterations, dtype=np.int64)
        cycles = np.empty(iterations, dtype=np.int64)
        has_cycles = True
        for index in range(iterations):
            advanced = index * iteration_rows
            cost = self.step(
                [
                    (request, rows_done + advanced, min(iteration_rows, rows_left - advanced))
                    for request, rows_done, rows_left in slices
                ],
                primed if index == 0 else True,
            )
            seconds[index] = cost.seconds
            energy[index] = cost.energy_joules
            gate_rows[index] = cost.gate_rows
            if cost.cycles is None:
                has_cycles = False
            else:
                cycles[index] = cost.cycles
        return StepBurst(
            seconds=seconds,
            cycles=cycles if has_cycles else None,
            energy_joules=energy,
            gate_rows=gate_rows,
            iterations=iterations,
        )

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
        self._clock_period_s = self.config.clock_period_s
        self._total_power_w = self.simulator.power_model.total_power_w

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
        (:attr:`~repro.model.plan.DecodePlan.total_rows`).
        """
        if isinstance(request, DecodeRequest):
            return self.decode_plan(request).total_rows
        if isinstance(request, ForwardRequest):
            return self.model_plan(request).total_rows
        return ceil(request.num_heads / self.config.num_pipelines) * request.seq_len

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
        ``total_cycles``.
        """
        if not slices:
            raise ValueError("an iteration needs at least one resident slice")
        cycles = 0
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
        seconds = cycles * self._clock_period_s
        return StepCost(
            seconds=seconds,
            cycles=cycles,
            energy_joules=self._total_power_w * seconds,
            gate_rows=gate_rows,
        )

    def step_burst(
        self,
        slices: "list[tuple[AttentionRequest, int, int]]",
        primed: bool,
        iteration_rows: int,
    ) -> StepBurst:
        """Closed-form SWAT burst: the pipeline streams one row per II.

        With the resident set fixed, every iteration before the last
        advances exactly ``iteration_rows`` gating rows, so an attention-only
        burst is ``[fill-or-primed first, (K - 2) primed full slices, one
        primed remainder]`` — a handful of array ops instead of ``K``
        Python-loop ``step`` calls, bit-identical entry for entry.  Forward
        and decode slices are priced positionally: each resident's cycle
        row is a slice of its plan's memoised
        :meth:`~repro.model.plan._RowSpanPricing.primed_grid` for
        ``(iteration_rows, rows_done % iteration_rows)``, with only a cold
        first span (or a final span stopping short of the plan's end) priced
        by the scalar :meth:`~repro.model.plan._RowSpanPricing.span_cycles`.
        ``np.argmax`` down the slice axis reproduces the reference loop's
        first-strict-max gating — no looped-``step`` fallback on any slice
        kind.
        """
        if not slices:
            raise ValueError("a burst needs at least one resident slice")
        min_remaining = min(rows_left for _, _, rows_left in slices)
        if min_remaining <= 0:
            raise ValueError(f"remaining rows must be positive, got {min_remaining}")
        iterations = -(-min_remaining // iteration_rows)
        streamed = (iterations - 1) * iteration_rows
        plans = [self._positional_plan(request) for request, _, _ in slices]
        if all(plan is None for plan in plans):
            last_rows = max(
                min(iteration_rows, rows_left - streamed) for _, _, rows_left in slices
            )
            gate_rows = np.full(iterations, iteration_rows, dtype=np.int64)
            gate_rows[-1] = last_rows
            cycles = gate_rows * self._initiation_interval
            if not primed:
                cycles[0] = self.simulator.pipeline.cycles_for_rows(int(gate_rows[0]))
            seconds = cycles * self._clock_period_s
            return StepBurst(
                seconds=seconds,
                cycles=cycles,
                energy_joules=self._total_power_w * seconds,
                gate_rows=gate_rows,
                iterations=iterations,
            )
        cycle_rows = np.empty((len(slices), iterations), dtype=np.int64)
        last_slice_rows = np.empty(len(slices), dtype=np.int64)
        for index, ((_, rows_done, rows_left), plan) in enumerate(zip(slices, plans)):
            last_slice_rows[index] = min(iteration_rows, rows_left - streamed)
            if plan is None:
                row = cycle_rows[index]
                row[:] = iteration_rows * self._initiation_interval
                row[-1] = last_slice_rows[index] * self._initiation_interval
                if not primed:
                    # For a one-iteration burst this overwrites the remainder
                    # entry: a cold slice prices the fill, exactly as the
                    # reference loop's first iteration does.
                    row[0] = self.simulator.pipeline.cycles_for_rows(
                        min(iteration_rows, rows_left)
                    )
            else:
                row = cycle_rows[index]
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
        seconds = cycles * self._clock_period_s
        return StepBurst(
            seconds=seconds,
            cycles=cycles,
            energy_joules=self._total_power_w * seconds,
            gate_rows=gate_rows,
            iterations=iterations,
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


class _GPUBackendBase(AttentionBackend):
    """Shared GPU accounting: one batched report per distinct shape.

    A request's ``B x H`` (or, for a forward, ``L x H``) instances fold into
    one batched kernel stream
    (:meth:`~repro.gpu.dense_runner.DenseAttentionGPU.run_batch`), memoised
    per ``(seq_len, items)`` — the report is deterministic per shape, so the
    runner is invoked once however many iterations price it.  How much of
    the per-kernel launch cost the stream hides is the runner's
    ``launch_amortisation`` knob: at ``0.0`` it reprices exactly the looped
    per-head dispatch, the contrast with the fill-once SWAT pipeline the
    serving benchmarks surface.
    """

    #: The runner's launch-amortisation knob (see :meth:`GPUKernelModel.batched`).
    launch_amortisation: float = 1.0

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        plan_cache: "PlanCache | None" = None,
        launch_amortisation: "float | None" = None,
    ):
        super().__init__(config=config, plan_cache=plan_cache)
        if launch_amortisation is not None:
            self.launch_amortisation = launch_amortisation
        self._step_reports: "dict[tuple[int, int], object]" = {}

    def _runner_run_batch(self, seq_len: int, items: int):
        raise NotImplementedError

    def _shape_report(self, seq_len: int, num_heads: int):
        """Memoised full-shape report backing the per-row iteration rate."""
        key = (seq_len, num_heads)
        if key not in self._step_reports:
            self._step_reports[key] = self._runner_run_batch(seq_len, num_heads)
        return self._step_reports[key]

    def _report_items(self, request: AttentionRequest) -> int:
        """Kernel instances of the request's full-context shape report.

        A decode's report is its *context* shape — ``L x H`` kernels at the
        final ``seq_len``, exactly the re-prefill it avoids — so the KV-cache
        advantage falls out of the rate division below, not a separate model.
        """
        if isinstance(request, DecodeRequest):
            return request.num_layers * request.num_heads
        return request.head_rows // request.seq_len

    def _rate_rows(self, request: AttentionRequest) -> int:
        """Row denominator of the per-row rate: the report's own row count.

        For attention and forward requests that is :meth:`request_rows`
        (their report covers exactly their rows).  A decode's full-context
        report covers ``L x H x seq_len`` rows but the decode only streams
        one query row per new token per layer-head — each generated row costs
        a ``1 / seq_len`` share of the report, the dense-GPU KV-cache model.
        """
        if isinstance(request, DecodeRequest):
            return request.num_layers * request.num_heads * request.seq_len
        return self.request_rows(request)

    def step(
        self, slices: "list[tuple[AttentionRequest, int, int]]", primed: bool
    ) -> StepCost:
        """One iteration on the GPU clock: gated by the slowest slice.

        Each slice is priced at its request's per-row rate (the memoised
        full-shape :meth:`run_batch` report divided by its total rows, so a
        solo request's slices sum exactly to its one-shot report — launch
        cost included, hence ``primed`` carries no extra fill here).  A
        whole-model forward's report batches its ``L x H`` per-layer
        instances into one kernel stream at the model's seq_len.  The
        iteration lasts as long as the slowest slice; energy tracks the work
        of every slice.
        """
        del primed  # launch cost is embedded in the per-shape rate
        if not slices:
            raise ValueError("an iteration needs at least one resident slice")
        gate_seconds = 0.0
        gate_rows = 0
        energy = 0.0
        for request, _rows_done, rows in slices:
            if rows <= 0:
                raise ValueError(f"slice rows must be positive, got {rows}")
            report = self._shape_report(request.seq_len, self._report_items(request))
            total_rows = self._rate_rows(request)
            slice_seconds = report.seconds * rows / total_rows
            if slice_seconds > gate_seconds:
                gate_seconds = slice_seconds
                gate_rows = rows
            energy += report.energy_joules * rows / total_rows
        return StepCost(
            seconds=gate_seconds, cycles=None, energy_joules=energy, gate_rows=gate_rows
        )

    def step_burst(
        self,
        slices: "list[tuple[AttentionRequest, int, int]]",
        primed: bool,
        iteration_rows: int,
    ) -> StepBurst:
        """Closed-form GPU burst off the residents' per-row rates.

        Every iteration before the last advances ``iteration_rows`` rows per
        resident at its memoised per-row rate, so mid-burst iterations are
        literally identical — priced once and broadcast.  Rates are
        non-positional (a forward's report already folds all its layers), so
        forwards vectorize here too.
        """
        del primed  # launch cost is embedded in the per-shape rate
        if not slices:
            raise ValueError("a burst needs at least one resident slice")
        remaining = np.array([rows_left for _, _, rows_left in slices], dtype=np.int64)
        if int(remaining.min()) <= 0:
            raise ValueError(f"remaining rows must be positive, got {int(remaining.min())}")
        iterations = -(-int(remaining.min()) // iteration_rows)
        reports = [
            self._shape_report(request.seq_len, self._report_items(request))
            for request, _, _ in slices
        ]
        rate_seconds = np.array([report.seconds for report in reports])
        rate_energy = np.array([report.energy_joules for report in reports])
        totals = np.array([self._rate_rows(request) for request, _, _ in slices], dtype=np.int64)

        def price(rows):
            # Reference op order per slice: multiply by rows, then divide.
            slice_seconds = rate_seconds * rows / totals
            gate = int(np.argmax(slice_seconds))
            # The reference sums slice energies sequentially from 0.0.
            energy = float(np.cumsum(rate_energy * rows / totals)[-1])
            return float(slice_seconds[gate]), gate, energy

        seconds = np.empty(iterations)
        energy = np.empty(iterations)
        gate_rows = np.full(iterations, iteration_rows, dtype=np.int64)
        if iterations > 1:
            mid_seconds, _, mid_energy = price(iteration_rows)
            seconds[:-1] = mid_seconds
            energy[:-1] = mid_energy
        last_rows = np.minimum(iteration_rows, remaining - (iterations - 1) * iteration_rows)
        last_seconds, last_gate, last_energy = price(last_rows)
        seconds[-1] = last_seconds
        energy[-1] = last_energy
        gate_rows[-1] = int(last_rows[last_gate])
        return StepBurst(
            seconds=seconds,
            cycles=None,
            energy_joules=energy,
            gate_rows=gate_rows,
            iterations=iterations,
        )


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
class DenseFPGABackend(AttentionBackend):
    """Dense attention on a SWAT-sized core array (the ablation baseline)."""

    name = "dense-fpga"
    functional = False

    def __init__(self, config: "SWATConfig | None" = None, plan_cache: "PlanCache | None" = None):
        super().__init__(config=config, plan_cache=plan_cache)
        self.baseline = DenseFPGABaseline(self.config)
        self.power_model = PowerModel(self.config)
        self._step_cycles: "dict[tuple[int, int], int]" = {}

    def _request_cycles(self, request: AttentionRequest) -> int:
        """Memoised dense-baseline cycles of one request.

        A whole-model forward runs one dense attention per layer (the
        baseline ignores schedule geometry — it attends everything), so its
        cycles are ``num_layers`` times the per-layer report.  A decode's
        new tokens each attend the full context but compute only their own
        query row, so its cycles are the full-context forward's scaled to
        ``new_tokens / seq_len`` (rounded up to keep the clock integral) —
        one total :meth:`step` and :meth:`step_burst` share.
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

    def step(
        self, slices: "list[tuple[AttentionRequest, int, int]]", primed: bool
    ) -> StepCost:
        """One iteration on the dense baseline: per-row rate off its report.

        Dense attention has no streaming fill to amortise, so ``primed`` is
        ignored; each slice is priced as its row share of the memoised
        full-shape report and the iteration is gated by the slowest slice.
        """
        del primed
        if not slices:
            raise ValueError("an iteration needs at least one resident slice")
        gate_seconds = 0.0
        gate_rows = 0
        for request, _rows_done, rows in slices:
            if rows <= 0:
                raise ValueError(f"slice rows must be positive, got {rows}")
            total_rows = self.request_rows(request)
            slice_seconds = (
                self._request_cycles(request) * self.config.clock_period_s * rows / total_rows
            )
            if slice_seconds > gate_seconds:
                gate_seconds = slice_seconds
                gate_rows = rows
        return StepCost(
            seconds=gate_seconds,
            cycles=None,
            energy_joules=self.power_model.total_power_w * gate_seconds,
            gate_rows=gate_rows,
        )

    def step_burst(
        self,
        slices: "list[tuple[AttentionRequest, int, int]]",
        primed: bool,
        iteration_rows: int,
    ) -> StepBurst:
        """Closed-form dense-baseline burst (per-row rates, no fill state)."""
        del primed
        if not slices:
            raise ValueError("a burst needs at least one resident slice")
        remaining = np.array([rows_left for _, _, rows_left in slices], dtype=np.int64)
        if int(remaining.min()) <= 0:
            raise ValueError(f"remaining rows must be positive, got {int(remaining.min())}")
        iterations = -(-int(remaining.min()) // iteration_rows)
        base_cycles = np.array(
            [self._request_cycles(request) for request, _, _ in slices], dtype=np.int64
        )
        totals = np.array([self.request_rows(request) for request, _, _ in slices], dtype=np.int64)

        def price(rows):
            # Reference op order: (cycles * period) * rows, then divide.
            slice_seconds = base_cycles * self.config.clock_period_s * rows / totals
            gate = int(np.argmax(slice_seconds))
            return float(slice_seconds[gate]), gate

        seconds = np.empty(iterations)
        gate_rows = np.full(iterations, iteration_rows, dtype=np.int64)
        if iterations > 1:
            seconds[:-1] = price(iteration_rows)[0]
        last_rows = np.minimum(iteration_rows, remaining - (iterations - 1) * iteration_rows)
        last_seconds, last_gate = price(last_rows)
        seconds[-1] = last_seconds
        gate_rows[-1] = int(last_rows[last_gate])
        return StepBurst(
            seconds=seconds,
            cycles=None,
            energy_joules=self.power_model.total_power_w * seconds,
            gate_rows=gate_rows,
            iterations=iterations,
        )
