"""Whole-forward IR: compile a :class:`~repro.model.spec.ModelSpec` once.

A transformer forward is ``L`` layers of ``H`` heads sharing one row-major
schedule per distinct ``(attention geometry, seq_len)`` shape.  The
:class:`ModelPlanCompiler` resolves each layer's
:class:`~repro.core.config.SWATConfig`, deduplicates the compiled
:class:`~repro.core.plan.ExecutionPlan`\\ s through the serving layer's
:class:`~repro.serving.cache.PlanCache` (L layers sharing one schedule per
shape — the plan-compile amortisation the acceptance benchmark measures) and
aggregates timing/traffic **model-wide**: per-layer cycle and byte vectors
with prefix sums, so a serve call prices an entire forward pass off arrays
instead of re-walking L pipeline models.

Timing model
------------
The forward streams layer by layer through the SWAT pipeline.  Rows of layer
``l`` stream at that layer's initiation interval (heads spread across the
replicated pipelines exactly as
:meth:`~repro.core.pipeline.SWATPipelineModel.batch_attention_cycles`); the
pipeline stays primed between consecutive layers that share a schedule
fingerprint, and a geometry switch re-fills the pipeline (the datapath is
reconfigured, ``depth - II`` extra cycles).  A uniform-geometry model
therefore costs ``depth + (L * rows - 1) * II`` — exactly one fill for the
whole forward, which is what makes one whole-model serve cheaper than ``L``
independent attention serves.

The MLP/residual/norm blocks execute host-side (SWAT is an attention
accelerator); :attr:`ModelPlan.mlp_flops` records their arithmetic for
capacity planning but contributes no accelerator cycles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import ceil

import numpy as np

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel
from repro.core.plan import ExecutionPlan, compile_plan
from repro.core.power import PowerModel
from repro.model.spec import ModelSpec

__all__ = [
    "ModelShapeGroup",
    "ModelPlan",
    "DecodePlan",
    "StreamPlan",
    "ModelPlanCompiler",
    "compile_decode_plan",
]


@dataclass(frozen=True)
class ModelShapeGroup:
    """The layers of a model sharing one compiled execution plan.

    Attributes
    ----------
    config:
        The resolved per-layer :class:`~repro.core.config.SWATConfig` of the
        group (schedule geometry + the serving datapath).
    plan:
        The one compiled :class:`~repro.core.plan.ExecutionPlan` every layer
        of the group executes.
    layer_indices:
        Which layers of the model map to this plan (the per-layer head→plan
        record: all ``num_heads`` heads of each listed layer stack onto
        ``plan``).
    num_heads:
        Heads per member layer (model-wide).
    cycles, kv_bytes, energy_joules:
        The group's share of the model-wide totals (summed over its layers);
        the conservation tests assert the groups partition the totals.
    """

    config: SWATConfig
    plan: ExecutionPlan
    layer_indices: "tuple[int, ...]"
    num_heads: int
    cycles: int
    kv_bytes: int
    energy_joules: float

    @property
    def num_layers(self) -> int:
        """Member layers sharing this plan."""
        return len(self.layer_indices)

    @property
    def total_heads(self) -> int:
        """Stacked heads this group contributes to a forward."""
        return self.num_layers * self.num_heads


class _RowSpanPricing:
    """Positional pricing along a segmented row axis (mixin).

    Hosts share one contract: ``cum_rows`` (``(S + 1,)`` prefix of rows per
    segment), ``layer_ii`` / ``layer_fill`` (per-segment initiation interval
    and pipeline depth, cycles), ``switch_fill`` (per-segment refill charged
    when the segment's geometry differs from its predecessor's; segment 0
    always carries it) and ``total_rows``.  :class:`ModelPlan` uses one
    segment per layer; :class:`DecodePlan` one per ``(block, layer)`` pair;
    :class:`StreamPlan` is the one-segment case, a plain attention.
    All arrays are int64, so every price below is exact integer arithmetic.
    """

    #: Whether the row axis is laid out in segments of its own (a forward's
    #: layers, a decode's blocks).  The serving engine prices a resident set
    #: with no segmented program in closed form.
    segmented = True

    def span_cycles(self, row_lo: int, row_hi: int, primed: bool) -> int:
        """Cycles to stream rows ``[row_lo, row_hi)`` in one iteration.

        Rows are priced at their segment's initiation interval.  Fills: an
        interior geometry switch (a segment ``s > 0`` whose boundary falls in
        the span) always pays that segment's refill — the datapath is
        reconfigured whether or not the pipeline was streaming; the row
        axis's own initial fill (segment 0, or a span starting cold
        mid-segment) follows the continuous engine's ``primed`` rule, exactly
        like an attention request admitted into a streaming pipeline.  Any
        slicing of ``[0, total_rows)`` that starts cold and stays primed
        therefore sums exactly to ``total_cycles`` (the conservation property
        the continuous-mode tests assert).
        """
        cum_rows, layer_ii, layer_fill, switch_fill = self._segments
        if not 0 <= row_lo < row_hi <= cum_rows[-1]:
            raise ValueError(f"span [{row_lo}, {row_hi}) out of range [0, {self.total_rows}]")
        first = bisect_right(cum_rows, row_lo) - 1
        last = bisect_left(cum_rows, row_hi) - 1
        cycles = 0
        start_fill_charged = False
        for layer in range(first, last + 1):
            start = cum_rows[layer]
            end = cum_rows[layer + 1]
            covered = min(row_hi, end) - max(row_lo, start)
            cycles += covered * layer_ii[layer]
            fill = switch_fill[layer]
            if not fill or start < row_lo:
                continue
            if layer == 0:
                if not primed:
                    cycles += fill
                    start_fill_charged = True
            else:
                cycles += fill
                if start == row_lo:
                    start_fill_charged = True
        if not primed and not start_fill_charged:
            cycles += layer_fill[first] - layer_ii[first]
        return cycles

    @cached_property
    def _segments(self) -> "tuple[list[int], list[int], list[int], list[int]]":
        """The segment arrays as Python ints, for scalar :meth:`span_cycles`."""
        return (
            self.cum_rows.tolist(),
            self.layer_ii.tolist(),
            self.layer_fill.tolist(),
            self.switch_fill.tolist(),
        )

    @cached_property
    def _row_cycles_prefix(self) -> np.ndarray:
        """Exclusive prefix of per-segment streaming cycles (fills excluded)."""
        segment_rows = np.diff(self.cum_rows)
        return np.concatenate([[0], np.cumsum(segment_rows * self.layer_ii)])[:-1]

    @cached_property
    def _interior_fill_prefix(self) -> np.ndarray:
        """``[j]`` = summed refills of the first ``j`` interior boundaries."""
        return np.concatenate([[0], np.cumsum(self.switch_fill[1:])])

    def span_cycles_batch(self, boundaries, primed: bool) -> np.ndarray:
        """Vectorized :meth:`span_cycles` over consecutive spans.

        ``boundaries`` is a strictly increasing int array ``(K + 1,)``; span
        ``i`` covers rows ``[boundaries[i], boundaries[i + 1])``.  The first
        span follows ``primed``; later spans are primed by construction (the
        pipeline just streamed the preceding span) — matching the looped
        ``step_burst`` reference exactly.  Spans after the first price as
        differences of a cumulative cost ``C(b)`` (streamed rows below ``b``
        plus interior refills whose boundary lies below ``b``), so the whole
        burst is two ``searchsorted`` calls instead of a Python loop.
        Returns the int64 per-span cycle vector.
        """
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or len(bounds) < 2:
            raise ValueError("boundaries must delimit at least one span")
        if bounds[-1] > self.total_rows or np.any(np.diff(bounds) <= 0):
            raise ValueError(f"boundaries must increase strictly within [0, {self.total_rows}]")
        out = np.empty(len(bounds) - 1, dtype=np.int64)
        out[0] = self.span_cycles(int(bounds[0]), int(bounds[1]), primed)
        if len(bounds) == 2:
            return out
        cum_rows = self.cum_rows
        num_segments = len(cum_rows) - 1
        tail = bounds[1:]
        segment = np.minimum(np.searchsorted(cum_rows, tail, side="right") - 1, num_segments - 1)
        row_cost = self._row_cycles_prefix[segment] + (
            tail - cum_rows[segment]
        ) * self.layer_ii[segment]
        fills = self._interior_fill_prefix[np.searchsorted(cum_rows[1:-1], tail, side="left")]
        cumulative = row_cost + fills
        out[1:] = cumulative[1:] - cumulative[:-1]
        return out

    @cached_property
    def _primed_grids(self) -> "dict[tuple[int, int], np.ndarray]":
        """Memoised :meth:`primed_grid` vectors, keyed ``(quantum, phase)``."""
        return {}

    def primed_grid(self, quantum: int, phase: int) -> np.ndarray:
        """Primed cycles of every ``quantum``-row span aligned at ``phase``.

        Entry ``k`` is ``span_cycles(lo, hi, primed=True)`` with
        ``lo = phase + k * quantum`` and ``hi = min(lo + quantum, total_rows)``
        — the price of each iteration of a resident streaming ``quantum``
        rows at a time from any ``rows_done`` with
        ``rows_done % quantum == phase`` (its iteration ``j`` is entry
        ``rows_done // quantum + j``).  The pricing is a fixed function of
        the row position, so the vector is built once per
        ``(quantum, phase)`` with :meth:`span_cycles_batch`, memoised on the
        plan and returned read-only.
        """
        key = (quantum, phase)
        grid = self._primed_grids.get(key)
        if grid is None:
            bounds = np.append(np.arange(phase, self.total_rows, quantum), self.total_rows)
            grid = self.span_cycles_batch(bounds, primed=True)
            grid.flags.writeable = False
            self._primed_grids[key] = grid
        return grid


class StreamPlan(_RowSpanPricing):
    """One attention's row axis: ``rows`` rows streamed as a single segment.

    A cold span pays the pipeline fill once, ``depth + (rows - 1) * II``
    (:meth:`~repro.core.pipeline.SWATPipelineModel.cycles_for_rows`), and a
    primed one streams at ``rows * II``, wherever the span starts.
    """

    segmented = False

    def __init__(self, rows: int, initiation_interval: int, depth: int):
        self.total_rows = rows
        self.cum_rows = np.array([0, rows], dtype=np.int64)
        self.layer_ii = np.array([initiation_interval], dtype=np.int64)
        self.layer_fill = np.array([depth], dtype=np.int64)
        self.switch_fill = self.layer_fill - self.layer_ii


@dataclass(frozen=True, eq=False)
class ModelPlan(_RowSpanPricing):
    """The compiled whole-forward IR of one ``(spec, base config)`` pair.

    All per-layer quantities are dense vectors indexed by layer, with
    model-wide prefix sums, mirroring the per-row arrays of
    :class:`~repro.core.plan.ExecutionPlan` one level up.

    Attributes
    ----------
    spec:
        The compiled :class:`~repro.model.spec.ModelSpec`.
    groups:
        Distinct-shape groups; every layer belongs to exactly one.
    layer_group:
        Per-layer index into :attr:`groups` — the layer→plan map.
    rows_per_layer:
        Pipeline rows each layer streams
        (``ceil(num_heads / num_pipelines) * seq_len``).
    cum_rows:
        ``(L + 1,)`` prefix of :attr:`rows_per_layer` — the row axis the
        continuous engine slices a forward along.
    layer_ii, layer_fill:
        Per-layer initiation interval and pipeline depth (cycles).
    switch_fill:
        Per-layer refill cost ``depth - II`` charged when the layer's
        geometry differs from its predecessor's (layer 0 always pays it:
        the forward's own pipeline fill).
    layer_cycles, cum_cycles:
        Per-layer attention cycles (streaming + charged fill) and their
        ``(L + 1,)`` model-wide prefix.
    layer_kv_bytes, cum_kv_bytes:
        Per-layer off-chip Q/K/V/output traffic over all heads, and prefix.
    layer_energy_joules:
        Per-layer modelled energy (per-layer power model x layer seconds) —
        the fig9-style energy hook, aggregated by :attr:`total_energy_joules`.
    clock_period_s:
        Seconds per cycle of the serving datapath (from the base config).
    mlp_flops:
        Host-side MLP/projection arithmetic of one forward (informational).
    """

    spec: ModelSpec
    groups: "tuple[ModelShapeGroup, ...]"
    layer_group: "tuple[int, ...]"
    rows_per_layer: np.ndarray
    cum_rows: np.ndarray
    layer_ii: np.ndarray
    layer_fill: np.ndarray
    switch_fill: np.ndarray
    layer_cycles: np.ndarray
    cum_cycles: np.ndarray
    layer_kv_bytes: np.ndarray
    cum_kv_bytes: np.ndarray
    layer_energy_joules: np.ndarray
    clock_period_s: float
    mlp_flops: int

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        """Model depth."""
        return self.spec.num_layers

    @property
    def seq_len(self) -> int:
        """Tokens per forward."""
        return self.spec.seq_len

    @property
    def num_shapes(self) -> int:
        """Distinct compiled plans the forward executes through."""
        return len(self.groups)

    @property
    def total_rows(self) -> int:
        """Pipeline rows one forward streams across all layers."""
        return int(self.cum_rows[-1])

    @property
    def total_cycles(self) -> int:
        """Accelerator cycles of one forward's attention, fills included."""
        return int(self.cum_cycles[-1])

    @property
    def total_kv_bytes(self) -> int:
        """Off-chip attention traffic of one forward over all layers/heads."""
        return int(self.cum_kv_bytes[-1])

    @property
    def total_seconds(self) -> float:
        """Modelled accelerator time of one forward's attention."""
        return self.total_cycles * self.clock_period_s

    @property
    def total_energy_joules(self) -> float:
        """Modelled attention energy of one forward (sum of the layer hooks)."""
        return float(self.layer_energy_joules.sum())

    def plan_for_layer(self, layer: int) -> ExecutionPlan:
        """The compiled execution plan layer ``layer`` runs its heads on."""
        return self.groups[self.layer_group[layer]].plan


@dataclass(frozen=True, eq=False)
class DecodePlan(_RowSpanPricing):
    """The priced row axis of one autoregressive decode over a compiled model.

    Decode generates ``new_tokens`` rows in blocks
    (:func:`repro.serving.request.decode_block_schedule`); each block runs
    every layer over only its newly finalized token rows, with the prompt's
    K/V resident.  The row axis is therefore segmented per ``(block, layer)``
    pair in block-major order: block ``b``'s segment for layer ``l`` streams
    ``token_rows[l] * k_b`` rows at layer ``l``'s initiation interval, and a
    segment pays layer ``l``'s refill exactly when its geometry differs from
    the previous segment's — so on a uniform model the pipeline stays primed
    across block boundaries (block size never changes total cycles), while a
    multi-geometry model re-fills per block, which is precisely what larger
    decode blocks amortise.

    Attributes
    ----------
    model:
        The :class:`ModelPlan` the decode runs over (II/fill/geometry per
        layer come from it).
    block_sizes:
        Tokens finalized per block; sums to the decode's ``new_tokens``.
    cum_rows, layer_ii, layer_fill, switch_fill:
        Per-segment arrays in the :class:`_RowSpanPricing` contract.
    segment_cycles, cum_cycles:
        Per-segment cycles (streaming + charged refill) and their prefix.
    clock_period_s:
        Seconds per cycle of the serving datapath (from the model plan).
    """

    model: ModelPlan
    block_sizes: "tuple[int, ...]"
    cum_rows: np.ndarray
    layer_ii: np.ndarray
    layer_fill: np.ndarray
    switch_fill: np.ndarray
    segment_cycles: np.ndarray
    cum_cycles: np.ndarray
    clock_period_s: float

    @property
    def num_blocks(self) -> int:
        """Decode steps (blocks) this plan prices."""
        return len(self.block_sizes)

    @property
    def new_tokens(self) -> int:
        """Tokens the decode generates (sum of the block sizes)."""
        return sum(self.block_sizes)

    @property
    def total_rows(self) -> int:
        """Pipeline rows the whole decode streams across blocks and layers."""
        return int(self.cum_rows[-1])

    @property
    def total_cycles(self) -> int:
        """Accelerator cycles of the whole decode, refills included."""
        return int(self.cum_cycles[-1])

    @property
    def total_seconds(self) -> float:
        """Modelled accelerator time of the whole decode."""
        return self.total_cycles * self.clock_period_s


def compile_decode_plan(model: ModelPlan, block_sizes) -> DecodePlan:
    """Price a block-decode row axis over an already-compiled :class:`ModelPlan`.

    ``block_sizes`` is the decode's step schedule (tokens finalized per
    step).  No schedule is re-compiled: the decode reuses the model plan's
    per-layer initiation intervals, fills and geometry groups, laid out
    block-major along a fresh row axis.
    """
    blocks = tuple(int(size) for size in block_sizes)
    if not blocks or any(size <= 0 for size in blocks):
        raise ValueError(f"block_sizes must be positive, got {block_sizes!r}")
    # Rows one token streams per layer: heads spread across the pipelines
    # exactly as in the prefill (rows_per_layer is per-token-uniform).
    token_rows = model.rows_per_layer // model.seq_len
    num_blocks = len(blocks)
    segment_rows = np.concatenate([token_rows * size for size in blocks])
    segment_ii = np.tile(model.layer_ii, num_blocks)
    segment_fill = np.tile(model.layer_fill, num_blocks)
    segment_group = np.tile(np.asarray(model.layer_group, dtype=np.int64), num_blocks)
    switches = np.ones(len(segment_rows), dtype=bool)
    switches[1:] = segment_group[1:] != segment_group[:-1]
    switch_fill = np.where(switches, segment_fill - segment_ii, 0).astype(np.int64)
    cum_rows = np.concatenate([[0], np.cumsum(segment_rows)])
    segment_cycles = segment_rows * segment_ii + switch_fill
    cum_cycles = np.concatenate([[0], np.cumsum(segment_cycles)])
    return DecodePlan(
        model=model,
        block_sizes=blocks,
        cum_rows=cum_rows,
        layer_ii=segment_ii,
        layer_fill=segment_fill,
        switch_fill=switch_fill,
        segment_cycles=segment_cycles,
        cum_cycles=cum_cycles,
        clock_period_s=model.clock_period_s,
    )


class ModelPlanCompiler:
    """Compile a :class:`~repro.model.spec.ModelSpec` into a :class:`ModelPlan`.

    One compiler serves many specs: per-shape execution plans resolve through
    the (optionally shared) :class:`~repro.serving.cache.PlanCache`, so a
    serving pool compiling many forwards pays each schedule build once —
    within a model (layers sharing a geometry) *and* across models.
    ``plan_cache`` is duck-typed (anything with a
    ``plan(config, seq_len) -> ExecutionPlan`` method) so this package never
    imports the serving layer, which imports it.
    """

    def __init__(
        self,
        base_config: "SWATConfig | None" = None,
        plan_cache=None,
    ):
        self.base_config = base_config if base_config is not None else SWATConfig()
        self.plan_cache = plan_cache

    def _resolve_plan(self, config: SWATConfig, seq_len: int) -> ExecutionPlan:
        if self.plan_cache is not None:
            return self.plan_cache.plan(config, seq_len)
        return compile_plan(config, seq_len)

    def compile(self, spec: ModelSpec) -> ModelPlan:
        """Compile ``spec`` against this compiler's base datapath config."""
        num_layers = spec.num_layers
        seq_len = spec.seq_len
        heads_per_pipeline = ceil(spec.num_heads / self.base_config.num_pipelines)
        rows = heads_per_pipeline * seq_len

        # Resolve one (config, pipeline, plan) per distinct geometry; layers
        # sharing a fingerprint share everything.
        group_index: "dict[tuple, int]" = {}
        group_configs: "list[SWATConfig]" = []
        group_plans: "list[ExecutionPlan]" = []
        group_pipelines: "list[SWATPipelineModel]" = []
        group_power_w: "list[float]" = []
        group_layers: "list[list[int]]" = []
        layer_group: "list[int]" = []
        for layer in range(num_layers):
            config = spec.layer_config(layer, base=self.base_config)
            key = config.schedule_fingerprint()
            if key not in group_index:
                group_index[key] = len(group_configs)
                group_configs.append(config)
                group_plans.append(self._resolve_plan(config, seq_len))
                group_pipelines.append(SWATPipelineModel(config))
                group_power_w.append(PowerModel(config).total_power_w)
                group_layers.append([])
            index = group_index[key]
            group_layers[index].append(layer)
            layer_group.append(index)

        rows_per_layer = np.full(num_layers, rows, dtype=np.int64)
        cum_rows = np.concatenate([[0], np.cumsum(rows_per_layer)])
        layer_ii = np.empty(num_layers, dtype=np.int64)
        layer_fill = np.empty(num_layers, dtype=np.int64)
        layer_kv_bytes = np.empty(num_layers, dtype=np.int64)
        for layer, index in enumerate(layer_group):
            pipeline = group_pipelines[index]
            layer_ii[layer] = pipeline.initiation_interval
            layer_fill[layer] = pipeline.timing.pipeline_depth_cycles
            traffic = group_plans[index].traffic_bytes()
            layer_kv_bytes[layer] = spec.num_heads * (
                traffic["q"] + traffic["k"] + traffic["v"] + traffic["output"]
            )

        # The pipeline refills at layer 0 and wherever the geometry switches;
        # between same-fingerprint neighbours it stays primed.
        switches = np.ones(num_layers, dtype=bool)
        switches[1:] = np.asarray(layer_group[1:]) != np.asarray(layer_group[:-1])
        switch_fill = np.where(switches, layer_fill - layer_ii, 0).astype(np.int64)
        layer_cycles = rows_per_layer * layer_ii + switch_fill
        cum_cycles = np.concatenate([[0], np.cumsum(layer_cycles)])
        cum_kv_bytes = np.concatenate([[0], np.cumsum(layer_kv_bytes)])

        clock_period_s = self.base_config.clock_period_s
        layer_energy = np.array(
            [
                group_power_w[index] * int(layer_cycles[layer]) * clock_period_s
                for layer, index in enumerate(layer_group)
            ]
        )

        groups = tuple(
            ModelShapeGroup(
                config=group_configs[index],
                plan=group_plans[index],
                layer_indices=tuple(int(layer) for layer in members),
                num_heads=spec.num_heads,
                cycles=int(layer_cycles[members].sum()),
                kv_bytes=int(layer_kv_bytes[members].sum()),
                energy_joules=float(layer_energy[members].sum()),
            )
            for index, members in enumerate(
                [np.asarray(members, dtype=np.int64) for members in group_layers]
            )
        )

        # Host-side arithmetic per layer: QKV + output projections plus the
        # two MLP GEMMs (2 * m * n * k FLOPs each), informational only.
        dim, mlp = spec.hidden_dim, spec.mlp_dim
        mlp_flops = num_layers * (
            2 * seq_len * dim * (3 * dim)  # QKV projection
            + 2 * seq_len * dim * dim  # output projection
            + 2 * 2 * seq_len * dim * mlp  # MLP in/out GEMMs
        )

        return ModelPlan(
            spec=spec,
            groups=groups,
            layer_group=tuple(layer_group),
            rows_per_layer=rows_per_layer,
            cum_rows=cum_rows,
            layer_ii=layer_ii,
            layer_fill=layer_fill,
            switch_fill=switch_fill,
            layer_cycles=layer_cycles,
            cum_cycles=cum_cycles,
            layer_kv_bytes=layer_kv_bytes,
            cum_kv_bytes=cum_kv_bytes,
            layer_energy_joules=layer_energy,
            clock_period_s=clock_period_s,
            mlp_flops=mlp_flops,
        )
