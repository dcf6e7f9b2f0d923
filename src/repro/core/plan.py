"""Compiled, array-backed execution plan — the IR between all SWAT layers.

The seed code priced every query row through per-row Python objects: the
scheduler materialised one :class:`RowPlan` of int-tuples per row (with an
``O(seq_len)`` pass of numpy set operations per row just for the random
table) and the simulator called the fused kernel once per row.  This module
compiles the whole row-major schedule into a handful of dense numpy arrays in
a single vectorized pass, and that compiled :class:`ExecutionPlan` is the
contract shared by every layer of the repository:

* :class:`~repro.core.scheduler.RowMajorScheduler` is a thin producer — it
  compiles a plan and keeps ``plans()``/:class:`RowPlan` as a compatibility
  view backed by the arrays;
* :meth:`~repro.core.simulator.SWATSimulator.run` executes fused attention
  over row *chunks* read from the plan arrays (:func:`execute_plan_attention`:
  contiguous K/V slab GEMMs for the window, a small gather for the extras)
  instead of one ``fused_row`` call per row.  A chunk of ``B`` rows scores
  only its slab of at most ``B + W - 1`` keys (``W`` the band width), so a
  head's score, exp and softmax work is ``N * (B + W - 1)`` — proportional
  to the window, as in SWAT's row-wise dataflow, not ``N * N``;
* :meth:`~repro.core.simulator.SWATSimulator.estimate_traffic` and the
  analytical serving backend read traffic and cycles straight off the plan's
  prefix sums;
* :class:`~repro.serving.cache.PlanCache` caches the compact compiled arrays;
* the GPU chunked runner and the Figure 3 / Figure 8 experiments consume the
  same IR for long-sequence sweeps.

The row-major dataflow is highly structured, which is what makes the
compilation exact and cheap:

* the window of row ``i`` is the contiguous range ``[lo_i, hi_i)`` with
  ``lo_i = max(0, i - w)`` and ``hi_i = min(seq_len, i + w)``;
* the keys newly entering the FIFO at row ``i`` are exactly
  ``[hi_{i-1}, hi_i)`` (and ``[0, hi_0)`` for the first row), because the
  window end is non-decreasing and starts at 0;
* the global tokens are the leading ``[0, g)`` positions, so the globals
  outside a row's window split into the two contiguous ranges ``[0, min(g,
  lo))`` (behind) and ``[hi, g)`` (ahead);
* the random keys of a row exclude both the (unclipped) window and the
  globals, so they sit entirely outside ``[lo, hi)`` and above ``g``, and a
  random key is a *reload* (already fetched by the dataflow) exactly when it
  lies behind the window (``key < lo``).

:func:`legacy_row_plans` retains the seed's per-row construction verbatim; it
is the reference the hypothesis property suite and the
``benchmarks/test_plan_compile.py`` speedup benchmark compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel, cycle_prefix_vector

__all__ = [
    "RowPlan",
    "ExecutionPlan",
    "PlanBatch",
    "compile_plan",
    "execute_plan_attention",
    "execute_plan_attention_rows",
    "legacy_row_plans",
]

#: Query rows per executor chunk.  Each chunk turns into two dense GEMMs over
#: a contiguous K/V slab of at most ``_CHUNK_ROWS + W - 1`` keys (``W`` the
#: band width), so a head scores ``N * (_CHUNK_ROWS + W - 1)`` pairs instead
#: of ``N * N``.  Smaller chunks score fewer masked-out pairs but pay the
#: fixed per-chunk cost (slicing, GEMM dispatch, short GEMMs) more often.
#: The best size depends on the stacked heads ``G`` times ``head_dim`` as
#: much as on ``W``, and ``G`` belongs to each call, not to the plan, so the
#: plan alone cannot pick it and the size is a constant.  Scanning W 8-512,
#: G 1-16 and head_dim 16-64 at seq_len 2048 (AMD EPYC, OpenBLAS on one
#: thread), 32 rows beat 512 at every shape, by 1.7-13x, and came within 10%
#: of the best size except at W 8 or G 16, where 8-16-row chunks ran up to
#: 1.5x faster.
_CHUNK_ROWS = 32


@dataclass(frozen=True)
class RowPlan:
    """The work of one query row (compatibility view over the compiled plan).

    Attributes
    ----------
    row:
        Query row index ``i``.
    window_keys:
        Key indices covered by the sliding window for this row.
    global_keys:
        Key indices of global tokens (constant across rows).
    random_keys:
        Key indices of this row's static random tokens.
    new_window_keys:
        Window keys that were not resident in the FIFO before this row and
        therefore must be loaded during this row's LOAD stage.
    reloaded_keys:
        Random keys loaded this row that the dataflow has already fetched
        (window-resident or global); these are the source of redundant
        traffic.  Random keys pointing ahead of the window are fetched too
        (see :attr:`keys_loaded`) but are first-time loads, not reloads.
    attended_keys:
        All keys attended by this row, sorted and de-duplicated.  Derived
        once at construction (from the compiled plan when available) rather
        than recomputed as a sorted-set union on every access.
    keys_loaded:
        Keys whose K/V rows are fetched from off-chip memory this row: every
        random key is refreshed every row it appears in, plus the window keys
        entering the FIFO.  Also derived once at construction.
    """

    row: int
    window_keys: "tuple[int, ...]"
    global_keys: "tuple[int, ...]"
    random_keys: "tuple[int, ...]"
    new_window_keys: "tuple[int, ...]"
    reloaded_keys: "tuple[int, ...]"
    attended_keys: "tuple[int, ...] | None" = None
    keys_loaded: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        # Direct constructions (tests, ad-hoc plans) may omit the derived
        # fields; compute them once here instead of on every property access.
        if self.attended_keys is None:
            object.__setattr__(
                self,
                "attended_keys",
                tuple(
                    sorted(set(self.window_keys) | set(self.global_keys) | set(self.random_keys))
                ),
            )
        if self.keys_loaded is None:
            object.__setattr__(
                self,
                "keys_loaded",
                tuple(sorted(set(self.new_window_keys) | set(self.random_keys))),
            )


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """The compiled row-major schedule of one ``(config, seq_len)`` shape.

    All per-row quantities are dense numpy vectors/matrices indexed by query
    row; ranges are half-open.  The arrays are immutable by convention — every
    consumer only reads them, and cached plans are shared across threads.

    Attributes
    ----------
    seq_len:
        Number of query rows.
    window_tokens:
        Total band width ``2w`` (= FIFO capacity = window attention cores).
    kv_row_bytes:
        Bytes of one K (or V) row at the datapath precision.
    fingerprint:
        The source config's
        :meth:`~repro.core.config.SWATConfig.schedule_fingerprint` — lets
        consumers validate a plan against a config without recompiling.
    window_lo, window_hi:
        Per-row window range ``[lo, hi)``.
    new_lo, new_hi:
        Per-row range of window keys first entering the FIFO at this row.
    global_keys:
        The global token indices (the leading ``min(num_global, seq_len)``
        positions).
    random_keys:
        ``(seq_len, num_random_tokens)`` matrix of per-row random keys,
        sorted ascending and padded with ``-1``.
    random_counts:
        Number of valid random keys per row.
    reload_mask:
        Boolean mask over ``random_keys``: True where the random fetch hits a
        key the dataflow already fetched (behind the window / global) — the
        scheduler-level redundant-traffic events.
    cum_kv_loads:
        ``(seq_len + 1,)`` prefix sum of per-row K-row fetch events (new
        window keys + random refreshes); ``cum_kv_loads[i]`` is the number of
        fetches issued strictly before row ``i`` finishes its LOAD stage.
    initiation_interval, pipeline_depth_cycles:
        The pipeline timing scalars of this config, so cycle prefix sums can
        be read off the plan without re-deriving the pipeline model.

    The ``(seq_len, max_keys)`` gather matrix :attr:`key_indices` (with its
    per-row :attr:`key_counts`) is derived lazily on first functional
    execution and cached on the instance: analytical consumers (traffic and
    cycle estimates, capacity planning at very long sequence lengths) only
    ever touch the compact per-row vectors above.
    """

    seq_len: int
    window_tokens: int
    kv_row_bytes: int
    fingerprint: "tuple[object, ...]"
    window_lo: np.ndarray
    window_hi: np.ndarray
    new_lo: np.ndarray
    new_hi: np.ndarray
    global_keys: np.ndarray
    random_keys: np.ndarray
    random_counts: np.ndarray
    reload_mask: np.ndarray
    cum_kv_loads: np.ndarray
    initiation_interval: int
    pipeline_depth_cycles: int

    # ------------------------------------------------------------------ #
    # Aggregate quantities (traffic / cycles off the prefix sums)
    # ------------------------------------------------------------------ #

    @property
    def num_global_keys(self) -> int:
        """Global tokens pre-loaded before the row loop."""
        return int(self.global_keys.size)

    @property
    def num_random_fetches(self) -> int:
        """Total random-core refresh events over the whole sequence."""
        return int(self.cum_kv_loads[-1]) - self.seq_len

    @cached_property
    def key_counts(self) -> np.ndarray:
        """Number of keys each row's attention-core array holds."""
        return (
            (self.window_hi - self.window_lo)
            + np.minimum(self.num_global_keys, self.window_lo)
            + np.maximum(0, self.num_global_keys - self.window_hi)
            + self.random_counts
        )

    @cached_property
    def key_indices(self) -> np.ndarray:
        """``(seq_len, max_keys)`` gather matrix padded with ``-1``.

        Row ``i`` lists the keys in attention-core order — window keys
        ascending, then the extra (global/random) keys of
        :attr:`extra_indices` — exactly the order the simulator feeds the
        fused kernel, so float accumulation order is preserved.  Built
        lazily: analytical consumers never pay for (or hold) this matrix.
        """
        n_win = self.window_hi - self.window_lo
        max_keys = int(self.key_counts.max()) if self.seq_len else 0
        cols = np.arange(max_keys, dtype=np.int64)[None, :]
        key_indices = np.full((self.seq_len, max_keys), -1, dtype=np.int64)
        in_window = cols < n_win[:, None]
        np.copyto(key_indices, self.window_lo[:, None] + cols, where=in_window)
        extras = self.extra_indices
        if extras.size:
            e_rows, e_cols = np.nonzero(extras >= 0)
            key_indices[e_rows, n_win[e_rows] + e_cols] = extras[e_rows, e_cols]
        return key_indices

    @cached_property
    def extra_counts(self) -> np.ndarray:
        """Keys per row held by the global/random cores (outside the window)."""
        return self.key_counts - (self.window_hi - self.window_lo)

    @cached_property
    def extra_indices(self) -> np.ndarray:
        """``(seq_len, max_extras)`` matrix of the non-window keys per row.

        Same core order as the tail of :attr:`key_indices` (globals behind
        the window, randoms behind, globals ahead, randoms ahead), padded
        with ``-1``.  Kept separate because the blocked executor reads the
        window keys as contiguous K/V slabs and only gathers these extras —
        a matrix of width ``num_global + num_random`` instead of the full
        per-row key count.
        """
        seq_len = self.seq_len
        g_eff = self.num_global_keys
        n_gb = np.minimum(g_eff, self.window_lo)
        n_ga = np.maximum(0, g_eff - self.window_hi)
        n_rb = self.reload_mask.sum(axis=1)
        max_extras = int(self.extra_counts.max()) if seq_len else 0
        cols = np.arange(max_extras, dtype=np.int64)[None, :]
        extras = np.full((seq_len, max_extras), -1, dtype=np.int64)

        in_gb = cols < n_gb[:, None]
        np.copyto(extras, cols, where=in_gb)
        ga_off = (n_gb + n_rb)[:, None]
        in_ga = (cols >= ga_off) & (cols < ga_off + n_ga[:, None])
        np.copyto(extras, self.window_hi[:, None] + (cols - ga_off), where=in_ga)
        if self.random_keys.size:
            r_rows, r_slot = np.nonzero(self.random_keys >= 0)
            r_vals = self.random_keys[r_rows, r_slot]
            is_behind = r_vals < self.window_lo[r_rows]
            r_cols = n_gb[r_rows] + r_slot + np.where(is_behind, 0, n_ga[r_rows])
            extras[r_rows, r_cols] = r_vals
        return extras

    @cached_property
    def cum_cycles(self) -> np.ndarray:
        """``(seq_len + 1,)`` prefix of kernel cycles after each query row."""
        return cycle_prefix_vector(
            self.pipeline_depth_cycles, self.initiation_interval, self.seq_len
        )

    @property
    def total_cycles(self) -> int:
        """Kernel cycles for the full sequence on one pipeline."""
        return int(self.cum_cycles[-1])

    @property
    def nbytes(self) -> int:
        """Memory held by the compact compiled arrays.

        Counts only the eagerly-compiled vectors — the footprint of a plan
        that has served analytical consumers.  The lazily-derived matrices a
        functional execution caches on the instance (:attr:`key_counts`,
        :attr:`extra_counts`, :attr:`extra_indices` and, for the reference
        executor, :attr:`key_indices`) are not included.
        """
        return sum(
            array.nbytes
            for array in (
                self.window_lo,
                self.window_hi,
                self.new_lo,
                self.new_hi,
                self.global_keys,
                self.random_keys,
                self.random_counts,
                self.reload_mask,
                self.cum_kv_loads,
            )
        )

    def traffic_bytes(self) -> "dict[str, int]":
        """Off-chip traffic of one attention head under this schedule.

        Every key row streams through the window FIFO exactly once; global
        rows are additionally pre-loaded before the row loop, and random rows
        are re-fetched every row they appear in.  Each fetch beyond the first
        of a given key is redundant, so the redundant count is exactly the
        global pre-loads plus the random refreshes — the same event-by-event
        totals :meth:`repro.core.simulator.SWATSimulator.run` measures.
        """
        row_bytes = self.kv_row_bytes
        preloads = self.num_global_keys
        fetches = int(self.cum_kv_loads[-1])  # window loads + random refreshes
        kv_rows = preloads + fetches
        redundant_rows = preloads + self.num_random_fetches
        return {
            "q": self.seq_len * row_bytes,
            "k": kv_rows * row_bytes,
            "v": kv_rows * row_bytes,
            "output": self.seq_len * row_bytes,
            "redundant_kv": 2 * redundant_rows * row_bytes,
        }

    # ------------------------------------------------------------------ #
    # RowPlan compatibility view
    # ------------------------------------------------------------------ #

    @cached_property
    def global_key_tuple(self) -> "tuple[int, ...]":
        return tuple(int(key) for key in self.global_keys)

    def row_plan(self, row: int) -> RowPlan:
        """Materialise the :class:`RowPlan` view of one row."""
        if not 0 <= row < self.seq_len:
            raise ValueError(f"row {row} out of range [0, {self.seq_len})")
        lo = int(self.window_lo[row])
        hi = int(self.window_hi[row])
        new_lo = int(self.new_lo[row])
        new_hi = int(self.new_hi[row])
        count = int(self.random_counts[row])
        randoms = tuple(int(key) for key in self.random_keys[row, :count])
        reloaded = tuple(
            int(key) for key in self.random_keys[row, :count][self.reload_mask[row, :count]]
        )
        globals_ = self.global_key_tuple
        g_eff = len(globals_)
        # Sorted merges, assembled from the plan's contiguous segments instead
        # of sorted-set unions: randoms behind the window sit in [g, lo) and
        # randoms ahead sit at or above max(hi, g), so ascending order is
        # globals-behind, randoms-behind, window, globals-ahead, randoms-ahead.
        behind = tuple(key for key in randoms if key < lo)
        ahead = randoms[len(behind) :]
        attended = (
            globals_[: min(g_eff, lo)] + behind + tuple(range(lo, hi)) + globals_[hi:] + ahead
        )
        keys_loaded = behind + tuple(range(new_lo, new_hi)) + ahead
        return RowPlan(
            row=row,
            window_keys=tuple(range(lo, hi)),
            global_keys=globals_,
            random_keys=randoms,
            new_window_keys=tuple(range(new_lo, new_hi)),
            reloaded_keys=reloaded,
            attended_keys=attended,
            keys_loaded=keys_loaded,
        )

    def row_plans(self) -> "tuple[RowPlan, ...]":
        """Materialise the full :class:`RowPlan` view (compatibility path)."""
        return tuple(self.row_plan(row) for row in range(self.seq_len))


# ---------------------------------------------------------------------- #
# Compilation
# ---------------------------------------------------------------------- #


def _compile_random_table(
    config: SWATConfig, seq_len: int, g_eff: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Build the static per-row random key matrix.

    Bit-identical to the seed's per-row ``setdiff1d`` construction: the
    candidate set of a row is the sorted union of the two contiguous ranges
    ``[g, row - w)`` and ``[max(row + w, g), seq_len)``, which we build
    arithmetically instead of with ``O(seq_len)`` set operations, feeding the
    exact same candidate array (hence the exact same draws) to the same
    seeded generator.
    """
    num_random = config.num_random_tokens
    random_keys = np.full((seq_len, max(num_random, 1)), -1, dtype=np.int64)
    random_counts = np.zeros(seq_len, dtype=np.int64)
    if not config.has_random_attention:
        return random_keys[:, :0], random_counts
    rng = np.random.default_rng(config.random_seed)
    half_width = config.window_half_width
    for row in range(seq_len):
        behind = np.arange(g_eff, max(g_eff, row - half_width))
        ahead = np.arange(max(row + half_width, g_eff), seq_len)
        candidates = np.concatenate([behind, ahead])
        if candidates.size == 0:
            continue
        count = min(num_random, candidates.size)
        random_keys[row, :count] = np.sort(rng.choice(candidates, count, replace=False))
        random_counts[row] = count
    return random_keys, random_counts


def compile_plan(
    config: SWATConfig, seq_len: int, pipeline: "SWATPipelineModel | None" = None
) -> ExecutionPlan:
    """Compile the full row-major schedule of ``(config, seq_len)``.

    One vectorized pass over dense arrays; the only remaining per-row loop is
    the seeded random-attention draw, which must replay the reference
    generator sequence exactly to stay bit-identical to the seed schedule.
    """
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    if pipeline is None:
        pipeline = SWATPipelineModel(config)
    rows = np.arange(seq_len, dtype=np.int64)
    half_width = config.window_half_width
    window_lo = np.maximum(0, rows - half_width)
    window_hi = np.minimum(seq_len, rows + half_width)
    # The window end is non-decreasing and the first window starts at 0, so
    # the keys entering the FIFO at row i are exactly [hi_{i-1}, hi_i).
    new_hi = window_hi
    new_lo = np.concatenate([[0], window_hi[:-1]])

    g_eff = min(config.num_global_tokens, seq_len)
    global_keys = np.arange(g_eff, dtype=np.int64)
    random_keys, random_counts = _compile_random_table(config, seq_len, g_eff)
    # Random keys always sit outside the window and off the globals, so a
    # random fetch re-loads an already-fetched key exactly when it lies
    # behind the window.
    reload_mask = (random_keys >= 0) & (random_keys < window_lo[:, None])

    loads_per_row = (new_hi - new_lo) + random_counts
    cum_kv_loads = np.concatenate([[0], np.cumsum(loads_per_row)])

    return ExecutionPlan(
        seq_len=seq_len,
        window_tokens=config.window_tokens,
        kv_row_bytes=config.kv_row_bytes,
        fingerprint=config.schedule_fingerprint(),
        window_lo=window_lo,
        window_hi=window_hi,
        new_lo=new_lo,
        new_hi=new_hi,
        global_keys=global_keys,
        random_keys=random_keys,
        random_counts=random_counts,
        reload_mask=reload_mask,
        cum_kv_loads=cum_kv_loads,
        initiation_interval=pipeline.initiation_interval,
        pipeline_depth_cycles=pipeline.timing.pipeline_depth_cycles,
    )


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #


@lru_cache(maxsize=32)
def _band_bias(chunk_rows: int, band: int) -> np.ndarray:
    """Additive in-band mask (``0`` in band, ``-inf`` out) shared by every chunk.

    Row ``j`` of a chunk starting at row ``c`` attends keys ``[c + j - w, c +
    j + w)`` (``band = 2w``), clipped to ``[0, seq_len)``.  Over a virtual
    slab starting at key ``c - w`` that band is columns ``[j, j + band)`` —
    the same pattern for every chunk.  A chunk's real slab is a column range
    of this virtual one (clipping at either end of the sequence only drops
    columns), so every chunk's bias is a view of one ``(chunk_rows,
    chunk_rows + band - 1)`` matrix; nothing of size ``seq_len x band`` is
    ever built.
    """
    cols = np.arange(chunk_rows + band - 1)
    rows = np.arange(chunk_rows)[:, None]
    bias = np.where((cols >= rows) & (cols < rows + band), 0.0, -np.inf)
    bias.flags.writeable = False
    return bias


def _execute_plan_attention_stacked(
    plan: ExecutionPlan,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float,
    subtract_max: bool,
) -> np.ndarray:
    """The chunked executor body over ``(G, seq_len, head_dim)`` stacks.

    All ``G`` heads share one schedule, so every chunk turns into *stacked*
    GEMMs — numpy's batched ``matmul`` runs the identical 2-D kernel per
    slice, which keeps the result bit-identical to executing each head alone.
    """
    seq_len = plan.seq_len
    window_lo = plan.window_lo
    window_hi = plan.window_hi
    half_width = plan.window_tokens // 2
    band_bias = _band_bias(_CHUNK_ROWS, plan.window_tokens)
    have_extras = bool(plan.extra_counts.any())
    output = np.empty_like(q)
    for chunk_start in range(0, seq_len, _CHUNK_ROWS):
        chunk_end = min(chunk_start + _CHUNK_ROWS, seq_len)
        rows = slice(chunk_start, chunk_end)
        slab_lo = int(window_lo[chunk_start])
        slab_hi = int(window_hi[chunk_end - 1])
        # The slab's first key as a column of the chunk's virtual slab.
        offset = slab_lo - chunk_start + half_width

        q_rows = q[:, rows]  # (G, B, H)
        scores = q_rows @ np.swapaxes(k[:, slab_lo:slab_hi], -1, -2)  # (G, B, S)
        scores *= scale
        scores += band_bias[: chunk_end - chunk_start, offset : offset + slab_hi - slab_lo]

        extra_scores = None
        max_extras = int(plan.extra_counts[rows].max()) if have_extras else 0
        if max_extras:
            extra_idx = plan.extra_indices[rows, :max_extras]
            extra_valid = extra_idx >= 0
            gathered = np.where(extra_valid, extra_idx, 0)
            k_extra = k[:, gathered]  # (G, B, E, H) — E is small (globals + randoms)
            v_extra = v[:, gathered]
            extra_scores = (k_extra @ q_rows[..., None])[..., 0]
            extra_scores *= scale
            np.copyto(extra_scores, -np.inf, where=~extra_valid)

        if subtract_max:
            row_max = scores.max(axis=-1)
            if extra_scores is not None:
                np.maximum(row_max, extra_scores.max(axis=-1), out=row_max)
            row_max = row_max[..., None]
            scores -= row_max
            if extra_scores is not None:
                extra_scores -= row_max

        np.exp(scores, out=scores)  # exp(-inf) = 0: out-of-band keys drop out
        row_sums = scores.sum(axis=-1)
        z_unscaled = scores @ v[:, slab_lo:slab_hi]  # (G, B, H)
        if extra_scores is not None:
            np.exp(extra_scores, out=extra_scores)
            row_sums += extra_scores.sum(axis=-1)
            z_unscaled += (extra_scores[..., None, :] @ v_extra)[..., 0, :]
        np.divide(z_unscaled, row_sums[..., None], out=output[:, rows])
    return output


def execute_plan_attention(
    plan: ExecutionPlan,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: "float | None" = None,
    subtract_max: bool = False,
) -> np.ndarray:
    """Fused attention over row blocks read from the plan matrices.

    The row-major schedule makes each chunk of consecutive query rows attend
    a *contiguous* K/V slab (window starts and ends are monotonic), so the
    window part of a chunk is two dense GEMMs over in-place slices of K and V
    — no per-row Python and no large gathers.  Chunks are ``_CHUNK_ROWS``
    (32) rows, so a chunk's slab holds at most ``32 + W - 1`` keys and a
    head computes at most ``N * (32 + W - 1)`` window scores: the work grows
    with the window, not with ``N * N``.  An additive ``0``/``-inf`` band
    bias sends the scores outside a row's band to ``-inf`` before the
    exponential, making their softmax weight exactly zero; one bias matrix
    per ``(chunk, W)`` serves every chunk.  Only the few global/random
    extras per row are gathered, via the plan's compact
    :attr:`ExecutionPlan.extra_indices` matrix.

    ``q``/``k``/``v`` may carry leading batch axes: ``(seq_len, head_dim)``
    executes one head, ``(G, seq_len, head_dim)`` a stack of ``G`` heads and
    ``(B, H, seq_len, head_dim)`` a batch of ``B`` multi-head items, all
    sharing this plan's schedule.  The stacked shapes vectorize the slab
    GEMMs and extras gathers over all heads in one pass per chunk and return
    outputs of the same shape; each head's result is bit-identical to the
    2-D single-head execution.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not 2 <= q.ndim <= 4:
        raise ValueError(f"q must be 2-D, 3-D or 4-D, got {q.ndim}-D")
    if q.shape != k.shape or k.shape != v.shape:
        raise ValueError(f"q, k, v shapes must match, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-2] != plan.seq_len:
        raise ValueError(f"q has {q.shape[-2]} rows but the plan covers {plan.seq_len}")
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])

    lead_shape = q.shape[:-2]
    stacked_shape = (-1,) + q.shape[-2:]
    # Contiguous operands keep every matmul on the per-slice BLAS kernel;
    # strided views (e.g. ``np.broadcast_to`` head replication) would fall
    # back to a differently-rounded loop and break bit-identity.
    output = _execute_plan_attention_stacked(
        plan,
        np.ascontiguousarray(q.reshape(stacked_shape)),
        np.ascontiguousarray(k.reshape(stacked_shape)),
        np.ascontiguousarray(v.reshape(stacked_shape)),
        scale=scale,
        subtract_max=subtract_max,
    )
    return output.reshape(lead_shape + q.shape[-2:])


def execute_plan_attention_rows(
    plan: ExecutionPlan,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: "float | None" = None,
    subtract_max: bool = False,
) -> np.ndarray:
    """Reference executor: one fused-kernel call per query row.

    This is the pre-refactor execution shape (kept for the before/after
    benchmark and the executor equivalence tests); the blocked executor above
    must agree with it to float accumulation tolerance.
    """
    from repro.attention.fused import fused_row

    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[1])
    output = np.empty_like(q)
    for row in range(plan.seq_len):
        indices = plan.key_indices[row, : plan.key_counts[row]]
        result = fused_row(q[row], k[indices], v[indices], scale=scale, subtract_max=subtract_max)
        output[row] = result.z
    return output


# ---------------------------------------------------------------------- #
# Batched execution
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class PlanBatch:
    """A group of same-``(config, seq_len)`` attentions stacked for one pass.

    Every item of the batch shares one compiled :class:`ExecutionPlan`, so
    the whole group executes as a single stacked tensor program: the slab
    GEMMs and extras gathers of :func:`execute_plan_attention` vectorize over
    the combined head axis ``G = sum(head_counts)`` instead of looping the
    executor per item.  Items may contribute one head (2-D Q/K/V) or a
    multi-head stack (``(H, seq_len, head_dim)``); :meth:`split` hands each
    item its slice of the stacked output back in the shape it supplied.

    Built by :meth:`from_items`, which copies the item tensors into one
    contiguous ``(G, seq_len, head_dim)`` stack per operand.  Execution is
    bit-identical to running each item through the executor alone — the
    contract the serving layer's batched dispatch relies on.
    """

    plan: ExecutionPlan
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    head_counts: "tuple[int, ...]"
    squeezed: "tuple[bool, ...]"

    @property
    def num_items(self) -> int:
        """Attention computations grouped in this batch."""
        return len(self.head_counts)

    @property
    def num_heads(self) -> int:
        """Total stacked heads ``G`` executed in one pass."""
        return int(self.q.shape[0])

    @property
    def seq_len(self) -> int:
        """Query rows of every item (all items share the plan's shape)."""
        return self.plan.seq_len

    @classmethod
    def from_items(
        cls,
        plan: ExecutionPlan,
        items: "list[tuple[np.ndarray, np.ndarray, np.ndarray]]",
    ) -> "PlanBatch":
        """Stack ``(q, k, v)`` items covered by ``plan`` into one batch.

        Each item is either ``(seq_len, head_dim)`` (one head) or
        ``(H, seq_len, head_dim)`` (a head stack); all must match the plan's
        ``seq_len``.
        """
        if not items:
            raise ValueError("PlanBatch needs at least one item")
        head_counts: "list[int]" = []
        squeezed: "list[bool]" = []
        items = [tuple(np.asarray(operand) for operand in item) for item in items]
        for q, k, v in items:
            if q.shape != k.shape or k.shape != v.shape:
                raise ValueError(f"item shapes must match, got {q.shape}, {k.shape}, {v.shape}")
            if q.ndim == 2:
                squeezed.append(True)
            elif q.ndim == 3:
                squeezed.append(False)
            else:
                raise ValueError(f"items must be 2-D or 3-D, got {q.ndim}-D")
            if q.shape[-2] != plan.seq_len:
                raise ValueError(
                    f"item has {q.shape[-2]} rows but the plan covers {plan.seq_len}"
                )
            head_counts.append(1 if q.ndim == 2 else q.shape[0])
        # One preallocated contiguous stack per operand, filled slice by
        # slice: no per-item temporaries, and stride-0 items (broadcast head
        # replication) densify on assignment, so the executor's matmuls stay
        # on the per-slice BLAS kernel regardless of how callers built items.
        total = sum(head_counts)
        stack_shape = (total, plan.seq_len) + items[0][0].shape[-1:]
        stacks = tuple(np.empty(stack_shape, dtype=np.float64) for _ in range(3))
        offset = 0
        for count, item in zip(head_counts, items):
            for stack, operand in zip(stacks, item):
                stack[offset : offset + count] = operand
            offset += count
        return cls(
            plan=plan,
            q=stacks[0],
            k=stacks[1],
            v=stacks[2],
            head_counts=tuple(head_counts),
            squeezed=tuple(squeezed),
        )

    def execute(self, scale: "float | None" = None, subtract_max: bool = False) -> np.ndarray:
        """Run the whole batch in one stacked pass -> ``(G, seq_len, head_dim)``."""
        return execute_plan_attention(
            self.plan, self.q, self.k, self.v, scale=scale, subtract_max=subtract_max
        )

    def split(self, stacked: np.ndarray) -> "tuple[np.ndarray, ...]":
        """Slice a stacked ``(G, seq_len, head_dim)`` result back per item.

        2-D items get 2-D arrays back; 3-D items their head stacks.
        """
        if stacked.shape[0] != self.num_heads:
            raise ValueError(
                f"stacked result has {stacked.shape[0]} heads, batch holds {self.num_heads}"
            )
        outputs: "list[np.ndarray]" = []
        offset = 0
        for count, was_2d in zip(self.head_counts, self.squeezed):
            item = stacked[offset : offset + count]
            outputs.append(item[0] if was_2d else item)
            offset += count
        return tuple(outputs)


# ---------------------------------------------------------------------- #
# Legacy reference construction
# ---------------------------------------------------------------------- #


def legacy_row_plans(config: SWATConfig, seq_len: int) -> "list[RowPlan]":
    """The seed's per-row schedule construction, kept verbatim as reference.

    ``O(seq_len)`` numpy set operations per row for the random table plus an
    ``O(seq_len * window)`` Python loop for the plans — the cost profile the
    compiled :func:`compile_plan` replaces.  The hypothesis property suite
    asserts field-by-field equality between this construction and the
    compiled plan's :meth:`ExecutionPlan.row_plans` view.
    """
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    global_keys = config.global_token_indices(seq_len)
    half_width = config.window_half_width

    random_table: "dict[int, tuple[int, ...]]" = {}
    if config.has_random_attention:
        rng = np.random.default_rng(config.random_seed)
        all_positions = np.arange(seq_len)
        for row in range(seq_len):
            delta = all_positions - row
            outside_window = all_positions[(delta < -half_width) | (delta >= half_width)]
            candidates = np.setdiff1d(outside_window, np.asarray(global_keys, dtype=int))
            if candidates.size == 0:
                random_table[row] = ()
                continue
            count = min(config.num_random_tokens, candidates.size)
            random_table[row] = tuple(
                int(x) for x in np.sort(rng.choice(candidates, count, replace=False))
            )

    resident: "set[int]" = set()
    plans = []
    for row in range(seq_len):
        lo = max(0, row - half_width)
        hi = min(seq_len, row + half_width)
        window = tuple(range(lo, max(hi, row + 1)))
        new_window = tuple(key for key in window if key not in resident)
        resident.update(new_window)
        random_keys = random_table.get(row, ())
        reloaded = tuple(key for key in random_keys if key in resident or key in global_keys)
        plans.append(
            RowPlan(
                row=row,
                window_keys=window,
                global_keys=global_keys,
                random_keys=random_keys,
                new_window_keys=new_window,
                reloaded_keys=reloaded,
            )
        )
    return plans
