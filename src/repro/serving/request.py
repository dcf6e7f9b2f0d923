"""Request and completion records of the serving layer.

An :class:`AttentionRequest` is one attention computation a client wants
served: either a *functional* request carrying concrete Q/K/V data (the
backend returns the attention output) or an *analytical* request carrying
only a sequence length (the backend returns timing/energy accounting, the
mode used by capacity planning and the latency benchmarks).

Functional data may be a single head (``(seq_len, head_dim)``) or a stack of
``num_heads`` distinct heads (``(num_heads, seq_len, head_dim)``).  Either
way the batched execution path stacks all heads of a retirement into one
``(G, seq_len, head_dim)`` tensor program per ``(config, seq_len)`` group
(:class:`repro.core.plan.PlanBatch`), so requests are units of accounting,
not units of execution.

A :class:`ForwardRequest` is the whole-model counterpart: instead of one
attention's Q/K/V it carries a :class:`~repro.model.spec.ModelSpec` (plus
optional input embeddings), and one serve call prices and executes the
entire ``L``-layer forward pass through the backend's memoised
:class:`~repro.model.executor.ModelExecutor`.

A :class:`DecodeRequest` is the autoregressive tail of that story: the
prompt was already prefilled (its K/V is resident on the shard), and the
request prices only the ``new_tokens`` generated rows — one row per step at
``block_size=1``, or ``k`` rows finalized per step in the diffusion-style
block-decode scenario (:func:`decode_block_schedule`, fixed or adaptive).
All request kinds share the scheduling protocol the engine relies on:
``seq_len``, ``arrival_time`` (finite and non-negative, checked at
construction), ``request_id``, ``is_functional`` and the
backend-independent work measure ``head_rows``.

This module also owns the seeded arrival-trace generators that stamp
``arrival_time`` for the continuous engine's simulated clock:
:func:`poisson_arrivals` (memoryless steady load), :func:`bursty_arrivals`
(flash crowds) and :func:`diurnal_arrivals` (a sinusoidally rate-modulated
Poisson process — the day/night load curve production traces follow).  All
three are pure functions of their seed: the same arguments replay the same
trace bit-for-bit, with no wall clock anywhere, and all three reject
non-finite float parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import inf, isfinite

import numpy as np

from repro.model.spec import ModelSpec, whole_size
from repro.workload.generator import attention_inputs

__all__ = [
    "AttentionRequest",
    "ForwardRequest",
    "DecodeRequest",
    "CompletedRequest",
    "decode_block_schedule",
    "make_request",
    "make_requests",
    "make_forward_request",
    "make_decode_request",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
]

_REQUEST_IDS = count()


def _require_finite(name: str, value: float, consequence: str) -> None:
    """Reject a nan or inf ``value`` with an actionable message.

    Sign checks alone let both through (``nan < 0`` is false), so every
    float entry point of this module runs this first.
    """
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value} ({consequence})")


def _check_arrival_time(arrival_time: float) -> None:
    """The arrival-instant check every request kind shares."""
    if 0.0 <= arrival_time < inf:  # false for negatives, nan and inf alike
        return
    _require_finite(
        "arrival_time",
        arrival_time,
        "a nan instant turns every latency percentile into nan and an inf one "
        "makes the device makespan infinite",
    )
    if arrival_time < 0:
        raise ValueError(f"arrival_time must be non-negative, got {arrival_time}")


@dataclass
class AttentionRequest:
    """One attention computation submitted to the serving engine.

    Attributes
    ----------
    seq_len:
        Number of query/key rows.
    q, k, v:
        Optional concrete inputs, either ``(seq_len, head_dim)`` (one head)
        or ``(num_heads, seq_len, head_dim)`` (a stack of distinct heads).
        When ``None`` the request is analytical: it is priced by the
        backend's timing model but produces no functional output.
    num_heads:
        Heads to account for in the timing model.  With 2-D data the
        remaining ``num_heads - 1`` heads are identical in cost but carry no
        data; with 3-D data the stack depth must equal ``num_heads``
        (``num_heads`` left at 1 adopts the stack depth).
    arrival_time:
        Finite, non-negative simulated-clock instant (device seconds) the
        request becomes visible to the scheduler: under either admission
        policy the engine admits a request only once its shard's
        :class:`~repro.serving.continuous.ServingClock` has reached this
        instant.
    request_id:
        Monotonically increasing identifier (assigned automatically).
    """

    seq_len: int
    q: "np.ndarray | None" = None
    k: "np.ndarray | None" = None
    v: "np.ndarray | None" = None
    num_heads: int = 1
    arrival_time: float = 0.0
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self) -> None:
        self.seq_len = whole_size("seq_len", self.seq_len)
        self.num_heads = whole_size("num_heads", self.num_heads)
        if self.seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {self.seq_len}")
        if self.num_heads <= 0:
            raise ValueError(f"num_heads must be positive, got {self.num_heads}")
        _check_arrival_time(self.arrival_time)
        provided = [x is not None for x in (self.q, self.k, self.v)]
        if any(provided) and not all(provided):
            raise ValueError("q, k, v must be provided together or not at all")
        if self.is_functional:
            if self.q.shape != self.k.shape or self.k.shape != self.v.shape:
                raise ValueError(
                    f"q, k, v shapes must match, got {self.q.shape}, {self.k.shape}, {self.v.shape}"
                )
            if self.q.ndim not in (2, 3):
                raise ValueError(f"q must be 2-D or 3-D, got {self.q.ndim}-D")
            if self.q.shape[-2] != self.seq_len:
                raise ValueError(
                    f"q has {self.q.shape[-2]} rows but request declares seq_len={self.seq_len}"
                )
            if self.q.ndim == 3:
                stack_depth = self.q.shape[0]
                if stack_depth == 0:
                    raise ValueError("a 3-D head stack must hold at least one head")
                if self.num_heads == 1:
                    self.num_heads = stack_depth
                elif self.num_heads != stack_depth:
                    raise ValueError(
                        f"q stacks {stack_depth} heads but request declares "
                        f"num_heads={self.num_heads}"
                    )

    @property
    def is_functional(self) -> bool:
        """True when the request carries concrete Q/K/V data."""
        return self.q is not None

    @property
    def data_heads(self) -> int:
        """Heads of concrete data this request carries (0 when analytical)."""
        if not self.is_functional:
            return 0
        return self.q.shape[0] if self.q.ndim == 3 else 1

    @property
    def num_layers(self) -> int:
        """One layer: a plain attention is a single-layer stream."""
        return 1

    @property
    def head_rows(self) -> int:
        """Accounted ``num_heads * seq_len`` work units of this request.

        The backend-independent work measure shared with
        :class:`ForwardRequest` (which sums it over its layers).
        """
        return self.num_heads * self.seq_len


@dataclass
class ForwardRequest:
    """One whole-model forward pass submitted to the serving engine.

    Attributes
    ----------
    spec:
        The :class:`~repro.model.spec.ModelSpec` fixing the forward's
        execution shape (per-layer attention geometry, heads, dims).
    x:
        Optional input embeddings ``(seq_len, hidden_dim)``.  When ``None``
        the request is analytical: the backend prices the forward off its
        compiled :class:`~repro.model.plan.ModelPlan` but computes nothing.
    weight_seed:
        Seed of the served model's deterministic weights; backends memoise
        one :class:`~repro.model.executor.ModelExecutor` per
        ``(spec, weight_seed)`` — the serving layer's model registry.
    arrival_time:
        Simulated-clock visibility instant (see
        :attr:`AttentionRequest.arrival_time`).
    request_id:
        Monotonically increasing identifier shared with attention requests.
    """

    spec: ModelSpec
    x: "np.ndarray | None" = None
    weight_seed: int = 0
    arrival_time: float = 0.0
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ModelSpec):
            raise TypeError(f"spec must be a ModelSpec, got {type(self.spec).__name__}")
        _check_arrival_time(self.arrival_time)
        if self.x is not None:
            self.x = np.asarray(self.x, dtype=np.float64)
            expected = (self.spec.seq_len, self.spec.hidden_dim)
            if self.x.shape != expected:
                raise ValueError(f"x shaped {self.x.shape} does not match spec {expected}")

    @property
    def seq_len(self) -> int:
        """Tokens per layer (every layer attends the same rows)."""
        return self.spec.seq_len

    @property
    def num_heads(self) -> int:
        """Attention heads per layer."""
        return self.spec.num_heads

    @property
    def num_layers(self) -> int:
        """Model depth."""
        return self.spec.num_layers

    @property
    def is_functional(self) -> bool:
        """True when the request carries input embeddings."""
        return self.x is not None

    @property
    def head_rows(self) -> int:
        """Accounted ``num_layers * num_heads * seq_len`` units of the forward."""
        return self.spec.head_rows


def decode_block_schedule(new_tokens: int, block_size: int = 1, adaptive: bool = False):
    """Tokens finalized per decode step, as a tuple summing to ``new_tokens``.

    ``block_size=1`` is classic one-token autoregression.  A fixed
    ``block_size=k`` finalizes ``k`` rows per step (the diffusion-style
    parallel-decode scenario), with a short final block when ``k`` does not
    divide ``new_tokens``.  ``adaptive=True`` ramps deterministically —
    1, 2, 4, ... doubling up to ``block_size`` — modelling a sampler that
    widens its block as acceptance confidence grows; no randomness, so the
    same arguments always price the same schedule.
    """
    if new_tokens <= 0:
        raise ValueError(f"new_tokens must be positive, got {new_tokens}")
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if not adaptive:
        full, remainder = divmod(new_tokens, block_size)
        return tuple([block_size] * full + ([remainder] if remainder else []))
    sizes: "list[int]" = []
    width, remaining = 1, new_tokens
    while remaining:
        step = min(width, block_size, remaining)
        sizes.append(step)
        remaining -= step
        width = min(width * 2, block_size)
    return tuple(sizes)


#: Bytes per K/V element: fp32 keys and values, matching the fp32 tensors
#: the functional executors carry.
_KV_ELEMENT_BYTES = 4


@dataclass
class DecodeRequest:
    """One autoregressive decode submitted to the serving engine.

    The prompt's forward pass already happened (a prefill
    :class:`ForwardRequest`); this request generates ``new_tokens`` more
    tokens with the prompt's K/V held resident on the shard.  Each step
    covers only the newly finalized row(s) — priced positionally off the
    model's compiled plan via
    :meth:`~repro.model.plan.DecodePlan.span_cycles` — while the K/V
    residency model counts one miss for loading the prompt cache and one
    hit per subsequent step (:class:`repro.serving.cache.KVResidency`).

    Attributes
    ----------
    spec:
        The :class:`~repro.model.spec.ModelSpec` of the serving model at
        the request's *final* context length: ``spec.seq_len ==
        prompt_len + new_tokens``.
    new_tokens:
        Tokens to generate.
    block_size:
        Tokens finalized per decode step (``1`` = classic autoregression;
        ``k > 1`` prices diffusion-style block decode).
    adaptive:
        Ramp the block width 1, 2, 4, ... up to ``block_size``
        (:func:`decode_block_schedule`).
    weight_seed:
        Served-model weight seed, shared with :class:`ForwardRequest` so
        decode reuses the same memoised model plan.
    arrival_time:
        Simulated-clock visibility instant (see
        :attr:`AttentionRequest.arrival_time`).
    request_id:
        Monotonically increasing identifier shared with the other kinds.
    """

    spec: ModelSpec
    new_tokens: int
    block_size: int = 1
    adaptive: bool = False
    weight_seed: int = 0
    arrival_time: float = 0.0
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ModelSpec):
            raise TypeError(f"spec must be a ModelSpec, got {type(self.spec).__name__}")
        self.new_tokens = whole_size("new_tokens", self.new_tokens)
        self.block_size = whole_size("block_size", self.block_size)
        if self.new_tokens <= 0:
            raise ValueError(f"new_tokens must be positive, got {self.new_tokens}")
        if self.new_tokens >= self.spec.seq_len:
            raise ValueError(
                f"new_tokens={self.new_tokens} leaves no prompt: spec.seq_len="
                f"{self.spec.seq_len} must cover at least one prompt token"
            )
        _check_arrival_time(self.arrival_time)
        # Validates block_size/adaptive; memoised because backends key their
        # compiled DecodePlans on it.
        self._schedule = decode_block_schedule(self.new_tokens, self.block_size, self.adaptive)

    @property
    def seq_len(self) -> int:
        """Final context length (prompt plus generated tokens)."""
        return self.spec.seq_len

    @property
    def prompt_len(self) -> int:
        """Prompt tokens whose K/V is resident before the first decode step."""
        return self.spec.seq_len - self.new_tokens

    @property
    def num_heads(self) -> int:
        """Attention heads per layer."""
        return self.spec.num_heads

    @property
    def num_layers(self) -> int:
        """Model depth."""
        return self.spec.num_layers

    @property
    def is_functional(self) -> bool:
        """Decode requests are analytical: they price, they don't compute."""
        return False

    @property
    def head_rows(self) -> int:
        """Accounted ``num_layers * num_heads * new_tokens`` decode work units.

        Only the generated rows count — the prompt's rows were accounted by
        its prefill request.
        """
        return self.spec.num_layers * self.spec.num_heads * self.new_tokens

    @property
    def block_schedule(self) -> "tuple[int, ...]":
        """Tokens finalized per step; sums to ``new_tokens``."""
        return self._schedule

    @property
    def num_steps(self) -> int:
        """Decode steps this request takes (``len(block_schedule)``)."""
        return len(self._schedule)

    @property
    def kv_bytes_per_token(self) -> int:
        """Resident K/V bytes one token pins across all layers (fp32 K+V)."""
        return 2 * self.spec.hidden_dim * _KV_ELEMENT_BYTES * self.spec.num_layers

    @property
    def kv_prompt_bytes(self) -> int:
        """Prompt-cache bytes loaded at admission (the residency miss)."""
        return self.prompt_len * self.kv_bytes_per_token

    @property
    def kv_resident_bytes(self) -> int:
        """Peak resident K/V footprint: prompt plus every generated token."""
        return self.spec.seq_len * self.kv_bytes_per_token

    @property
    def kv_traffic_bytes(self) -> int:
        """Modelled K/V bytes moved: one prompt load plus one write per new token."""
        return self.kv_prompt_bytes + self.new_tokens * self.kv_bytes_per_token


@dataclass(slots=True)
class CompletedRequest:
    """A served request plus where and how it was executed.

    The engine builds one per retirement, in one place, with positional
    arguments in field order.  It is a plain slotted record, not a frozen
    one: a frozen ``__init__`` sets every field through
    ``object.__setattr__``, several times the cost of the slotted
    assignments on a 100k-request serve.  Treat it as read-only.

    Attributes
    ----------
    request:
        The original request.
    output:
        Attention output ``(seq_len, head_dim)`` for functional requests on a
        functional backend, else ``None``.
    shard:
        Index of the accelerator shard that served the request.
    batch_id, batch_size:
        The request's admission: its admission event id and the shard's
        residency right after it was admitted.
    device_seconds:
        Modelled device time summed over the iterations this request was
        resident in — residents share an iteration's clock, so the duration
        counts fully for each of them.
    arrival_time, admit_time, finish_time:
        Lifecycle instants on the simulated clock.  ``admit_time -
        arrival_time`` is the queue wait, ``finish_time - arrival_time``
        the request latency.
    """

    request: AttentionRequest
    output: "np.ndarray | None"
    shard: int
    batch_id: int
    batch_size: int
    device_seconds: float
    arrival_time: float = 0.0
    admit_time: float = 0.0
    finish_time: float = 0.0

    @property
    def queue_seconds(self) -> float:
        """Simulated wait between arrival and admission."""
        return self.admit_time - self.arrival_time

    @property
    def latency_seconds(self) -> float:
        """Simulated arrival-to-completion latency."""
        return self.finish_time - self.arrival_time


def make_request(
    seq_len: int,
    head_dim: int,
    seed: int = 0,
    num_heads: int = 1,
    functional: bool = True,
    stacked_heads: bool = False,
    arrival_time: float = 0.0,
) -> AttentionRequest:
    """Build one request, with random Q/K/V data when ``functional``.

    ``stacked_heads=True`` draws ``num_heads`` distinct heads of data into a
    ``(num_heads, seq_len, head_dim)`` stack; the default carries one head
    of data and accounts the rest as identical in cost.
    """
    if not functional:
        return AttentionRequest(seq_len=seq_len, num_heads=num_heads, arrival_time=arrival_time)
    if stacked_heads:
        heads = [
            attention_inputs(seq_len, head_dim, seed=seed * 1000 + head)
            for head in range(num_heads)
        ]
        q, k, v = (np.stack([head[axis] for head in heads]) for axis in range(3))
        return AttentionRequest(
            seq_len=seq_len, q=q, k=k, v=v, num_heads=num_heads, arrival_time=arrival_time
        )
    q, k, v = attention_inputs(seq_len, head_dim, seed=seed)
    return AttentionRequest(
        seq_len=seq_len, q=q, k=k, v=v, num_heads=num_heads, arrival_time=arrival_time
    )


def make_requests(
    seq_lens: "list[int]",
    head_dim: int,
    seed: int = 0,
    functional: bool = True,
    arrival_times: "list[float] | None" = None,
) -> "list[AttentionRequest]":
    """Build one request per entry of ``seq_lens`` with distinct data seeds.

    ``arrival_times`` (one instant per request, e.g. a trace from
    :func:`repro.serving.continuous.poisson_arrivals`) stamps each request
    for the continuous engine's simulated clock; omitted, everything arrives
    at time 0.
    """
    if arrival_times is not None and len(arrival_times) != len(seq_lens):
        raise ValueError(
            f"arrival_times has {len(arrival_times)} entries for {len(seq_lens)} requests"
        )
    return [
        make_request(
            seq_len,
            head_dim,
            seed=seed + index,
            functional=functional,
            arrival_time=arrival_times[index] if arrival_times is not None else 0.0,
        )
        for index, seq_len in enumerate(seq_lens)
    ]


def make_forward_request(
    spec: ModelSpec,
    seed: int = 0,
    functional: bool = True,
    arrival_time: float = 0.0,
    weight_seed: int = 0,
) -> ForwardRequest:
    """Build one whole-model forward request, with seeded embeddings when functional.

    Embeddings come from :func:`repro.model.executor.forward_inputs`, so the
    same ``(spec, seed)`` means the same data here, in the benchmarks and at
    a solo :class:`~repro.model.executor.ModelExecutor` call.
    """
    if not functional:
        return ForwardRequest(spec=spec, weight_seed=weight_seed, arrival_time=arrival_time)
    from repro.model.executor import forward_inputs

    return ForwardRequest(
        spec=spec,
        x=forward_inputs(spec, seed=seed),
        weight_seed=weight_seed,
        arrival_time=arrival_time,
    )


def make_decode_request(
    spec: ModelSpec,
    new_tokens: int,
    block_size: int = 1,
    adaptive: bool = False,
    arrival_time: float = 0.0,
    weight_seed: int = 0,
) -> DecodeRequest:
    """Build one decode request generating ``new_tokens`` on ``spec``'s context.

    ``spec.seq_len`` is the final context length; the prompt length is
    ``spec.seq_len - new_tokens`` and must leave at least one prompt token.
    """
    return DecodeRequest(
        spec=spec,
        new_tokens=new_tokens,
        block_size=block_size,
        adaptive=adaptive,
        weight_seed=weight_seed,
        arrival_time=arrival_time,
    )


# --------------------------------------------------------------------- #
# Seeded arrival traces (simulated seconds, no wall-clock anywhere)
# --------------------------------------------------------------------- #

#: Why a trace parameter must be finite, for :func:`_require_finite`.
_NON_FINITE_TRACE = (
    "a nan trace parameter turns every arrival instant into nan and an inf one "
    "collapses the instants onto one point or sends them to infinity"
)


def poisson_arrivals(count: int, rate: float, seed: int = 0, start: float = 0.0) -> "list[float]":
    """``count`` Poisson arrival instants at ``rate`` requests per second.

    Inter-arrival gaps are exponential draws from a seeded generator; the
    same seed replays the same trace bit-for-bit.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for name, value in (("rate", rate), ("start", start)):
        _require_finite(name, value, _NON_FINITE_TRACE)
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=count)
    return [float(instant) for instant in start + np.cumsum(gaps)]


def bursty_arrivals(
    count: int,
    burst_size: int,
    burst_gap: float,
    seed: int = 0,
    start: float = 0.0,
    jitter: float = 0.0,
) -> "list[float]":
    """Bursts of ``burst_size`` simultaneous arrivals every ``burst_gap`` seconds.

    ``jitter`` spreads each burst's members by seeded exponential offsets
    (mean ``jitter`` seconds) — the flash-crowd arrival pattern.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if burst_size <= 0:
        raise ValueError(f"burst_size must be positive, got {burst_size}")
    for name, value in (("burst_gap", burst_gap), ("start", start), ("jitter", jitter)):
        _require_finite(name, value, _NON_FINITE_TRACE)
    if burst_gap <= 0:
        raise ValueError(
            f"burst_gap must be positive, got {burst_gap} "
            f"(a zero gap collapses every burst onto one instant)"
        )
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    rng = np.random.default_rng(seed)
    offsets = rng.exponential(jitter, size=count) if jitter > 0 else np.zeros(count)
    return [
        float(start + (index // burst_size) * burst_gap + offsets[index])
        for index in range(count)
    ]


def diurnal_arrivals(
    count: int,
    mean_rate: float,
    period: float,
    amplitude: float = 0.9,
    seed: int = 0,
    start: float = 0.0,
    phase: float = 0.0,
) -> "list[float]":
    """``count`` arrivals from a sinusoidally rate-modulated Poisson process.

    The instantaneous rate follows the day/night curve
    ``rate(t) = mean_rate * (1 + amplitude * sin(2 * pi * t / period + phase))``
    — peaks at ``(1 + amplitude)`` times the mean, troughs at
    ``(1 - amplitude)`` times.  ``amplitude`` must stay strictly below 1:
    at exactly 1 the trough rate hits zero, the cumulative rate plateaus,
    and inverting the time change degenerates (nearly-quiet nights are
    expressed with e.g. ``amplitude=0.99``).
    Sampling inverts the integrated rate: seeded unit-exponential gaps are
    cumulated into event targets of a unit-rate process, then mapped back
    through the closed-form cumulative rate on a dense grid, which is the
    standard time-change construction of a non-homogeneous Poisson process.
    The same arguments replay the same trace bit-for-bit.

    ``phase`` shifts where in the cycle the trace starts: the default begins
    at the mean rate on the rising edge; ``-pi / 2`` starts in the trough
    (a cold overnight start).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for name, value in (
        ("mean_rate", mean_rate),
        ("period", period),
        ("amplitude", amplitude),
        ("start", start),
        ("phase", phase),
    ):
        _require_finite(name, value, _NON_FINITE_TRACE)
    if mean_rate <= 0:
        raise ValueError(f"mean_rate must be positive, got {mean_rate}")
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(
            f"amplitude must be in [0, 1), got {amplitude} "
            f"(amplitude=1 zeroes the overnight rate and degenerates the "
            f"time-change inversion)"
        )
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    # Event targets of the underlying unit-rate process.
    targets = np.cumsum(rng.exponential(1.0, size=count))
    # Cumulative rate: integral of rate(t) from 0 to t, monotone because
    # amplitude <= 1.  Its deviation from mean_rate * t is bounded by
    # amplitude * period / pi, which bounds the horizon holding all targets.
    angular = 2.0 * np.pi / period
    horizon = float(targets[-1]) / mean_rate + amplitude * period / np.pi + period

    def cumulative(t):
        swing = (amplitude / angular) * (np.cos(phase) - np.cos(angular * t + phase))
        return mean_rate * (t + swing)

    grid_t = np.linspace(0.0, horizon, num=max(1024, min(1 << 20, 8 * count)) + 1)
    times = np.interp(targets, cumulative(grid_t), grid_t)
    return [float(instant) for instant in start + times]
