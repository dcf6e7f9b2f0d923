"""Multi-accelerator serving layer over the SWAT execution paths.

Turns the one-shot :class:`~repro.core.simulator.SWATSimulator` into a served
system: a pluggable backend registry (:mod:`repro.serving.backends`), one
simulated-clock engine with drain or continuous admission
(:mod:`repro.serving.continuous`, fronted by the configured shard pool of
:mod:`repro.serving.engine`), a per-shape plan/schedule cache
(:mod:`repro.serving.cache`) and serving-level accounting
(:mod:`repro.serving.stats`).  The ``repro-serve`` console script
(:mod:`repro.serving.demo`) drives it from the shell.
"""

from repro.serving.backends import (
    AttentionBackend,
    StepCost,
    available_backends,
    create_backend,
    register_backend,
)
from repro.serving.cache import CachedPlan, KVResidency, PlanCache, config_fingerprint
from repro.serving.continuous import (
    QUEUE_POLICIES,
    SCHEDULERS,
    BurstRecord,
    ContinuousBatcher,
    ScenarioComparison,
    ServingClock,
    ServingResult,
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.engine import ServingEngine
from repro.serving.request import (
    AttentionRequest,
    CompletedRequest,
    DecodeRequest,
    ForwardRequest,
    decode_block_schedule,
    make_decode_request,
    make_forward_request,
    make_request,
    make_requests,
)
from repro.serving.stats import ServingStats, decode_token_intervals, percentile

__all__ = [
    "AttentionBackend",
    "StepCost",
    "available_backends",
    "create_backend",
    "register_backend",
    "CachedPlan",
    "KVResidency",
    "PlanCache",
    "config_fingerprint",
    "ContinuousBatcher",
    "QUEUE_POLICIES",
    "SCHEDULERS",
    "BurstRecord",
    "ScenarioComparison",
    "ServingClock",
    "bursty_arrivals",
    "compare_modes",
    "diurnal_arrivals",
    "poisson_arrivals",
    "serve_continuous",
    "swat_request_rate",
    "ServingEngine",
    "ServingResult",
    "AttentionRequest",
    "DecodeRequest",
    "ForwardRequest",
    "CompletedRequest",
    "decode_block_schedule",
    "make_request",
    "make_requests",
    "make_decode_request",
    "make_forward_request",
    "ServingStats",
    "decode_token_intervals",
    "percentile",
]
