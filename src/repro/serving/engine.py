"""Serving engine: a configured shard pool over the simulated-clock engine.

:class:`ServingEngine` holds a pool's configuration — one
:class:`~repro.serving.backends.AttentionBackend` per shard, all sharing one
:class:`~repro.serving.cache.PlanCache` so a schedule is built once per shape
for the whole pool — and serves request traces through
:func:`~repro.serving.continuous.serve_continuous`, the one engine.  ``mode``
picks its admission policy: ``"drain"`` refills a shard only once its whole
batch has retired, ``"continuous"`` admits into any slot a retirement
frees.  Either way every number is modelled on the deterministic simulated
clock: request ``arrival_time``\\ s are honoured there, and only
``wall_seconds`` reads the host clock.

Both modes accept mixed request kinds in one trace: single attentions,
whole-model prefills (:class:`~repro.serving.request.ForwardRequest`) and
autoregressive decodes (:class:`~repro.serving.request.DecodeRequest`, whose
steps cover only the newly finalized rows against a resident K/V cache) are
batched, priced and retired through the same queue and the same clock.
"""

from __future__ import annotations

from repro.core.config import SWATConfig
from repro.serving.backends import AttentionBackend, create_backend
from repro.serving.cache import PlanCache
from repro.serving.continuous import DEFAULT_ITERATION_ROWS, ServingResult, serve_continuous
from repro.serving.request import AttentionRequest
from repro.telemetry.bus import NULL_BUS

__all__ = ["ServingEngine"]


class ServingEngine:
    """Serves attention requests over a pool of sharded accelerator backends."""

    #: Admission policies :meth:`serve` understands.
    MODES = ("drain", "continuous")

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        backend: str = "simulator",
        num_shards: int = 2,
        max_batch_size: int = 8,
        plan_cache: "PlanCache | None" = None,
        mode: str = "drain",
        iteration_rows: "int | None" = None,
        policy: str = "fcfs",
        bus=None,
        run_id: int = 0,
    ):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.config = config if config is not None else SWATConfig()
        self.backend_name = backend
        self.num_shards = num_shards
        self.max_batch_size = max_batch_size
        self.bus = bus if bus is not None else NULL_BUS
        self.run_id = run_id
        # An instrumented engine without an explicit cache builds one wired to
        # the same bus, so plan-cache lookups land in the same event log.
        if plan_cache is not None:
            self.plan_cache = plan_cache
        else:
            self.plan_cache = (
                PlanCache(bus=bus, run_id=run_id) if bus is not None else PlanCache()
            )
        self.mode = mode
        self.iteration_rows = iteration_rows
        self.policy = policy
        self.shards: "list[AttentionBackend]" = [
            create_backend(backend, config=self.config, plan_cache=self.plan_cache)
            for _ in range(num_shards)
        ]

    def serve(self, requests: "list[AttentionRequest]") -> ServingResult:
        """Serve ``requests`` to completion under ``mode`` admission.

        Runs :func:`~repro.serving.continuous.serve_continuous` on the pool's
        shards and plan cache; requests without an ``arrival_time`` all
        arrive at time 0.
        """
        return serve_continuous(
            requests,
            config=self.config,
            backend=self.backend_name,
            num_shards=self.num_shards,
            max_batch_size=self.max_batch_size,
            iteration_rows=(
                self.iteration_rows if self.iteration_rows is not None else DEFAULT_ITERATION_ROWS
            ),
            admission=self.mode,
            policy=self.policy,
            plan_cache=self.plan_cache,
            backends=self.shards,
            bus=self.bus,
            run_id=self.run_id,
        )
