"""Which public calls the traced run wraps, and the per-layer metrics they give.

Layers are the repository's modules:

=====================  ==========================================================
``serving.continuous`` the scheduler: what is left of the serve wall (self time)
``serving.backends``   ``step_burst`` pricing and ``compute_outputs`` (instances)
``model.plan``         ``ModelPlanCompiler.compile``, ``compile_decode_plan``,
                       ``span_cycles_batch``
``core.plan``          ``PlanCache.lookup`` (instance), ``compile_plan``,
                       ``execute_plan_attention``
``model.executor``     ``ModelExecutor.forward_batch``
``serving.stats``      ``percentile`` as the engine calls it
``serving.cache``      ``KVResidency`` admit / touch / release
``telemetry``          the ``EventBus`` sink feeding the ``TraceReplayer``
=====================  ==========================================================
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from perfbench.tracer import Span

import repro.core.plan as core_plan
import repro.model.executor as model_executor
import repro.model.plan as model_plan
import repro.serving.backends as serving_backends
import repro.serving.cache as serving_cache
import repro.serving.continuous as serving_continuous

SERVE = "serving.continuous.serve"
SETUP = "setup"
STEP_BURST = "serving.backends.step_burst"
COMPUTE_OUTPUTS = "serving.backends.compute_outputs"
SPAN_CYCLES = "model.plan.span_cycles_batch"
MODEL_COMPILE = "model.plan.compile"
DECODE_COMPILE = "model.plan.compile_decode_plan"
CACHE_LOOKUP = "core.plan.cache_lookup"
COMPILE_PLAN = "core.plan.compile_plan"
EXECUTE = "core.plan.execute"
FORWARD_BATCH = "model.executor.forward_batch"
PERCENTILE = "serving.stats.percentile"
KV = "serving.cache.kv"
SINK = "telemetry.sink"


def _head_rows(args) -> int:
    """Query rows times heads of one ``execute_plan_attention(plan, q, ...)`` call."""
    return int(np.prod(args[1].shape[:-1]))


@contextmanager
def module_spans(tracer):
    """Wrap every layer call the engine resolves through a module or class."""
    traced_kv = type(
        "TracedKVResidency",
        (serving_cache.KVResidency,),
        {
            method: tracer.wrap(KV, getattr(serving_cache.KVResidency, method))
            for method in ("admit", "touch", "release")
        },
    )
    try:
        tracer.patch(model_plan.ModelPlanCompiler, "compile", MODEL_COMPILE)
        tracer.patch(serving_backends, "compile_decode_plan", DECODE_COMPILE)
        tracer.patch(model_plan.ModelPlan, "span_cycles_batch", SPAN_CYCLES)
        tracer.patch(model_plan.DecodePlan, "span_cycles_batch", SPAN_CYCLES)
        tracer.patch(serving_cache, "compile_plan", COMPILE_PLAN)
        tracer.patch(core_plan, "execute_plan_attention", EXECUTE, items=_head_rows)
        tracer.patch(model_executor, "execute_plan_attention", EXECUTE, items=_head_rows)
        tracer.patch(model_executor.ModelExecutor, "forward_batch", FORWARD_BATCH)
        tracer.patch(serving_continuous, "percentile", PERCENTILE)
        tracer.replace(serving_continuous, "KVResidency", traced_kv)
        yield tracer
    finally:
        tracer.restore()


def instance_spans(tracer, backends, plan_cache) -> None:
    """Wrap the pricing/output calls of the backends and the shared plan cache.

    Instance attributes, so they vanish with the objects; nothing to restore.
    """
    for backend in backends:
        backend.step_burst = tracer.wrap(STEP_BURST, backend.step_burst)
        backend.compute_outputs = tracer.wrap(COMPUTE_OUTPUTS, backend.compute_outputs)
    cache_spans(tracer, plan_cache)


def cache_spans(tracer, plan_cache) -> None:
    """Wrap ``plan_cache.lookup`` (an instance attribute, like the above)."""
    plan_cache.lookup = tracer.wrap(CACHE_LOOKUP, plan_cache.lookup)


def per_layer_metrics(setup, serve, result, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced set-up plus one traced serve.

    ``setup``/``serve`` map span names to :class:`~perfbench.tracer.Span`\\ s
    (:meth:`~perfbench.tracer.Tracer.take`), ``result`` is the traced serve's
    ``ServingResult``, ``wall_s`` its wall timed outside the tracer and
    ``untraced_wall_s`` the wall of an untraced serve of the same trace.  Compile-side numbers add set-up and serve (plans compile
    wherever they are first needed); everything else is the serve alone.
    """
    stats = result.stats
    empty = Span()

    def span(name):
        return serve.get(name, empty)

    def both(name):
        return setup.get(name, empty).calls + span(name).calls

    def both_s(name):
        return setup.get(name, empty).total_s + span(name).total_s

    def per_call_us(name):
        return span(name).total_s * 1e6 / span(name).calls if span(name).calls else 0.0

    root, bursts, execute = span(SERVE), span(STEP_BURST), span(EXECUTE)
    return {
        "continuous.serve_s": root.total_s,
        "continuous.self_s": root.self_s,
        "continuous.host_ns_per_iteration": root.total_ns / max(stats.num_iterations, 1),
        "continuous.bursts": bursts.calls,
        "continuous.iterations": stats.num_iterations,
        "continuous.iterations_per_burst": stats.num_iterations / max(bursts.calls, 1),
        "backends.step_burst.calls": bursts.calls,
        "backends.step_burst.self_s": bursts.self_s,
        "backends.step_burst.us_per_call": per_call_us(STEP_BURST),
        "model_plan.span_cycles_batch.calls": span(SPAN_CYCLES).calls,
        "model_plan.span_cycles_batch.s": span(SPAN_CYCLES).total_s,
        "model_plan.span_cycles_batch.us_per_call": per_call_us(SPAN_CYCLES),
        "model_plan.compile.calls": both(MODEL_COMPILE),
        "model_plan.compile.s": both_s(MODEL_COMPILE),
        "model_plan.compile_decode_plan.calls": both(DECODE_COMPILE),
        "core_plan.cache_lookups": both(CACHE_LOOKUP),
        # compile_plan runs once per plan-cache miss.
        "core_plan.cache_misses": both(COMPILE_PLAN),
        "core_plan.compile_s": both_s(COMPILE_PLAN),
        "backends.compute_outputs.s": span(COMPUTE_OUTPUTS).total_s,
        "backends.compute_outputs.self_s": span(COMPUTE_OUTPUTS).self_s,
        "core_plan.execute.calls": execute.calls,
        "core_plan.execute.s": execute.total_s,
        "core_plan.execute.head_rows_per_s": (
            execute.items / execute.total_s if execute.total_s else 0.0
        ),
        "model_executor.forward_batch.s": span(FORWARD_BATCH).total_s,
        # forward_batch's only child spans are its attention passes.
        "model_executor.non_attention_s": span(FORWARD_BATCH).self_s,
        "stats.percentile.calls": span(PERCENTILE).calls,
        "stats.percentile.s": span(PERCENTILE).total_s,
        "kv.calls": span(KV).calls,
        "kv.s": span(KV).total_s,
        # The sink sees every event the bus carries.
        "telemetry.events": span(SINK).calls,
        "telemetry.events_per_req": span(SINK).calls / stats.num_requests,
        "telemetry.sink_s": span(SINK).total_s,
        "continuous.occupancy": stats.mean_occupancy,
        "continuous.queue_p95_s": stats.queue_p95_seconds,
        "continuous.shard_util_min": min(stats.shard_utilisation),
        "continuous.decode.inter_token_p95_s": stats.inter_token_p95_seconds,
        "kv.hit_rate": stats.kv_hit_rate,
        "kv.misses": stats.kv_misses,
        "trace.overhead_s": root.total_s - untraced_wall_s,
        # The serve wall, timed outside the tracer, that no span's self time
        # covers: near zero when the spans account for the whole serve.
        "trace.unaccounted_s": wall_s - sum(each.self_s for each in serve.values()),
    }
