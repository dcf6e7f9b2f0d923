"""Benchmark: whole-model plans — compile amortisation and forward serving.

The acceptance numbers of the ``repro.model`` subsystem:

* compiling a shared-shape L-layer :class:`~repro.model.plan.ModelPlan`
  amortises the per-shape schedule build >= 5x over compiling each layer's
  plan independently (the layer-by-layer cost whole-model compilation
  replaces);
* serving one whole-model forward beats the modelled throughput of serving
  its L attention layers as independent requests (the pipeline fill is paid
  once per forward, not once per layer).

``MODEL_PLAN_LAYERS`` caps the model depth so CI runs a smoke-sized model
while keeping both floors gating every PR.

The headline numbers land in ``BENCH_model.json``
(:func:`repro.telemetry.artifacts.record_bench`), which CI uploads as a
per-run perf artifact.
"""

import os
import time

import numpy as np

from repro.core.config import SWATConfig
from repro.core.plan import compile_plan
from repro.model import ModelExecutor, ModelPlanCompiler, ModelSpec, forward_inputs
from repro.serving.cache import PlanCache
from repro.serving.engine import ServingEngine
from repro.serving.request import make_forward_request, make_request
from repro.telemetry.artifacts import record_bench

#: Wall-time floor for whole-model plan compilation over L independent
#: per-layer builds when all layers share one shape (acceptance criterion;
#: measured ~12x at the default depth, ~8x at the CI smoke depth).
PLAN_COMPILE_AMORTISATION_FLOOR = 5.0

#: Model depth; MODEL_PLAN_LAYERS caps it in CI (smoke mode).
NUM_LAYERS = max(2, int(os.environ.get("MODEL_PLAN_LAYERS", "12")))


def _best_of(fn, rounds=3):
    """Minimum wall time over ``rounds`` runs (filters CI scheduler stalls)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_plan_compile_amortisation_on_shared_shapes(benchmark):
    """>= 5x: one schedule build for L same-shape layers vs one per layer.

    The BigBird-style geometry makes each build substantial (the seeded
    random-table draw dominates), which is exactly the cost a whole-model
    compile pays once: the compiler resolves one plan per *distinct* shape
    and maps all L layers onto it.
    """
    base = SWATConfig.bigbird(window_tokens=64, num_global_tokens=16, num_random_tokens=16)
    seq_len = 2048
    spec = ModelSpec.uniform(
        NUM_LAYERS,
        seq_len,
        window_tokens=64,
        num_global_tokens=16,
        num_random_tokens=16,
        num_heads=2,
        head_dim=base.head_dim,
    )

    def layerwise_builds():
        for layer in range(spec.num_layers):
            compile_plan(spec.layer_config(layer, base=base), seq_len)

    def whole_model_build():
        return ModelPlanCompiler(base_config=base, plan_cache=PlanCache()).compile(spec)

    plan = benchmark(whole_model_build)
    layerwise_seconds = _best_of(layerwise_builds)
    whole_seconds = _best_of(whole_model_build)
    amortisation = layerwise_seconds / whole_seconds

    print(
        f"\n{spec.num_layers} shared-shape layers: layerwise "
        f"{layerwise_seconds * 1e3:.1f} ms vs whole-model "
        f"{whole_seconds * 1e3:.1f} ms ({amortisation:.1f}x); "
        f"{plan.num_shapes} compiled plan(s)"
    )
    record_bench(
        "BENCH_model.json",
        "plan_compile_amortisation",
        {
            "layers": spec.num_layers,
            "layerwise_ms": round(layerwise_seconds * 1e3, 3),
            "whole_model_ms": round(whole_seconds * 1e3, 3),
            "amortisation": round(amortisation, 3),
        },
    )
    assert plan.num_shapes == 1
    # Acceptance property: >= 5x plan-compile amortisation when layers share
    # shapes.
    assert amortisation >= PLAN_COMPILE_AMORTISATION_FLOOR


def test_whole_model_serve_beats_layerwise_attention_serves(benchmark):
    """One forward >= the modelled throughput of L independent attention serves.

    Both sides stream the same L x H x seq_len head-rows on the same
    analytical SWAT clock; the forward pays one pipeline fill while the L
    independent serves pay one per dispatch, so the whole-model path's
    head-rows/sec is strictly higher.
    """
    config = SWATConfig.longformer(window_tokens=64)
    seq_len = 64
    num_heads = 2
    spec = ModelSpec.uniform(
        NUM_LAYERS, seq_len, window_tokens=64, num_heads=num_heads, head_dim=config.head_dim
    )
    forward = make_forward_request(spec, functional=False)
    layerwise = [
        make_request(seq_len, config.head_dim, num_heads=num_heads, functional=False)
        for _ in range(spec.num_layers)
    ]

    pool = ServingEngine(config=config, backend="analytical", num_shards=1, max_batch_size=1)
    forward_result = benchmark(pool.serve, [forward])
    layerwise_result = ServingEngine(
        config=config, backend="analytical", num_shards=1, max_batch_size=1
    ).serve(layerwise)

    forward_stats = forward_result.stats
    layerwise_stats = layerwise_result.stats
    assert forward_stats.total_head_rows == layerwise_stats.total_head_rows
    ratio = forward_stats.head_rows_per_second / layerwise_stats.head_rows_per_second
    print(
        f"\n{spec.num_layers}-layer forward: {forward_stats.head_rows_per_second:.3g} "
        f"head-rows/s vs {layerwise_stats.head_rows_per_second:.3g} for "
        f"{spec.num_layers} independent attention serves ({ratio:.3f}x, "
        f"fill paid once vs {spec.num_layers} times)"
    )
    record_bench(
        "BENCH_model.json",
        "whole_model_over_layerwise",
        {
            "layers": spec.num_layers,
            "forward_head_rows_per_s": round(forward_stats.head_rows_per_second, 1),
            "layerwise_head_rows_per_s": round(layerwise_stats.head_rows_per_second, 1),
            "ratio": round(ratio, 4),
        },
    )
    # Acceptance property: whole-model serving is never slower than the
    # L-independent-serves baseline, and strictly faster for L > 1.
    assert ratio >= 1.0
    assert forward_stats.device_makespan_seconds < layerwise_stats.device_makespan_seconds


def test_stacked_forward_executor_vs_layerwise_reference(benchmark):
    """Wall time of the stacked executor against the per-head module stack.

    Bit-identity is the hard requirement (asserted here and property-tested
    in ``tests/model``); the recorded times show what the stacked pass and
    the autograd-free mirrors buy on the host.
    """
    config = SWATConfig.longformer(window_tokens=64, head_dim=32)
    spec = ModelSpec.uniform(min(NUM_LAYERS, 6), 256, window_tokens=64, num_heads=4, head_dim=32)
    executor = ModelExecutor(spec, base_config=config, plan_cache=PlanCache())
    x = forward_inputs(spec, seed=0)

    fast = benchmark(executor.forward, x)
    reference = executor.reference_forward(x)
    assert np.array_equal(fast, reference)

    fast_seconds = _best_of(lambda: executor.forward(x))
    reference_seconds = _best_of(lambda: executor.reference_forward(x))
    print(
        f"\n{spec.num_layers}-layer forward ({spec.num_heads} heads, seq 256): "
        f"stacked {fast_seconds * 1e3:.1f} ms vs layer-by-layer reference "
        f"{reference_seconds * 1e3:.1f} ms "
        f"({reference_seconds / fast_seconds:.2f}x), bit-identical"
    )
