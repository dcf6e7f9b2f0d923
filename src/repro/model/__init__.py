"""Whole-model plan compilation and forward execution.

Everything below the serving layer so far prices and executes *one attention
call*; a real transformer workload runs ``L`` layers x ``H`` heads of a full
forward per request.  This package closes that gap:

* :class:`~repro.model.spec.ModelSpec` — the execution shape of a forward
  (per-layer attention geometry, head count, hidden/MLP dims, seq_len);
* :class:`~repro.model.plan.ModelPlanCompiler` /
  :class:`~repro.model.plan.ModelPlan` — the compiled whole-forward IR:
  per-shape execution plans deduplicated through the serving
  :class:`~repro.serving.cache.PlanCache` (L layers sharing one schedule per
  distinct shape) with model-wide traffic/cycle prefix sums;
* :class:`~repro.model.executor.ModelExecutor` — runs the forward (stacked
  plan passes for attention, numpy mirrors of :mod:`repro.nn` for
  MLP/residual/norm), bit-identical to the layer-by-layer
  :class:`~repro.model.executor.ReferenceEncoder`, and prices it end to end.

The serving layer's ``ForwardRequest`` (:mod:`repro.serving.request`) carries
a spec through the backend registry and the simulated-clock engine under
either admission policy, so one serve call handles an entire forward pass.
"""

from repro.model.executor import (
    ModelExecutor,
    PlanAttention,
    ReferenceEncoder,
    forward_inputs,
)
from repro.model.plan import (
    DecodePlan,
    ModelPlan,
    ModelPlanCompiler,
    ModelShapeGroup,
    compile_decode_plan,
)
from repro.model.spec import LayerGeometry, ModelSpec

__all__ = [
    "LayerGeometry",
    "ModelSpec",
    "DecodePlan",
    "ModelPlan",
    "ModelPlanCompiler",
    "ModelShapeGroup",
    "compile_decode_plan",
    "ModelExecutor",
    "PlanAttention",
    "ReferenceEncoder",
    "forward_inputs",
]
