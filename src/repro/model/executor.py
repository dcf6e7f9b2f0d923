"""Whole-model forward execution over compiled plans.

Two execution paths share one set of seeded weights:

* :class:`ReferenceEncoder` — the *layer-by-layer* reference: a genuine
  :mod:`repro.nn` module stack (:class:`~repro.nn.model.EncoderLayer` with
  pre-norm residuals, :class:`~repro.nn.layers.FeedForward` GELU MLPs and a
  final :class:`~repro.nn.layers.LayerNorm`) whose attention mixer executes
  **one head at a time** through the 2-D path of
  :func:`~repro.core.plan.execute_plan_attention`;
* :class:`ModelExecutor` — the production path: plain-numpy mirrors of the
  same tensor ops, with each layer's ``H`` heads (and, in
  :meth:`ModelExecutor.forward_batch`, all ``B x H`` heads of a batch of
  forwards) executed as **one stacked pass** over the layer's compiled plan —
  the same stacked tensor program a :class:`~repro.core.plan.PlanBatch`
  dispatch runs.

The two are bit-identical: the stacked executor's per-head contract
(established by the batch-axis refactor) covers the attention, and the
numpy mirrors replicate the exact operation order of the autograd ops
(notably ``mean = sum * (1 / n)``, subtraction as ``a + (-b)`` being exact,
and the GELU's precise association) — the hypothesis property suite in
``tests/model`` asserts equality for random specs.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SWATConfig
from repro.core.plan import ExecutionPlan, execute_plan_attention
from repro.model.plan import ModelPlan, ModelPlanCompiler
from repro.model.spec import ModelSpec
from repro.nn.layers import LayerNorm, Linear, Module
from repro.nn.model import EncoderLayer
from repro.nn.tensor import Tensor

__all__ = ["PlanAttention", "ReferenceEncoder", "ModelExecutor", "forward_inputs"]


def forward_inputs(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    """Seeded input embeddings ``(seq_len, hidden_dim)`` for one forward."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((spec.seq_len, spec.hidden_dim))


class PlanAttention(Module):
    """Multi-head attention routed through one compiled execution plan.

    The reference mixer of the layer-by-layer model: QKV/output projections
    are ordinary :class:`~repro.nn.layers.Linear` modules, and each head runs
    alone through the 2-D plan executor — the per-head ground truth the
    stacked paths must reproduce bit for bit.  Inference-only (the plan
    executor sits outside the autograd tape).
    """

    def __init__(self, dim: int, num_heads: int, plan: ExecutionPlan, seed: int = 0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.plan = plan
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.qkv_proj = Linear(dim, 3 * dim, seed=seed)
        self.out_proj = Linear(dim, dim, seed=seed + 1)

    def forward(self, x: Tensor) -> Tensor:
        seq_len, dim = x.shape
        if dim != self.dim:
            raise ValueError(f"input dim {dim} does not match layer dim {self.dim}")
        qkv = self.qkv_proj(x).data  # (seq, 3*dim); inference from here on
        heads = qkv.reshape(seq_len, 3, self.num_heads, self.head_dim).transpose(1, 2, 0, 3)
        q, k, v = heads[0], heads[1], heads[2]  # (H, seq, head_dim) each
        outputs = [
            execute_plan_attention(self.plan, q[head], k[head], v[head], scale=self.scale)
            for head in range(self.num_heads)
        ]
        context = np.stack(outputs).transpose(1, 0, 2).reshape(seq_len, dim)
        return self.out_proj(Tensor(context))


class ReferenceEncoder(Module):
    """The layer-by-layer :mod:`repro.nn` reference model of one spec.

    A stack of pre-norm :class:`~repro.nn.model.EncoderLayer`\\ s (each with a
    :class:`PlanAttention` mixer over that layer's compiled plan) plus a
    final :class:`~repro.nn.layers.LayerNorm`.  Weights are seeded per layer,
    so two constructions with equal ``(spec, seed)`` are identical — the
    :class:`ModelExecutor` reads this stack's parameter arrays directly.
    """

    def __init__(self, spec: ModelSpec, model_plan: ModelPlan, seed: int = 0):
        super().__init__()
        if model_plan.spec is not spec and model_plan.spec.fingerprint() != spec.fingerprint():
            raise ValueError("model_plan was compiled for a different spec")
        self.spec = spec
        dim = spec.hidden_dim
        self.layers = [
            EncoderLayer(
                dim,
                PlanAttention(
                    dim,
                    spec.num_heads,
                    model_plan.plan_for_layer(layer),
                    seed=seed + 10 * (layer + 1),
                ),
                spec.mlp_dim,
                dropout_rate=0.0,
                seed=seed + 10 * (layer + 1) + 5,
            )
            for layer in range(spec.num_layers)
        ]
        self.final_norm = LayerNorm(dim)
        self.eval()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run one forward over embeddings ``(seq_len, hidden_dim)``."""
        state = Tensor(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            state = layer(state)
        return self.final_norm(state).data


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Numpy mirror of :class:`~repro.nn.layers.LayerNorm` (exact op order).

    ``Tensor.mean`` computes ``sum * (1 / n)`` — not ``np.mean``'s
    ``sum / n`` — and the mirror must round identically.  The
    element-wise tail runs in place on the centred copy; ``x`` is not
    modified.
    """
    inv_n = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * inv_n
    centred = x - mean
    variance = (centred * centred).sum(axis=-1, keepdims=True) * inv_n
    centred /= (variance + eps) ** 0.5
    centred *= gamma
    centred += beta
    return centred


def _gelu(x: np.ndarray) -> np.ndarray:
    """Numpy mirror of :func:`repro.nn.functional.gelu` (exact association).

    Runs in one scratch array: IEEE addition and multiplication are
    commutative, so ``cubic * c + x`` and ``t * x`` round exactly as the
    reference's ``x + cubic * c`` and ``x * t``.
    """
    out = x * x
    out *= x  # cubic
    out *= 0.044715
    out += x
    out *= np.sqrt(2.0 / np.pi)  # inner
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def _project(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map applied per batch item.

    The 2-D GEMM of each item is issued exactly as the reference issues it —
    never folded into one taller GEMM, whose BLAS kernel selection could
    round differently and break batch-vs-solo bit-identity.
    """
    if x.ndim == 2:
        out = x @ weight
        out += bias
        return out
    out = np.empty(x.shape[:-1] + (weight.shape[1],), dtype=np.float64)
    for item in range(x.shape[0]):
        np.add(x[item] @ weight, bias, out=out[item])
    return out


class ModelExecutor:
    """Execute and price whole-model forwards over a compiled :class:`ModelPlan`.

    The functional path runs each layer's attention as one stacked pass over
    the layer's shared plan — ``(H, seq, head_dim)`` for a single forward,
    ``(B, H, seq, head_dim)`` for a batch of same-spec forwards
    (:meth:`forward_batch`) — with MLP/residual/norm as numpy mirrors of the
    :mod:`repro.nn.functional` ops.  Outputs are bit-identical to
    :meth:`reference_forward`, the layer-by-layer module stack.

    Pricing delegates to the :class:`~repro.model.plan.ModelPlan` aggregates
    (per-layer + total cycles, bytes moved, per-layer energy hooks).
    """

    def __init__(
        self,
        spec: ModelSpec,
        base_config: "SWATConfig | None" = None,
        plan_cache=None,
        weight_seed: int = 0,
    ):
        self.spec = spec
        self.base_config = base_config if base_config is not None else SWATConfig()
        self.model_plan = ModelPlanCompiler(
            base_config=self.base_config, plan_cache=plan_cache
        ).compile(spec)
        self.weight_seed = weight_seed
        self.reference = ReferenceEncoder(spec, self.model_plan, seed=weight_seed)

    # ------------------------------------------------------------------ #
    # Functional execution
    # ------------------------------------------------------------------ #

    def reference_forward(self, x: np.ndarray) -> np.ndarray:
        """The layer-by-layer, head-by-head reference forward."""
        return self.reference.forward(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One forward over embeddings ``(seq_len, hidden_dim)`` (stacked path)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (seq_len, hidden_dim), got {x.ndim}-D")
        return self._forward_stacked(x[None])[0]

    def forward_batch(self, xs: np.ndarray) -> np.ndarray:
        """A batch of same-spec forwards ``(B, seq_len, hidden_dim)``.

        All ``B x H`` heads of each layer execute as one stacked pass over
        the layer's plan; every item's output is bit-identical to its solo
        :meth:`forward`.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 3:
            raise ValueError(f"xs must be 3-D (batch, seq_len, hidden_dim), got {xs.ndim}-D")
        return self._forward_stacked(xs)

    def _forward_stacked(self, xs: np.ndarray) -> np.ndarray:
        spec = self.spec
        seq_len, dim = spec.seq_len, spec.hidden_dim
        if xs.shape[1:] != (seq_len, dim):
            raise ValueError(
                f"embeddings shaped {xs.shape[1:]} do not match spec ({seq_len}, {dim})"
            )
        batch = xs.shape[0]
        state = np.ascontiguousarray(xs)
        for index, layer in enumerate(self.reference.layers):
            mixer = layer.mixer
            normed = _layer_norm(
                state,
                layer.norm_attention.gamma.data,
                layer.norm_attention.beta.data,
                layer.norm_attention.eps,
            )
            qkv = _project(normed, mixer.qkv_proj.weight.data, mixer.qkv_proj.bias.data)
            heads = qkv.reshape(batch, seq_len, 3, spec.num_heads, spec.head_dim)
            heads = heads.transpose(2, 0, 3, 1, 4)  # (3, B, H, seq, head_dim)
            context = execute_plan_attention(
                self.model_plan.plan_for_layer(index),
                heads[0],
                heads[1],
                heads[2],
                scale=mixer.scale,
            )
            context = context.transpose(0, 2, 1, 3).reshape(batch, seq_len, dim)
            attention = _project(
                context, mixer.out_proj.weight.data, mixer.out_proj.bias.data
            )
            state = state + attention
            normed = _layer_norm(
                state,
                layer.norm_ffn.gamma.data,
                layer.norm_ffn.beta.data,
                layer.norm_ffn.eps,
            )
            hidden = _gelu(
                _project(normed, layer.ffn.input_proj.weight.data, layer.ffn.input_proj.bias.data)
            )
            state = state + _project(
                hidden, layer.ffn.output_proj.weight.data, layer.ffn.output_proj.bias.data
            )
        final = self.reference.final_norm
        return _layer_norm(state, final.gamma.data, final.beta.data, final.eps)

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    @property
    def total_cycles(self) -> int:
        """Accelerator cycles of one forward's attention (fills included)."""
        return self.model_plan.total_cycles

    @property
    def total_seconds(self) -> float:
        """Modelled accelerator seconds of one forward's attention."""
        return self.model_plan.total_seconds

    @property
    def total_kv_bytes(self) -> int:
        """Off-chip attention traffic of one forward."""
        return self.model_plan.total_kv_bytes

    @property
    def total_energy_joules(self) -> float:
        """Modelled attention energy of one forward."""
        return self.model_plan.total_energy_joules

    def describe(self) -> str:
        """One-line summary used by the demo CLI and examples."""
        plan = self.model_plan
        return (
            f"{self.spec.describe()}; {plan.num_shapes} compiled plan(s), "
            f"{plan.total_cycles} cycles, {plan.total_kv_bytes} bytes/forward"
        )
