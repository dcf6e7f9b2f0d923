"""Model specification: the whole-forward shape the plan compiler consumes.

A served transformer forward is ``num_layers`` encoder layers, each running
``num_heads`` attention heads over the same ``seq_len`` plus an MLP block.
:class:`ModelSpec` captures exactly the parameters that fix a forward's
*execution shape* — per-layer attention geometry (window / global / random
token budgets), the model-wide head count and head dimensionality, the MLP
width and the sequence length — without carrying weights or data.  Everything
downstream derives from it deterministically:

* :class:`~repro.model.plan.ModelPlanCompiler` maps each layer to a
  :class:`~repro.core.config.SWATConfig` via :meth:`ModelSpec.layer_config`
  and deduplicates the compiled per-shape execution plans;
* :class:`~repro.model.executor.ModelExecutor` builds seeded weights of the
  spec's dimensions and runs the forward;
* the serving layer's ``ForwardRequest`` carries a spec (plus optional input
  embeddings) instead of raw Q/K/V, so one request prices and executes an
  entire forward pass.

The spec deliberately does **not** fix the datapath (precision, clock,
pipeline replication): those belong to the accelerator a forward is served
*on*, so :meth:`layer_config` grafts the per-layer schedule geometry onto a
caller-supplied base :class:`~repro.core.config.SWATConfig` — the serving
backends pass their own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import index

from repro.core.config import SWATConfig

__all__ = ["LayerGeometry", "ModelSpec", "whole_size"]

#: Why each request-shape size must be a whole number, for :func:`whole_size`.
_WHOLE_SIZES = {
    "seq_len": "the pipeline streams whole token rows",
    "num_heads": "every head is a whole stream of rows, spread over whole pipelines",
    "head_dim": "a head vector holds whole elements",
    "mlp_dim": "an MLP layer holds whole units",
    "new_tokens": "a decode generates whole tokens",
    "block_size": "a decode step finalises whole tokens",
}


def whole_size(name: str, value) -> int:
    """``value`` as a plain ``int``, or a ``TypeError`` naming the size and why.

    The one check every request shape runs on its sizes (``name`` is a key
    of ``_WHOLE_SIZES``).  A ``bool`` or a non-integral value (``40.5``,
    ``16.0``) is rejected; numpy integers are normalised with
    :func:`operator.index`, so no numpy scalar reaches the modelled numbers.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise TypeError(
        f"{name} must be an integer, got {value!r} ({type(value).__name__}): {_WHOLE_SIZES[name]}"
    )


@dataclass(frozen=True)
class LayerGeometry:
    """Attention-schedule geometry of one encoder layer.

    The fields mirror the schedule-relevant knobs of
    :class:`~repro.core.config.SWATConfig`: two layers with equal geometry
    (and equal ``seq_len``/``head_dim``) share one compiled execution plan.
    """

    window_tokens: int
    num_global_tokens: int = 0
    num_random_tokens: int = 0
    random_seed: int = 0

    def __post_init__(self) -> None:
        if self.window_tokens <= 0 or self.window_tokens % 2 != 0:
            raise ValueError(
                f"window_tokens (2w) must be positive and even, got {self.window_tokens}"
            )
        if self.num_global_tokens < 0 or self.num_random_tokens < 0:
            raise ValueError("global/random token counts must be non-negative")

    def fingerprint(self) -> "tuple[object, ...]":
        """Hashable identity of this geometry (a slice of the plan-cache key)."""
        return (
            self.window_tokens,
            self.num_global_tokens,
            self.num_random_tokens,
            self.random_seed,
        )


@dataclass(frozen=True)
class ModelSpec:
    """The execution shape of one whole transformer forward.

    Attributes
    ----------
    seq_len:
        Tokens per forward (every layer attends the same rows).
    layers:
        Per-layer attention geometry; ``len(layers)`` is the model depth.
    num_heads:
        Attention heads per layer (model-wide — the hidden dimension is
        ``num_heads * head_dim`` and must be constant for the residuals).
    head_dim:
        Head dimensionality ``H``.
    mlp_dim:
        Width of the position-wise MLP (defaults to ``4 * hidden_dim``).
    """

    seq_len: int
    layers: "tuple[LayerGeometry, ...]"
    num_heads: int = 4
    head_dim: int = 64
    mlp_dim: "int | None" = None

    def __post_init__(self) -> None:
        for name in ("seq_len", "num_heads", "head_dim"):
            object.__setattr__(self, name, whole_size(name, getattr(self, name)))
        if self.mlp_dim is not None:
            object.__setattr__(self, "mlp_dim", whole_size("mlp_dim", self.mlp_dim))
        if self.seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {self.seq_len}")
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        if not all(isinstance(layer, LayerGeometry) for layer in self.layers):
            raise TypeError("layers must be LayerGeometry instances")
        if self.num_heads <= 0 or self.head_dim <= 0:
            raise ValueError("num_heads and head_dim must be positive")
        if self.mlp_dim is None:
            object.__setattr__(self, "mlp_dim", 4 * self.hidden_dim)
        elif self.mlp_dim <= 0:
            raise ValueError(f"mlp_dim must be positive, got {self.mlp_dim}")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        """Model depth."""
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        """Residual-stream width ``num_heads * head_dim``."""
        return self.num_heads * self.head_dim

    @property
    def head_rows(self) -> int:
        """Accounted ``num_layers * num_heads * seq_len`` work units of one forward."""
        return self.num_layers * self.num_heads * self.seq_len

    def layer_config(self, index: int, base: "SWATConfig | None" = None) -> SWATConfig:
        """The :class:`~repro.core.config.SWATConfig` of layer ``index``.

        The layer's schedule geometry is grafted onto ``base`` (which supplies
        the datapath: precision, clock, pipeline replication, device); the
        spec's ``head_dim`` always wins because the data shapes depend on it.
        """
        if not 0 <= index < self.num_layers:
            raise ValueError(f"layer index {index} out of range [0, {self.num_layers})")
        base = base if base is not None else SWATConfig()
        layer = self.layers[index]
        return replace(
            base,
            head_dim=self.head_dim,
            window_tokens=layer.window_tokens,
            num_global_tokens=layer.num_global_tokens,
            num_random_tokens=layer.num_random_tokens,
            random_seed=layer.random_seed,
        )

    def fingerprint(self) -> "tuple[object, ...]":
        """Hashable identity of the execution shape (backend memoisation key)."""
        return (
            self.seq_len,
            self.num_heads,
            self.head_dim,
            self.mlp_dim,
            tuple(layer.fingerprint() for layer in self.layers),
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def uniform(
        cls,
        num_layers: int,
        seq_len: int,
        window_tokens: int = 128,
        num_global_tokens: int = 0,
        num_random_tokens: int = 0,
        random_seed: int = 0,
        **kwargs,
    ) -> "ModelSpec":
        """A depth-``num_layers`` model whose layers all share one geometry.

        The shared-shape case is the one whole-model plan compilation
        amortises hardest: all layers resolve to a single compiled plan.
        """
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        geometry = LayerGeometry(
            window_tokens=window_tokens,
            num_global_tokens=num_global_tokens,
            num_random_tokens=num_random_tokens,
            random_seed=random_seed,
        )
        return cls(seq_len=seq_len, layers=(geometry,) * num_layers, **kwargs)

    def describe(self) -> str:
        """One-line human-readable description used in reports and the CLI."""
        distinct = len({layer.fingerprint() for layer in self.layers})
        return (
            f"{self.num_layers} layers x {self.num_heads} heads, seq_len={self.seq_len}, "
            f"hidden={self.hidden_dim}, mlp={self.mlp_dim}, {distinct} distinct shape(s)"
        )
