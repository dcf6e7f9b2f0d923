"""Property suite for ModelSpec and the compiled whole-forward ModelPlan.

The load-bearing contracts:

* **Dedup** — layers sharing an attention geometry share one compiled
  execution plan (and the shared plan cache pays one build per shape).
* **Conservation** — the per-layer shape groups partition the model: total
  cycles/bytes/energy equal the sum over groups, and any cold-start slicing
  of the model-wide row axis sums its ``span_cycles`` exactly to
  ``total_cycles`` (no fill charged twice, none dropped).
* **Consistency** — a uniform-geometry model's total cycles equal
  ``batch_attention_cycles`` of its layers streamed as one batch (one fill
  for the whole forward).
* **Grid** — every entry of a plan's memoised ``primed_grid`` equals the
  scalar primed ``span_cycles`` of its quantum-aligned span.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel
from repro.model import LayerGeometry, ModelPlanCompiler, ModelSpec, compile_decode_plan
from repro.serving.cache import PlanCache
from repro.serving.request import decode_block_schedule

HEAD_DIM = 8

#: A small palette of layer geometries; draws repeat entries, covering the
#: shared-shape edge (all layers equal) through the all-distinct edge.
GEOMETRIES = (
    LayerGeometry(window_tokens=8),
    LayerGeometry(window_tokens=16),
    LayerGeometry(window_tokens=8, num_global_tokens=2),
    LayerGeometry(window_tokens=8, num_global_tokens=2, num_random_tokens=2, random_seed=7),
)

spec_strategy = st.builds(
    ModelSpec,
    seq_len=st.sampled_from([5, 16, 24, 33]),
    layers=st.lists(st.sampled_from(GEOMETRIES), min_size=1, max_size=5).map(tuple),
    num_heads=st.integers(1, 3),
    head_dim=st.just(HEAD_DIM),
)


def _config(**overrides):
    defaults = dict(head_dim=HEAD_DIM, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestModelSpec:
    def test_uniform_builds_shared_shape_layers(self):
        spec = ModelSpec.uniform(4, 64, window_tokens=16, num_heads=2, head_dim=HEAD_DIM)
        assert spec.num_layers == 4
        assert len({layer.fingerprint() for layer in spec.layers}) == 1
        assert spec.hidden_dim == 2 * HEAD_DIM
        assert spec.mlp_dim == 4 * spec.hidden_dim
        assert spec.head_rows == 4 * 2 * 64

    def test_layer_config_grafts_geometry_onto_base(self):
        spec = ModelSpec(
            seq_len=32,
            layers=(LayerGeometry(16, 2, 2, 5), LayerGeometry(8)),
            num_heads=2,
            head_dim=HEAD_DIM,
        )
        base = SWATConfig(head_dim=64, window_tokens=512, num_pipelines=2)
        config = spec.layer_config(0, base=base)
        assert config.window_tokens == 16
        assert config.num_global_tokens == 2
        assert config.num_random_tokens == 2
        assert config.random_seed == 5
        assert config.head_dim == HEAD_DIM  # the spec's data shape wins
        assert config.num_pipelines == 2  # the base datapath survives

    def test_fingerprint_distinguishes_shapes(self):
        a = ModelSpec.uniform(2, 32, window_tokens=8, head_dim=HEAD_DIM)
        b = ModelSpec.uniform(2, 32, window_tokens=16, head_dim=HEAD_DIM)
        c = ModelSpec.uniform(3, 32, window_tokens=8, head_dim=HEAD_DIM)
        twin = ModelSpec.uniform(2, 32, window_tokens=8, head_dim=HEAD_DIM)
        assert a.fingerprint() == twin.fingerprint()
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seq_len=0, layers=(LayerGeometry(8),)),
            dict(seq_len=8, layers=()),
            dict(seq_len=8, layers=(LayerGeometry(8),), num_heads=0),
            dict(seq_len=8, layers=(LayerGeometry(8),), mlp_dim=0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LayerGeometry(window_tokens=7)


class TestModelPlanCompilation:
    @settings(deadline=None, max_examples=40)
    @given(spec=spec_strategy)
    def test_groups_partition_layers_and_conserve_totals(self, spec):
        plan = ModelPlanCompiler(base_config=_config()).compile(spec)
        covered = sorted(layer for group in plan.groups for layer in group.layer_indices)
        assert covered == list(range(spec.num_layers))
        assert plan.num_shapes == len({g.fingerprint() for g in spec.layers})
        assert plan.total_cycles == sum(group.cycles for group in plan.groups)
        assert plan.total_kv_bytes == sum(group.kv_bytes for group in plan.groups)
        assert plan.total_energy_joules == pytest.approx(
            sum(group.energy_joules for group in plan.groups)
        )
        # Prefix sums are genuine prefixes of the per-layer vectors.
        assert np.array_equal(np.diff(plan.cum_cycles), plan.layer_cycles)
        assert np.array_equal(np.diff(plan.cum_kv_bytes), plan.layer_kv_bytes)
        assert np.array_equal(np.diff(plan.cum_rows), plan.rows_per_layer)

    @settings(deadline=None, max_examples=40)
    @given(spec=spec_strategy, seed=st.integers(0, 2**16))
    def test_cold_start_slicing_conserves_cycles(self, spec, seed):
        """Any slicing of the row axis sums span_cycles to total_cycles."""
        plan = ModelPlanCompiler(base_config=_config()).compile(spec)
        rng = np.random.default_rng(seed)
        cuts = np.unique(rng.integers(1, plan.total_rows, size=4)) if plan.total_rows > 1 else []
        bounds = [0, *cuts, plan.total_rows]
        total = sum(
            plan.span_cycles(lo, hi, primed=(index > 0))
            for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        )
        assert total == plan.total_cycles

    def test_layers_share_one_plan_object_per_shape(self):
        spec = ModelSpec.uniform(5, 48, window_tokens=8, head_dim=HEAD_DIM)
        plan = ModelPlanCompiler(base_config=_config()).compile(spec)
        assert plan.num_shapes == 1
        assert all(
            plan.plan_for_layer(layer) is plan.plan_for_layer(0)
            for layer in range(spec.num_layers)
        )

    def test_shared_cache_pays_one_build_per_shape(self):
        cache = PlanCache()
        spec = ModelSpec(
            seq_len=48,
            layers=(GEOMETRIES[0], GEOMETRIES[1], GEOMETRIES[0], GEOMETRIES[0]),
            head_dim=HEAD_DIM,
        )
        ModelPlanCompiler(base_config=_config(), plan_cache=cache).compile(spec)
        counters = cache.counters()
        assert counters["misses"] == 2  # two distinct shapes compiled once
        # Recompiling the same spec hits the cache for every shape.
        ModelPlanCompiler(base_config=_config(), plan_cache=cache).compile(spec)
        assert cache.counters()["misses"] == 2
        assert cache.counters()["hits"] == 2

    def test_uniform_model_matches_batched_attention_pricing(self):
        """One fill for the whole forward: L layers == one drained batch."""
        spec = ModelSpec.uniform(6, 64, window_tokens=8, num_heads=2, head_dim=HEAD_DIM)
        config = _config()
        plan = ModelPlanCompiler(base_config=config).compile(spec)
        pipeline = SWATPipelineModel(spec.layer_config(0, base=config))
        expected = pipeline.batch_attention_cycles(
            [(spec.seq_len, spec.num_heads)] * spec.num_layers
        )
        assert plan.total_cycles == expected

    def test_geometry_switches_pay_refills(self):
        """Alternating geometries cost more than the same layers grouped."""
        alternating = ModelSpec(
            seq_len=32,
            layers=(GEOMETRIES[0], GEOMETRIES[1], GEOMETRIES[0], GEOMETRIES[1]),
            head_dim=HEAD_DIM,
        )
        grouped = ModelSpec(
            seq_len=32,
            layers=(GEOMETRIES[0], GEOMETRIES[0], GEOMETRIES[1], GEOMETRIES[1]),
            head_dim=HEAD_DIM,
        )
        compiler = ModelPlanCompiler(base_config=_config())
        assert compiler.compile(alternating).total_cycles > compiler.compile(grouped).total_cycles
        # Same shapes either way: identical traffic, identical group count.
        assert (
            compiler.compile(alternating).total_kv_bytes
            == compiler.compile(grouped).total_kv_bytes
        )

    def test_span_cycles_rejects_bad_ranges(self):
        spec = ModelSpec.uniform(2, 16, window_tokens=8, head_dim=HEAD_DIM)
        plan = ModelPlanCompiler(base_config=_config()).compile(spec)
        with pytest.raises(ValueError):
            plan.span_cycles(0, 0, primed=False)
        with pytest.raises(ValueError):
            plan.span_cycles(0, plan.total_rows + 1, primed=False)


class TestPrimedGrid:
    """Every grid entry is the primed price of its quantum-aligned span."""

    @settings(deadline=None, max_examples=15)
    @given(
        seq_len=st.sampled_from([5, 16, 33]),
        num_layers=st.integers(1, 4),
        num_heads=st.integers(1, 3),
        alternating=st.booleans(),
        new_tokens=st.integers(1, 6),
        block_size=st.integers(1, 4),
        adaptive=st.booleans(),
    )
    @pytest.mark.parametrize("quantum", [1, 7, 16, 1000])
    def test_entries_equal_primed_span_cycles(
        self, quantum, seq_len, num_layers, num_heads, alternating, new_tokens, block_size, adaptive
    ):
        layers = tuple(GEOMETRIES[layer % 2 if alternating else 0] for layer in range(num_layers))
        spec = ModelSpec(seq_len=seq_len, layers=layers, num_heads=num_heads, head_dim=HEAD_DIM)
        model = ModelPlanCompiler(base_config=_config()).compile(spec)
        blocks = decode_block_schedule(new_tokens, block_size, adaptive)
        for plan in (model, compile_decode_plan(model, blocks)):
            total = plan.total_rows
            for phase in range(min(quantum, total)):
                grid = plan.primed_grid(quantum, phase)
                lows = range(phase, total, quantum)
                expected = [plan.span_cycles(lo, min(lo + quantum, total), True) for lo in lows]
                assert grid.tolist() == expected
                assert plan.primed_grid(quantum, phase) is grid
                assert not grid.flags.writeable
