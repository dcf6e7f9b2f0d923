"""Bit-identity suite for the whole-model executor.

The acceptance property of the ``repro.model`` subsystem: the stacked
:class:`~repro.model.executor.ModelExecutor` forward — one pass over each
layer's shared plan covering all heads (and, batched, all requests) — is
**bit-identical** to the layer-by-layer, head-by-head :mod:`repro.nn`
reference stack, for random specs spanning the shared-shape and
all-distinct-shape edges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.model import LayerGeometry, ModelExecutor, ModelSpec, forward_inputs
from repro.serving.cache import PlanCache

HEAD_DIM = 8

GEOMETRIES = (
    LayerGeometry(window_tokens=8),
    LayerGeometry(window_tokens=16),
    LayerGeometry(window_tokens=8, num_global_tokens=2),
    LayerGeometry(window_tokens=8, num_global_tokens=2, num_random_tokens=2, random_seed=7),
)

spec_strategy = st.builds(
    ModelSpec,
    seq_len=st.sampled_from([5, 16, 24, 33, 70, 97]),
    layers=st.lists(st.sampled_from(GEOMETRIES), min_size=1, max_size=4).map(tuple),
    num_heads=st.integers(1, 3),
    head_dim=st.just(HEAD_DIM),
)


def _config(**overrides):
    defaults = dict(head_dim=HEAD_DIM, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestForwardBitIdentity:
    @settings(deadline=None, max_examples=25)
    @given(spec=spec_strategy, data_seed=st.integers(0, 2**16))
    def test_stacked_forward_matches_layerwise_reference(self, spec, data_seed):
        executor = ModelExecutor(spec, base_config=_config())
        x = forward_inputs(spec, seed=data_seed)
        assert np.array_equal(executor.forward(x), executor.reference_forward(x))

    def test_shared_shape_edge(self):
        """All layers one geometry: one compiled plan, still bit-identical."""
        spec = ModelSpec.uniform(4, 24, window_tokens=8, num_heads=2, head_dim=HEAD_DIM)
        executor = ModelExecutor(spec, base_config=_config())
        assert executor.model_plan.num_shapes == 1
        x = forward_inputs(spec, seed=3)
        assert np.array_equal(executor.forward(x), executor.reference_forward(x))

    def test_all_distinct_shape_edge(self):
        """Every layer its own geometry: one plan each, still bit-identical."""
        spec = ModelSpec(seq_len=24, layers=GEOMETRIES, num_heads=2, head_dim=HEAD_DIM)
        executor = ModelExecutor(spec, base_config=_config())
        assert executor.model_plan.num_shapes == len(GEOMETRIES)
        x = forward_inputs(spec, seed=3)
        assert np.array_equal(executor.forward(x), executor.reference_forward(x))

    @settings(deadline=None, max_examples=15)
    @given(spec=spec_strategy, data_seed=st.integers(0, 2**16), batch=st.integers(2, 4))
    def test_forward_batch_matches_solo_forwards(self, spec, data_seed, batch):
        """B stacked forwards are bit-identical to B solo forwards."""
        executor = ModelExecutor(spec, base_config=_config())
        xs = np.stack([forward_inputs(spec, seed=data_seed + item) for item in range(batch)])
        stacked = executor.forward_batch(xs)
        for item in range(batch):
            assert np.array_equal(stacked[item], executor.forward(xs[item]))


class TestExecutorDeterminism:
    def test_same_seed_same_weights_same_output(self):
        spec = ModelSpec.uniform(2, 16, window_tokens=8, head_dim=HEAD_DIM)
        x = forward_inputs(spec, seed=0)
        a = ModelExecutor(spec, base_config=_config(), weight_seed=11)
        b = ModelExecutor(spec, base_config=_config(), weight_seed=11)
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_weight_seed_changes_the_model(self):
        spec = ModelSpec.uniform(2, 16, window_tokens=8, head_dim=HEAD_DIM)
        x = forward_inputs(spec, seed=0)
        a = ModelExecutor(spec, base_config=_config(), weight_seed=0)
        b = ModelExecutor(spec, base_config=_config(), weight_seed=1)
        assert not np.array_equal(a.forward(x), b.forward(x))

    def test_cached_plans_change_no_bits(self):
        """Executing through a shared PlanCache is bit-identical to cacheless."""
        spec = ModelSpec(
            seq_len=24, layers=(GEOMETRIES[0], GEOMETRIES[3]), num_heads=2, head_dim=HEAD_DIM
        )
        x = forward_inputs(spec, seed=5)
        cacheless = ModelExecutor(spec, base_config=_config())
        cached = ModelExecutor(spec, base_config=_config(), plan_cache=PlanCache())
        assert np.array_equal(cacheless.forward(x), cached.forward(x))

    def test_pricing_properties_delegate_to_plan(self):
        spec = ModelSpec.uniform(3, 16, window_tokens=8, head_dim=HEAD_DIM)
        executor = ModelExecutor(spec, base_config=_config())
        plan = executor.model_plan
        assert executor.total_cycles == plan.total_cycles
        assert executor.total_seconds == plan.total_seconds
        assert executor.total_kv_bytes == plan.total_kv_bytes
        assert executor.total_energy_joules == plan.total_energy_joules
        assert str(spec.num_layers) in executor.describe()
