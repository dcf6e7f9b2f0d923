"""Property suite for the batched functional pass behind retirement.

The load-bearing contract of the batch-axis refactor: executing a batch of
retirees as stacked ``(config, seq_len)`` tensor programs
(:meth:`~repro.serving.backends.AttentionBackend.compute_outputs`) must be
*bit-identical* to the per-request / per-head executor loop it replaced, for
any mix of sequence lengths, head counts, stacked multi-head data and
interleaved non-functional requests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.core.plan import execute_plan_attention
from repro.serving.backends import (
    Residents,
    available_backends,
    batch_head_rows,
    create_backend,
    indexed_seq_len_groups,
)
from repro.serving.cache import PlanCache
from repro.serving.continuous import serve_continuous
from repro.serving.request import AttentionRequest
from repro.workload.generator import attention_inputs

HEAD_DIM = 8


def _config(window_tokens=8, num_global=0, num_random=0):
    return SWATConfig(
        head_dim=HEAD_DIM,
        window_tokens=window_tokens,
        num_global_tokens=num_global,
        num_random_tokens=num_random,
    )


# One request spec: (seq_len, kind, num_heads, data seed).  Sequence lengths
# repeat and differ so one batch mixes several exact shapes.
request_strategy = st.tuples(
    st.integers(3, 40),
    st.sampled_from(["analytical", "single", "declared-heads", "stacked-heads"]),
    st.integers(1, 3),
    st.integers(0, 2**16),
)

config_strategy = st.builds(
    _config,
    window_tokens=st.sampled_from([4, 8]),
    num_global=st.integers(0, 3),
    num_random=st.integers(0, 2),
)


def _build_request(seq_len, kind, num_heads, seed):
    if kind == "analytical":
        return AttentionRequest(seq_len=seq_len, num_heads=num_heads)
    if kind == "stacked-heads":
        heads = [attention_inputs(seq_len, HEAD_DIM, seed=seed + h) for h in range(num_heads)]
        q, k, v = (np.stack([head[axis] for head in heads]) for axis in range(3))
        return AttentionRequest(seq_len=seq_len, q=q, k=k, v=v, num_heads=num_heads)
    q, k, v = attention_inputs(seq_len, HEAD_DIM, seed=seed)
    heads = num_heads if kind == "declared-heads" else 1
    return AttentionRequest(seq_len=seq_len, q=q, k=k, v=v, num_heads=heads)


def _per_request_reference(config, plan_cache, request):
    """The pre-refactor execution shape: one executor call per head."""
    if not request.is_functional:
        return None
    plan = plan_cache.plan(config, request.seq_len)
    scale = 1.0 / np.sqrt(config.head_dim)
    if request.q.ndim == 2:
        return execute_plan_attention(plan, request.q, request.k, request.v, scale=scale)
    return np.stack(
        [
            execute_plan_attention(plan, request.q[h], request.k[h], request.v[h], scale=scale)
            for h in range(request.q.shape[0])
        ]
    )


class TestBatchedDispatchBitIdentity:
    @given(config=config_strategy, specs=st.lists(request_strategy, min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_mixed_bucket_batch_matches_per_request_loop(self, config, specs):
        requests = [_build_request(*spec) for spec in specs]
        cache = PlanCache()
        simulator = create_backend("simulator", config=config, plan_cache=cache)
        outputs = simulator.compute_outputs(requests)
        assert len(outputs) == len(requests)
        for request, output in zip(requests, outputs):
            reference = _per_request_reference(config, cache, request)
            if reference is None:
                assert output is None
            else:
                assert np.array_equal(output, reference)

    @given(specs=st.lists(request_strategy, min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_head_rows_consistent_across_all_backends(self, specs):
        config = _config(window_tokens=8)
        requests = [_build_request(*spec) for spec in specs]
        expected = batch_head_rows(requests)
        for name in available_backends():
            result = serve_continuous(
                requests, config=config, backend=name, max_batch_size=4, iteration_rows=16
            )
            assert result.stats.total_head_rows == expected, name
            assert len(result.completed) == len(requests), name


class TestSeqLenGroups:
    def test_partition_preserves_order_and_indices(self):
        requests = [
            AttentionRequest(seq_len=20),
            AttentionRequest(seq_len=24),
            AttentionRequest(seq_len=20, num_heads=2),
        ]
        groups = indexed_seq_len_groups(enumerate(requests))
        assert list(groups) == [20, 24]
        assert [(i, r.request_id) for i, r in groups[20]] == [
            (0, requests[0].request_id),
            (2, requests[2].request_id),
        ]

    def test_one_plan_resolution_per_distinct_shape(self):
        config = _config()
        cache = PlanCache()
        backend = create_backend("simulator", config=config, plan_cache=cache)
        requests = [
            AttentionRequest(seq_len=20, q=q, k=k, v=v)
            for q, k, v in (attention_inputs(20, HEAD_DIM, seed=s) for s in range(4))
        ] + [AttentionRequest(seq_len=24)]
        backend.compute_outputs(requests)
        counters = cache.counters()
        # 2 distinct shapes -> 2 lookups total, regardless of batch size.
        assert counters["hits"] + counters["misses"] == 2


class TestDeclaredHeads:
    def test_declared_heads_are_priced_not_executed(self, monkeypatch):
        """One head of data declared as three: the executor runs the head it
        was given once, while pricing and accounting cover all three."""
        import repro.core.plan as plan_module

        config = _config()
        executed_heads = []
        original = plan_module.PlanBatch.execute

        def spy(self, *args, **kwargs):
            executed_heads.append(self.num_heads)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(plan_module.PlanBatch, "execute", spy)
        q, k, v = attention_inputs(16, HEAD_DIM, seed=0)
        request = AttentionRequest(seq_len=16, q=q, k=k, v=v, num_heads=3)
        result = serve_continuous([request], config=config, backend="simulator")
        assert executed_heads == [1]
        assert result.completed[0].output.shape == (16, HEAD_DIM)
        assert result.stats.total_head_rows == 3 * 16
        pipeline = create_backend("analytical", config=config).simulator.pipeline
        ticks = sum(record.ticks for record in result.bursts)
        assert ticks == pipeline.cycles_for_rows(3 * 16)


class TestGPUShapeReports:
    def test_gpu_runner_called_once_per_distinct_shape(self):
        """One runner call per distinct (seq_len, items) report, however many
        bursts price it."""
        backend = create_backend("gpu-dense", config=_config())
        calls = []
        original = backend.runner.run_batch

        def spy(seq_len, items):
            calls.append((seq_len, items))
            return original(seq_len, items=items)

        backend.runner.run_batch = spy
        requests = [
            AttentionRequest(seq_len=128, num_heads=2),
            AttentionRequest(seq_len=256),
            AttentionRequest(seq_len=128, num_heads=3),
            AttentionRequest(seq_len=128, num_heads=2),
        ]
        for rows_done in (0, 16, 64):
            slices = [
                (request, rows_done, backend.program(request).total_rows - rows_done)
                for request in requests
            ]
            for primed in (False, True):
                backend.step_burst(Residents.from_slices(slices, backend.program), primed, 16)
        assert calls == [(128, 2), (256, 1), (128, 3)]


class TestNoFunctionalPythonLoop:
    def test_functional_dispatch_is_one_stacked_call_per_group(self, monkeypatch):
        """Count executor entries: groups, not requests, drive the dispatch."""
        import repro.core.plan as plan_module

        config = _config()
        entries = []
        original = plan_module.PlanBatch.execute

        def spy(self, *args, **kwargs):
            entries.append((self.seq_len, self.num_items, self.num_heads))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(plan_module.PlanBatch, "execute", spy)
        requests = [
            AttentionRequest(seq_len=20, q=q, k=k, v=v)
            for q, k, v in (attention_inputs(20, HEAD_DIM, seed=s) for s in range(6))
        ] + [
            AttentionRequest(seq_len=24, q=q2, k=k2, v=v2)
            for q2, k2, v2 in [attention_inputs(24, HEAD_DIM, seed=9)]
        ]
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        backend.compute_outputs(requests)
        # 7 requests, 2 shapes -> exactly 2 stacked executor entries.
        assert entries == [(20, 6, 6), (24, 1, 1)]


@pytest.mark.parametrize("ndim_heads", [1, 4])
def test_request_data_heads_and_validation(ndim_heads):
    q, k, v = attention_inputs(12, HEAD_DIM, seed=0)
    if ndim_heads == 1:
        request = AttentionRequest(seq_len=12, q=q, k=k, v=v, num_heads=5)
        assert request.data_heads == 1
        assert request.num_heads == 5
    else:
        stack = tuple(np.stack([axis] * ndim_heads) for axis in (q, k, v))
        request = AttentionRequest(seq_len=12, q=stack[0], k=stack[1], v=stack[2])
        assert request.data_heads == ndim_heads
        assert request.num_heads == ndim_heads  # adopted from the stack depth
        with pytest.raises(ValueError, match="stacks 4 heads"):
            AttentionRequest(seq_len=12, q=stack[0], k=stack[1], v=stack[2], num_heads=2)
