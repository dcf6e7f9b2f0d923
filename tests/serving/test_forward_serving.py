"""Whole-model forwards through the serving layer, end to end.

The contracts carried from the attention path to :class:`ForwardRequest`:

* **Bit-identity** — drain-served forward outputs equal the solo
  :class:`~repro.model.executor.ModelExecutor` forward; continuous-mode
  outputs equal drain.
* **Accounting** — every backend reports the same ``total_head_rows`` for
  the same served forwards; SWAT pricing matches the compiled
  :class:`~repro.model.plan.ModelPlan`; a solo forward's iterations sum
  bit-exactly to its plan's cycles.
* **Scheduling** — admission/retirement lifecycles hold on every backend.
"""

import numpy as np
import pytest

from repro.core.config import SWATConfig
from repro.model import ModelExecutor, ModelSpec
from repro.serving.backends import available_backends, batch_head_rows, create_backend
from repro.serving.cache import PlanCache
from repro.serving.continuous import serve_continuous
from repro.serving.engine import ServingEngine
from repro.serving.request import ForwardRequest, make_forward_request, make_request

HEAD_DIM = 8


def _config(**overrides):
    defaults = dict(head_dim=HEAD_DIM, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


def _spec(num_layers=3, seq_len=24, **overrides):
    overrides.setdefault("window_tokens", 8)
    overrides.setdefault("num_heads", 2)
    overrides.setdefault("head_dim", HEAD_DIM)
    return ModelSpec.uniform(num_layers, seq_len, **overrides)


class TestForwardRequest:
    def test_properties_and_head_rows(self):
        spec = _spec()
        request = make_forward_request(spec, seed=1)
        assert request.is_functional
        assert request.seq_len == spec.seq_len
        assert request.num_heads == spec.num_heads
        assert request.num_layers == spec.num_layers
        assert request.head_rows == 3 * 2 * 24
        analytical = make_forward_request(spec, functional=False)
        assert not analytical.is_functional and analytical.x is None

    def test_embedding_shape_validated(self):
        spec = _spec()
        with pytest.raises(ValueError):
            ForwardRequest(spec=spec, x=np.zeros((spec.seq_len, spec.hidden_dim + 1)))
        with pytest.raises(TypeError):
            ForwardRequest(spec="not-a-spec")

    def test_attention_request_head_rows(self):
        request = make_request(16, HEAD_DIM, num_heads=3, functional=False)
        assert request.head_rows == 48


class TestDrainServing:
    def test_served_outputs_match_solo_executor(self):
        config = _config()
        spec = _spec()
        cache = PlanCache()
        requests = [make_forward_request(spec, seed=seed) for seed in range(6)]
        engine = ServingEngine(
            config=config, backend="simulator", num_shards=2, max_batch_size=4, plan_cache=cache
        )
        result = engine.serve(requests)
        executor = ModelExecutor(spec, base_config=config)
        for request, done in zip(requests, result.completed):
            assert done.request.request_id == request.request_id
            assert np.array_equal(done.output, executor.forward(request.x))

    def test_mixed_attention_and_forward_batch(self):
        """One batch mixing kinds: outputs line up, accounting sums."""
        config = _config()
        spec = _spec()
        attention = make_request(16, HEAD_DIM, seed=0, num_heads=2)
        forward = make_forward_request(spec, seed=1)
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        outputs = backend.compute_outputs([attention, forward])
        assert outputs[0].shape == (16, HEAD_DIM)
        assert outputs[1].shape == (spec.seq_len, spec.hidden_dim)
        served = serve_continuous(
            [attention, forward], config=config, backend="simulator", max_batch_size=2
        )
        assert served.stats.total_head_rows == attention.head_rows + forward.head_rows
        for output, done in zip(outputs, served.completed):
            assert np.array_equal(output, done.output)

    def test_head_rows_consistent_across_all_backends(self):
        config = _config()
        requests = [
            make_forward_request(_spec(), seed=1),
            make_forward_request(_spec(num_layers=2, seq_len=16), seed=2, functional=False),
        ]
        expected = batch_head_rows(requests)
        for name in available_backends():
            result = serve_continuous(list(requests), config=config, backend=name, max_batch_size=2)
            assert result.stats.total_head_rows == expected, name
            assert result.stats.device_makespan_seconds > 0, name

    def test_total_head_rows_counts_layers(self):
        config = _config()
        spec = _spec()
        requests = [make_forward_request(spec, functional=False) for _ in range(2)]
        result = serve_continuous(requests, config=config, backend="analytical", max_batch_size=2)
        assert spec.head_rows == spec.num_layers * spec.num_heads * spec.seq_len
        assert result.stats.total_head_rows == 2 * spec.head_rows

    def test_retirement_stacks_forwards_per_spec(self, monkeypatch):
        """Forwards of two specs and an attention of the same length share
        one drain batch; each spec's retirees run as one stacked forward and
        every output keeps its solo bits."""
        config = _config()
        spec_a, spec_b = _spec(), _spec(num_layers=2)
        requests = [
            make_forward_request(spec_a, seed=0),
            make_forward_request(spec_b, seed=1),
            make_forward_request(spec_a, seed=2),
            make_request(spec_a.seq_len, HEAD_DIM, seed=3),
        ]
        solo = [
            ModelExecutor(request.spec, base_config=config).forward(request.x)
            for request in requests[:3]
        ]
        stacked = []
        original = ModelExecutor.forward_batch

        def spy(self, xs):
            stacked.append((self.spec.num_layers, len(xs)))
            return original(self, xs)

        monkeypatch.setattr(ModelExecutor, "forward_batch", spy)
        result = serve_continuous(
            requests, config=config, backend="simulator", max_batch_size=4, admission="drain"
        )
        assert {done.admit_time for done in result.completed} == {0.0}
        assert sorted(stacked) == [(2, 1), (3, 2)]
        for reference, done in zip(solo, result.completed):
            assert np.array_equal(done.output, reference)
        assert result.completed[3].output.shape == (spec_a.seq_len, HEAD_DIM)

    def test_swat_pricing_reads_the_model_plan(self):
        config = _config()
        request = make_forward_request(_spec(), functional=False)
        backend = create_backend("analytical", config=config, plan_cache=PlanCache())
        plan = backend.model_plan(request)
        assert backend.program(request) is plan
        cost = backend.step([(plan, 0, plan.total_rows)], primed=False)
        assert cost.ticks == plan.total_cycles
        assert backend.time_base.seconds(cost.ticks) == plan.total_cycles * config.clock_period_s

    def test_model_registry_memoises_per_spec(self):
        config = _config()
        spec = _spec()
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        a = make_forward_request(spec, seed=0)
        b = make_forward_request(spec, seed=1)
        assert backend.model_plan(a) is backend.model_plan(b)
        assert backend.model_executor(a) is backend.model_executor(b)
        other = make_forward_request(spec, seed=0, weight_seed=9)
        assert backend.model_executor(other) is not backend.model_executor(a)
        assert backend.model_plan(other) is backend.model_plan(a)


class TestContinuousServing:
    def test_continuous_outputs_match_drain(self):
        config = _config()
        requests = [make_forward_request(_spec(), seed=seed) for seed in range(5)]
        drain = ServingEngine(
            config=config, backend="simulator", num_shards=1, max_batch_size=4
        ).serve(requests)
        continuous = serve_continuous(
            requests, config=config, backend="simulator", max_batch_size=4, iteration_rows=16
        )
        for a, b in zip(drain.completed, continuous.completed):
            assert a.request.request_id == b.request.request_id
            assert np.array_equal(a.output, b.output)

    def test_solo_forward_iterations_conserve_drain_cycles(self):
        """A lone forward's priced iterations sum to its ModelPlan total."""
        config = _config()
        spec = ModelSpec(
            seq_len=24,
            layers=_spec().layers + _spec(window_tokens=16).layers,
            num_heads=2,
            head_dim=HEAD_DIM,
        )
        request = make_forward_request(spec, functional=False)
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        plan = backend.model_plan(request)
        for iteration_rows in (7, 16, 64, 10_000):
            result = serve_continuous(
                [make_forward_request(spec, functional=False)],
                config=config,
                backend="simulator",
                max_batch_size=2,
                iteration_rows=iteration_rows,
            )
            assert sum(record.ticks for record in result.bursts) == plan.total_cycles

    def test_forward_lifecycle_and_gpu_backends(self):
        config = _config()
        requests = [
            make_forward_request(_spec(), functional=False, arrival_time=0.0),
            make_forward_request(_spec(), functional=False, arrival_time=1e-6),
        ]
        for name in ("analytical", "gpu-dense", "gpu-chunked", "dense-fpga"):
            result = serve_continuous(
                list(requests),
                config=config,
                backend=name,
                max_batch_size=2,
                iteration_rows=32,
            )
            assert len(result.completed) == 2, name
            for done in result.completed:
                assert done.finish_time >= done.admit_time >= done.arrival_time, name
