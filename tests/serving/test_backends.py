"""Tests for the backend registry and the individual backends."""

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.masks import swat_window_mask
from repro.core.config import SWATConfig
from repro.core.simulator import SWATSimulator
from repro.serving.backends import (
    REGISTRY,
    AttentionBackend,
    BackendRegistry,
    available_backends,
    create_backend,
    swat_batch_cycles,
)
from repro.serving.cache import PlanCache
from repro.serving.request import AttentionRequest, make_request

EXPECTED_BACKENDS = {
    "simulator",
    "analytical",
    "fused",
    "gpu-dense",
    "gpu-chunked",
    "dense-fpga",
}


def _config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestRegistry:
    def test_all_execution_paths_registered(self):
        assert EXPECTED_BACKENDS <= set(available_backends())

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(KeyError, match="simulator"):
            create_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()

        class Dummy(AttentionBackend):
            name = "dummy"

            def execute_batch(self, batch):  # pragma: no cover - never called
                raise NotImplementedError

        registry.register(Dummy)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Dummy)

    def test_unnamed_backend_rejected(self):
        registry = BackendRegistry()

        class Nameless(AttentionBackend):
            def execute_batch(self, batch):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ValueError, match="non-empty name"):
            registry.register(Nameless)

    def test_contains(self):
        assert "simulator" in REGISTRY
        assert "no-such-backend" not in REGISTRY

    def test_describe_mentions_name_and_kind(self):
        backend = create_backend("analytical", config=_config())
        assert "analytical" in backend.describe()


class TestSimulatorBackend:
    def test_output_matches_masked_dense_reference(self):
        config = _config()
        backend = create_backend("simulator", config=config, plan_cache=PlanCache())
        request = make_request(48, config.head_dim, seed=0)
        result = backend.execute(request)
        expected = dense_attention(
            request.q, request.k, request.v, mask=swat_window_mask(48, config.window_tokens)
        )
        np.testing.assert_allclose(result.outputs[0], expected, atol=1e-9)
        assert result.cycles > 0
        assert result.device_seconds > 0
        assert result.energy_joules > 0

    def test_analytical_request_yields_no_output_but_is_priced(self):
        backend = create_backend("simulator", config=_config())
        result = backend.execute(AttentionRequest(seq_len=32))
        assert result.outputs == (None,)
        assert result.cycles > 0


class TestFusedBackend:
    def test_bit_identical_to_simulator_backend(self):
        config = _config(num_global_tokens=2, num_random_tokens=2)
        cache = PlanCache()
        request = make_request(40, config.head_dim, seed=1)
        simulated = create_backend("simulator", config=config, plan_cache=cache).execute(request)
        fused = create_backend("fused", config=config, plan_cache=cache).execute(request)
        assert np.array_equal(simulated.outputs[0], fused.outputs[0])

    def test_measures_host_time(self):
        backend = create_backend("fused", config=_config())
        result = backend.execute(make_request(32, 16, seed=2))
        assert result.device_seconds > 0
        assert result.cycles is None


class TestBatchAmortisation:
    def test_batch_cheaper_than_sequential_dispatch(self):
        """One fill per batch: n requests cost less than n separate dispatches."""
        config = _config()
        backend = create_backend("analytical", config=config)
        requests = [AttentionRequest(seq_len=64) for _ in range(4)]
        batched = backend.execute_batch(requests)
        sequential = sum(backend.execute(request).cycles for request in requests)
        assert batched.cycles < sequential
        fill = backend.simulator.pipeline.timing.pipeline_depth_cycles
        ii = backend.simulator.pipeline.initiation_interval
        assert sequential - batched.cycles == 3 * (fill - ii)

    def test_batch_cycles_match_pipeline_rows(self):
        config = _config()
        simulator = SWATSimulator(config)
        requests = [AttentionRequest(seq_len=32), AttentionRequest(seq_len=48, num_heads=2)]
        cycles = swat_batch_cycles(simulator.pipeline, requests)
        assert cycles == simulator.pipeline.cycles_for_rows(32 + 2 * 48)

    def test_single_request_batch_equals_estimate(self):
        config = _config()
        backend = create_backend("analytical", config=config)
        estimate = SWATSimulator(config).estimate(96)
        assert backend.execute(AttentionRequest(seq_len=96)).cycles == estimate.cycles


class TestAnalyticalOnlyBackends:
    @pytest.mark.parametrize("name", ["gpu-dense", "gpu-chunked", "dense-fpga"])
    def test_priced_but_not_functional(self, name):
        backend = create_backend(name, config=_config())
        assert not backend.functional
        result = backend.execute_batch(
            [AttentionRequest(seq_len=128), AttentionRequest(seq_len=256)]
        )
        assert result.outputs == (None, None)
        assert result.device_seconds > 0
        assert result.energy_joules > 0

    def test_gpu_heads_scale_cost_when_launches_not_amortised(self):
        """launch_amortisation=0 reprices the looped per-head dispatch exactly."""
        from repro.serving.backends import GPUDenseBackend

        backend = GPUDenseBackend(config=_config(), launch_amortisation=0.0)
        one = backend.execute(AttentionRequest(seq_len=256)).device_seconds
        four = backend.execute(AttentionRequest(seq_len=256, num_heads=4)).device_seconds
        assert four == pytest.approx(4 * one)

    def test_gpu_batching_amortises_launches(self):
        """The default batched pricing beats the looped baseline, bounded below

        by pure compute scaling (arithmetic still grows with the head count).
        """
        from repro.serving.backends import GPUDenseBackend

        config = _config()
        batched = GPUDenseBackend(config=config)  # launch_amortisation=1.0
        looped = GPUDenseBackend(config=config, launch_amortisation=0.0)
        request = AttentionRequest(seq_len=256, num_heads=8)
        batched_s = batched.execute(request).device_seconds
        looped_s = looped.execute(request).device_seconds
        assert batched_s < looped_s
        # Same arithmetic either way: only the launch/floor overhead shrinks.
        one_body = batched.execute(AttentionRequest(seq_len=256)).device_seconds
        assert batched_s > 0.5 * one_body

    def test_dense_fpga_has_cycle_domain(self):
        result = create_backend("dense-fpga", config=_config()).execute(
            AttentionRequest(seq_len=64)
        )
        assert result.cycles > 0


class TestStepBurst:
    """Vectorized burst pricing is bit-identical to the looped ``step`` default.

    ``AttentionBackend.step_burst`` loops :meth:`step` per iteration — the
    definitionally correct pricing.  Every backend override must reproduce
    its arrays entry for entry, bit-exactly, or the event-driven scheduler
    would drift from the quantum-stepped reference.
    """

    CONTINUOUS_BACKENDS = [
        "simulator",
        "analytical",
        "gpu-dense",
        "gpu-chunked",
        "dense-fpga",
    ]

    @staticmethod
    def _assert_bursts_equal(vectorized, looped):
        assert vectorized.iterations == looped.iterations
        assert np.array_equal(vectorized.seconds, looped.seconds)
        assert np.array_equal(vectorized.energy_joules, looped.energy_joules)
        assert np.array_equal(vectorized.gate_rows, looped.gate_rows)
        if looped.cycles is None:
            assert vectorized.cycles is None
        else:
            assert np.array_equal(vectorized.cycles, looped.cycles)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("iteration_rows", [5, 16, 64, 1000])
    def test_burst_matches_looped_default(self, name, primed, iteration_rows):
        backend = create_backend(name, config=_config())
        requests = [
            AttentionRequest(seq_len=seq_len, num_heads=num_heads)
            for seq_len, num_heads in ((48, 1), (96, 2), (33, 1))
        ]
        slices = [
            (request, rows_done, backend.request_rows(request) - rows_done)
            for request, rows_done in zip(requests, (0, 16, 5))
        ]
        vectorized = backend.step_burst(slices, primed, iteration_rows)
        looped = AttentionBackend.step_burst(backend, slices, primed, iteration_rows)
        self._assert_bursts_equal(vectorized, looped)

    @staticmethod
    def _mixed_slices(backend, config, rows_done=(0, 16, 5, 0)):
        """One slice of each request kind, mid-flight at ``rows_done``."""
        from repro.model import ModelSpec
        from repro.serving.request import make_decode_request, make_forward_request

        spec = ModelSpec.uniform(2, 24, window_tokens=8, num_heads=2, head_dim=config.head_dim)
        requests = [
            make_forward_request(spec, functional=False),
            AttentionRequest(seq_len=48),
            make_decode_request(spec, new_tokens=8, block_size=4),
            make_decode_request(spec, new_tokens=6, block_size=4, adaptive=True),
        ]
        return [
            (request, done, backend.request_rows(request) - done)
            for request, done in zip(requests, rows_done)
        ]

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("iteration_rows", [1, 7, 16, 1000])
    def test_mixed_kind_burst_matches_looped_default(self, name, primed, iteration_rows):
        """Forward and decode slices are priced closed-form, bit-exactly.

        Every request kind is covered with no looped-``step`` fallback.  The
        second ``rows_done`` case starts the positional residents off their
        plans' quantum alignment, so their rows are read off a grid phase
        other than zero.
        """
        config = _config()
        backend = create_backend(name, config=config, plan_cache=PlanCache())
        for rows_done in ((0, 16, 5, 0), (3, 16, 5, 2)):
            slices = self._mixed_slices(backend, config, rows_done)
            vectorized = backend.step_burst(slices, primed, iteration_rows)
            looped = AttentionBackend.step_burst(backend, slices, primed, iteration_rows)
            self._assert_bursts_equal(vectorized, looped)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("iteration_rows", [1, 7, 16, 1000])
    def test_burst_stopping_short_of_plan_end_matches_looped_default(
        self, name, primed, iteration_rows
    ):
        """Slices whose remaining rows end before their plan's last row."""
        config = _config()
        backend = create_backend(name, config=config, plan_cache=PlanCache())
        slices = [
            (request, rows_done, rows_left - 3)
            for request, rows_done, rows_left in self._mixed_slices(backend, config, (3, 16, 5, 2))
        ]
        vectorized = backend.step_burst(slices, primed, iteration_rows)
        looped = AttentionBackend.step_burst(backend, slices, primed, iteration_rows)
        self._assert_bursts_equal(vectorized, looped)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    def test_mixed_kind_burst_never_loops_step(self, name, monkeypatch):
        """No backend falls back to per-iteration ``step`` calls for any kind."""
        config = _config()
        backend = create_backend(name, config=config, plan_cache=PlanCache())
        slices = self._mixed_slices(backend, config)

        def _no_step(*args, **kwargs):  # pragma: no cover - the assertion
            raise AssertionError("step_burst fell back to a looped step()")

        monkeypatch.setattr(backend, "step", _no_step)
        burst = backend.step_burst(slices, False, 16)
        assert burst.iterations == len(burst.seconds)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    def test_burst_validation(self, name):
        backend = create_backend(name, config=_config())
        with pytest.raises(ValueError, match="at least one resident"):
            backend.step_burst([], False, 16)
        with pytest.raises(ValueError, match="remaining rows"):
            backend.step_burst([(AttentionRequest(seq_len=32), 32, 0)], True, 16)
