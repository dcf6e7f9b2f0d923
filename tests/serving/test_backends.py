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
    Residents,
    available_backends,
    create_backend,
)
from repro.serving.cache import PlanCache
from repro.serving.request import AttentionRequest, make_request

EXPECTED_BACKENDS = {
    "simulator",
    "analytical",
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

    def test_step_is_the_one_abstract_method(self):
        assert AttentionBackend.__abstractmethods__ == frozenset({"step"})

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(KeyError, match="simulator"):
            create_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()

        class Dummy(AttentionBackend):
            name = "dummy"

            def step(self, slices, primed):  # pragma: no cover - never called
                raise NotImplementedError

        registry.register(Dummy)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Dummy)

    def test_unnamed_backend_rejected(self):
        registry = BackendRegistry()

        class Nameless(AttentionBackend):
            def step(self, slices, primed):  # pragma: no cover - never called
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
        (output,) = backend.compute_outputs([request])
        expected = dense_attention(
            request.q, request.k, request.v, mask=swat_window_mask(48, config.window_tokens)
        )
        np.testing.assert_allclose(output, expected, atol=1e-9)
        cost = backend.step([(request, 0, backend.request_rows(request))], primed=False)
        assert cost.ticks > 0
        assert cost.energy_ticks == cost.ticks
        assert backend.time_base.joules(cost.energy_ticks) > 0

    def test_analytical_request_yields_no_output_but_is_priced(self):
        backend = create_backend("simulator", config=_config())
        request = AttentionRequest(seq_len=32)
        assert backend.compute_outputs([request]) == (None,)
        assert backend.step([(request, 0, 32)], primed=False).ticks > 0

    def test_whole_request_step_equals_estimate(self):
        config = _config()
        backend = create_backend("analytical", config=config)
        estimate = SWATSimulator(config).estimate(96)
        cost = backend.step([(AttentionRequest(seq_len=96), 0, 96)], primed=False)
        assert cost.ticks == estimate.cycles
        assert backend.time_base.seconds(cost.ticks) == estimate.cycles * config.clock_period_s


def _both_bursts(backend, slices, primed, iteration_rows):
    """The override's burst and the looped-``step`` oracle's, on the same columns."""
    residents = Residents.from_slices(slices)
    return (
        backend.step_burst(residents, primed, iteration_rows),
        AttentionBackend.step_burst(backend, residents, primed, iteration_rows),
    )


def _whole(backend, request):
    """One iteration streaming all of ``request``'s rows from a cold pipeline."""
    return backend.step([(request, 0, backend.request_rows(request))], primed=False)


class TestIterationAmortisation:
    """Residents stream in parallel slots: a cold iteration pays one fill,
    not one per resident."""

    def test_co_resident_slices_share_one_stream(self):
        backend = create_backend("analytical", config=_config())
        requests = [AttentionRequest(seq_len=64) for _ in range(4)]
        together = backend.step([(request, 0, 64) for request in requests], primed=False)
        apart = [_whole(backend, request) for request in requests]
        assert together.ticks == apart[0].ticks
        assert together.ticks < sum(cost.ticks for cost in apart)

    def test_iteration_cycles_follow_the_gating_slice(self):
        config = _config()
        backend = create_backend("analytical", config=config)
        short = AttentionRequest(seq_len=32)
        multi_head = AttentionRequest(seq_len=48, num_heads=2)
        gate = backend.request_rows(multi_head)
        assert gate == 2 * 48  # one pipeline: the heads stream back to back
        cost = backend.step([(short, 0, 32), (multi_head, 0, gate)], primed=False)
        assert cost.gate_rows == gate
        assert cost.ticks == backend.simulator.pipeline.cycles_for_rows(gate)
        assert backend.time_base.tick_seconds == config.clock_period_s

    def test_primed_iteration_pays_no_fill(self):
        backend = create_backend("analytical", config=_config())
        pipeline = backend.simulator.pipeline
        fill = pipeline.timing.pipeline_depth_cycles
        ii = pipeline.initiation_interval
        for rows in (1, 17, 64):
            slices = [(AttentionRequest(seq_len=64), 0, rows)]
            cold = backend.step(slices, primed=False).ticks
            primed = backend.step(slices, primed=True).ticks
            assert primed == rows * ii
            assert cold - primed == fill - ii


class TestAnalyticalOnlyBackends:
    @pytest.mark.parametrize("name", ["gpu-dense", "gpu-chunked", "dense-fpga"])
    def test_priced_but_not_functional(self, name):
        backend = create_backend(name, config=_config())
        assert not backend.functional
        requests = [AttentionRequest(seq_len=128), AttentionRequest(seq_len=256)]
        assert backend.compute_outputs(requests) == (None, None)
        slices = [(request, 0, backend.request_rows(request)) for request in requests]
        burst = backend.step_burst(Residents.from_slices(slices), False, 64)
        assert np.all(burst.ticks > 0)
        assert np.all(burst.energy_ticks > 0)
        assert backend.time_base.power_w > 0

    def test_gpu_heads_scale_cost_when_launches_not_amortised(self):
        """launch_amortisation=0 reprices the looped per-head dispatch exactly."""
        from repro.serving.backends import GPUDenseBackend

        backend = GPUDenseBackend(config=_config(), launch_amortisation=0.0)

        def burst_ticks(request):
            slices = [(request, 0, backend.request_rows(request))]
            return int(np.sum(backend.step_burst(Residents.from_slices(slices), False, 64).ticks))

        one = burst_ticks(AttentionRequest(seq_len=256))
        four = burst_ticks(AttentionRequest(seq_len=256, num_heads=4))
        # Each shape's report rounds up to a tick once: four heads cost four
        # times one head's seconds, up to that rounding.
        assert 0 <= 4 * one - four < 4

    def test_gpu_batching_amortises_launches(self):
        """The default batched pricing beats the looped baseline, bounded below

        by pure compute scaling (arithmetic still grows with the head count).
        """
        from repro.serving.backends import GPUDenseBackend

        config = _config()
        batched = GPUDenseBackend(config=config)  # launch_amortisation=1.0
        looped = GPUDenseBackend(config=config, launch_amortisation=0.0)
        request = AttentionRequest(seq_len=256, num_heads=8)
        batched_ticks = _whole(batched, request).ticks
        looped_ticks = _whole(looped, request).ticks
        assert batched_ticks < looped_ticks
        # Same arithmetic either way: only the launch/floor overhead shrinks.
        one_body = _whole(batched, AttentionRequest(seq_len=256)).ticks
        assert batched_ticks > 0.5 * one_body

    def test_dense_fpga_prices_off_its_cycle_domain(self):
        config = _config()
        backend = create_backend("dense-fpga", config=config)
        request = AttentionRequest(seq_len=64)
        cycles = backend.baseline.run(64, num_heads=1).cycles
        assert cycles > 0
        assert _whole(backend, request).ticks == cycles


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
        assert np.array_equal(vectorized.ticks, looped.ticks)
        assert np.array_equal(vectorized.energy_ticks, looped.energy_ticks)
        assert np.array_equal(vectorized.gate_rows, looped.gate_rows)
        # Both scheduler questions agree with the looped arrays' prefix sums.
        starts = np.concatenate([[0], np.cumsum(looped.ticks)])
        energy = np.concatenate([[0], np.cumsum(looped.energy_ticks)])
        for count in range(looped.iterations + 1):
            assert vectorized.ticks_through(count) == starts[count]
            assert vectorized.energy_through(count) == energy[count]
        offsets = {int(start) + delta for start in starts for delta in (-1, 0, 1)}
        for offset in sorted(offsets):
            expected = min(int(np.searchsorted(starts, offset, side="left")), looped.iterations)
            assert vectorized.first_start_at(offset) == expected

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
        vectorized, looped = _both_bursts(backend, slices, primed, iteration_rows)
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
            vectorized, looped = _both_bursts(backend, slices, primed, iteration_rows)
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
        vectorized, looped = _both_bursts(backend, slices, primed, iteration_rows)
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
        burst = backend.step_burst(Residents.from_slices(slices), False, 16)
        assert burst.iterations == len(burst.ticks)

    @pytest.mark.parametrize("name", ["simulator", "analytical"])
    @pytest.mark.parametrize("primed", [False, True])
    def test_plain_swat_burst_is_priced_from_two_ints(self, name, primed, monkeypatch):
        """All-attention SWAT residents: no slice tuple, no per-resident kind check."""
        backend = create_backend(name, config=_config())
        requests = [AttentionRequest(seq_len=seq_len) for seq_len in (48, 96, 33)]
        residents = Residents.from_slices(
            [
                (request, rows_done, backend.request_rows(request) - rows_done)
                for request, rows_done in zip(requests, (0, 16, 5))
            ]
        )
        looped = AttentionBackend.step_burst(backend, residents, primed, 16)

        def _per_resident(*args, **kwargs):  # pragma: no cover - the assertion
            raise AssertionError("a plain SWAT burst visited its residents")

        monkeypatch.setattr(Residents, "slices", _per_resident)
        monkeypatch.setattr(backend, "_positional_plan", _per_resident)
        self._assert_bursts_equal(backend.step_burst(residents, primed, 16), looped)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    def test_burst_validation(self, name):
        backend = create_backend(name, config=_config())
        with pytest.raises(ValueError, match="at least one resident"):
            backend.step_burst(Residents(), False, 16)
        with pytest.raises(ValueError, match="remaining rows"):
            backend.step_burst(
                Residents.from_slices([(AttentionRequest(seq_len=32), 32, 0)]), True, 16
            )


class TestResidents:
    """The lockstep columns ``step_burst`` reads: one row counter per shard."""

    def test_one_counter_places_every_resident(self):
        residents = Residents()
        first, second = AttentionRequest(seq_len=40), AttentionRequest(seq_len=16)
        residents.add(first, 40)
        residents.row += 8
        residents.add(second, 16)
        assert residents.slices() == [(first, 8, 32), (second, 0, 16)]
        assert residents.fewest_left() == 16
        residents.row += 16
        assert residents.retire() == [1]
        assert residents.slices() == [(first, 24, 16)]
        residents.row += 16
        assert residents.retire() == [0]
        assert residents.slices() == []

    def test_from_slices_round_trips(self):
        slices = [(AttentionRequest(seq_len=48), 16, 32), (AttentionRequest(seq_len=33), 5, 28)]
        assert Residents.from_slices(slices).slices() == slices

    def test_positional_count_follows_add_and_retire(self):
        from repro.model import ModelSpec
        from repro.serving.request import make_forward_request

        spec = ModelSpec.uniform(2, 24, window_tokens=8, num_heads=2, head_dim=16)
        residents = Residents()
        residents.add(AttentionRequest(seq_len=8), 8)
        residents.add(make_forward_request(spec, functional=False), 96)
        assert residents.positional == 1
        residents.row = 8
        assert residents.retire() == [0]
        assert residents.positional == 1
        residents.row = 96
        assert residents.retire() == [0]
        assert residents.positional == 0
