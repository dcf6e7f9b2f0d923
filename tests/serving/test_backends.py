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

    def test_program_is_the_one_abstract_method(self):
        assert AttentionBackend.__abstractmethods__ == frozenset({"program"})

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(KeyError, match="simulator"):
            create_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()

        class Dummy(AttentionBackend):
            name = "dummy"

            def program(self, request):  # pragma: no cover - never called
                raise NotImplementedError

        registry.register(Dummy)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Dummy)

    def test_unnamed_backend_rejected(self):
        registry = BackendRegistry()

        class Nameless(AttentionBackend):
            def program(self, request):  # pragma: no cover - never called
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
        cost = _whole(backend, request)
        assert cost.ticks > 0
        assert cost.energy_ticks == cost.ticks
        assert backend.time_base.joules(cost.energy_ticks) > 0

    def test_analytical_request_yields_no_output_but_is_priced(self):
        backend = create_backend("simulator", config=_config())
        request = AttentionRequest(seq_len=32)
        assert backend.compute_outputs([request]) == (None,)
        assert backend.step([(backend.program(request), 0, 32)], primed=False).ticks > 0

    def test_whole_request_step_equals_estimate(self):
        config = _config()
        backend = create_backend("analytical", config=config)
        estimate = SWATSimulator(config).estimate(96)
        cost = _whole(backend, AttentionRequest(seq_len=96))
        assert cost.ticks == estimate.cycles
        assert backend.time_base.seconds(cost.ticks) == estimate.cycles * config.clock_period_s


def looped_step_burst(backend, residents, primed, iteration_rows):
    """The looped burst: one :meth:`~AttentionBackend.step` per iteration.

    Returns the per-iteration ``(ticks, energy ticks)`` as int64 arrays.
    Bit-identical to the quantum-stepped reference scheduler by definition,
    and the oracle every backend's ``step_burst`` is tested against.
    """
    iterations = -(-residents.fewest_left() // iteration_rows)
    slices = residents.slices()
    ticks = np.empty(iterations, dtype=np.int64)
    energy = np.empty(iterations, dtype=np.int64)
    for index in range(iterations):
        advanced = index * iteration_rows
        cost = backend.step(
            [
                (program, rows_done + advanced, min(iteration_rows, rows_left - advanced))
                for program, rows_done, rows_left in slices
            ],
            primed if index == 0 else True,
        )
        ticks[index] = cost.ticks
        energy[index] = cost.energy_ticks
    return ticks, energy


def _whole_slices(backend, requests, rows_done=None):
    """``(request, rows_done, rows_left)`` slices streaming each request to its end."""
    rows_done = rows_done if rows_done is not None else [0] * len(requests)
    return [
        (request, done, backend.program(request).total_rows - done)
        for request, done in zip(requests, rows_done)
    ]


def _both_bursts(backend, slices, primed, iteration_rows):
    """The backend's burst and the looped oracle's arrays, on the same columns."""
    residents = Residents.from_slices(slices, backend.program)
    return (
        backend.step_burst(residents, primed, iteration_rows),
        looped_step_burst(backend, residents, primed, iteration_rows),
    )


def _whole(backend, request):
    """One iteration streaming all of ``request``'s rows from a cold pipeline."""
    program = backend.program(request)
    return backend.step([(program, 0, program.total_rows)], primed=False)


class TestIterationAmortisation:
    """Residents stream in parallel slots: a cold iteration pays one fill,
    not one per resident."""

    def test_co_resident_slices_share_one_stream(self):
        backend = create_backend("analytical", config=_config())
        requests = [AttentionRequest(seq_len=64) for _ in range(4)]
        together = backend.step(
            [(backend.program(request), 0, 64) for request in requests], primed=False
        )
        apart = [_whole(backend, request) for request in requests]
        assert together.ticks == apart[0].ticks
        assert together.ticks < sum(cost.ticks for cost in apart)

    def test_iteration_cycles_follow_the_gating_slice(self):
        config = _config()
        backend = create_backend("analytical", config=config)
        short = AttentionRequest(seq_len=32)
        multi_head = AttentionRequest(seq_len=48, num_heads=2)
        gate = backend.program(multi_head).total_rows
        assert gate == 2 * 48  # one pipeline: the heads stream back to back
        cost = backend.step(
            [(backend.program(short), 0, 32), (backend.program(multi_head), 0, gate)],
            primed=False,
        )
        assert cost.ticks == backend.simulator.pipeline.cycles_for_rows(gate)
        assert backend.time_base.tick_seconds == config.clock_period_s

    def test_primed_iteration_pays_no_fill(self):
        backend = create_backend("analytical", config=_config())
        pipeline = backend.simulator.pipeline
        fill = pipeline.timing.pipeline_depth_cycles
        ii = pipeline.initiation_interval
        for rows in (1, 17, 64):
            slices = [(backend.program(AttentionRequest(seq_len=64)), 0, rows)]
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
        slices = _whole_slices(backend, requests)
        burst = backend.step_burst(Residents.from_slices(slices, backend.program), False, 64)
        for count in range(burst.iterations):
            assert burst.ticks_through(count + 1) > burst.ticks_through(count)
            assert burst.energy_through(count + 1) > burst.energy_through(count)
        assert backend.time_base.power_w > 0

    def test_dense_fpga_prices_off_its_cycle_domain(self):
        config = _config()
        backend = create_backend("dense-fpga", config=config)
        request = AttentionRequest(seq_len=64)
        cycles = backend.baseline.run(64, num_heads=1).cycles
        assert cycles > 0
        assert _whole(backend, request).ticks == cycles


class TestStepBurst:
    """Vectorized burst pricing is bit-identical to the looped oracle.

    :func:`looped_step_burst` loops ``step`` per iteration — the
    definitionally correct pricing.  Every backend's ``step_burst`` must
    answer both scheduler questions off the oracle's arrays exactly — the
    ticks and energy ticks through every iteration count, and the first
    iteration starting at every offset — or the event-driven scheduler
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
    def _assert_bursts_equal(vectorized, ticks, energy_ticks):
        """``vectorized`` answers both questions off the looped arrays' prefix sums."""
        iterations = len(ticks)
        assert vectorized.iterations == iterations
        starts = np.concatenate([[0], np.cumsum(ticks)])
        energy = np.concatenate([[0], np.cumsum(energy_ticks)])
        for count in range(iterations + 1):
            assert vectorized.ticks_through(count) == starts[count]
            assert vectorized.energy_through(count) == energy[count]
        offsets = {int(start) + delta for start in starts for delta in (-1, 0, 1)}
        for offset in sorted(offsets):
            expected = min(int(np.searchsorted(starts, offset, side="left")), iterations)
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
        slices = _whole_slices(backend, requests, (0, 16, 5))
        vectorized, looped = _both_bursts(backend, slices, primed, iteration_rows)
        self._assert_bursts_equal(vectorized, *looped)

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
        return _whole_slices(backend, requests, rows_done)

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
            self._assert_bursts_equal(vectorized, *looped)

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
        self._assert_bursts_equal(vectorized, *looped)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    def test_mixed_kind_burst_never_loops_step(self, name, monkeypatch):
        """No backend falls back to per-iteration ``step`` calls for any kind."""
        config = _config()
        backend = create_backend(name, config=config, plan_cache=PlanCache())
        residents = Residents.from_slices(self._mixed_slices(backend, config), backend.program)
        looped = looped_step_burst(backend, residents, False, 16)

        def _no_step(*args, **kwargs):  # pragma: no cover - the assertion
            raise AssertionError("step_burst fell back to a looped step()")

        monkeypatch.setattr(backend, "step", _no_step)
        self._assert_bursts_equal(backend.step_burst(residents, False, 16), *looped)

    @pytest.mark.parametrize("name", ["simulator", "analytical"])
    @pytest.mark.parametrize("primed", [False, True])
    def test_plain_swat_burst_is_priced_from_two_ints(self, name, primed, monkeypatch):
        """All-attention SWAT residents: no slice tuple, no program lookup."""
        backend = create_backend(name, config=_config())
        requests = [AttentionRequest(seq_len=seq_len) for seq_len in (48, 96, 33)]
        residents = Residents.from_slices(
            _whole_slices(backend, requests, (0, 16, 5)), backend.program
        )
        looped = looped_step_burst(backend, residents, primed, 16)

        def _per_resident(*args, **kwargs):  # pragma: no cover - the assertion
            raise AssertionError("a plain SWAT burst visited its residents")

        monkeypatch.setattr(Residents, "slices", _per_resident)
        monkeypatch.setattr(backend, "program", _per_resident)
        self._assert_bursts_equal(backend.step_burst(residents, primed, 16), *looped)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    @pytest.mark.parametrize("iteration_rows", [1, 7])
    def test_tail_of_tail_matches_looped_default(self, name, iteration_rows):
        """A cut burst's tails answer off the oracle's arrays from their offset on."""
        config = _config()
        backend = create_backend(name, config=config, plan_cache=PlanCache())
        slices = self._mixed_slices(backend, config, (3, 16, 5, 2))
        burst, (ticks, energy) = _both_bursts(backend, slices, False, iteration_rows)
        assert burst.iterations >= 3
        for first in range(1, burst.iterations - 1):
            tail = burst.tail(first)
            for second in range(1, tail.iterations):
                skipped = first + second
                self._assert_bursts_equal(tail.tail(second), ticks[skipped:], energy[skipped:])
        for offset in (0, burst.iterations, -1):
            with pytest.raises(ValueError, match="tail offset"):
                burst.tail(offset)
        tail = burst.tail(1)
        for offset in (0, tail.iterations):
            with pytest.raises(ValueError, match="tail offset"):
                tail.tail(offset)

    @pytest.mark.parametrize("name", CONTINUOUS_BACKENDS)
    def test_burst_validation(self, name):
        backend = create_backend(name, config=_config())
        with pytest.raises(ValueError, match="at least one resident"):
            backend.step_burst(Residents(), False, 16)
        with pytest.raises(ValueError, match="remaining rows"):
            backend.step_burst(
                Residents.from_slices([(AttentionRequest(seq_len=32), 32, 0)], backend.program),
                True,
                16,
            )


class TestResidents:
    """The lockstep columns ``step_burst`` reads: one row counter per shard."""

    def test_one_counter_places_every_resident(self):
        backend = create_backend("analytical", config=_config())
        residents = Residents()
        first = backend.program(AttentionRequest(seq_len=40))
        second = backend.program(AttentionRequest(seq_len=16))
        residents.add(0, first, 40)
        residents.row += 8
        residents.add(1, second, 16)
        assert residents.slices() == [(first, 8, 32), (second, 0, 16)]
        assert residents.fewest_left() == 16
        residents.row += 16
        assert residents.retire() == [1]
        assert residents.slices() == [(first, 24, 16)]
        residents.row += 16
        assert residents.retire() == [0]
        assert residents.slices() == []

    def test_from_slices_round_trips(self):
        backend = create_backend("analytical", config=_config())
        slices = [(AttentionRequest(seq_len=48), 16, 32), (AttentionRequest(seq_len=33), 5, 28)]
        assert Residents.from_slices(slices, backend.program).slices() == [
            (backend.program(request), rows_done, rows_left)
            for request, rows_done, rows_left in slices
        ]

    def test_segmented_count_follows_add_and_retire(self):
        from repro.model import ModelSpec
        from repro.serving.request import make_forward_request

        backend = create_backend("analytical", config=_config())
        spec = ModelSpec.uniform(2, 24, window_tokens=8, num_heads=2, head_dim=16)
        residents = Residents()
        residents.add(0, backend.program(AttentionRequest(seq_len=8)), 8)
        residents.add(1, backend.program(make_forward_request(spec, functional=False)), 96)
        assert residents.segmented == 1
        residents.row = 8
        assert residents.retire() == [0]
        assert residents.segmented == 1
        residents.row = 96
        assert residents.retire() == [1]
        assert residents.segmented == 0
