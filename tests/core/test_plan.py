"""Tests for the compiled execution-plan IR.

The load-bearing property: the compiled :class:`~repro.core.plan.ExecutionPlan`
view must be field-by-field identical to the legacy per-row construction for
every configuration — the whole refactor rests on that equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SWATConfig
from repro.core.plan import (
    PlanBatch,
    compile_plan,
    execute_plan_attention,
    execute_plan_attention_rows,
    legacy_row_plans,
)
from repro.core.scheduler import RowMajorScheduler
from repro.workload.generator import attention_inputs

ROW_PLAN_FIELDS = (
    "row",
    "window_keys",
    "global_keys",
    "random_keys",
    "new_window_keys",
    "reloaded_keys",
    "attended_keys",
    "keys_loaded",
)


def _config(window_tokens=8, num_global=0, num_random=0, head_dim=16, seed=0):
    return SWATConfig(
        head_dim=head_dim,
        window_tokens=window_tokens,
        num_global_tokens=num_global,
        num_random_tokens=num_random,
        random_seed=seed,
    )


def assert_plans_identical(config, seq_len):
    legacy = legacy_row_plans(config, seq_len)
    compiled = compile_plan(config, seq_len).row_plans()
    assert len(legacy) == len(compiled) == seq_len
    for reference, candidate in zip(legacy, compiled):
        for field in ROW_PLAN_FIELDS:
            assert getattr(candidate, field) == getattr(reference, field), (
                f"row {reference.row}: {field} differs"
            )


# Random SWAT geometries for the property suite.  Window tokens must be even;
# global/random counts deliberately range past the window size so degenerate
# geometries (all-global rows, more randoms than candidates) are covered.
config_strategy = st.builds(
    _config,
    window_tokens=st.sampled_from([2, 4, 6, 8, 16, 32]),
    num_global=st.integers(0, 12),
    num_random=st.integers(0, 8),
    seed=st.integers(0, 3),
)


class TestCompiledPlanMatchesLegacy:
    @given(config=config_strategy, seq_len=st.integers(1, 96))
    @settings(max_examples=60, deadline=None)
    def test_property_field_by_field_equality(self, config, seq_len):
        assert_plans_identical(config, seq_len)

    @given(seq_len=st.integers(1, 7))
    @settings(max_examples=15, deadline=None)
    def test_property_seq_len_shorter_than_window(self, seq_len):
        assert_plans_identical(_config(window_tokens=16, num_global=2, num_random=3), seq_len)

    @given(seq_len=st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_property_no_random_attention(self, seq_len):
        assert_plans_identical(_config(window_tokens=8, num_global=3, num_random=0), seq_len)

    def test_scheduler_view_equals_legacy(self):
        config = _config(window_tokens=8, num_global=2, num_random=2)
        scheduler = RowMajorScheduler(config, 48)
        assert list(scheduler.plans()) == legacy_row_plans(config, 48)

    def test_global_tokens_beyond_seq_len_clipped(self):
        assert_plans_identical(_config(window_tokens=4, num_global=12), 6)


class TestPlanArrays:
    def test_new_window_ranges_tile_the_sequence(self):
        plan = compile_plan(_config(window_tokens=8), 40)
        covered = [key for lo, hi in zip(plan.new_lo, plan.new_hi) for key in range(lo, hi)]
        assert covered == list(range(40))

    def test_cum_kv_loads_counts_window_and_random_fetches(self):
        config = _config(window_tokens=8, num_global=2, num_random=2)
        plan = compile_plan(config, 48)
        per_row = [
            len(p.new_window_keys) + len(p.random_keys) for p in legacy_row_plans(config, 48)
        ]
        np.testing.assert_array_equal(np.diff(plan.cum_kv_loads), per_row)

    def test_traffic_matches_scheduler_formula(self):
        config = _config(window_tokens=8, num_global=3, num_random=2)
        plan = compile_plan(config, 64)
        assert plan.traffic_bytes() == RowMajorScheduler(config, 64).traffic_bytes()

    def test_cum_cycles_matches_pipeline_prefix(self):
        from repro.core.pipeline import SWATPipelineModel

        config = _config()
        plan = compile_plan(config, 32)
        pipeline = SWATPipelineModel(config)
        np.testing.assert_array_equal(plan.cum_cycles, pipeline.cycle_prefix(32))
        assert plan.total_cycles == pipeline.cycles_for_rows(32)

    def test_key_indices_rows_cover_attended_keys_in_core_order(self):
        config = _config(window_tokens=8, num_global=2, num_random=2)
        plan = compile_plan(config, 40)
        for row_plan in plan.row_plans():
            row = row_plan.row
            count = int(plan.key_counts[row])
            indices = plan.key_indices[row, :count]
            # Core order: window keys ascending first, extras ascending after.
            window = list(row_plan.window_keys)
            assert list(indices[: len(window)]) == window
            assert sorted(indices) == list(row_plan.attended_keys)
            assert np.all(plan.key_indices[row, count:] == -1)

    def test_invalid_seq_len_raises(self):
        with pytest.raises(ValueError):
            compile_plan(_config(), 0)

    def test_nbytes_counts_compact_arrays_only(self):
        plan = compile_plan(_config(window_tokens=8, num_random=2), 64)
        compact = plan.nbytes
        _ = plan.key_indices  # materialise the gather matrix
        assert plan.nbytes == compact


def _event_by_event_reference(config, seq_len):
    """Replay the seed simulator's per-event traffic/FIFO accounting.

    Walks the legacy per-row plans exactly as the pre-refactor ``run()`` loop
    did — global pre-loads, window FIFO inserts with modulo-slot eviction,
    random refreshes, ``loaded_once`` redundancy tracking — so the compiled
    plan's closed-form traffic and synthesized FIFO counters are checked
    against an independent event simulation, not against themselves.
    """
    plans = legacy_row_plans(config, seq_len)
    global_keys = list(config.global_token_indices(seq_len))
    row_bytes = config.kv_row_bytes
    capacity = max(config.window_tokens, 1)

    kv_rows_loaded = len(global_keys)
    redundant_rows = 0
    q_rows = out_rows = 0
    loaded_once = set(global_keys)
    slot_occupant = {}
    total_loads = 0
    unique_keys = set()
    evictions = 0
    for plan in plans:
        for key in plan.new_window_keys:
            slot = key % capacity
            previous = slot_occupant.get(slot)
            if previous is not None and previous != key:
                evictions += 1
            slot_occupant[slot] = key
            total_loads += 1
            unique_keys.add(key)
            kv_rows_loaded += 1
            if key in loaded_once:
                redundant_rows += 1
            loaded_once.add(key)
        for key in plan.random_keys:
            kv_rows_loaded += 1
            if key in loaded_once or key in plan.window_keys:
                redundant_rows += 1
            loaded_once.add(key)
        q_rows += 1
        out_rows += 1
    traffic = {
        "q": q_rows * row_bytes,
        "k": kv_rows_loaded * row_bytes,
        "v": kv_rows_loaded * row_bytes,
        "output": out_rows * row_bytes,
        "redundant_kv": 2 * redundant_rows * row_bytes,
    }
    fifo = {
        "total_loads": total_loads,
        "unique_loads": len(unique_keys),
        "evictions": evictions,
    }
    return traffic, fifo


class TestEventAccountingReference:
    """The plan's closed-form counters vs an independent event replay.

    The refactored ``run()`` derives traffic and FIFO counters from the
    compiled plan's prefix sums — the same source ``estimate_traffic`` reads
    — so the run-vs-estimate parity tests alone would be tautological.  These
    tests back one side with the seed's event-by-event loop.
    """

    CONFIGS = [
        {},
        {"num_global": 3},
        {"num_random": 2},
        {"num_global": 2, "num_random": 3},
        {"num_global": 12, "num_random": 2},  # globals wider than the window
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    @pytest.mark.parametrize("seq_len", [1, 5, 40, 57])
    def test_plan_traffic_matches_event_replay(self, overrides, seq_len):
        config = _config(window_tokens=8, **overrides)
        expected, _ = _event_by_event_reference(config, seq_len)
        assert compile_plan(config, seq_len).traffic_bytes() == expected

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_simulated_run_matches_event_replay(self, overrides):
        config = _config(window_tokens=8, **overrides)
        seq_len = 40
        expected_traffic, expected_fifo = _event_by_event_reference(config, seq_len)
        from repro.core.simulator import SWATSimulator

        q, k, v = attention_inputs(seq_len, 16, seed=7)
        result = SWATSimulator(config).run(q, k, v)
        assert result.traffic.q_bytes_loaded == expected_traffic["q"]
        assert result.traffic.k_bytes_loaded == expected_traffic["k"]
        assert result.traffic.v_bytes_loaded == expected_traffic["v"]
        assert result.traffic.output_bytes_stored == expected_traffic["output"]
        assert result.traffic.redundant_kv_bytes == expected_traffic["redundant_kv"]
        assert result.fifo_stats.total_loads == expected_fifo["total_loads"]
        assert result.fifo_stats.unique_loads == expected_fifo["unique_loads"]
        assert result.fifo_stats.evictions == expected_fifo["evictions"]
        assert result.fifo_stats.redundant_loads == 0

    @given(config=config_strategy, seq_len=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_property_traffic_matches_event_replay(self, config, seq_len):
        expected, _ = _event_by_event_reference(config, seq_len)
        assert compile_plan(config, seq_len).traffic_bytes() == expected


def _count_exp_elements(monkeypatch):
    """Route ``np.exp`` through a counter of the elements it exponentiates.

    The executor exponentiates every score it computes exactly once, so the
    count measures its work without a wall clock.
    """
    real_exp = np.exp
    counted = [0]

    def counting_exp(x, *args, **kwargs):
        counted[0] += np.size(x)
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    return counted


class TestExecutors:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"num_global": 3},
            {"num_random": 2},
            {"num_global": 2, "num_random": 3},
        ],
        ids=["window", "global", "random", "bigbird"],
    )
    @pytest.mark.parametrize("seq_len", [1, 5, 40, 57])
    def test_blocked_executor_matches_per_row_reference(self, overrides, seq_len):
        config = _config(window_tokens=8, **overrides)
        plan = compile_plan(config, seq_len)
        q, k, v = attention_inputs(seq_len, 16, seed=9)
        blocked = execute_plan_attention(plan, q, k, v)
        per_row = execute_plan_attention_rows(plan, q, k, v)
        np.testing.assert_allclose(blocked, per_row, atol=1e-12)

    def test_subtract_max_variants_agree(self):
        plan = compile_plan(_config(window_tokens=8, num_global=2), 32)
        q, k, v = attention_inputs(32, 16, seed=3)
        stable = execute_plan_attention(plan, q, k, v, subtract_max=True)
        raw = execute_plan_attention(plan, q, k, v, subtract_max=False)
        np.testing.assert_allclose(stable, raw, atol=1e-12)

    def test_seq_len_mismatch_raises(self):
        plan = compile_plan(_config(), 16)
        q, k, v = attention_inputs(24, 16, seed=0)
        with pytest.raises(ValueError):
            execute_plan_attention(plan, q, k, v)

    @pytest.mark.parametrize(
        "foreign_overrides",
        [
            {"window_tokens": 4},
            {"num_global": 2},
            {"num_random": 2},
            {"seed": 1},
        ],
        ids=["window", "global", "random", "seed"],
    )
    def test_simulator_rejects_plan_for_other_config(self, foreign_overrides):
        from repro.core.simulator import SWATSimulator

        foreign = compile_plan(_config(**{"window_tokens": 8, **foreign_overrides}), 16)
        q, k, v = attention_inputs(16, 16, seed=0)
        with pytest.raises(ValueError):
            SWATSimulator(_config(window_tokens=8)).run(q, k, v, plan=foreign)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"num_global": 3}, {"num_random": 3}, {"num_global": 2, "num_random": 3}],
        ids=["window", "global", "random", "bigbird"],
    )
    def test_blocked_executor_streams_in_small_chunks(self, monkeypatch, overrides):
        """One plan re-executed at several chunk sizes matches the per-row reference.

        48 rows in 32- or 5-row chunks leave a partial last chunk; 16-row
        chunks divide evenly.  The score count proves each size took effect.
        """
        import repro.core.plan as plan_module

        plan = compile_plan(_config(window_tokens=8, **overrides), 48)
        q, k, v = attention_inputs(48, 16, seed=4)
        reference = execute_plan_attention_rows(plan, q, k, v)
        extra_width = plan.extra_indices.shape[1]
        scores = _count_exp_elements(monkeypatch)
        for chunk_rows in (plan_module._CHUNK_ROWS, 5, 16):
            monkeypatch.setattr(plan_module, "_CHUNK_ROWS", chunk_rows)
            scores[0] = 0
            blocked = execute_plan_attention(plan, q, k, v)
            np.testing.assert_allclose(blocked, reference, atol=1e-12)
            assert scores[0] <= 48 * (chunk_rows + 8 - 1 + extra_width)

    def test_scores_stay_window_proportional(self, monkeypatch):
        """A head scores at most ``N * (chunk + W - 1)`` pairs, never ``N * N``.

        Counted, not timed: at seq_len 512 and W = 64 that is
        ``512 * (32 + 64 - 1) = 48,640`` scores, where one 512-row chunk
        would score all ``512 * 512 = 262,144`` pairs.
        """
        plan = compile_plan(_config(window_tokens=64), 512)
        q, k, v = attention_inputs(512, 16, seed=0)
        scores = _count_exp_elements(monkeypatch)
        execute_plan_attention(plan, q, k, v)
        assert 0 < scores[0] <= 48_640


class TestBatchedExecutor:
    """The stacked batch axis: bit-identical to single-head execution."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"num_global": 3},
            {"num_global": 2, "num_random": 3},
        ],
        ids=["window", "global", "bigbird"],
    )
    @pytest.mark.parametrize("subtract_max", [False, True], ids=["raw", "stable"])
    def test_stacked_heads_bit_identical_to_single(self, overrides, subtract_max):
        config = _config(window_tokens=8, **overrides)
        plan = compile_plan(config, 40)
        heads = [attention_inputs(40, 16, seed=head) for head in range(5)]
        q = np.stack([head[0] for head in heads])
        k = np.stack([head[1] for head in heads])
        v = np.stack([head[2] for head in heads])
        stacked = execute_plan_attention(plan, q, k, v, subtract_max=subtract_max)
        assert stacked.shape == q.shape
        for index, (hq, hk, hv) in enumerate(heads):
            single = execute_plan_attention(plan, hq, hk, hv, subtract_max=subtract_max)
            assert np.array_equal(stacked[index], single), f"head {index} diverged"

    def test_four_dimensional_batch_of_multi_head_items(self):
        plan = compile_plan(_config(window_tokens=8, num_random=2), 32)
        rng = np.random.default_rng(0)
        q, k, v = rng.standard_normal((3, 2, 3, 32, 16))
        out = execute_plan_attention(plan, q, k, v)
        assert out.shape == (2, 3, 32, 16)
        for b in range(2):
            for h in range(3):
                single = execute_plan_attention(plan, q[b, h], k[b, h], v[b, h])
                assert np.array_equal(out[b, h], single)

    def test_bad_rank_and_shape_mismatch_raise(self):
        plan = compile_plan(_config(), 16)
        q, k, v = attention_inputs(16, 16, seed=0)
        with pytest.raises(ValueError, match="2-D, 3-D or 4-D"):
            execute_plan_attention(
                plan, q[None, None, None], k[None, None, None], v[None, None, None]
            )
        with pytest.raises(ValueError, match="shapes must match"):
            execute_plan_attention(plan, q[None], k, v)


class TestPlanBatch:
    def test_stack_execute_split_round_trip(self):
        config = _config(window_tokens=8, num_global=2, num_random=2)
        plan = compile_plan(config, 40)
        single = attention_inputs(40, 16, seed=0)
        stacked_item = tuple(
            np.stack([axis, axis * 0.5]) for axis in attention_inputs(40, 16, seed=1)
        )
        batch = PlanBatch.from_items(plan, [single, stacked_item])
        assert batch.num_items == 2
        assert batch.num_heads == 3
        assert batch.head_counts == (1, 2)
        assert batch.seq_len == 40
        outputs = batch.split(batch.execute())
        assert outputs[0].shape == (40, 16)  # 2-D item comes back 2-D
        assert outputs[1].shape == (2, 40, 16)
        assert np.array_equal(outputs[0], execute_plan_attention(plan, *single))
        assert np.array_equal(outputs[1], execute_plan_attention(plan, *stacked_item))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one item"):
            PlanBatch.from_items(compile_plan(_config(), 16), [])

    def test_wrong_seq_len_item_rejected(self):
        plan = compile_plan(_config(), 16)
        with pytest.raises(ValueError, match="plan covers 16"):
            PlanBatch.from_items(plan, [attention_inputs(24, 16, seed=0)])

    def test_split_requires_matching_stack(self):
        plan = compile_plan(_config(), 16)
        batch = PlanBatch.from_items(plan, [attention_inputs(16, 16, seed=0)])
        with pytest.raises(ValueError, match="batch holds 1"):
            batch.split(np.zeros((2, 16, 16)))
