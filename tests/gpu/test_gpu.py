"""Tests for the analytical GPU attention models."""

import pytest

from repro.gpu.chunked_runner import SlidingChunksAttentionGPU
from repro.gpu.dense_runner import DenseAttentionGPU
from repro.gpu.device import MI210, GPUDevice
from repro.gpu.kernels import GPUKernelModel
from repro.gpu.memory import (
    dense_attention_memory_bytes,
    qkv_memory_bytes,
    sliding_chunks_memory_bytes,
)


class TestDevice:
    def test_mi210_board_power(self):
        assert MI210.board_power_w == 300.0

    def test_peak_flops_lookup(self):
        assert MI210.peak_flops("fp32") == pytest.approx(22.6e12)
        assert MI210.peak_flops("fp16") > MI210.peak_flops("fp32")

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError):
            MI210.peak_flops("int8")

    def test_invalid_device_raises(self):
        with pytest.raises(ValueError):
            GPUDevice(
                name="bad", fp32_tflops=0, fp16_tflops=1, hbm_bandwidth_gbps=1,
                hbm_capacity_gb=1, board_power_w=1,
            )


class TestKernelModel:
    def test_gemm_time_grows_with_size(self):
        model = GPUKernelModel()
        assert model.gemm(8192, 8192, 64).seconds > model.gemm(1024, 1024, 64).seconds

    def test_small_kernel_hits_floor(self):
        model = GPUKernelModel()
        tiny = model.gemm(16, 16, 16)
        assert tiny.seconds >= MI210.small_kernel_floor_s

    def test_floor_can_be_disabled(self):
        model = GPUKernelModel()
        assert model.gemm(16, 16, 16, apply_floor=False).seconds < model.gemm(16, 16, 16).seconds

    def test_softmax_is_memory_bound(self):
        model = GPUKernelModel()
        cost = model.softmax(4096, 4096)
        assert cost.bytes_moved > cost.flops

    def test_elementwise_passes_scale_bytes(self):
        model = GPUKernelModel()
        assert model.elementwise(1000, passes=4).bytes_moved == 4 * model.elementwise(1000).bytes_moved

    def test_element_bytes_by_precision(self):
        assert GPUKernelModel(precision="fp16").element_bytes == 2
        assert GPUKernelModel(precision="fp32").element_bytes == 4

    def test_invalid_efficiency_raises(self):
        with pytest.raises(ValueError):
            GPUKernelModel(gemm_efficiency=0.0)

    def test_invalid_kernel_sizes_raise(self):
        model = GPUKernelModel()
        with pytest.raises(ValueError):
            model.gemm(0, 4, 4)
        with pytest.raises(ValueError):
            model.softmax(0, 4)
        with pytest.raises(ValueError):
            model.kernel("x", flops=-1)

    def test_total_seconds_sums(self):
        model = GPUKernelModel()
        costs = [model.gemm(64, 64, 64), model.softmax(64, 64)]
        assert model.total_seconds(costs) == pytest.approx(sum(c.seconds for c in costs))


class TestDenseRunner:
    def test_time_quadratic_at_long_lengths(self):
        dense = DenseAttentionGPU()
        t8k = dense.run(8192).seconds
        t16k = dense.run(16384).seconds
        assert 2.5 < t16k / t8k < 5.0

    def test_time_flat_at_short_lengths(self):
        dense = DenseAttentionGPU()
        assert dense.run(1024).seconds / dense.run(512).seconds < 1.5

    def test_memory_quadratic(self):
        dense = DenseAttentionGPU()
        assert dense.run(16384).memory_bytes / dense.run(8192).memory_bytes > 3.5

    def test_energy_uses_board_power(self):
        report = DenseAttentionGPU().run(4096)
        assert report.energy_joules == pytest.approx(300.0 * report.seconds)

    def test_kernel_count_constant(self):
        dense = DenseAttentionGPU()
        assert dense.run(1024).kernel_count == dense.run(8192).kernel_count

    def test_invalid_seq_len_raises(self):
        with pytest.raises(ValueError):
            DenseAttentionGPU().run(0)

    def test_heads_scale_cost_when_launches_not_amortised(self):
        """launch_amortisation=0 reprices the looped per-head dispatch exactly."""
        looped = DenseAttentionGPU(head_dim=16, launch_amortisation=0.0)
        one = looped.run_batch(256, items=1).seconds
        assert looped.run_batch(256, items=4).seconds == pytest.approx(4 * one)

    def test_batching_amortises_launches(self):
        """The default batched stream beats the looped baseline, bounded below

        by pure compute scaling (arithmetic still grows with the head count).
        """
        batched = DenseAttentionGPU(head_dim=16)  # launch_amortisation=1.0
        looped = DenseAttentionGPU(head_dim=16, launch_amortisation=0.0)
        batched_seconds = batched.run_batch(256, items=8).seconds
        assert batched_seconds < looped.run_batch(256, items=8).seconds
        # Same arithmetic either way: only the launch/floor overhead shrinks.
        assert batched_seconds > 0.5 * batched.run_batch(256, items=1).seconds


class TestChunkedRunner:
    def test_memory_linear(self):
        chunks = SlidingChunksAttentionGPU(window=256)
        ratio = chunks.run(16384).memory_bytes / chunks.run(8192).memory_bytes
        assert 1.8 < ratio < 2.2

    def test_memory_far_below_dense_at_long_lengths(self):
        dense = DenseAttentionGPU().run(16384).memory_bytes
        chunked = SlidingChunksAttentionGPU(window=256).run(16384).memory_bytes
        assert chunked < dense / 5

    def test_time_same_order_as_dense(self):
        """The paper's observation: chunking saves memory but not much time."""
        dense = DenseAttentionGPU().run(16384).seconds
        chunked = SlidingChunksAttentionGPU(window=256).run(16384).seconds
        assert dense / 4 < chunked < dense * 2

    def test_kernel_count_scales_with_chunks(self):
        chunks = SlidingChunksAttentionGPU(window=256)
        assert chunks.run(8192).kernel_count > chunks.run(2048).kernel_count

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            SlidingChunksAttentionGPU(window=0)


class TestMemoryFootprints:
    def test_dense_dominated_by_score_matrix(self):
        n = 8192
        assert dense_attention_memory_bytes(n, 64) >= n * n * 4

    def test_chunks_linear_formula(self):
        assert sliding_chunks_memory_bytes(2048, 256, 64) < dense_attention_memory_bytes(2048, 64)

    def test_qkv_footprint(self):
        assert qkv_memory_bytes(128, 64, 4) == 4 * 128 * 64 * 4

    def test_paper_scale_dense_memory_about_1gb(self):
        assert 0.9e9 < dense_attention_memory_bytes(16384, 64) < 1.3e9

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            dense_attention_memory_bytes(0, 64)
        with pytest.raises(ValueError):
            sliding_chunks_memory_bytes(128, 0, 64)
