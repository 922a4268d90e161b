import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import kwspot
from kwspot.autodiff import Tensor, backward, grad_check
from kwspot.errors import ConfigError, ShapeError, UsageError
from kwspot.layers import (
    BnStats, attention, batch_norm, bilstm_sequence, conv2d, dense, dropout, max_pool,
)
from kwspot.models import ARCHITECTURES, ModelConfig, build_model, model_forward
from kwspot.training import cross_entropy_loss

from conftest import PAPER_BN_SHAPES, _bilstm_params, _paper_bn_inputs, _train_bn
from oracles import (
    _bits, _rel_err, composed_batch_norm, composed_bilstm, naive_batch_norm, naive_conv2d,
    naive_lstm, naive_max_pool, shift_add_input_grad, two_pass_batch_norm,
    whole_batch_pool, whole_batch_train_bn,
)


def _kernels(rng, oc, ic, kh, kw):
    return Tensor(rng.normal(size=(oc, ic, kh, kw)), requires_grad=True)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)))
        assert np.allclose(conv2d(x, Tensor(np.ones((1, 1, 1, 1)))).data, x.data)

    def test_all_ones(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        out = conv2d(x, Tensor(np.ones((1, 1, 3, 3)))).data[0, 0]
        assert out.shape == (5, 5)
        assert np.allclose(out[1:-1, 1:-1], 9.0)
        assert np.allclose(out[[0, 0, -1, -1], [0, -1, 0, -1]], 4.0)
        assert np.allclose(out[0, 1:-1], 6.0)

    def test_even_kernel_pads_bottom_right(self):
        # a 2x2 kernel pads (2-1)//2 = 0 rows on top and one at the bottom
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        out = conv2d(x, Tensor(np.ones((1, 1, 2, 2)))).data[0, 0]
        assert np.array_equal(out[0], [8.0, 12.0, 7.0])
        assert np.array_equal(out[-1], [13.0, 15.0, 8.0])

    def test_channel_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), _kernels(rng, 2, 2, 3, 3))

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_naive(self, trial):
        rng = np.random.default_rng(100 + trial)
        n, c, oc = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 4)
        h, w = rng.integers(4, 8), rng.integers(4, 8)
        kh, kw = rng.integers(1, 4), rng.integers(1, 4)
        x = Tensor(rng.normal(size=(n, c, h, w)))
        kernels = _kernels(rng, oc, c, kh, kw)
        out = conv2d(x, kernels)
        ref = naive_conv2d(x.data, kernels.data)
        assert np.abs(out.data - ref).max() < 1e-10

    def test_gradients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
        kernels = _kernels(rng, 3, 2, 3, 3)
        assert grad_check(
            lambda: (conv2d(x, kernels) ** 2.0).sum(), [x, kernels]
        ) < 1e-5

    @pytest.mark.parametrize("kh,kw", [(2, 3), (1, 2), (2, 2)])
    def test_gradients_uneven_pad(self, kh, kw):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
        kernels = _kernels(rng, 3, 2, kh, kw)
        assert grad_check(
            lambda: (conv2d(x, kernels) ** 2.0).sum(), [x, kernels]
        ) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,kernel", [
        ((3, 2, 7, 5, 4), (3, 3)), ((2, 3, 6, 8, 5), (3, 3)), ((2, 2, 5, 6, 3), (2, 3)),
        ((2, 3, 8, 7, 2), (3, 2)), ((2, 1, 6, 6, 4), (1, 4)), ((1, 2, 1, 9, 3), (4, 1)),
        ((2, 32, 49, 20, 64), (3, 3)),
    ])
    def test_input_gradient_matches_shift_add(self, shape, kernel, dtype):
        # the width-padded col2im adds the same terms in the same order
        n, c, h, w, oc = shape
        rng = np.random.default_rng(h * 100 + w)
        x = Tensor(rng.normal(size=(n, c, h, w)).astype(dtype), requires_grad=True)
        k = Tensor(rng.normal(size=(oc, c) + kernel).astype(dtype))
        g = rng.normal(size=(n, oc, h, w)).astype(dtype)
        backward((conv2d(x, k) * Tensor(g)).sum())
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, shift_add_input_grad(g, k.data))

    def test_peak_memory(self):
        # the backward copies one shifted window of the padded input at a
        # time: about 4.5x the input's bytes at this shape; a kernel
        # gradient that copies the whole im2col view peaks near 11.6x
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(8, 16, 24, 20)), requires_grad=True)
        kernels = _kernels(rng, 16, 16, 3, 3)
        loss = (conv2d(x, kernels) * Tensor(rng.normal(size=x.shape))).sum()
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * x.data.nbytes

    def test_forward_peak_memory(self):
        # the second conv of the paper's models at batch 32, float32: the
        # forward holds its output, the padded input and one sample's
        # im2col, about 1.5x the output plus that im2col; a batch im2col
        # peaks near 5.3x
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(32, 32, 49, 20)).astype(np.float32), requires_grad=True)
        kernels = Tensor(_kernels(rng, 64, 32, 3, 3).data.astype(np.float32),
                         requires_grad=True)
        tracemalloc.start()
        try:
            out = conv2d(x, kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cols = 32 * 3 * 3 * 49 * 20 * 4
        assert peak < 2 * (out.data.nbytes + cols)


class TestMaxPool:
    PALETTE = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.nan])

    def test_simple(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert max_pool(x).data.item() == 4.0

    def test_tie_routes_to_first(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        backward(max_pool(x).sum())
        assert np.array_equal(x.grad.reshape(-1), [1.0, 0.0, 0.0, 0.0])

    def test_negative_tie_routes_to_first(self):
        # all four strided views hold the window's maximum
        x = Tensor(np.full((2, 1, 2, 2), -2.5), requires_grad=True)
        backward(max_pool(x).sum())
        assert np.array_equal(x.grad.reshape(2, 4), [[1.0, 0.0, 0.0, 0.0]] * 2)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            max_pool(Tensor(np.zeros((1, 1, 1, 4))))

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_naive(self, trial):
        rng = np.random.default_rng(200 + trial)
        h, w = rng.integers(2, 10), rng.integers(2, 10)
        x = rng.normal(size=(2, 2, h, w))
        x[0, 0, 0, :2] = x[0, 0, 1, 0]  # a tie in the first window
        xt = Tensor(x, requires_grad=True)
        out = max_pool(xt)
        g = rng.normal(size=out.shape)
        backward((out * Tensor(g)).sum())
        assert out.shape == (2, 2, h // 2, w // 2)
        want, want_grad = naive_max_pool(x, g)
        assert np.array_equal(out.data, want)
        assert np.array_equal(xt.grad, want_grad)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        assert grad_check(lambda: (max_pool(x) ** 2.0).sum(), [x]) < 1e-5

    @pytest.mark.parametrize("h, w", [(4, 6), (5, 7), (4, 7), (5, 6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_matches_scan_order_on_ties(self, h, w, dtype, requires_grad):
        # values drawn from {0, -0, +-1, 2, NaN}: most windows hold a tie,
        # many a +-0 tie, some a NaN
        rng = np.random.default_rng(h * 100 + w)
        x = self.PALETTE[rng.integers(0, len(self.PALETTE), size=(12, 4, h, w))].astype(dtype)
        # a +-0 tie whose scan-order winner is +0, where pooling the two
        # rows before the column pair would give -0
        x[0, 0, :2, :2] = [[-1.0, 0.0], [-0.0, -3.0]]
        xt = Tensor(x.copy(), requires_grad=requires_grad)
        out = max_pool(xt)
        g = rng.normal(size=out.shape).astype(dtype) if requires_grad else None
        want, want_grad = naive_max_pool(x, g)
        assert out.data.dtype == x.dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(out.data), nan)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        assert np.array_equal(out.data.view(bits)[~nan], want.view(bits)[~nan])
        if requires_grad:
            backward((out * Tensor(g)).sum())
            assert np.array_equal(xt.grad, want_grad)

    @pytest.mark.parametrize("h, w", [(4, 6), (5, 7), (4, 7), (5, 6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_with_and_without_grad(self, h, w, dtype):
        rng = np.random.default_rng(h * 10 + w)
        x = self.PALETTE[rng.integers(0, len(self.PALETTE), size=(12, 4, h, w))].astype(dtype)
        infer = max_pool(Tensor(x.copy())).data
        train = max_pool(Tensor(x.copy(), requires_grad=True)).data
        assert train.dtype == infer.dtype == x.dtype
        assert train.tobytes() == infer.tobytes()


class TestPoolBeforeRelu:
    """The conv blocks pool before the ReLU: max commutes with a monotone
    map, so relu(max_pool(x)) must equal max_pool(relu(x)) bit for bit, in
    values and in the input gradient."""

    @staticmethod
    def _both(x, g):
        results = []
        for f in (lambda t: max_pool(t).relu(), lambda t: max_pool(t.relu())):
            xt = Tensor(x.copy(), requires_grad=True)
            out = f(xt)
            backward((out * Tensor(g)).sum())
            results.append((out.data, xt.grad))
        return results

    @pytest.mark.parametrize("trial", range(20))
    def test_random(self, trial):
        rng = np.random.default_rng(700 + trial)
        h, w = (int(v) for v in rng.integers(2, 10, size=2))
        x = rng.normal(size=(2, 3, h, w))
        x[0, 0, :2, :2] = -np.abs(x[0, 0, :2, :2])  # an all-negative window
        x[1, 1, :2, :2] = 0.0  # an all-zero window
        x = x.astype(np.float32 if trial % 2 else np.float64)
        g = rng.normal(size=(2, 3, h // 2, w // 2)).astype(x.dtype)
        (out_a, grad_a), (out_b, grad_b) = self._both(x, g)
        assert out_a.tobytes() == out_b.tobytes()
        assert grad_a.tobytes() == grad_b.tobytes()

    @pytest.mark.parametrize("window", [
        [-2.5, -2.5, -2.5, -2.5],
        [-0.0, 0.0, 0.0, -0.0],
        [0.0, -0.0, -0.0, 0.0],
        [-1.0, -0.0, -3.0, 0.0],
        [-1.0, -2.0, -0.5, -0.25],
        [0.0, 1.5, 1.5, -0.0],
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ties_and_signed_zeros(self, window, sign):
        x = np.array(window).reshape(1, 1, 2, 2)
        (out_a, grad_a), (out_b, grad_b) = self._both(x, np.full((1, 1, 1, 1), sign))
        assert out_a.tobytes() == out_b.tobytes()
        assert grad_a.tobytes() == grad_b.tobytes()


# prints a SHA-256 of each of _train_bn's results at the paper shapes, one
# line per shape; run with the test directory on the path
THREAD_PROBE = """
import hashlib
from conftest import PAPER_BN_SHAPES, _paper_bn_inputs, _train_bn
for shape in PAPER_BN_SHAPES:
    results = _train_bn(*_paper_bn_inputs(shape, 11))
    print(" ".join(hashlib.sha256(a.tobytes()).hexdigest() for a in results))
"""


class TestBatchNorm:
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("trial", range(24))
    def test_matches_reference(self, trial, mode):
        rng = np.random.default_rng(600 + trial)
        n, c, h, w = (int(v) for v in rng.integers(1, [6, 5, 7, 7]))
        if trial % 3 == 0:
            n = 1
        if trial % 4 == 0:
            h = w = 1
        x = rng.normal(rng.normal(), rng.uniform(0.5, 3.0), size=(n, c, h, w))
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.normal(size=c)
        mean, var = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
        upstream = rng.normal(size=x.shape)

        want, want_mean, want_var = naive_batch_norm(x, gamma, beta, mean, var, mode)
        stats = BnStats(mean=mean.copy(), var=var.copy())
        # infer mode has no backward, so its leaves require no gradient
        leaves = [Tensor(v, requires_grad=mode == "train") for v in (x, gamma, beta)]
        out = batch_norm(*leaves, stats, mode)
        assert _rel_err(out.data, want) < 1e-12
        assert _rel_err(stats.mean, want_mean) < 1e-12
        assert _rel_err(stats.var, want_var) < 1e-12
        if mode != "train":
            return

        backward((out * Tensor(upstream)).sum())
        ref = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        backward((composed_batch_norm(*ref) * Tensor(upstream)).sum())
        # the terms of the input gradient are of size |g| * gamma / sigma and
        # cancel when a channel holds few values; measure error against them
        term = np.abs(upstream).max() * np.max(gamma / np.sqrt(x.var(axis=(0, 2, 3)) + 1e-5))
        assert _rel_err(leaves[0].grad, ref[0].grad, term) < 1e-12
        assert _rel_err(leaves[1].grad, ref[1].grad) < 1e-12
        assert _rel_err(leaves[2].grad, ref[2].grad) < 1e-12

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (1, 2, 3, 4, 5)])
    def test_non_nchw_input_refused(self, shape):
        stats = BnStats(mean=np.zeros(3), var=np.ones(3))
        with pytest.raises(ShapeError, match=rf"batch_norm expects NCHW input, got "
                                             rf"{re.escape(str(shape))}"):
            batch_norm(Tensor(np.zeros(shape)), Tensor(np.ones(3)), Tensor(np.zeros(3)), stats,
                       "train")

    # about 4x the largest error of each result measured at the paper shapes
    # (out 1.1e-6, running mean 1.4e-7 and var 9.4e-8, dx 1.3e-7, dgamma
    # 5.4e-6, dbeta 3.1e-7), each relative to the result's largest magnitude
    ORACLE_BOUNDS = {"out": 5e-6, "mean": 5e-7, "var": 5e-7,
                     "dx": 5e-7, "dgamma": 2e-5, "dbeta": 1e-6}

    @pytest.mark.parametrize("shape", PAPER_BN_SHAPES)
    def test_float32_matches_two_pass_oracle(self, shape):
        inputs = _paper_bn_inputs(shape, 11)
        got = _train_bn(*inputs)
        want = two_pass_batch_norm(*inputs)
        for (name, bound), a, b in zip(self.ORACLE_BOUNDS.items(), got, want):
            assert a.dtype == np.float32, name
            assert _rel_err(a, b) < bound, name

    def test_same_bits_at_one_and_two_blas_threads(self):
        # the per-channel sums are BLAS dot products, which must not split
        # a row across threads at these row lengths
        paths = os.pathsep.join([str(Path(kwspot.__file__).parents[1]),
                                 str(Path(__file__).parent)])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=paths)
            run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            runs.append(run.stdout.split())
        assert len(runs[0]) == 6 * len(PAPER_BN_SHAPES)
        assert runs[0] == runs[1]

    def test_peak_memory(self):
        # forward and backward at a moderate shape, with the elementwise
        # product and sum that make the loss scalar: about 5x the input's
        # bytes; a batch norm composed of elementwise nodes peaks near 18x
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(8, 16, 24, 20)), requires_grad=True)
        gamma = Tensor(np.ones(16), requires_grad=True)
        beta = Tensor(np.zeros(16), requires_grad=True)
        upstream = Tensor(rng.normal(size=x.shape))
        stats = BnStats(mean=np.zeros(16), var=np.ones(16))
        tracemalloc.start()
        try:
            backward((batch_norm(x, gamma, beta, stats, "train") * upstream).sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_scales_in_place(self, dtype):
        # infer mode normalizes and scales one fresh array in place; the
        # input is untouched and the rounding is that of the out-of-place
        # form
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4, 5, 6)).astype(dtype))
        x_before = x.data.copy()
        gamma, beta = (rng.normal(size=4).astype(dtype) for _ in range(2))
        mean, var = rng.normal(size=4).astype(dtype), rng.uniform(0.5, 2.0, 4).astype(dtype)
        out = batch_norm(x, Tensor(gamma), Tensor(beta), BnStats(mean=mean, var=var), "infer")
        shape = (1, -1, 1, 1)
        want = gamma.reshape(shape) * (
            (x.data - mean.reshape(shape)) * (var.reshape(shape) + 1e-5) ** -0.5
        ) + beta.reshape(shape)
        assert np.array_equal(x.data, x_before)
        assert out.data.dtype == want.dtype == dtype
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize("leaf", range(3))
    def test_infer_refuses_a_leaf_that_requires_grad(self, leaf):
        rng = np.random.default_rng(11)
        leaves = [Tensor(rng.normal(size=shape)) for shape in ((2, 3, 4, 4), 3, 3)]
        leaves[leaf].requires_grad = True
        stats = BnStats(mean=np.zeros(3), var=np.ones(3))
        with pytest.raises(UsageError, match="infer mode has no backward"):
            batch_norm(*leaves, stats, "infer")

    def test_train_normalizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 3, 5, 5)))
        stats = BnStats(mean=np.zeros(3), var=np.ones(3))
        out = batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, "train")
        mu = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.abs(mu).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-4  # epsilon shifts variance slightly

    def test_infer_consistency(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(16, 2, 4, 4)))
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        train_out = batch_norm(
            x, g, b, BnStats(mean=np.zeros(2), var=np.ones(2)), "train"
        )
        infer_out = batch_norm(x, g, b, BnStats(mean=mu, var=var), "infer")
        assert np.abs(train_out.data - infer_out.data).max() < 1e-10

    def test_running_stats_update(self):
        x = Tensor(np.full((4, 1, 2, 2), 10.0))
        stats = BnStats(mean=np.zeros(1), var=np.ones(1))
        batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), stats, "train")
        assert stats.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 10.0)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        stats = BnStats(mean=np.zeros(2), var=np.ones(2))
        leaves = [x, g, b]
        # weight the loss elementwise: sum(out^2) alone is nearly invariant
        # to x (normalization cancels shift and scale), which would leave a
        # near-zero true gradient swamped by finite-difference noise
        coeff = Tensor(rng.normal(size=(4, 2, 3, 3)))
        assert grad_check(
            lambda: (coeff * batch_norm(x, g, b, stats, "train") ** 2.0).sum(),
            leaves,
        ) < 1e-5


class TestOneSampleAtATime:
    """max_pool and train-mode batch_norm run their passes one sample at a
    time; every output and gradient must keep the bits of whole-batch
    passes over the same sums."""

    # three samples at the models' two conv-block shapes, and an odd H and W
    SHAPES = [(3, 32, 98, 40), (3, 64, 49, 20), (3, 5, 7, 9)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_matches_whole_batch(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        palette = TestMaxPool.PALETTE
        x = palette[rng.integers(0, len(palette), size=shape)].astype(dtype)
        g = rng.normal(size=(*shape[:2], shape[2] // 2, shape[3] // 2)).astype(dtype)
        xt = Tensor(x.copy(), requires_grad=True)
        out = max_pool(xt)
        backward((out * Tensor(g)).sum())
        want_out, want_gx = whole_batch_pool(x, g)
        assert np.array_equal(_bits(out.data), _bits(want_out))
        assert np.array_equal(_bits(xt.grad), _bits(want_gx))
        assert np.array_equal(_bits(max_pool(Tensor(x)).data), _bits(want_out))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_batch_norm_matches_whole_batch(self, shape, dtype):
        inputs = [a.astype(dtype) for a in _paper_bn_inputs(shape, sum(shape))]
        got = _train_bn(*inputs)
        want = whole_batch_train_bn(*inputs)
        names = ("out", "running mean", "running var", "dx", "dgamma", "dbeta")
        for name, a, b in zip(names, got, want):
            assert a.dtype == b.dtype == dtype, name
            assert np.array_equal(_bits(a), _bits(b)), name


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, "train") is x

    def test_infer_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.7, "infer") is x

    def test_train_needs_rng(self):
        # an unseeded mask would make a training run unreproducible
        with pytest.raises(ConfigError, match="rng"):
            dropout(Tensor(np.ones((3, 3))), 0.5, "train")

    def test_statistics(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, "train", rng).data
        survivors = (out != 0).mean()
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("seed", range(3))
    def test_keep_fraction_binomial(self, seed):
        # rate 0.25 keeps a draw >= 2**30: probability 3/4 exactly; the
        # count of 200001 draws (odd: half of the last raw draw unused) lies
        # within 5 standard deviations of the binomial mean
        n, p = 200_001, 0.75
        out = dropout(Tensor(np.ones(n)), 0.25, "train", np.random.default_rng(seed)).data
        kept = int((out != 0).sum())
        assert abs(kept - n * p) < 5 * (n * p * (1 - p)) ** 0.5
        assert set(np.unique(out)) == {0.0, 1.0 / 0.75}

    def test_seeded_mask_float32(self):
        # the same seed gives the same mask; a float32 input gets a float32
        # mask, so its output and gradient stay float32
        runs = []
        for _ in range(2):
            x = Tensor(np.ones((3, 5, 7), np.float32), requires_grad=True)
            out = dropout(x, 0.3, "train", np.random.default_rng(11))
            backward(out.sum())
            assert out.data.dtype == x.grad.dtype == np.float32
            runs.append((out.data, x.grad))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[0][0])
        kept = runs[0][0] != 0
        assert 0 < kept.sum() < kept.size
        assert np.all(runs[0][0][kept] == np.float32(1.0) / np.float32(0.7))


class TestDense:
    def test_identity(self):
        x = Tensor(np.random.default_rng(8).normal(size=(2, 4)))
        out = dense(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, x.data)

    def test_matches_matmul(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = dense(Tensor(x), Tensor(w), Tensor(b))
        assert np.abs(out.data - (x @ w + b)).max() < 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


def _bilstm_run(fn, shape, dtype, seed, half=None):
    """(output, dx, dW, dU, db) of fn(seq, W, U, b) under a random upstream
    gradient, on the output's `half` (0 forward, 1 time-reversed) only if
    one is given."""
    n, t_len, d, hidden = shape
    rng = np.random.default_rng(seed)
    params = _bilstm_params(rng, d, hidden, scale=2.0)
    seq = Tensor(rng.normal(size=(n, t_len, d)), requires_grad=True)
    upstream = rng.normal(size=(n, t_len, 2 * hidden)).astype(dtype)
    if half is not None:
        upstream[:, :, (1 - half) * hidden:(2 - half) * hidden] = 0.0
    leaves = [seq] + params
    for leaf in leaves:
        leaf.data = leaf.data.astype(dtype)
    out = fn(*leaves)
    backward((out * Tensor(upstream)).sum())
    return [out.data] + [leaf.grad for leaf in leaves]


class TestLstm:
    # each direction of bilstm_sequence against the one-direction references
    def test_zero_weights_zero_state(self):
        params = _bilstm_params(np.random.default_rng(11), 4, 3, scale=0.0)
        out = bilstm_sequence(Tensor(np.ones((2, 1, 4))), *params)
        assert np.abs(out.data).max() == 0.0

    def test_hidden_bounded(self):
        rng = np.random.default_rng(12)
        params = _bilstm_params(rng, 4, 3, scale=5.0)
        out = bilstm_sequence(Tensor(10.0 * rng.normal(size=(2, 6, 4))), *params)
        assert np.abs(out.data).max() < 1.0

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_per_gate_reference(self, trial):
        rng = np.random.default_rng(300 + trial)
        n, d, hidden = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 6)
        t_len = 1 if trial < 4 else int(rng.integers(2, 8))
        W, U, b = _bilstm_params(rng, d, hidden, scale=2.0)
        x = rng.normal(size=(n, t_len, d))
        out = bilstm_sequence(Tensor(x), W, U, b).data
        assert out.shape == (n, t_len, 2 * hidden)
        for k, half in enumerate((out[:, :, :hidden], out[:, :, hidden:])):
            ref = naive_lstm(x, W.data[k], U.data[k], b.data[k], reverse=bool(k))
            assert np.abs(half - ref).max() < 1e-12, k

    def test_gradients_through_unrolled_steps(self):
        rng = np.random.default_rng(13)
        params = _bilstm_params(rng, 3, 2, scale=2.0)
        seq = Tensor(rng.normal(size=(5, 2, 3)).transpose(1, 0, 2))

        def f():
            # each direction's last step: the forward's at T - 1, the
            # reversed one's at 0
            out = bilstm_sequence(seq, *params)
            h, r = out[:, -1, :2], out[:, 0, 2:]
            return (h * h).sum() + (r * r).sum()

        assert grad_check(f, params) < 1e-5

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1, 3, 2), (3, 5, 7, 4), (2, 6, 1, 5),
                                       (4, 24, 9, 6)])
    def test_matches_composed_graph(self, shape, reverse):
        # the upstream gradient on one direction's half only, so that the
        # other direction's gradients are exact zeros
        k = int(reverse)
        got = _bilstm_run(bilstm_sequence, shape, np.float64, 700 + sum(shape), half=k)
        want = _bilstm_run(composed_bilstm, shape, np.float64, 700 + sum(shape), half=k)
        # the same float operations in the same order, except dU: one
        # matmul over all steps sums in another order than per-step ones
        for name, g, w in zip(("out", "dx", "dW", "dU", "db"), got, want):
            if name == "dU":
                assert _rel_err(g, w) < 1e-12
            else:
                assert np.array_equal(g, w), name
        for name, g in zip("WUb", got[2:]):
            assert not g[1 - k].any(), name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_stays_float32(self, reverse):
        got = _bilstm_run(bilstm_sequence, (3, 6, 5, 4), np.float32, 720, half=int(reverse))
        assert [a.dtype for a in got] == [np.dtype(np.float32)] * 5


class TestBilstm:
    def test_output_shape(self):
        rng = np.random.default_rng(14)
        seq = Tensor(rng.normal(size=(1, 98, 4)))
        out = bilstm_sequence(seq, *_bilstm_params(rng, 4, 64))
        assert out.shape == (1, 98, 128)

    def test_single_timestep(self):
        # one step runs the same either way, so swapping the directions'
        # weights swaps the halves
        rng = np.random.default_rng(15)
        params = _bilstm_params(rng, 4, 3)
        seq = Tensor(rng.normal(size=(2, 1, 4)))
        out = bilstm_sequence(seq, *params).data
        swapped = bilstm_sequence(seq, *(Tensor(p.data[::-1].copy()) for p in params)).data
        assert np.array_equal(out[:, :, :3], swapped[:, :, 3:])
        assert np.array_equal(out[:, :, 3:], swapped[:, :, :3])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 3, 2), (1, 7, 4, 3), (8, 12, 5, 4),
                                       (32, 6, 3, 2)])
    def test_matches_two_directions(self, shape, dtype):
        # the fused scan over both directions runs the float operations of
        # the two composed directions side by side, forward and backward,
        # except dU: one matmul over all steps sums in another order than
        # per-step ones, which float32 rounds at about one part in 1e7
        got = _bilstm_run(bilstm_sequence, shape, dtype, 17 + sum(shape))
        want = _bilstm_run(composed_bilstm, shape, dtype, 17 + sum(shape))
        assert len(got) == 5
        for name, g, w in zip(("out", "dx", "dW", "dU", "db"), got, want):
            assert g.dtype == np.dtype(dtype), name
            if name == "dU":
                tol = {np.float32: 1e-6, np.float64: 1e-12}[dtype]
                assert _rel_err(g, w) < tol, name
            else:
                assert np.array_equal(g, w), name

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(16)
        params = _bilstm_params(rng, 4, 3)
        swapped_params = [Tensor(p.data[::-1].copy()) for p in params]
        seq = rng.normal(size=(1, 6, 4))
        out1 = bilstm_sequence(Tensor(seq), *params).data
        out2 = bilstm_sequence(Tensor(seq[:, ::-1].copy()), *swapped_params).data
        swapped = np.concatenate([out2[:, ::-1, 3:], out2[:, ::-1, :3]], axis=2)
        assert np.abs(out1 - swapped).max() < 1e-12


class TestAttention:
    def test_single_key(self):
        rng = np.random.default_rng(17)
        q = Tensor(rng.normal(size=(1, 4)))
        keys = Tensor(rng.normal(size=(1, 1, 4)))
        values = Tensor(rng.normal(size=(1, 1, 6)))
        context, weights = attention(q, keys, values)
        assert weights.data[0, 0] == 1.0
        assert np.array_equal(context.data, values.data[:, 0])

    def test_identical_keys_uniform(self):
        rng = np.random.default_rng(18)
        q = Tensor(rng.normal(size=(1, 3)))
        keys = Tensor(np.tile(rng.normal(size=3), (1, 5, 1)))
        values = Tensor(rng.normal(size=(1, 5, 2)))
        context, weights = attention(q, keys, values)
        assert np.abs(weights.data - 0.2).max() < 1e-12
        assert np.allclose(context.data, values.data.mean(axis=1))

    def test_weights_contract(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            _, weights = attention(
                Tensor(rng.normal(size=(1, 4))),
                Tensor(rng.normal(size=(1, 7, 4))),
                Tensor(rng.normal(size=(1, 7, 3))),
            )
            assert np.all(weights.data >= 0)
            assert abs(weights.data.sum() - 1.0) < 1e-12

    def test_score_shift_invariance(self):
        # adding a constant vector component orthogonal shift: verify via
        # softmax property on raw scores
        rng = np.random.default_rng(20)
        q = rng.normal(size=(1, 4))
        keys = rng.normal(size=(1, 6, 4))
        _, w1 = attention(Tensor(q), Tensor(keys), Tensor(keys))
        # shifting all scores equally: add a key-independent offset by
        # augmenting the key matrix with a constant column and the query
        q2 = np.concatenate([q, [[1.0]]], axis=1)
        keys2 = np.concatenate([keys, np.full((1, 6, 1), 3.21)], axis=2)
        scale_fix = np.sqrt(5) / np.sqrt(4)
        _, w2 = attention(Tensor(q2 * scale_fix), Tensor(keys2), Tensor(keys))
        assert np.abs(w1.data - w2.data).max() < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(21)
        q = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        keys = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        values = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        leaves = [q, keys, values]

        def f():
            context, _ = attention(q, keys, values)
            return (context * context).sum()

        assert grad_check(f, leaves) < 1e-5

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            attention(
                Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4, 5))),
                Tensor(np.zeros((1, 4, 2))),
            )


def _leaf_grads(fn, arrays, upstream, mask):
    """The .grad of each leaf after a backward of fn under `upstream`, with
    leaf i requiring a gradient where mask[i] is set."""
    leaves = [Tensor(a, requires_grad=m) for a, m in zip(arrays, mask)]
    backward((fn(*leaves) * Tensor(upstream)).sum())
    return [leaf.grad for leaf in leaves]


def _conv_case(rng):
    return conv2d, [rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 3, 3, 2))]


def _bn_case(rng):
    def fn(x, gamma, beta):
        return batch_norm(x, gamma, beta, BnStats(mean=np.zeros(3), var=np.ones(3)), "train")
    return fn, [rng.normal(size=(4, 3, 3, 2)), rng.uniform(0.5, 1.5, 3), rng.normal(size=3)]


def _bilstm_case(rng):
    params = [p.data for p in _bilstm_params(rng, 3, 2, scale=2.0)]
    return bilstm_sequence, [rng.normal(size=(2, 4, 3))] + params


class TestSomeLeavesRequireGrad:
    # each custom primitive's backward returns all its gradients, and the
    # engine keeps only those of the leaves that require one
    @pytest.mark.parametrize("case", [_conv_case, _bn_case, _bilstm_case])
    def test_same_bits_as_all_leaves(self, case):
        rng = np.random.default_rng(23)
        fn, arrays = case(rng)
        upstream = rng.normal(size=fn(*map(Tensor, arrays)).shape)
        full = _leaf_grads(fn, arrays, upstream, [True] * len(arrays))
        for mask in itertools.product((False, True), repeat=len(arrays)):
            if all(mask) or not any(mask):
                continue
            for want, got, m in zip(full, _leaf_grads(fn, arrays, upstream, mask), mask):
                if m:
                    assert got.tobytes() == want.tobytes(), mask
                else:
                    assert got is None, mask


def _pool_case(rng):
    return max_pool, [rng.normal(size=(2, 3, 5, 4))]


def _loss_case(rng):
    return (lambda logits: cross_entropy_loss(logits, [0, 2, 1])), [rng.normal(size=(3, 4))]


def _tensors_held(obj, seen) -> int:
    """The Tensors reachable from obj through closure cells, nested
    closures, lists, tuples, dicts and dataclass fields."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return 1
    if isinstance(obj, types.FunctionType):
        children = []
        for cell in obj.__closure__ or ():
            try:
                children.append(cell.cell_contents)
            except ValueError:  # a cell whose variable is not yet bound
                pass
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return 0
    return sum(_tensors_held(child, seen) for child in children)


class TestClosuresHoldNoTensor:
    # a backward closure captures only the arrays it reads, never a Tensor,
    # whose value it would keep alive until the backward (the autodiff and
    # layers module docstrings)
    @pytest.mark.parametrize("case", [_conv_case, _pool_case, _bn_case, _bilstm_case,
                                      _loss_case])
    def test_custom_primitive(self, case):
        fn, arrays = case(np.random.default_rng(24))
        out = fn(*(Tensor(a, requires_grad=True) for a in arrays))
        assert _tensors_held(out._node._backward, set()) == 0

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_every_node_of_a_train_step(self, arch):
        model = build_model(ModelConfig(arch, 3, (16, 12), conv_channels=(2, 3),
                                        lstm_hidden=3, dense_hidden=4))
        x = np.random.default_rng(25).normal(size=(4, 16, 12))
        logits = model_forward(model, x, rng=np.random.default_rng(26))
        stack, seen = [cross_entropy_loss(logits, [0, 1, 2, 0])._node], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or not hasattr(node, "_backward"):  # a leaf
                continue
            seen.add(id(node))
            assert _tensors_held(node._backward, set()) == 0
            stack.extend(node._parents)
        assert len(seen) > 10

    def test_walk_reaches_nested_tensors(self):
        params = dataclasses.make_dataclass("Params", ["W", "U", "b"])(
            *(Tensor(np.zeros(1)) for _ in range(3)))

        def inner():
            return {"k": [(params, True)]}

        def outer():
            return inner()

        assert _tensors_held(outer, set()) == 3
