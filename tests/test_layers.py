import tracemalloc

import numpy as np
import pytest

from kwspot.autodiff import Tensor, backward, concat, grad_check
from kwspot.errors import ShapeError
from kwspot.layers import (
    LSTM_GATES, BnStats, LstmParams, attention, batch_norm,
    bilstm_sequence, conv2d, dense, dropout, lstm_sequence, max_pool,
)


def naive_conv2d(x, k):
    """Six-loop cross-correlation, zero "same" padding: (k-1)//2 on the top
    and left, the rest on the bottom and right."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = k.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    x = np.pad(x, ((0, 0), (0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
    out = np.zeros((n, oc, h, w))
    for ni in range(n):
        for o in range(oc):
            for y in range(h):
                for xx in range(w):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += x[ni, ci, y + i, xx + j] * k[o, ci, i, j]
                    out[ni, o, y, xx] = acc
    return out


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
        oh, ow = h // 2, w // 2
        assert out.shape == (2, 2, oh, ow)
        want_grad = np.zeros_like(x)
        for ni in range(2):
            for ci in range(2):
                for y in range(oh):
                    for xx in range(ow):
                        window = x[ni, ci, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2]
                        assert out.data[ni, ci, y, xx] == window.max()
                        i, j = divmod(int(np.argmax(window)), 2)
                        want_grad[ni, ci, 2 * y + i, 2 * xx + j] = g[ni, ci, y, xx]
        assert np.array_equal(xt.grad, want_grad)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        assert grad_check(lambda: (max_pool(x) ** 2.0).sum(), [x]) < 1e-5


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


def naive_batch_norm(x, gamma, beta, mean, var, mode, momentum=0.9, eps=1e-5):
    """Channel-by-channel loop: (output, new running mean, new running var)."""
    out = np.empty_like(x)
    new_mean, new_var = mean.copy(), var.copy()
    for ch in range(x.shape[1]):
        plane = x[:, ch]
        if mode == "train":
            mu = plane.mean()
            sigma2 = ((plane - mu) ** 2).mean()
            new_mean[ch] = momentum * mean[ch] + (1 - momentum) * mu
            new_var[ch] = momentum * var[ch] + (1 - momentum) * sigma2
        else:
            mu, sigma2 = mean[ch], var[ch]
        out[:, ch] = gamma[ch] * (plane - mu) / np.sqrt(sigma2 + eps) + beta[ch]
    return out, new_mean, new_var


def composed_batch_norm(x, gamma, beta, stats, mode, eps=1e-5):
    """Batch norm composed of the engine's elementwise primitives, so that
    autodiff derives its gradients independently of the fused backward."""
    axes = (0, 2, 3)
    shape = (1, -1, 1, 1)
    if mode == "train":
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
    else:
        mu = Tensor(stats.mean.reshape(shape))
        var = Tensor(stats.var.reshape(shape))
    xhat = (x - mu) * ((var + eps) ** -0.5)
    return gamma.reshape(shape) * xhat + beta.reshape(shape)


def _rel_err(got, want, scale=0.0):
    return np.abs(got - want).max() / max(np.abs(want).max(), scale, 1e-300)


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
        leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        out = batch_norm(*leaves, stats, mode)
        backward((out * Tensor(upstream)).sum())
        assert _rel_err(out.data, want) < 1e-12
        assert _rel_err(stats.mean, want_mean) < 1e-12
        assert _rel_err(stats.var, want_var) < 1e-12

        ref = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        ref_out = composed_batch_norm(*ref, BnStats(mean=mean.copy(), var=var.copy()), mode)
        backward((ref_out * Tensor(upstream)).sum())
        # the terms of the input gradient are of size |g| * gamma / sigma and
        # cancel when a channel holds few values; measure error against them
        sigma2 = x.var(axis=(0, 2, 3)) if mode == "train" else var
        term = np.abs(upstream).max() * np.max(gamma / np.sqrt(sigma2 + 1e-5))
        assert _rel_err(leaves[0].grad, ref[0].grad, term) < 1e-12
        assert _rel_err(leaves[1].grad, ref[1].grad) < 1e-12
        assert _rel_err(leaves[2].grad, ref[2].grad) < 1e-12

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


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, "train") is x

    def test_infer_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.7, "infer") is x

    def test_statistics(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, "train", rng).data
        survivors = (out != 0).mean()
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.02


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


def _lstm_params(rng, in_dim, hidden, requires_grad=True, scale=1.0):
    # one draw per gate block, all W blocks, then all U, then all b
    def t(shape):
        return Tensor(
            np.concatenate([scale * rng.normal(size=shape) / np.sqrt(max(shape))
                            for _ in LSTM_GATES], axis=-1),
            requires_grad=requires_grad,
        )
    return LstmParams(W=t((in_dim, hidden)), U=t((hidden, hidden)), b=t((hidden,)))


def _lstm_leaves(p):
    return [p.W, p.U, p.b]


def naive_lstm(x, W, U, b, reverse=False):
    """Per-gate, per-step reference for lstm_sequence on N x T x d."""
    n, t_len, _ = x.shape
    hidden = U.shape[0]
    block = {gate: slice(k * hidden, (k + 1) * hidden) for k, gate in enumerate(LSTM_GATES)}
    h, c = np.zeros((n, hidden)), np.zeros((n, hidden))
    out = np.zeros((n, t_len, hidden))
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        pre = {gate: x[:, t] @ W[:, s] + h @ U[:, s] + b[s] for gate, s in block.items()}
        i, f, o = (1.0 / (1.0 + np.exp(-pre[gate])) for gate in "ifo")
        c = f * c + i * np.tanh(pre["g"])
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def composed_lstm(seq, params, reverse=False):
    """lstm_sequence composed of the engine's primitives, about 16 nodes per
    step, so that autodiff derives its gradients independently of the
    hand-written BPTT."""
    n, t_len, d = seq.shape
    hidden = params.U.shape[0]
    proj = (seq.reshape(n * t_len, d) @ params.W + params.b).reshape(n, t_len, 4 * hidden)
    h = c = Tensor(np.zeros((n, hidden), dtype=seq.data.dtype))
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outputs = [None] * t_len
    for t in steps:
        z = proj[:, t, :] + h @ params.U
        ifo = z[:, :3 * hidden].sigmoid()
        i, f, o = (ifo[:, k * hidden:(k + 1) * hidden] for k in range(3))
        c = f * c + i * z[:, 3 * hidden:].tanh()
        h = o * c.tanh()
        outputs[t] = h.reshape(n, 1, hidden)
    return concat(outputs, axis=1)


def _lstm_run(fn, shape, reverse, dtype, seed):
    """(output, dx, dW, dU, db) of fn under a random upstream gradient."""
    n, t_len, d, hidden = shape
    rng = np.random.default_rng(seed)
    params = _lstm_params(rng, d, hidden, scale=2.0)
    seq = Tensor(rng.normal(size=(n, t_len, d)), requires_grad=True)
    upstream = rng.normal(size=(n, t_len, hidden))
    leaves = [seq] + _lstm_leaves(params)
    for leaf in leaves:
        leaf.data = leaf.data.astype(dtype)
    out = fn(seq, params, reverse=reverse)
    backward((out * Tensor(upstream.astype(dtype))).sum())
    return [out.data] + [leaf.grad for leaf in leaves]


class TestLstm:
    def test_zero_weights_zero_state(self):
        params = _lstm_params(np.random.default_rng(11), 4, 3, scale=0.0)
        out = lstm_sequence(Tensor(np.ones((2, 1, 4))), params)
        assert np.abs(out.data).max() == 0.0

    def test_hidden_bounded(self):
        rng = np.random.default_rng(12)
        params = _lstm_params(rng, 4, 3, scale=5.0)
        out = lstm_sequence(Tensor(10.0 * rng.normal(size=(2, 6, 4))), params)
        assert np.abs(out.data).max() < 1.0

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_per_gate_reference(self, trial):
        rng = np.random.default_rng(300 + trial)
        n, d, hidden = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 6)
        t_len = 1 if trial < 4 else int(rng.integers(2, 8))
        reverse = bool(trial % 2)
        params = _lstm_params(rng, d, hidden, scale=2.0)
        x = rng.normal(size=(n, t_len, d))
        out = lstm_sequence(Tensor(x), params, reverse=reverse).data
        ref = naive_lstm(x, params.W.data, params.U.data, params.b.data, reverse)
        assert out.shape == (n, t_len, hidden)
        assert np.abs(out - ref).max() < 1e-12

    def test_gradients_through_unrolled_steps(self):
        rng = np.random.default_rng(13)
        params = _lstm_params(rng, 3, 2, scale=2.0)
        seq = Tensor(rng.normal(size=(5, 2, 3)).transpose(1, 0, 2))

        def f():
            h = lstm_sequence(seq, params)[:, -1, :]
            return (h * h).sum()

        assert grad_check(f, _lstm_leaves(params)) < 1e-5

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1, 3, 2), (3, 5, 7, 4), (2, 6, 1, 5),
                                       (4, 24, 9, 6)])
    def test_matches_composed_graph(self, shape, reverse):
        got = _lstm_run(lstm_sequence, shape, reverse, np.float64, 700 + sum(shape))
        want = _lstm_run(composed_lstm, shape, reverse, np.float64, 700 + sum(shape))
        # the same float operations in the same order, except dU: one
        # matmul over all steps sums in another order than per-step ones
        for name, g, w in zip(("out", "dx", "dW", "dU", "db"), got, want):
            if name == "dU":
                assert _rel_err(g, w) < 1e-12
            else:
                assert np.array_equal(g, w), name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_stays_float32(self, reverse):
        got = _lstm_run(lstm_sequence, (3, 6, 5, 4), reverse, np.float32, 720)
        assert [a.dtype for a in got] == [np.dtype(np.float32)] * 5


class TestBilstm:
    def test_output_shape(self):
        rng = np.random.default_rng(14)
        seq = Tensor(rng.normal(size=(1, 98, 4)))
        out = bilstm_sequence(seq, _lstm_params(rng, 4, 64), _lstm_params(rng, 4, 64))
        assert out.shape == (1, 98, 128)

    def test_single_timestep(self):
        # one step runs the same either way, so each half is a forward pass
        rng = np.random.default_rng(15)
        fwd, bwd = _lstm_params(rng, 4, 3), _lstm_params(rng, 4, 3)
        seq = Tensor(rng.normal(size=(2, 1, 4)))
        out = bilstm_sequence(seq, fwd, bwd)
        assert np.allclose(out.data[:, :, :3], lstm_sequence(seq, fwd).data)
        assert np.allclose(out.data[:, :, 3:], lstm_sequence(seq, bwd).data)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(16)
        a, b = _lstm_params(rng, 4, 3), _lstm_params(rng, 4, 3)
        seq = rng.normal(size=(1, 6, 4))
        out1 = bilstm_sequence(Tensor(seq), a, b).data
        out2 = bilstm_sequence(Tensor(seq[:, ::-1].copy()), b, a).data
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
