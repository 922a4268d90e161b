"""Neural building blocks on top of the autodiff engine.

Convolution (one GEMM per sample on that sample's im2col, in the forward
and in both gradients), 2x2 max pooling (four strided views; the backward
reads a uint8 code of the window position that won), batch normalization
(the closed-form backward) and the LSTM over a whole sequence (closed-form
BPTT) are custom primitives with hand-written backward passes; everything
else is composed from the engine's elementwise and matmul primitives. Each
backward closure captures only the arrays it reads, never a Tensor, so a
conv output dies once batch norm has read it and a batch-norm output once
the pool has. The models pool before the ReLU: max commutes with a
monotone map, so max_pool then relu gives the values and gradients of relu
then max_pool, with the ReLU on a quarter of the elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, concat, custom_op
from .errors import ConfigError, ShapeError


# index of the lowest set bit of a 4-bit mask, 4 for none: the first of
# max_pool's four views that holds the maximum
_FIRST_HIT = np.array([4] + [(m & -m).bit_length() - 1 for m in range(1, 16)], dtype=np.uint8)

# column blocks of LstmParams.W, U and b: input, forget, output, candidate
LSTM_GATES = "ifog"

# batch_norm's running-statistics momentum and variance epsilon
BN_MOMENTUM, BN_EPS = 0.9, 1e-5


@dataclass
class LstmParams:
    """All four gates side by side in LSTM_GATES order: W (d, 4h) maps the
    input, U (h, 4h) the previous hidden state, b (4h)."""
    W: Tensor
    U: Tensor
    b: Tensor


@dataclass
class BnStats:
    """Running mean/variance buffers updated in train mode."""
    mean: np.ndarray
    var: np.ndarray


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """Cross-correlation of an NCHW batch with OIHW kernels, one output per
    input position: zeros pad (k-1)//2 rows and columns on the top and left
    and the rest on the bottom and right."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = kernels.shape
    if ic != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernels expect {ic}")
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
    k2d = kernels.data.reshape(oc, c * kh * kw)
    # windows[s].reshape(c * kh * kw, h * w) copies one sample's im2col,
    # cols_s[(c, i, j), (y, x)] = xp[s, c, y + i, x + j]; one GEMM per
    # sample writes its NCHW output, so one im2col is alive at a time
    windows = sliding_window_view(xp, (h, w), axis=(2, 3))
    out = np.empty((n, oc, h * w), dtype=np.result_type(xp, k2d))
    for s in range(n):
        np.matmul(k2d, windows[s].reshape(c * kh * kw, h * w), out=out[s])
    need_x, dtype = x.requires_grad, x.data.dtype
    # only the kernel gradient reads the input
    windows = windows if kernels.requires_grad else None

    def bw(g):
        g = g.reshape(n, oc, h * w)
        gx = gk = None
        if windows is not None:
            gk = sum(g[s] @ windows[s].reshape(c * kh * kw, h * w).T for s in range(n))
            gk = gk.reshape(oc, c, kh, kw)
        if need_x:
            # each sample's k2d^T @ g[s] holds kh * kw shifted blocks of its
            # padded input gradient
            gxp = np.zeros((n, c, h + kh - 1, w + kw - 1), dtype)
            for s in range(n):
                blocks = (k2d.T @ g[s]).reshape(c, kh, kw, h, w)
                for i in range(kh):
                    for j in range(kw):
                        gxp[s, :, i:i + h, j:j + w] += blocks[:, i, j]
            gx = gxp[:, :, pt:pt + h, pl:pl + w]
        return gx, gk

    return custom_op(out.reshape(n, oc, h, w), (x, kernels), bw)


def max_pool(x: Tensor) -> Tensor:
    """Maximum over non-overlapping 2x2 windows; an odd last row or column
    is dropped. The gradient routes to the first maximum in scan order; a
    window with no view equal to its maximum (a NaN) routes none."""
    h, w = x.shape[2:]
    oh, ow = h // 2, w // 2
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool: 2x2 window exceeds input {h}x{w}")
    # one strided view per window position, in scan order
    windows = [(slice(None), slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
               for i in (0, 1) for j in (0, 1)]
    views = [x.data[key] for key in windows]
    # the earlier view goes second: np.maximum returns its second argument
    # on equal values, so a tie of 0.0 and -0.0 keeps the first one's sign
    out = np.maximum(views[1], views[0])
    for view in views[2:]:
        np.maximum(view, out, out=out)
    code = None
    if x.requires_grad:
        # the backward reads a uint8 code per window instead of the input:
        # the scan-order index of the first view equal to the maximum, 4 if
        # none is (a NaN window); bit k of `hits` marks a hit of view k
        hits = np.zeros(out.shape, dtype=np.uint8)
        for k, view in enumerate(views):
            hit = (view == out).view(np.uint8)
            hit <<= k
            hits |= hit
        code = np.take(_FIRST_HIT, hits)
    shape, dtype = x.shape, x.data.dtype

    def bw(g):
        gx = np.zeros(shape, dtype)
        for k, key in enumerate(windows):
            # the four views are disjoint: each writes its own share
            np.multiply(g, code == k, out=gx[key])
        return (gx,)

    return custom_op(out, (x,), bw)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats: BnStats, mode: str) -> Tensor:
    """Per-channel normalization over an NCHW batch: gamma * xhat + beta with
    xhat = (x - mean) / sqrt(var + BN_EPS), from the batch's statistics in train
    mode (which also updates the running ones) and the running ones
    otherwise."""
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.shape}")
    axes = (0, 2, 3)
    shape = (1, -1, 1, 1)
    count = x.size // x.shape[1]
    if mode == "train":
        mu = x.data.sum(axis=axes, keepdims=True) * (1.0 / count)
        xhat = x.data - mu
        var = (xhat * xhat).sum(axis=axes, keepdims=True) * (1.0 / count)
        stats.mean = BN_MOMENTUM * stats.mean + (1 - BN_MOMENTUM) * mu.reshape(-1)
        stats.var = BN_MOMENTUM * stats.var + (1 - BN_MOMENTUM) * var.reshape(-1)
    else:
        xhat = x.data - stats.mean.reshape(shape)
        var = stats.var.reshape(shape)
    inv_std = (var + BN_EPS) ** -0.5
    xhat *= inv_std
    if mode != "train" and not gamma.requires_grad:
        out = xhat  # no backward reads xhat, so scale it in place
        out *= gamma.data.reshape(shape)
    else:
        out = gamma.data.reshape(shape) * xhat
    out += beta.data.reshape(shape)

    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gamma_data = gamma.data

    def bw(g):
        # closed form of Ioffe & Szegedy 2015 (arXiv 1502.03167); in train
        # mode the batch statistics depend on x, which adds the mean terms
        x_train = need_x and mode == "train"
        gx = sum_g = sum_g_xhat = None
        if need_beta or x_train:
            sum_g = g.sum(axis=axes)
        if need_gamma or x_train:
            sum_g_xhat = np.einsum("nchw,nchw->c", g, xhat)
        if need_x:
            scale = gamma_data.reshape(shape) * inv_std
            if x_train:
                gx = xhat * (sum_g_xhat * (-1.0 / count)).reshape(shape)
                gx += g
                gx -= (sum_g * (1.0 / count)).reshape(shape)
                gx *= scale
            else:
                gx = g * scale
        return gx, sum_g_xhat, sum_g

    return custom_op(out, (x, gamma, beta), bw)


def dropout(x: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: identity at inference, scaled mask in training,
    drawn from `rng`, which training must pass so that runs reproduce."""
    if rate == 0.0 or mode != "train":
        return x
    if rng is None:
        raise ConfigError("dropout in train mode needs a seeded rng")
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * Tensor(mask)


def dense(x: Tensor, weights: Tensor, bias: Tensor, activation: str = "none") -> Tensor:
    out = x @ weights + bias
    if activation == "none":
        return out
    if activation == "relu":
        return out.relu()
    if activation == "tanh":
        return out.tanh()
    raise ShapeError(f"dense: unknown activation {activation!r}")


def lstm_sequence(seq: Tensor, params: LstmParams, reverse: bool = False) -> Tensor:
    """Run an LSTM over an N x T x d sequence; outputs N x T x hidden.

    One primitive over the whole sequence: the input projection of every
    step is one matmul ahead of the time loop, and the forward keeps the
    gate activations (N x T x 4h) and the cell states (N x T x h) for the
    backward. That runs the closed-form BPTT of Graves 2012 (Supervised
    Sequence Labelling with Recurrent Neural Networks, ch. 4) in reverse to
    fill the gate pre-activation gradients, then takes the gradients of W,
    U and the input with one matmul each and that of b with one sum."""
    n, t_len, d = seq.shape
    hidden = params.U.shape[0]
    W, U, b = params.W.data, params.U.data, params.b.data
    x2d = seq.data.reshape(n * t_len, d)
    # pre-activations, overwritten step by step with the activations
    gates = (x2d @ W + b).reshape(n, t_len, 4 * hidden)
    cells = np.empty((n, t_len, hidden), dtype=gates.dtype)
    out = np.empty_like(cells)
    step = -1 if reverse else 1
    steps = range(t_len)[::step]
    # column blocks in LSTM_GATES order; the first three are sigmoid gates
    gi, gf, go, gg = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    sig = slice(0, 3 * hidden)
    h = c = np.zeros((n, hidden), dtype=gates.dtype)
    for t in steps:
        z = gates[:, t]
        z += h @ U
        s, g = z[:, sig], z[:, gg]
        # in place, in the order of 1 / (1 + exp(-z))
        np.negative(s, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        np.tanh(g, out=g)
        c = z[:, gf] * c
        c += z[:, gi] * g
        h = np.tanh(c)
        h *= z[:, go]
        cells[:, t] = c
        out[:, t] = h

    need_seq, need_u = seq.requires_grad, params.U.requires_grad
    # only the gradient of W reads the input
    x2d = x2d if params.W.requires_grad else None

    def bw(grad):
        # dh_t = grad_t + dz_(t+1) U^T and dc_t = dh_t o_t (1 - tanh^2 c_t)
        # + dc_(t+1) f_(t+1), with t+1 the step that reads step t's state
        dz = np.empty_like(gates)
        dh_next = dc_next = None
        for t in reversed(steps):
            first = t == steps[0]
            z = gates[:, t]
            s, g = z[:, sig], z[:, gg]
            tc = np.tanh(cells[:, t])
            dh = grad[:, t] if dh_next is None else grad[:, t] + dh_next
            dc = dh * z[:, go] * (1.0 - tc * tc)
            if dc_next is not None:
                dc += dc_next
            dzt = np.empty((n, 4 * hidden), dtype=gates.dtype)
            dzt[:, gi] = dc * g
            dzt[:, gf] = 0.0 if first else dc * cells[:, t - step]
            dzt[:, go] = dh * tc
            dzt[:, sig] *= s
            dzt[:, sig] *= 1.0 - s
            dzt[:, gg] = dc * z[:, gi] * (1.0 - g * g)
            dz[:, t] = dzt
            if not first:
                dc_next = dc * z[:, gf]
                dh_next = dzt @ U.T
        dz2d = dz.reshape(n * t_len, 4 * hidden)
        dseq = dW = dU = None
        if need_seq:
            dseq = (dz2d @ W.T).reshape(n, t_len, d)
        if x2d is not None:
            dW = x2d.T @ dz2d
        if need_u:
            # the hidden state each step read, zero at the first
            h_prev = np.zeros_like(out)
            if reverse:
                h_prev[:, :-1] = out[:, 1:]
            else:
                h_prev[:, 1:] = out[:, :-1]
            dU = h_prev.reshape(n * t_len, hidden).T @ dz2d
        return dseq, dW, dU, dz2d.sum(axis=0)

    return custom_op(out, (seq, params.W, params.U, params.b), bw)


def bilstm_sequence(seq: Tensor, fwd: LstmParams, bwd: LstmParams) -> Tensor:
    """Concatenate forward and backward passes per timestep: N x T x 2*hidden."""
    return concat(
        [lstm_sequence(seq, fwd), lstm_sequence(seq, bwd, reverse=True)], axis=2
    )


def attention(query: Tensor, keys: Tensor, values: Tensor) -> tuple:
    """Scaled dot-product attention read.

    query: (N, d_k); keys: (N, T, d_k); values: (N, T, d_v). Returns
    (context (N, d_v), weights (N, T)) with weights summing to 1 per row.
    """
    n, t_len, d_k = keys.shape
    if query.shape[-1] != d_k:
        raise ShapeError(
            f"attention: query dim {query.shape[-1]} does not match key dim {d_k}"
        )
    scores = (keys @ query.reshape(n, d_k, 1)).reshape(n, t_len) * (1.0 / np.sqrt(d_k))
    weights = scores.softmax(axis=1)
    context = (weights.reshape(n, 1, t_len) @ values).reshape(n, values.shape[2])
    return context, weights
