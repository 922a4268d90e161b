"""Neural building blocks on top of the autodiff engine.

Convolution (im2col as a strided view), 2x2 max pooling (four strided
views) and batch normalization (the closed-form backward) are custom
primitives with hand-written backward passes; everything else is composed
from the engine's elementwise and matmul primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, concat, custom_op
from .errors import ShapeError


# column blocks of LstmParams.W, U and b: input, forget, output, candidate
LSTM_GATES = "ifog"


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
    _, ic, kh, kw = kernels.shape
    if ic != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernels expect {ic}")
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
    # im2col as a view: cols[n, c, y, x, i, j] = xp[n, c, y + i, x + j]
    cols = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    kern = kernels.data
    out = np.einsum("ncyxij,ocij->noyx", cols, kern, optimize=True)

    def bw(g):
        kernels._accumulate(np.einsum("noyx,ncyxij->ocij", g, cols, optimize=True))
        if x.requires_grad:
            gcols = np.einsum("noyx,ocij->ncijyx", g, kern, optimize=True)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + h, j:j + w] += gcols[:, :, i, j]
            x._accumulate(gxp[:, :, pt:pt + h, pl:pl + w])

    return custom_op(out, (x, kernels), bw)


def max_pool(x: Tensor) -> Tensor:
    """Maximum over non-overlapping 2x2 windows; an odd last row or column
    is dropped. The gradient routes to the first maximum in scan order."""
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

    def bw(g):
        gx = np.zeros_like(x.data)
        free = np.ones(out.shape, dtype=bool)
        for key, view in zip(windows, views):
            hit = view == out
            hit &= free
            free ^= hit
            gx[key] += g * hit
        x._accumulate(gx)

    return custom_op(out, (x,), bw)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: BnStats,
    mode: str,
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel normalization over an NCHW batch: gamma * xhat + beta with
    xhat = (x - mean) / sqrt(var + eps), from the batch's statistics in train
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
        stats.mean = momentum * stats.mean + (1 - momentum) * mu.reshape(-1)
        stats.var = momentum * stats.var + (1 - momentum) * var.reshape(-1)
    else:
        xhat = x.data - stats.mean.reshape(shape)
        var = stats.var.reshape(shape)
    inv_std = (var + eps) ** -0.5
    xhat *= inv_std
    out = gamma.data.reshape(shape) * xhat
    out += beta.data.reshape(shape)

    def bw(g):
        # closed form of Ioffe & Szegedy 2015 (arXiv 1502.03167); in train
        # mode the batch statistics depend on x, which adds the mean terms
        x_train = x.requires_grad and mode == "train"
        if beta.requires_grad or x_train:
            sum_g = g.sum(axis=axes)
            beta._accumulate(sum_g)
        if gamma.requires_grad or x_train:
            sum_g_xhat = np.einsum("nchw,nchw->c", g, xhat)
            gamma._accumulate(sum_g_xhat)
        if x.requires_grad:
            scale = gamma.data.reshape(shape) * inv_std
            if x_train:
                gx = xhat * (sum_g_xhat * (-1.0 / count)).reshape(shape)
                gx += g
                gx -= (sum_g * (1.0 / count)).reshape(shape)
                gx *= scale
            else:
                gx = g * scale
            x._accumulate(gx)

    return custom_op(out, (x, gamma, beta), bw)


def dropout(x: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: identity at inference, scaled mask in training."""
    if rate == 0.0 or mode != "train":
        return x
    if rng is None:
        rng = np.random.default_rng()
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * Tensor(mask)


def dense(x: Tensor, weights: Tensor, bias: Tensor, activation: str = "none") -> Tensor:
    if x.shape[-1] != weights.shape[0]:
        raise ShapeError(
            f"dense: input width {x.shape[-1]} does not match weights {weights.shape}"
        )
    out = x @ weights + bias
    if activation == "none":
        return out
    if activation == "relu":
        return out.relu()
    if activation == "tanh":
        return out.tanh()
    raise ShapeError(f"dense: unknown activation {activation!r}")


def lstm_sequence(seq: Tensor, params: LstmParams, reverse: bool = False) -> Tensor:
    """Run an LSTM over an N x T x d sequence; outputs N x T x hidden. The
    input projection of every step is one matmul ahead of the time loop."""
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
