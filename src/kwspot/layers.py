"""Neural building blocks on top of the autodiff engine.

Convolution and max pooling are implemented as custom primitives with
hand-written backward passes (im2col / scatter-add); everything else is
composed from the engine's elementwise and matmul primitives.
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
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool: 2x2 window exceeds input {h}x{w}")
    # cols[n, c, y, x, 2i + j] = x[n, c, 2y + i, 2x + j]
    cols = (x.data[:, :, :2 * oh, :2 * ow].reshape(n, c, oh, 2, ow, 2)
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4))
    arg = cols.argmax(axis=4)[..., None]  # first occurrence wins ties
    out = np.take_along_axis(cols, arg, axis=4)[..., 0]

    def bw(g):
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, arg, g[..., None], axis=4)
        gx = np.zeros_like(x.data)
        gx[:, :, :2 * oh, :2 * ow] += (gcols.reshape(n, c, oh, ow, 2, 2)
                                       .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * oh, 2 * ow))
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
    """Per-channel normalization over an NCHW batch."""
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.shape}")
    axes = (0, 2, 3)
    shape = (1, -1, 1, 1)
    g = gamma.reshape(shape)
    b = beta.reshape(shape)
    if mode == "train":
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
        stats.mean = momentum * stats.mean + (1 - momentum) * mu.data.reshape(-1)
        stats.var = momentum * stats.var + (1 - momentum) * var.data.reshape(-1)
        xhat = (x - mu) * ((var + eps) ** -0.5)
    else:
        mu = Tensor(stats.mean.reshape(shape))
        var = Tensor(stats.var.reshape(shape))
        xhat = (x - mu) * ((var + eps) ** -0.5)
    return g * xhat + b


def dropout(x: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: identity at inference, scaled mask in training."""
    if rate == 0.0 or mode != "train":
        return x
    if rng is None:
        rng = np.random.default_rng()
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
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
    h = c = Tensor(np.zeros((n, hidden)))
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
