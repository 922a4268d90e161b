"""Neural building blocks on top of the autodiff engine.

Convolution and max pooling are implemented as custom primitives with
hand-written backward passes (im2col / scatter-add); everything else is
composed from the engine's elementwise and matmul primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, custom_op
from .errors import ShapeError


# column blocks of LstmParams.W, U and b: input, forget, output, candidate
LSTM_GATES = "ifog"


@dataclass
class ConvParams:
    kernels: Tensor  # out_ch x in_ch x kh x kw
    stride: tuple = (1, 1)
    padding: str = "valid"


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


def _pad_amount(size: int, stride: int, k: int) -> int:
    out = -(-size // stride)  # ceil
    return max((out - 1) * stride + k - size, 0)


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride, padding: str):
    sh, sw = stride
    if padding == "same":
        return -(-h // sh), -(-w // sw)
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Cross-correlation of an NCHW batch with OIHW kernels."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = params.kernels.shape
    if ic != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernels expect {ic}")
    sh, sw = params.stride
    if params.padding == "same":
        ph, pw = _pad_amount(h, sh, kh), _pad_amount(w, sw, kw)
        pt, pl = ph // 2, pw // 2
        pb, pr = ph - pt, pw - pl
    elif params.padding == "valid":
        pt = pb = pl = pr = 0
    else:
        raise ShapeError(f"conv2d: unknown padding {params.padding!r}")
    oh, ow = conv_output_hw(h, w, kh, kw, params.stride, params.padding)
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d: input {h}x{w} too small for kernel {kh}x{kw}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    cols = np.empty((n, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + oh * sh:sh, j:j + ow * sw:sw]
    kern = params.kernels.data
    out = np.einsum("ncijyx,ocij->noyx", cols, kern, optimize=True)
    kernels = params.kernels

    def bw(g):
        kernels._accumulate(np.einsum("noyx,ncijyx->ocij", g, cols, optimize=True))
        if x.requires_grad:
            gcols = np.einsum("noyx,ocij->ncijyx", g, kern, optimize=True)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + oh * sh:sh, j:j + ow * sw:sw] += gcols[:, :, i, j]
            x._accumulate(gxp[:, :, pt:pt + h, pl:pl + w])

    return custom_op(out, (x, kernels), bw)


def max_pool(x: Tensor, window: tuple, stride: tuple | None = None) -> Tensor:
    """Per-window maximum; gradient routes to the first argmax in scan order."""
    stride = stride or window
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    if kh > h or kw > w:
        raise ShapeError(f"max_pool: window {window} exceeds input {h}x{w}")
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    cols = np.empty((n, c, kh * kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = x.data[:, :, i:i + oh * sh:sh, j:j + ow * sw:sw]
    arg = cols.argmax(axis=2)  # first occurrence wins ties
    out = np.take_along_axis(cols, arg[:, :, None], axis=2)[:, :, 0]

    def bw(g):
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, arg[:, :, None], g[:, :, None], axis=2)
        gx = np.zeros_like(x.data)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i:i + oh * sh:sh, j:j + ow * sw:sw] += gcols[:, :, i * kw + j]
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
    """Per-channel normalization over an NCHW or NF batch."""
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ShapeError(f"batch_norm expects rank 2 or 4 input, got {x.shape}")
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

    query: (d_k,) or (N, d_k); keys: (T, d_k) or (N, T, d_k); values
    likewise. Returns (context, weights) with weights summing to 1 per row.
    """
    single = query.ndim == 1
    if single:
        query = query.reshape(1, -1)
        keys = keys.reshape(1, *keys.shape)
        values = values.reshape(1, *values.shape)
    n, t_len, d_k = keys.shape
    if query.shape[-1] != d_k:
        raise ShapeError(
            f"attention: query dim {query.shape[-1]} does not match key dim {d_k}"
        )
    scores = (keys @ query.reshape(n, d_k, 1)).reshape(n, t_len) * (1.0 / np.sqrt(d_k))
    weights = scores.softmax(axis=1)
    context = (weights.reshape(n, 1, t_len) @ values).reshape(n, values.shape[2])
    if single:
        return context.reshape(-1), weights.reshape(-1)
    return context, weights
