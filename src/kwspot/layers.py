"""Neural building blocks on top of the autodiff engine.

Convolution (one GEMM per sample on that sample's im2col, in the forward
and in both gradients; the input gradient's col2im runs over rows padded
to the padded input's width, one flat add per kernel offset), 2x2 max
pooling (the maximum of each row's column pair, then of the two rows; with
a gradient, also a uint8 code of the window position that won, a chained
product of the four strided views' miss masks, which the backward reads
into an uninitialized gradient, zero-filling only a dropped odd row or
column), batch normalization (every per-channel sum is one dot product per
(sample, channel) row; train mode keeps x - mean instead of xhat for its
closed-form backward, and infer mode is a forward only) and the BiLSTM
(both directions of a sequence in one time loop over stacked direction
weights, with closed-form BPTT over the states the forward stored) are
custom primitives with hand-written backward passes; dropout draws its
mask from raw 32-bit integers; everything else is composed from the
engine's elementwise and matmul primitives. Conv, the pool and train-mode
batch norm run their passes one sample at a time: a conv block's
activation at batch 32 is larger than a core's L2 cache, and one sample's
slab fits, so each pass reads what the one before it wrote from cache
instead of from memory (loop blocking over the batch axis; Lam, Rothberg &
Wolf 1991). Each
backward returns all its gradients, and the engine keeps the required
ones; only conv2d skips one, for an input that needs none (the raw
features). Each backward closure captures only the arrays it
reads, never a Tensor, so a conv output dies once batch norm has read it
and a batch-norm output once the pool has. The models pool before the
ReLU: max commutes with a monotone map, so max_pool then relu gives the
values and gradients of relu then max_pool, with the ReLU on a quarter of
the elements. In infer mode they also pool before batch norm, which with
running statistics is a per-channel affine map, so that it too runs on a
quarter of the elements and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, UsageError


# column blocks of each direction's W, U and b in bilstm_sequence: input,
# forget, output, candidate
LSTM_GATES = "ifog"

# batch_norm's running-statistics momentum and variance epsilon
BN_MOMENTUM, BN_EPS = 0.9, 1e-5


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
    xp = np.zeros((n, c, h + kh - 1, w + kw - 1), x.data.dtype)
    xp[:, :, pt:pt + h, pl:pl + w] = x.data
    k2d = kernels.data.reshape(oc, c * kh * kw)
    # windows[s].reshape(c * kh * kw, h * w) copies one sample's im2col,
    # cols_s[(c, i, j), (y, x)] = xp[s, c, y + i, x + j]; one GEMM per
    # sample writes its NCHW output, so one im2col is alive at a time
    windows = sliding_window_view(xp, (h, w), axis=(2, 3))
    out = np.empty((n, oc, h * w), dtype=np.result_type(xp, k2d))
    for s in range(n):
        np.matmul(k2d, windows[s].reshape(c * kh * kw, h * w), out=out[s])
    need_x, dtype = x.requires_grad, x.data.dtype

    def bw(g):
        g = g.reshape(n, oc, h * w)
        # (sum_s cols_s @ g[s]^T)^T: OpenBLAS runs this orientation of the
        # GEMM faster than g[s] @ cols_s^T at the models' second conv by more
        # than it loses at the first
        gk = windows[0].reshape(c * kh * kw, h * w) @ g[0].T
        term = np.empty_like(gk)
        for s in range(1, n):
            gk += np.matmul(windows[s].reshape(c * kh * kw, h * w), g[s].T, out=term)
        gk = gk.T.reshape(oc, c, kh, kw)
        if not need_x:
            return None, gk
        # g[s] padded to the padded input's width wp: row y of kernel
        # offset (i, j) then lands at flat offset (y + i) * wp + j of the
        # padded input gradient, so each offset is one flat add of h * wp
        # values; the zero columns add zeros, one spare row takes the
        # overrun of the last offset. The kernel rows are ordered
        # (i, j, c), so that each offset's block is contiguous; each
        # value is the same dot product over oc as in k2d^T @ g[s]
        hp, wp = h + kh - 1, w + kw - 1
        k_ijc = k2d.reshape(oc, c, kh, kw).transpose(2, 3, 1, 0).reshape(-1, oc)
        gpad = np.zeros((oc, h, wp), dtype)
        blocks = np.empty((kh, kw, c, h * wp), dtype)
        gxp = np.zeros((n, c, (hp + 1) * wp), dtype)
        for s in range(n):
            gpad[:, :, :w] = g[s].reshape(oc, h, w)
            np.matmul(k_ijc, gpad.reshape(oc, h * wp), out=blocks.reshape(-1, h * wp))
            for i in range(kh):
                for j in range(kw):
                    o = i * wp + j
                    gxp[s, :, o:o + h * wp] += blocks[i, j]
        return gxp.reshape(n, c, hp + 1, wp)[:, :, pt:pt + h, pl:pl + w], gk

    return autodiff.record(out.reshape(n, oc, h, w), (x, kernels), bw)


def max_pool(x: Tensor) -> Tensor:
    """Maximum over non-overlapping 2x2 windows; an odd last row or column
    is dropped. The gradient routes to the first maximum in scan order; a
    window with no view equal to its maximum (a NaN) routes none. Both
    directions run one sample at a time, so that a sample's pairs, maximum
    and winner code stay in cache between passes; the values are those of
    whole-batch passes."""
    h, w = x.shape[2:]
    oh, ow = h // 2, w // 2
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool: 2x2 window exceeds input {h}x{w}")
    n, c = x.shape[:2]
    rows = x.data[:, :, :2 * oh]
    # one strided view per window position of one sample, in scan order
    windows = [(slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
               for i in (0, 1) for j in (0, 1)]
    out = np.empty((n, c, oh, ow), x.data.dtype)
    # the backward reads a uint8 code per window instead of the input: the
    # scan-order index of the first view equal to the maximum, 4 if none is
    code = np.empty(out.shape, np.uint8) if x.requires_grad else None
    for s in range(n):
        # each row's column pair, then the two rows. The earlier argument
        # goes second: np.maximum returns its second argument on equal
        # values, so a tie of 0.0 and -0.0 keeps the sign of the first in
        # scan order, which pairing the rows first would lose
        pairs = np.maximum(rows[s, ..., 1:2 * ow:2], rows[s, ..., 0:2 * ow:2])
        o = np.maximum(pairs[:, 1::2], pairs[:, 0::2], out=out[s])
        if code is not None:
            # with the miss masks m_k = (view_k != out) the code is
            # m0 * (1 + m1 * (1 + m2 * (1 + isnan(out)))): a window whose
            # first three views miss has its maximum in view 3 unless it is
            # a NaN, which every view misses. 0.0 != -0.0 is False, so a
            # +-0 tie hits
            cs = code[s]
            np.isnan(o, out=cs.view(bool))
            for key in windows[2::-1]:
                cs += 1
                cs *= (x.data[s][key] != o).view(np.uint8)
    shape, dtype = x.shape, x.data.dtype

    def bw(g):
        # the four views are disjoint and write every element but those of a
        # dropped odd last row or column, which get the only zero fill
        gx = np.empty(shape, dtype)
        gx[:, :, 2 * oh:] = 0
        gx[:, :, :, 2 * ow:] = 0
        for s in range(n):
            for k, key in enumerate(windows):
                np.multiply(g[s], code[s] == k, out=gx[s][key])
        return (gx,)

    return autodiff.record(out, (x,), bw)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats: BnStats, mode: str) -> Tensor:
    """Per-channel normalization over an NCHW batch: gamma * xhat + beta with
    xhat = (x - mean) / sqrt(var + BN_EPS), from the batch's statistics in train
    mode (which also updates the running ones) and the running ones
    otherwise.

    Infer mode is a forward only, in place on one fresh array; an input that
    requires a gradient there raises UsageError. Train mode keeps the
    centered input d = x - mean, takes the variance in a second pass as
    sum(d * d) / count, and writes d * (gamma / sigma) + beta; its backward
    folds 1 / sigma into per-channel coefficients, so no pass forms xhat,
    and writes the input gradient over d. After the mean, every pass runs
    one sample at a time, so that d[s] is still in cache when the next pass
    reads it. Each sum, the mean's too, is one dot product per (sample,
    channel) row into an (N, C) array, then a sum over N: no product
    temporary, faster than a sum over axes (0, 2, 3), and the values of
    whole-batch passes."""
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.shape}")
    shape = (1, -1, 1, 1)
    if mode != "train":
        if x.requires_grad or gamma.requires_grad or beta.requires_grad:
            raise UsageError("batch_norm: infer mode has no backward")
        out = x.data - stats.mean.reshape(shape)
        out *= ((stats.var + BN_EPS) ** -0.5).reshape(shape)
        out *= gamma.data.reshape(shape)
        out += beta.data.reshape(shape)
        return Tensor(out)
    n, c = x.shape[:2]
    count = x.size // c
    x3 = x.data.reshape(n, c, -1)
    mu = np.vecdot(x3, np.ones(x3.shape[2], x3.dtype)).sum(axis=0) * (1.0 / count)
    # per-channel shapes against one CHW sample
    ch = (c, 1, 1)
    mu_ch = mu.reshape(ch)
    # d = x - mean, kept for the backward: xhat = d * inv_std
    d = np.empty_like(x.data)
    d_rows = np.empty((n, c), d.dtype)
    for s in range(n):
        ds = np.subtract(x.data[s], mu_ch, out=d[s]).reshape(c, -1)
        np.vecdot(ds, ds, out=d_rows[s])
    var = d_rows.sum(axis=0) * (1.0 / count)
    stats.mean = BN_MOMENTUM * stats.mean + (1 - BN_MOMENTUM) * mu
    stats.var = BN_MOMENTUM * stats.var + (1 - BN_MOMENTUM) * var
    inv_std = (var + BN_EPS) ** -0.5
    scale = (gamma.data * inv_std).reshape(ch)
    beta_ch = beta.data.reshape(ch)
    out = np.empty_like(d, dtype=np.result_type(d, scale))
    for s in range(n):
        np.multiply(d[s], scale, out=out[s])
        out[s] += beta_ch

    def bw(g):
        # closed form of Ioffe & Szegedy 2015 (arXiv 1502.03167), with the
        # mean terms of the batch statistics' dependence on x
        ones = np.ones(d[0].size // c, g.dtype)
        g_rows = np.empty((n, c), g.dtype)
        gd_rows = np.empty((n, c), np.result_type(g, d))
        for s in range(n):
            gs = g[s].reshape(c, -1)
            np.vecdot(gs, ones, out=g_rows[s])
            np.vecdot(gs, d[s].reshape(c, -1), out=gd_rows[s])
        sum_g = g_rows.sum(axis=0)
        # sum(g * xhat) = sum(g * d) * inv_std
        sum_g_xhat = gd_rows.sum(axis=0) * inv_std
        # (g - sum_g / count - xhat * sum_g_xhat / count) * gamma * inv_std,
        # written over d: the engine runs a closure once, and nothing else
        # reads d
        coef_d = (sum_g_xhat * inv_std * (-1.0 / count)).reshape(ch)
        mean_g = (sum_g * (1.0 / count)).reshape(ch)
        for s in range(n):
            gx = d[s]
            gx *= coef_d
            gx += g[s]
            gx -= mean_g
            gx *= scale
        return d, sum_g_xhat, sum_g

    return autodiff.record(out, (x, gamma, beta), bw)


def dropout(x: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: identity at inference, scaled mask in training,
    drawn from `rng`, which training must pass so that runs reproduce."""
    if rate == 0.0 or mode != "train":
        return x
    if rng is None:
        raise ConfigError("dropout in train mode needs a seeded rng")
    # each raw 64-bit draw gives two uint32 values; one is kept when it is at
    # least ceil(rate * 2**32), with probability 1 - ceil(rate * 2**32) / 2**32
    bits = rng.bit_generator.random_raw((x.size + 1) // 2).view(np.uint32)[:x.size]
    keep = bits.reshape(x.shape) >= math.ceil(rate * 2.0 ** 32)
    mask = keep.astype(x.data.dtype)
    mask /= 1.0 - rate
    return x * Tensor(mask)


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    return x @ weights + bias


def bilstm_sequence(seq: Tensor, W: Tensor, U: Tensor, b: Tensor) -> Tensor:
    """A forward and a time-reversed LSTM over an N x T x d sequence, side by
    side per timestep: N x T x 2*hidden, the forward direction's outputs in
    the first hidden columns. Each role stacks both directions, forward in
    row 0 and time-reversed in row 1: W (2, d, 4h) maps the input, U (2, h,
    4h) the previous hidden state and b (2, 4h) is the bias, each with the
    four gates side by side in LSTM_GATES order.

    One primitive over the whole sequence and both directions. Each
    direction's input projection is one matmul ahead of the time loop,
    stored step-major and the reversed direction's time-reversed, so that
    step i of both directions is the block gates[i], (4, 2N, hidden): each
    gate of all 2N rows is contiguous, each step runs one stacked matmul
    with U and one set of elementwise ops. The forward keeps the gate
    activations and the cell and hidden states for the backward. That runs
    the closed-form BPTT of Graves 2012 (Supervised Sequence Labelling with
    Recurrent Neural Networks, ch. 4) over the steps in reverse to fill the
    gate pre-activation gradients, then, per direction in time order, takes
    the gradients of W, U and the input with one matmul each and that of b
    with one sum."""
    n, t_len, d = seq.shape
    # the closures capture these arrays, not the Tensors
    Wd, Ud = W.data, U.data
    hidden = Ud.shape[1]
    rows = 2 * n
    x2d = seq.data.reshape(n * t_len, d)

    def steps(a, k):
        # direction k of step-major `a`, (T, 2N, ...), as an N x T x ...
        # view in time order
        a = a[::-1, n:] if k else a[:, :n]
        return a.swapaxes(0, 1)

    # pre-activations, overwritten step by step with the activations: step
    # i is gates[i], the four gate blocks of all 2N rows, each contiguous
    dtype = np.result_type(x2d, Wd)
    gates = np.empty((t_len, 4, rows, hidden), dtype)
    for k in range(2):
        np.add((x2d @ Wd[k]).reshape(n, t_len, 4, hidden), b.data[k].reshape(4, hidden),
               out=steps(gates.swapaxes(1, 2), k))
    cells = np.empty((t_len, rows, hidden), dtype)
    # hs[i + 1] is the hidden state after step i and hs[i] the one that step
    # read, so the backward reads the states each step read as hs[:-1]
    hs = np.empty((t_len + 1, rows, hidden), dtype)
    hs[0] = 0.0
    h = c = hs[0]
    for i in range(t_len):
        z = gates[i]
        # the recurrent term of both directions in one stacked matmul
        z += np.matmul(h.reshape(2, n, hidden), Ud).reshape(rows, 4, hidden).swapaxes(0, 1)
        # the gates in LSTM_GATES order; the first three are sigmoid gates
        s, zi, zf, zo, g = z[:3], z[0], z[1], z[2], z[3]
        # in place, in the order of 1 / (1 + exp(-z))
        np.negative(s, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        np.tanh(g, out=g)
        c = np.multiply(zf, c, out=cells[i])
        c += zi * g
        h = np.tanh(c, out=hs[i + 1])
        h *= zo
    out = np.concatenate([steps(hs[1:], 0), steps(hs[1:], 1)], axis=2)

    def gate_grads(grad):
        # dh_i = grad_i + dz_(i+1) U^T and dc_i = dh_i o_i (1 - tanh^2 c_i)
        # + dc_(i+1) f_(i+1), with step i+1 the one that reads step i's state
        grads = np.empty((t_len, rows, hidden), dtype)
        steps(grads, 0)[...] = grad[:, :, :hidden]
        steps(grads, 1)[...] = grad[:, :, hidden:]
        # gate pre-activation gradients with the gates side by side, as the
        # matmuls read them, and a gate-major view of each step
        dz = np.empty((t_len, rows, 4 * hidden), dtype)
        UT = Ud.swapaxes(1, 2)
        dh_next = dc_next = None
        for i in reversed(range(t_len)):
            z = gates[i]
            s, zi, zf, zo, g = z[:3], z[0], z[1], z[2], z[3]
            tc = np.tanh(cells[i])
            dh = grads[i] if dh_next is None else grads[i] + dh_next
            dc = dh * zo * (1.0 - tc * tc)
            if dc_next is not None:
                dc += dc_next
            dzt = dz[i].reshape(rows, 4, hidden).swapaxes(0, 1)
            dzt[0] = dc * g
            dzt[1] = dc * cells[i - 1] if i else 0.0
            dzt[2] = dh * tc
            dzt[:3] *= s
            dzt[:3] *= 1.0 - s
            dzt[3] = dc * zi * (1.0 - g * g)
            if i:
                dc_next = dc * zf
                dh_next = np.matmul(dz[i].reshape(2, n, 4 * hidden), UT).reshape(rows, hidden)
        return dz

    def bw(grad):
        dz = gate_grads(grad)
        dW = np.empty((2, d, 4 * hidden), dtype)
        dU = np.empty((2, hidden, 4 * hidden), dtype)
        db = np.empty((2, 4 * hidden), dtype)
        dz_rows = []
        for k in range(2):
            # direction k's gradients and the hidden states its steps read,
            # as N * T rows in time order
            dz2d = np.ascontiguousarray(steps(dz, k)).reshape(n * t_len, 4 * hidden)
            h_prev = np.ascontiguousarray(steps(hs[:-1], k)).reshape(n * t_len, hidden)
            np.matmul(x2d.T, dz2d, out=dW[k])
            np.matmul(h_prev.T, dz2d, out=dU[k])
            dz2d.sum(axis=0, out=db[k])
            dz_rows.append(dz2d)
        # the input gradient last, once dz is freed: its N * T x d terms are
        # the largest arrays of the backward
        del dz
        dseq = dz_rows[0] @ Wd[0].T
        dseq += dz_rows[1] @ Wd[1].T
        return dseq.reshape(n, t_len, d), dW, dU, db

    return autodiff.record(out, (seq, W, U, b), bw)


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
