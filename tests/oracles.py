"""Reference implementations and tolerance helpers for the kernel tests: loop
oracles, whole-batch passes whose bits a kernel must match, graphs composed
of autodiff primitives, the one part of kwspot imported here, and the
finite-difference gradient check."""

import numpy as np

from kwspot.autodiff import Tensor, backward, record


def _rel_err(got, want, scale=0.0):
    """The largest error over the reference's largest magnitude or scale."""
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), scale, 1e-300)


def _bits(a):
    """The raw bits of a float array, so that NaN and -0.0 compare exactly."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def naive_dft_power(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """O(N^2) DFT power oracle, one-sided."""
    x = np.zeros(n_fft)
    x[: len(frame)] = frame
    n = np.arange(n_fft)
    out = np.empty(n_fft // 2 + 1)
    for k in range(n_fft // 2 + 1):
        re = np.sum(x * np.cos(-2.0 * np.pi * k * n / n_fft))
        im = np.sum(x * np.sin(-2.0 * np.pi * k * n / n_fft))
        out[k] = re * re + im * im
    return out


def naive_mel_filterbank(center_bins, n_bins):
    """Triangular filter weights filled one row at a time: row m rises from
    center_bins[m] to center_bins[m + 1] and falls to center_bins[m + 2]."""
    weights = np.zeros((len(center_bins) - 2, n_bins))
    k = np.arange(n_bins)
    for row in range(len(center_bins) - 2):
        left, center, right = center_bins[row], center_bins[row + 1], center_bins[row + 2]
        rising = (k >= left) & (k <= center)
        falling = (k > center) & (k <= right)
        weights[row, rising] = (k[rising] - left) / (center - left)
        weights[row, falling] = (right - k[falling]) / (right - center)
    return weights


def naive_mel_energies(spectra, weights):
    """Double-loop mel energies: each filter's weighted sum over the bins of
    each frame's spectrum."""
    out = np.empty((spectra.shape[0], weights.shape[0]))
    for t in range(spectra.shape[0]):
        for m in range(weights.shape[0]):
            out[t, m] = sum(weights[m, k] * spectra[t, k] for k in range(weights.shape[1]))
    return out


def _worst_rel_err(fast, slow):
    """The largest elementwise error relative to each reference value."""
    return (np.abs(fast - slow) / np.maximum(1e-30, np.abs(slow))).max()


def naive_dct_ii(x, n_keep):
    """Double-loop orthonormal DCT-II of each row of x, its first n_keep
    coefficients."""
    m = x.shape[1]
    out = np.empty((x.shape[0], n_keep))
    for t in range(x.shape[0]):
        for c in range(n_keep):
            s = np.sqrt(1.0 / m) if c == 0 else np.sqrt(2.0 / m)
            out[t, c] = s * sum(
                x[t, j] * np.cos(np.pi * c * (2 * j + 1) / (2 * m)) for j in range(m)
            )
    return out


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


def shift_add_input_grad(g, k):
    """conv2d's input gradient in the NCHW shift-add form: each kernel
    offset (i, j) of a sample's k2d^T @ g[s] added to an h x w window of the
    padded input gradient, offsets in row-major order."""
    n, oc, h, w = g.shape
    _, c, kh, kw = k.shape
    k2d = k.reshape(oc, c * kh * kw)
    gxp = np.zeros((n, c, h + kh - 1, w + kw - 1), g.dtype)
    for s in range(n):
        blocks = (k2d.T @ g[s].reshape(oc, h * w)).reshape(c, kh, kw, h, w)
        for i in range(kh):
            for j in range(kw):
                gxp[s, :, i:i + h, j:j + w] += blocks[:, i, j]
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    return gxp[:, :, pt:pt + h, pl:pl + w]


def naive_max_pool(x, g=None):
    """2x2 stride-2 max pool, window by window: the running maximum over
    the window in scan order keeps the earlier value on a tie (so -0.0
    before 0.0 wins), and any NaN makes the result NaN. Returns the output
    and the input gradient under the upstream gradient g (zeros without
    one), which goes to the first position equal to the result (none for
    NaN)."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2), x.dtype)
    gx = np.zeros_like(x)
    for idx in np.ndindex(out.shape):
        ni, ci, y, xx = idx
        window = x[ni, ci, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].reshape(-1)
        best = window[0]
        for v in window[1:]:
            if not np.isnan(best) and (np.isnan(v) or v > best):
                best = v
        out[idx] = best
        hits = np.flatnonzero(window == best)
        if g is not None and len(hits):
            i, j = divmod(int(hits[0]), 2)
            gx[ni, ci, 2 * y + i, 2 * xx + j] = g[idx]
    return out, gx


def whole_batch_pool(x, g):
    """max_pool's forward and input gradient as whole-batch passes: each
    row's column pair, then the two rows, and the winner code as the
    chained product of the four views' miss masks over the whole batch."""
    oh, ow = x.shape[2] // 2, x.shape[3] // 2
    rows = x[:, :, :2 * oh]
    pairs = np.maximum(rows[..., 1:2 * ow:2], rows[..., 0:2 * ow:2])
    out = np.maximum(pairs[:, :, 1::2], pairs[:, :, 0::2])
    windows = [(slice(None), slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
               for i in (0, 1) for j in (0, 1)]
    code = np.isnan(out).view(np.uint8)
    for key in windows[2::-1]:
        code += 1
        code *= (x[key] != out).view(np.uint8)
    gx = np.zeros_like(x)
    for k, key in enumerate(windows):
        np.multiply(g, code == k, out=gx[key])
    return out, gx


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


def composed_batch_norm(x, gamma, beta, eps=1e-5):
    """Train-mode batch norm composed of the engine's elementwise
    primitives, so that autodiff derives its gradients independently of the
    fused backward; x + mu * -1.0 is x - mu exactly."""
    axes = (0, 2, 3)
    shape = (1, -1, 1, 1)
    mu = mean_keepdims(x, axes)
    var = mean_keepdims((x + mu * -1.0) * (x + mu * -1.0), axes)
    xhat = (x + mu * -1.0) * power(var + eps, -0.5)
    return gamma.reshape(*shape) * xhat + beta.reshape(*shape)


def two_pass_batch_norm(x, gamma, beta, mean, var, upstream, eps=1e-5):
    """Train-mode batch norm in float64, the variance in a second pass over
    x - mean: naive_batch_norm's (output, new running mean, new running
    var), then the closed-form (dx, dgamma, dbeta) under the upstream
    gradient."""
    x, gamma, beta, mean, var, g = (
        np.asarray(a, np.float64) for a in (x, gamma, beta, mean, var, upstream))
    axes, shape = (0, 2, 3), (1, -1, 1, 1)
    count = x.size // x.shape[1]
    inv_std = 1.0 / np.sqrt(x.var(axis=axes) + eps)
    xhat = (x - x.mean(axis=axes).reshape(shape)) * inv_std.reshape(shape)
    dbeta, dgamma = g.sum(axis=axes), (g * xhat).sum(axis=axes)
    dx = (gamma * inv_std).reshape(shape) * (
        g - (dbeta / count).reshape(shape) - xhat * (dgamma / count).reshape(shape))
    return naive_batch_norm(x, gamma, beta, mean, var, "train") + (dx, dgamma, dbeta)


def _channel_sums(a, b=None):
    """Per-channel sums over a whole NCHW batch: one dot product per
    (sample, channel) row of the (N, C, H*W) view, then a sum over N."""
    n, c = a.shape[:2]
    a3 = a.reshape(n, c, -1)
    b3 = np.ones(a3.shape[2], a.dtype) if b is None else b.reshape(n, c, -1)
    return np.vecdot(a3, b3).sum(axis=0)


def whole_batch_train_bn(x, gamma, beta, mean, var, g, momentum=0.9, eps=1e-5):
    """Train-mode batch_norm as whole-batch passes: (output, running mean,
    running var, dx, dgamma, dbeta) from the same sums and in-place steps."""
    shape = (1, -1, 1, 1)
    count = x.size // x.shape[1]
    mu = _channel_sums(x) * (1.0 / count)
    d = x - mu.reshape(shape)
    batch_var = _channel_sums(d, d) * (1.0 / count)
    new_mean = momentum * mean + (1 - momentum) * mu
    new_var = momentum * var + (1 - momentum) * batch_var
    inv_std = (batch_var + eps) ** -0.5
    scale = (gamma * inv_std).reshape(shape)
    out = d * scale
    out += beta.reshape(shape)
    sum_g = _channel_sums(g)
    sum_g_xhat = _channel_sums(g, d) * inv_std
    gx = d
    gx *= (sum_g_xhat * inv_std * (-1.0 / count)).reshape(shape)
    gx += g
    gx -= (sum_g * (1.0 / count)).reshape(shape)
    gx *= scale
    return out, new_mean, new_var, gx, sum_g_xhat, sum_g


def softmax_minus_onehot(logits, labels):
    """The mean cross-entropy's gradient over the logits, in float64:
    (softmax - one-hot of the labels) / batch size."""
    x = logits.astype(np.float64)
    probs = np.exp(x - x.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    return probs / len(labels)


def naive_lstm(x, W, U, b, reverse=False):
    """Per-gate, per-step reference for one LSTM direction on N x T x d,
    the gate blocks of W, U and b in the order i, f, o, g."""
    n, t_len, _ = x.shape
    hidden = U.shape[0]
    block = {gate: slice(k * hidden, (k + 1) * hidden) for k, gate in enumerate("ifog")}
    h, c = np.zeros((n, hidden)), np.zeros((n, hidden))
    out = np.zeros((n, t_len, hidden))
    for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
        pre = {gate: x[:, t] @ W[:, s] + h @ U[:, s] + b[s] for gate, s in block.items()}
        i, f, o = (1.0 / (1.0 + np.exp(-pre[gate])) for gate in "ifo")
        c = f * c + i * np.tanh(pre["g"])
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def square(y):
    """y * y, the product of a tensor with itself."""
    return y * y


def tanh(x):
    """tanh as one primitive; the backward reads the output."""
    out = np.tanh(x.data)
    return record(out, (x,), lambda g: (g * (1.0 - out * out),))


def power(x, p):
    """x ** p for a float p as one primitive."""
    base = x.data
    return record(base ** p, (x,), lambda g: (g * p * base ** (p - 1.0),))


def mean_keepdims(x, axes):
    """The mean over several axes, kept as size-1 dimensions: one sum
    primitive, then a product with 1 / count."""
    src_shape = x.shape
    total = record(x.data.sum(axis=axes, keepdims=True), (x,),
                   lambda g: (np.broadcast_to(g, src_shape),))
    return total * (1.0 / (x.size // total.size))


def sigmoid(x):
    """The logistic function as one primitive, with the float operations
    of bilstm_sequence's gates, forward and backward."""
    out = 1.0 / (1.0 + np.exp(-x.data))
    return record(out, (x,), lambda g: (g * out * (1.0 - out),))


def concat(tensors, axis):
    """Join tensors along axis as one primitive; the gradient is split back
    along the same cuts."""
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                  lambda g: np.split(g, cuts, axis=axis))


def composed_lstm(seq, W, U, b, reverse=False):
    """One LSTM direction composed of the engine's primitives, about 16
    nodes per step, so that autodiff derives its gradients independently
    of the hand-written BPTT."""
    n, t_len, d = seq.shape
    hidden = U.shape[0]
    proj = (seq.reshape(n * t_len, d) @ W + b).reshape(n, t_len, 4 * hidden)
    h = c = Tensor(np.zeros((n, hidden), dtype=seq.data.dtype))
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outputs = [None] * t_len
    for t in steps:
        z = proj[:, t, :] + h @ U
        ifo = sigmoid(z[:, :3 * hidden])
        i, f, o = (ifo[:, k * hidden:(k + 1) * hidden] for k in range(3))
        c = f * c + i * tanh(z[:, 3 * hidden:])
        h = o * tanh(c)
        outputs[t] = h.reshape(n, 1, hidden)
    return concat(outputs, axis=1)


def composed_bilstm(seq, W, U, b):
    """bilstm_sequence as the two composed directions side by side."""
    return concat([composed_lstm(seq, W[0], U[0], b[0]),
                   composed_lstm(seq, W[1], U[1], b[1], reverse=True)], axis=2)


def grad_check(fn, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of fn() against central finite differences.

    fn is a no-argument callable returning a scalar Tensor and re-running
    the forward pass; params are the leaf tensors to perturb. Returns the
    max over their elements of |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|).
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = fn().item()
            flat[i] = saved - eps
            lo = fn().item()
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(a_flat[i] - numeric) / max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
