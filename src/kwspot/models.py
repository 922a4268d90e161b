"""The four keyword-spotting architectures.

cnn                  3 conv blocks -> 3 dense layers
cnn_bilstm           2 conv blocks -> BiLSTM -> dense
attention_rnn        2 conv blocks -> 2 stacked BiLSTMs -> single attention
multilayer_attention as attention_rnn plus a three-stage chained attention
                     read over raw features, conv outputs and both BiLSTM
                     layers' outputs, each stage's context seeding the next
                     stage's query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, ufunc_buffer
from .errors import ConfigError, ShapeError
from .layers import (
    LSTM_GATES,
    BnStats,
    attention,
    batch_norm,
    bilstm_sequence,
    conv2d,
    dense,
    dropout,
    max_pool,
)

ARCHITECTURES = ("cnn", "cnn_bilstm", "attention_rnn", "multilayer_attention")
DTYPES = ("float32", "float64")
# the most randomly initialized weights a model may draw: about 160 times
# the paper-scale multilayer_attention model's 610,336
MAX_WEIGHTS = 100_000_000


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    n_classes: int
    input_shape: tuple[int, int]  # (T, D)
    conv_channels: tuple[int, ...] | None = None  # None: the architecture's default
    lstm_hidden: int = 64
    dense_hidden: int = 64
    dropout_rate: float = 0.25
    seed: int = 0
    dtype: str = "float32"  # of every parameter, buffer and activation

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be at least 2")
        if self.lstm_hidden <= 0:
            raise ConfigError("lstm_hidden must be positive")
        if self.dense_hidden <= 0:
            raise ConfigError("dense_hidden must be positive")
        # held as a checkpoint reads them back, so that a loaded config is equal
        channels = (self.conv_channels if self.conv_channels is not None
                    else (32, 64, 64) if self.arch == "cnn" else (32, 64))
        if not (channels and all(c > 0 for c in channels)):
            raise ConfigError("conv_channels must be one or more positive integers")
        object.__setattr__(self, "conv_channels", tuple(channels))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {', '.join(DTYPES)}, got {self.dtype!r}")


@dataclass
class Model:
    config: ModelConfig
    params: dict          # name -> Tensor (requires_grad in train mode)
    bn_stats: dict        # name -> BnStats
    mode: str = "train"

    def set_mode(self, mode: str):
        """Parameters require gradients only in train mode, so that an
        infer-mode forward records no autodiff graph."""
        if mode not in ("train", "infer"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.mode = mode
        for p in self.params.values():
            p.requires_grad = mode == "train"

    def arrays(self):
        """(name, array) of every parameter, then of every batch-norm running
        statistic, under the names a checkpoint stores them by."""
        for name, p in self.params.items():
            yield name, p.data
        for name, s in self.bn_stats.items():
            yield f"{name}_running_mean", s.mean
            yield f"{name}_running_var", s.var

    def snapshot(self) -> dict:
        return {name: a.copy() for name, a in self.arrays()}

    def restore(self, snap: dict):
        for name, a in self.arrays():
            a[...] = snap[name]


def _glorot(rng, shape) -> np.ndarray:
    fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[1:]))
    fan_out = shape[1] if len(shape) == 2 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize all parameters of the chosen architecture.
    The draw that would take the weights past MAX_WEIGHTS raises ConfigError
    before it allocates; as make_model's draws precede every array at least
    as large, no array of more values is allocated. (A checkpoint load is
    bounded by its file's size instead.)"""
    rng = np.random.default_rng(config.seed)
    drawn = 0

    def draw(shape) -> np.ndarray:
        nonlocal drawn
        drawn += math.prod(shape)
        if drawn > MAX_WEIGHTS:
            raise ConfigError(
                f"the model would have more than {MAX_WEIGHTS} weights; "
                f"conv_channels, lstm_hidden and dense_hidden set their number"
            )
        return _glorot(rng, shape)

    return make_model(config, draw)


def make_model(config: ModelConfig, draw) -> Model:
    """The one definition of each architecture's parameter names and shapes;
    draw(shape) gives each randomly initialized weight, in a fixed order,
    and precedes every other array at least as large (a checkpoint load
    draws zeros). Parameters and buffers are cast to config.dtype. An
    input too small for a conv block's 2x2 pool raises ConfigError."""
    dtype = np.dtype(config.dtype)

    def param(values) -> Tensor:
        return Tensor(np.asarray(values, dtype=dtype), requires_grad=True)

    params: dict[str, Tensor] = {}
    bn_stats: dict[str, BnStats] = {}

    def dense_params(name, fan_in, fan_out):
        params[f"{name}_W"] = param(draw((fan_in, fan_out)))
        params[f"{name}_b"] = param(np.zeros(fan_out))

    def bilstm_params(name, in_dim, hidden):
        # each gate's blocks are drawn with that gate's own fans, W then U
        # gate by gate, the forward direction's gates before the reversed
        # one's; the forget gate's bias starts at 1
        draws = [[(draw((in_dim, hidden)), draw((hidden, hidden))) for _ in LSTM_GATES]
                 for _ in range(2)]
        for k, part in enumerate("WU"):
            params[f"{name}_{part}"] = param(
                [np.concatenate([gate[k] for gate in direction], axis=1) for direction in draws])
        bias = np.concatenate([np.full(hidden, float(gate == "f")) for gate in LSTM_GATES])
        params[f"{name}_b"] = param([bias, bias])

    h, w = config.input_shape
    in_c = 1
    for i, c in enumerate(config.conv_channels):
        if h < 2 or w < 2:
            raise ConfigError(
                f"input {config.input_shape} too small for conv block {i} "
                f"(spatial size {h}x{w} before its 2x2 pool)"
            )
        h, w = h // 2, w // 2
        params[f"conv{i}_kernel"] = param(draw((c, in_c, 3, 3)))
        # no conv bias: the following batch norm subtracts the per-channel
        # mean, so a bias here would be a zero-gradient redundant parameter
        params[f"conv{i}_gamma"] = param(np.ones(c))
        params[f"conv{i}_beta"] = param(np.zeros(c))
        bn_stats[f"conv{i}_bn"] = BnStats(mean=np.zeros(c, dtype), var=np.ones(c, dtype))
        in_c = c

    hidden = config.lstm_hidden
    seq_dim = in_c * w
    n_cls = config.n_classes
    dh = config.dense_hidden

    if config.arch == "cnn":
        dense_params("fc0", in_c * h * w, dh)
        dense_params("fc1", dh, dh)
        dense_params("fc2", dh, n_cls)
    elif config.arch == "cnn_bilstm":
        bilstm_params("lstm1", seq_dim, hidden)
        dense_params("out", 2 * hidden, n_cls)
    else:
        bilstm_params("lstm1", seq_dim, hidden)
        bilstm_params("lstm2", 2 * hidden, hidden)
        params["query_proj"] = param(draw((2 * hidden, 2 * hidden)))
        if config.arch == "multilayer_attention":
            params["stage1_proj"] = param(draw((config.input_shape[1], seq_dim)))
            params["stage2_proj"] = param(draw((seq_dim, 2 * hidden)))
            dense_params("head0", 2 * hidden, dh)
            dense_params("head1", dh, n_cls)
        else:
            dense_params("out", 2 * hidden, n_cls)
    return Model(config=config, params=params, bn_stats=bn_stats, mode="train")


def _conv_blocks(model: Model, x: Tensor, rng) -> Tensor:
    cfg = model.config
    for i in range(len(cfg.conv_channels)):
        kernel, gamma, beta, stats = (
            model.params[f"conv{i}_kernel"], model.params[f"conv{i}_gamma"],
            model.params[f"conv{i}_beta"], model.bn_stats[f"conv{i}_bn"])
        # one layer per statement, so that each input is freed once read
        if model.mode == "train":
            # the batch statistics need the unpooled values
            x = conv2d(x, kernel)
            x = batch_norm(x, gamma, beta, stats, "train")
            x = max_pool(x)
        else:
            # with running statistics batch norm is a per-channel affine map
            # whose rounded steps are monotone for gamma >= 0, so max commutes
            # with it bit for bit and it runs on a quarter of the elements; a
            # channel with gamma < 0 is negated in the kernel, gamma and mean,
            # which leaves every rounded step exact
            flip = np.where(gamma.data < 0, -1, 1).astype(gamma.data.dtype)
            x = conv2d(x, Tensor(kernel.data * flip[:, None, None, None]))
            x = max_pool(x)
            x = batch_norm(x, Tensor(gamma.data * flip), beta,
                           BnStats(stats.mean * flip, stats.var), "infer")
        # max commutes with the monotone ReLU: pooling first gives the same
        # values and gradient, with the ReLU on a quarter of the elements
        x = x.relu()
        x = dropout(x, cfg.dropout_rate, model.mode, rng)
    return x


def _to_sequence(x: Tensor) -> Tensor:
    """NCHW conv output to an N x H x (C*W) time-major sequence."""
    n, c, h, w = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, h, c * w)


@ufunc_buffer()
def model_forward(model: Model, batch, rng=None, stages: bool = False):
    """Logits for an N x T x D feature batch, cast once to the model's dtype
    (softmax is applied at loss or prediction time, not here). With
    stages=True, a multilayer_attention model returns (logits, (a1, a2, a3)),
    its three N x T' stage attention weights."""
    cfg = model.config
    if stages and cfg.arch != "multilayer_attention":
        raise ConfigError(f"stages=True needs arch multilayer_attention, got {cfg.arch}")
    batch = Tensor(np.asarray(batch, dtype=cfg.dtype))
    n = batch.shape[0]
    t, d = cfg.input_shape
    if batch.shape[1:] != (t, d):
        raise ShapeError(
            f"batch shape {batch.shape[1:]} does not match configured "
            f"input {cfg.input_shape}"
        )
    x = batch.reshape(n, 1, t, d)
    feat = _conv_blocks(model, x, rng)
    p = model.params

    if cfg.arch == "cnn":
        flat = feat.reshape(n, -1)
        h1 = dense(flat, p["fc0_W"], p["fc0_b"]).relu()
        h2 = dense(h1, p["fc1_W"], p["fc1_b"]).relu()
        return dense(h2, p["fc2_W"], p["fc2_b"])

    seq = _to_sequence(feat)
    l1 = bilstm_sequence(seq, p["lstm1_W"], p["lstm1_U"], p["lstm1_b"])
    if cfg.arch == "cnn_bilstm":
        pooled = l1.mean(axis=1)
        return dense(pooled, p["out_W"], p["out_b"])

    l2 = bilstm_sequence(l1, p["lstm2_W"], p["lstm2_U"], p["lstm2_b"])
    if cfg.arch == "attention_rnn":
        mid = l2.shape[1] // 2
        query = l2[:, mid, :] @ p["query_proj"]
        context, _ = attention(query, l2, l2)
        return dense(context, p["out_W"], p["out_b"])

    # multilayer_attention: three chained attention reads
    q1 = batch.mean(axis=1) @ p["stage1_proj"]
    c1, a1 = attention(q1, seq, seq)
    q2 = c1 @ p["stage2_proj"]
    c2, a2 = attention(q2, l1, l1)
    q3 = c2 @ p["query_proj"]
    c3, a3 = attention(q3, l2, l2)
    h1 = dense(c3, p["head0_W"], p["head0_b"]).relu()
    logits = dense(h1, p["head1_W"], p["head1_b"])
    return (logits, (a1, a2, a3)) if stages else logits


def predict(model: Model, features):
    """(argmax class index, float64 softmax probabilities) of one clip, in
    infer mode whatever the model's mode, which is restored afterwards;
    ties break to the lowest index."""
    values = features.values if hasattr(features, "values") else features
    saved = model.mode
    model.set_mode("infer")
    try:
        logits = model_forward(model, np.asarray(values)[None])
    finally:
        model.set_mode(saved)
    row = logits.data[0].astype(np.float64)
    return int(np.argmax(row)), Tensor(row).softmax().data
