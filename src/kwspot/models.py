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

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .layers import (
    LSTM_GATES,
    BnStats,
    ConvParams,
    LstmParams,
    attention,
    batch_norm,
    bilstm_sequence,
    conv2d,
    dense,
    dropout,
    max_pool,
)

ARCHITECTURES = ("cnn", "cnn_bilstm", "attention_rnn", "multilayer_attention")


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    n_classes: int
    input_shape: tuple  # (T, D)
    conv_channels: tuple | None = None
    lstm_hidden: int = 64
    dense_hidden: int = 64
    dropout_rate: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be at least 2")
        if self.lstm_hidden <= 0:
            raise ConfigError("lstm_hidden must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")

    def resolved_channels(self) -> tuple:
        if self.conv_channels is not None:
            return tuple(self.conv_channels)
        return (32, 64, 64) if self.arch == "cnn" else (32, 64)


@dataclass
class Model:
    config: ModelConfig
    params: dict          # name -> Tensor (requires_grad)
    bn_stats: dict        # name -> BnStats
    mode: str = "train"

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def set_mode(self, mode: str):
        if mode not in ("train", "infer"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.mode = mode

    def snapshot(self) -> dict:
        return {
            "params": {k: v.data.copy() for k, v in self.params.items()},
            "bn": {k: (s.mean.copy(), s.var.copy()) for k, s in self.bn_stats.items()},
        }

    def restore(self, snap: dict):
        for k, v in snap["params"].items():
            self.params[k].data = v.copy()
        for k, (m, v) in snap["bn"].items():
            self.bn_stats[k].mean = m.copy()
            self.bn_stats[k].var = v.copy()


def _glorot(rng, shape) -> np.ndarray:
    fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[1:]))
    fan_out = shape[1] if len(shape) == 2 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _init_lstm(rng, params, prefix, in_dim, hidden):
    # each gate's blocks are drawn with that gate's own fans, W then U gate
    # by gate; the forget gate's bias starts at 1
    draws = [(_glorot(rng, (in_dim, hidden)), _glorot(rng, (hidden, hidden)))
             for _ in LSTM_GATES]
    for name, blocks in zip("WU", zip(*draws)):
        params[f"{prefix}_{name}"] = Tensor(np.concatenate(blocks, axis=1), requires_grad=True)
    params[f"{prefix}_b"] = Tensor(
        np.concatenate([np.full(hidden, float(gate == "f")) for gate in LSTM_GATES]),
        requires_grad=True,
    )


def _lstm_params(model, prefix) -> LstmParams:
    return LstmParams(*(model.params[f"{prefix}_{name}"] for name in "WUb"))


def _conv_stack_shape(config: ModelConfig):
    """Walk the conv blocks symbolically; raises ConfigError if a stage
    cannot fit its 2x2 pool."""
    t, d = config.input_shape
    channels = config.resolved_channels()
    h, w = t, d
    for i, _ in enumerate(channels):
        if h < 2 or w < 2:
            raise ConfigError(
                f"input {config.input_shape} too small for conv block {i} "
                f"(spatial size {h}x{w} before its 2x2 pool)"
            )
        h, w = h // 2, w // 2
    return channels[-1], h, w


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize all parameters of the chosen architecture."""
    out_c, out_h, out_w = _conv_stack_shape(config)
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}
    bn_stats: dict[str, BnStats] = {}
    channels = config.resolved_channels()
    in_c = 1
    for i, c in enumerate(channels):
        params[f"conv{i}_kernel"] = Tensor(
            _glorot(rng, (c, in_c, 3, 3)), requires_grad=True
        )
        # no conv bias: the following batch norm subtracts the per-channel
        # mean, so a bias here would be a zero-gradient redundant parameter
        params[f"conv{i}_gamma"] = Tensor(np.ones(c), requires_grad=True)
        params[f"conv{i}_beta"] = Tensor(np.zeros(c), requires_grad=True)
        bn_stats[f"conv{i}_bn"] = BnStats(mean=np.zeros(c), var=np.ones(c))
        in_c = c

    hidden = config.lstm_hidden
    seq_dim = out_c * out_w
    n_cls = config.n_classes
    dh = config.dense_hidden

    if config.arch == "cnn":
        flat = out_c * out_h * out_w
        params["fc0_W"] = Tensor(_glorot(rng, (flat, dh)), requires_grad=True)
        params["fc0_b"] = Tensor(np.zeros(dh), requires_grad=True)
        params["fc1_W"] = Tensor(_glorot(rng, (dh, dh)), requires_grad=True)
        params["fc1_b"] = Tensor(np.zeros(dh), requires_grad=True)
        params["fc2_W"] = Tensor(_glorot(rng, (dh, n_cls)), requires_grad=True)
        params["fc2_b"] = Tensor(np.zeros(n_cls), requires_grad=True)
    elif config.arch == "cnn_bilstm":
        _init_lstm(rng, params, "lstm1f", seq_dim, hidden)
        _init_lstm(rng, params, "lstm1b", seq_dim, hidden)
        params["out_W"] = Tensor(_glorot(rng, (2 * hidden, n_cls)), requires_grad=True)
        params["out_b"] = Tensor(np.zeros(n_cls), requires_grad=True)
    else:
        _init_lstm(rng, params, "lstm1f", seq_dim, hidden)
        _init_lstm(rng, params, "lstm1b", seq_dim, hidden)
        _init_lstm(rng, params, "lstm2f", 2 * hidden, hidden)
        _init_lstm(rng, params, "lstm2b", 2 * hidden, hidden)
        params["query_proj"] = Tensor(
            _glorot(rng, (2 * hidden, 2 * hidden)), requires_grad=True
        )
        if config.arch == "multilayer_attention":
            t, d = config.input_shape
            params["stage1_proj"] = Tensor(
                _glorot(rng, (d, seq_dim)), requires_grad=True
            )
            params["stage2_proj"] = Tensor(
                _glorot(rng, (seq_dim, 2 * hidden)), requires_grad=True
            )
            params["head0_W"] = Tensor(_glorot(rng, (2 * hidden, dh)), requires_grad=True)
            params["head0_b"] = Tensor(np.zeros(dh), requires_grad=True)
            params["head1_W"] = Tensor(_glorot(rng, (dh, n_cls)), requires_grad=True)
            params["head1_b"] = Tensor(np.zeros(n_cls), requires_grad=True)
        else:
            params["out_W"] = Tensor(
                _glorot(rng, (2 * hidden, n_cls)), requires_grad=True
            )
            params["out_b"] = Tensor(np.zeros(n_cls), requires_grad=True)
    return Model(config=config, params=params, bn_stats=bn_stats, mode="train")


def _conv_blocks(model: Model, x: Tensor, rng) -> Tensor:
    cfg = model.config
    for i, _ in enumerate(cfg.resolved_channels()):
        conv = ConvParams(kernels=model.params[f"conv{i}_kernel"], padding="same")
        x = conv2d(x, conv)
        x = batch_norm(
            x,
            model.params[f"conv{i}_gamma"],
            model.params[f"conv{i}_beta"],
            model.bn_stats[f"conv{i}_bn"],
            model.mode,
        )
        x = x.relu()
        x = max_pool(x, (2, 2))
        x = dropout(x, cfg.dropout_rate, model.mode, rng)
    return x


def _to_sequence(x: Tensor) -> Tensor:
    """NCHW conv output to an N x H x (C*W) time-major sequence."""
    n, c, h, w = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, h, c * w)


def _forward(model: Model, batch: Tensor, rng=None):
    """Shared forward; returns (logits, stage_weights or None)."""
    cfg = model.config
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
        h1 = dense(flat, p["fc0_W"], p["fc0_b"], "relu")
        h2 = dense(h1, p["fc1_W"], p["fc1_b"], "relu")
        return dense(h2, p["fc2_W"], p["fc2_b"], "none"), None

    seq = _to_sequence(feat)
    l1 = bilstm_sequence(seq, _lstm_params(model, "lstm1f"), _lstm_params(model, "lstm1b"))
    if cfg.arch == "cnn_bilstm":
        pooled = l1.mean(axis=1)
        return dense(pooled, p["out_W"], p["out_b"], "none"), None

    l2 = bilstm_sequence(l1, _lstm_params(model, "lstm2f"), _lstm_params(model, "lstm2b"))
    if cfg.arch == "attention_rnn":
        mid = l2.shape[1] // 2
        query = l2[:, mid, :] @ p["query_proj"]
        context, _ = attention(query, l2, l2)
        return dense(context, p["out_W"], p["out_b"], "none"), None

    # multilayer_attention: three chained attention reads
    q1 = batch.mean(axis=1) @ p["stage1_proj"]
    c1, a1 = attention(q1, seq, seq)
    q2 = c1 @ p["stage2_proj"]
    c2, a2 = attention(q2, l1, l1)
    q3 = c2 @ p["query_proj"]
    c3, a3 = attention(q3, l2, l2)
    h1 = dense(c3, p["head0_W"], p["head0_b"], "relu")
    logits = dense(h1, p["head1_W"], p["head1_b"], "none")
    return logits, (a1, a2, a3)


def model_forward(model: Model, batch, rng=None) -> Tensor:
    """Logits for an N x T x D feature batch (softmax is applied at loss
    or prediction time, not here)."""
    if not isinstance(batch, Tensor):
        batch = Tensor(np.asarray(batch, dtype=np.float64))
    logits, _ = _forward(model, batch, rng)
    return logits


def multilayer_attention_forward(features, model: Model, rng=None):
    """Single-sample forward of the proposed model; also returns the three
    stage attention-weight vectors for inspection."""
    if model.config.arch != "multilayer_attention":
        raise ConfigError(
            f"multilayer_attention_forward needs arch multilayer_attention, "
            f"got {model.config.arch}"
        )
    values = features.values if hasattr(features, "values") else features
    batch = Tensor(np.asarray(values, dtype=np.float64)[None])
    logits, stages = _forward(model, batch, rng)
    return logits.reshape(-1), tuple(w.reshape(-1) for w in stages)


def predict(model: Model, features):
    """(argmax class index, softmax probabilities); ties break to the
    lowest index."""
    values = features.values if hasattr(features, "values") else features
    logits = model_forward(model, np.asarray(values, dtype=np.float64)[None])
    row = logits.data[0]
    shifted = np.exp(row - row.max())
    probs = shifted / shifted.sum()
    return int(np.argmax(row)), probs
