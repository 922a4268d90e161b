"""Cross-entropy training with Adam, per-epoch learning-rate decay,
early stopping on validation accuracy, and binary checkpoints."""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio_io, dsp
from .autodiff import Tensor, backward
from .errors import CheckpointError, ConfigError, DataError, read_text, write_atomic
from .keyvalue import METADATA_KEYS, from_config, read_key_values, write_key_values
from .models import Model, ModelConfig, make_model, model_forward

CHECKPOINT_MAGIC = b"KWSA"
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 40
    batch_size: int = 64
    base_lr: float = 1e-3
    lr_decay: float = 0.97
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not self.patience < self.max_epochs:
            raise ConfigError("patience must be smaller than max_epochs")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p.data) for k, p in params.items()},
        v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float
    wall_time: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    best_epoch: int = 0


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood via the log-sum-exp stable form."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= c:
        raise DataError(f"labels outside [0, {c})")
    row_max = logits.data.max(axis=1, keepdims=True)  # constant shift
    lse = (logits - row_max).exp().sum(axis=1).log() + Tensor(row_max.reshape(-1))
    onehot = np.zeros((n, c), dtype=logits.data.dtype)
    onehot[np.arange(n), labels] = 1.0
    picked = (logits * Tensor(onehot)).sum(axis=1)
    return (lse - picked).mean()


def adam_step(params: dict, state: AdamState, lr: float):
    """One Adam update in place; missing gradients are treated as zero."""
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else 0.0
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Multiplicative decay; epoch is 0-based."""
    return config.base_lr * config.lr_decay ** epoch


def evaluate_arrays(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int = 64):
    """(mean loss, accuracy) of a frozen model over a feature array."""
    saved = model.mode
    model.set_mode("infer")
    total_loss, correct = 0.0, 0
    try:
        for start in range(0, len(x), batch_size):
            xb, yb = x[start:start + batch_size], y[start:start + batch_size]
            logits = model_forward(model, xb)
            total_loss += cross_entropy_loss(logits, yb).item() * len(xb)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    finally:
        model.set_mode(saved)
    return total_loss / len(x), correct / len(x)


def train_epoch(model: Model, train_data, opt_state: AdamState, config: TrainConfig,
                epoch: int):
    """One pass over (x, y) with a seeded shuffle; epoch is 1-based."""
    x, y = train_data
    rng = np.random.default_rng([config.seed, epoch])
    order = rng.permutation(len(x))
    lr = lr_schedule(epoch - 1, config)
    model.set_mode("train")
    total_loss, correct = 0.0, 0
    for batch_idx, start in enumerate(range(0, len(x), config.batch_size)):
        idx = order[start:start + config.batch_size]
        xb, yb = x[idx], y[idx]
        drop_rng = np.random.default_rng([config.seed, epoch, batch_idx])
        logits = model_forward(model, xb, rng=drop_rng)
        loss = cross_entropy_loss(logits, yb)
        for p in model.params.values():
            p.zero_grad()
        backward(loss)
        adam_step(model.params, opt_state, lr)
        total_loss += loss.item() * len(xb)
        correct += int((logits.data.argmax(axis=1) == yb).sum())
    return total_loss / len(x), correct / len(x)


def fit(model: Model, train_data, val_data, config: TrainConfig, val_metric=None):
    """Train with early stopping on validation accuracy.

    Stops once (epoch - best_epoch) >= patience; restores and returns the
    best snapshot. val_metric, if given, replaces the validation pass with
    a callable epoch -> accuracy (used by the early-stopping contract test).
    """
    if len(train_data[0]) == 0 or (val_metric is None and len(val_data[0]) == 0):
        raise DataError("train and validation splits must be non-empty")
    opt_state = init_adam(model.params)
    history = TrainHistory()
    best_acc = -1.0
    best_snap = model.snapshot()
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        train_loss, train_acc = train_epoch(model, train_data, opt_state, config, epoch)
        if val_metric is not None:
            val_loss, val_acc = 0.0, float(val_metric(epoch))
        else:
            val_loss, val_acc = evaluate_arrays(model, *val_data, config.batch_size)
        history.records.append(EpochRecord(
            epoch=epoch, train_loss=train_loss, train_acc=train_acc,
            val_loss=val_loss, val_acc=val_acc, lr=lr_schedule(epoch - 1, config),
            wall_time=time.perf_counter() - t0,
        ))
        if val_acc > best_acc:  # strict improvement; ties do not reset patience
            best_acc = val_acc
            history.best_epoch = epoch
            best_snap = model.snapshot()
        if epoch - history.best_epoch >= config.patience:
            break
    model.restore(best_snap)
    return model, history


METRICS_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds"


def write_metrics_csv(history: TrainHistory, path):
    lines = [METRICS_HEADER]
    for r in history.records:
        lines.append(
            f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},"
            f"{r.val_loss:.6f},{r.val_acc:.6f},{r.lr:.8g},{r.wall_time:.3f}"
        )
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_metrics_csv(path) -> list:
    """The EpochRecords of a file written by write_metrics_csv. A foreign
    file or a malformed row raises ConfigError."""
    lines = read_text(path, ConfigError).strip().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ConfigError(f"{path}: not a kwspot metrics CSV")
    records = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            epoch, *values = line.split(",")
            records.append(EpochRecord(int(epoch), *(float(v) for v in values)))
        except (TypeError, ValueError):
            raise ConfigError(
                f"{path}:{lineno}: expected {METRICS_HEADER}, got {line!r}"
            ) from None
    return records


def featurize_index(index, dsp_config, kind: str = "log_mel"):
    """Extract features for every entry: (N x T x D array, label indices)."""
    xs, ys = [], []
    for entry in index.entries:
        clip = audio_io.load_clip(entry)
        xs.append(dsp.mfcc_pipeline(clip, dsp_config, kind).values)
        ys.append(index.class_index(entry[1]))
    return np.stack(xs), np.asarray(ys, dtype=np.int64)


# ---- checkpoint format ------------------------------------------------
# magic "KWSA" | u32 version (3) | u32 metadata length | metadata (the
# key=value lines of keyvalue.METADATA_KEYS, UTF-8) | per array:
# u32 name length | name | u32 rank | rank * u32 dims | raw values, <f4
# or <f8 as the dtype line says | u32 CRC32 (zlib) of every preceding byte


def _iter_arrays(model: Model):
    for name, p in model.params.items():
        yield name, p.data
    for name, s in model.bn_stats.items():
        yield f"{name}_running_mean", s.mean
        yield f"{name}_running_var", s.var


def save_checkpoint(model: Model, path, train_config: TrainConfig | None = None,
                    labels=None):
    """Serialize parameters and running statistics; the training history is
    persisted separately via write_metrics_csv."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    values = dict(vars(model.config), conv_channels=model.config.resolved_channels(),
                  labels=labels)
    if train_config is not None:
        values.update({f"train.{key}": v for key, v in vars(train_config).items()})
    meta = write_key_values(values, METADATA_KEYS, path).encode("utf-8")
    blob += struct.pack("<I", len(meta)) + meta
    stored = np.dtype(model.config.dtype).newbyteorder("<")
    for name, arr in _iter_arrays(model):
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype=stored).data
    blob += struct.pack("<I", zlib.crc32(blob))
    write_atomic(path, blob)


class _Reader:
    def __init__(self, path):
        self.path = path
        self.raw = Path(path).read_bytes()
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint file")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return str(raw, "utf-8")  # raw may be a memoryview of the file
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{self.path}: {what} at byte {self.pos - len(raw)} is not UTF-8"
            ) from None


def load_checkpoint(path):
    """Returns (model, typed METADATA_KEYS dict). Rejects bad magic, version,
    checksum, truncation, undecodable text, metadata that the key = value
    reader refuses or that describes more values than the file stores, and
    an array that is unknown, missing or stored twice with CheckpointError."""
    reader = _Reader(path)
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    body, trailer = memoryview(reader.raw)[:-4], reader.raw[-4:]
    if len(body) < reader.pos or zlib.crc32(body) != int.from_bytes(trailer, "little"):
        raise CheckpointError(f"{path}: checksum mismatch (corrupt or truncated file)")
    reader.raw = body
    meta = read_key_values(reader.text("metadata"), METADATA_KEYS, f"{path}: metadata",
                           CheckpointError)
    budget = [len(reader.raw) - reader.pos]  # bytes left for the arrays

    def zeros(shape):  # so that a forged size in the metadata cannot exhaust memory
        budget[0] -= math.prod(shape) * np.dtype(config.dtype).itemsize
        if budget[0] < 0:
            raise CheckpointError(f"{path}: metadata describes more values than the file stores")
        return np.zeros(shape)

    try:
        config = from_config(ModelConfig, meta)
        model = make_model(config, zeros)
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata field {exc} is missing") from None
    except (ValueError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid metadata ({exc})") from exc
    stored = np.dtype(config.dtype).newbyteorder("<")
    expected = dict(_iter_arrays(model))
    loaded = set()
    while reader.pos < len(reader.raw):
        # name and shape are checked before any value is read, so that only
        # the expected shape ever reaches numpy
        name = reader.text("array name")
        if name not in expected:
            raise CheckpointError(f"{path}: unknown parameter {name!r}")
        if name in loaded:
            raise CheckpointError(f"{path}: array {name!r} is stored twice")
        rank = reader.u32()
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        target = expected[name]
        if target.shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {shape}, expected {target.shape}"
            )
        raw = reader.take(stored.itemsize * target.size)
        target[...] = np.frombuffer(raw, dtype=stored).reshape(shape)
        loaded.add(name)
    missing = [name for name in expected if name not in loaded]
    if missing:
        raise CheckpointError(
            f"{path}: missing array {missing[0]!r} "
            f"({len(missing)} of {len(expected)} arrays absent)"
        )
    model.set_mode("infer")
    return model, meta
