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

from . import audio_io, autodiff, dsp
from .autodiff import Tensor, backward
from .errors import ConfigError, DataError, read_text, write_atomic
from .keyvalue import (
    REQUIRED, checked, from_config, read_key_values, schema, tuple_of, write_key_values,
)
from .models import Model, ModelConfig, make_model, model_forward

CHECKPOINT_MAGIC = b"KWSA"
CHECKPOINT_VERSION = 5

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


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
        for key in ("base_lr", "lr_decay"):
            # base_lr < 0 ascends the loss, lr_decay < 0 flips the step's
            # sign every epoch, and either at 0 stops training
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and positive, got {getattr(self, key)}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.patience < 0:
            raise ConfigError("patience must not be negative")
        if not self.patience < self.max_epochs:
            raise ConfigError("patience must be smaller than max_epochs")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")


# `kwspot eval` joins each label onto --data: one directory name there
_label = checked(str, lambda v: v not in ("", ".", "..") and "/" not in v)

# the ModelConfig fields, then what save_checkpoint was given, in the order
# they are written
METADATA_KEYS = {
    **schema(ModelConfig, required=True),
    # one label per class, each given once
    "labels": (checked(tuple_of(_label), lambda v: len(set(v)) == len(v)), REQUIRED),
    **{key: (parse, None) for key, (parse, _) in schema(TrainConfig, prefix="train.").items()},
}


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


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
    """Mean negative log-likelihood via the log-sum-exp stable form, as one
    primitive whose backward is (softmax - onehot) / N. It runs the float
    operations of a graph of exp, sum, log, sub and mean in that graph's
    order, so the loss and its gradient have that graph's bits."""
    labels = np.asarray(labels)
    x = logits.data
    n, c = x.shape
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= c:
        raise DataError(f"labels outside [0, {c})")
    rows = np.arange(n)
    row_max = x.max(axis=1)  # constant shift
    e = np.exp(x - row_max[:, None])
    s = e.sum(axis=1)
    inv_n = np.asarray(1.0 / n, dtype=x.dtype)
    loss = ((np.log(s) + row_max) - x[rows, labels]).sum() * inv_n

    def bw(g):
        scale = g * inv_n
        grad = e * (scale / s)[:, None]
        grad[rows, labels] -= scale
        return (grad,)

    return autodiff.record(loss, (logits,), bw)


def adam_step(params: dict, state: AdamState, lr: float):
    """One Adam update in place, of the parameters and of the moments;
    missing gradients are treated as zero."""
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else 0.0
        m, v = state.m[name], state.v[name]
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # p -= lr (m / bias1) / (sqrt(v / bias2) + eps), each operation in
        # this order
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        step = m / bias1
        step *= lr
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p.data -= step


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Multiplicative decay; epoch is 0-based."""
    return config.base_lr * config.lr_decay ** epoch


def evaluate_arrays(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int = 64):
    """(mean loss, accuracy, predicted class indices) of a frozen model over
    a feature array."""
    saved = model.mode
    model.set_mode("infer")
    total_loss, preds = 0.0, []
    try:
        for start in range(0, len(x), batch_size):
            xb, yb = x[start:start + batch_size], y[start:start + batch_size]
            logits = model_forward(model, xb)
            total_loss += cross_entropy_loss(logits, yb).item() * len(xb)
            preds.append(logits.data.argmax(axis=1))
    finally:
        model.set_mode(saved)
    preds = np.concatenate(preds)
    return total_loss / len(x), int((preds == y).sum()) / len(x), preds


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


def fit(model: Model, train_data, val_data, config: TrainConfig):
    """Train with early stopping on validation accuracy.

    Stops once (epoch - best_epoch) >= patience; restores and returns the
    best snapshot.
    """
    if len(train_data[0]) == 0 or len(val_data[0]) == 0:
        raise DataError("train and validation splits must be non-empty")
    opt_state = init_adam(model.params)
    history = TrainHistory()
    best_acc = -1.0  # below any accuracy, so epoch 1 takes the first snapshot
    best_snap = None
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        train_loss, train_acc = train_epoch(model, train_data, opt_state, config, epoch)
        val_loss, val_acc, _ = evaluate_arrays(model, *val_data, config.batch_size)
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
    file, one with no epoch rows, a malformed row or an accuracy outside
    [0, 1] (NaN included) raises ConfigError."""
    lines = read_text(path, ConfigError).strip().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ConfigError(f"{path}: not a kwspot metrics CSV")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no epoch rows")
    records = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            epoch, *values = line.split(",")
            record = EpochRecord(int(epoch), *(float(v) for v in values))
        except (TypeError, ValueError):
            raise ConfigError(
                f"{path}:{lineno}: expected {METRICS_HEADER}, got {line!r}"
            ) from None
        for name in ("train_acc", "val_acc"):
            value = getattr(record, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{path}:{lineno}: {name} {value} outside [0, 1]")
        records.append(record)
    return records


def featurize_index(index, dsp_config, kind: str, split: str = "dataset"):
    """Extract features for every entry: (N x T x D array, label indices),
    written row by row into one array of dsp.feature_shape. An empty index,
    or a clip whose features have another shape, raises DataError naming
    the split (and the entry)."""
    if not index.entries:
        raise DataError(f"the {split} split holds no clips")
    shape = dsp.feature_shape(dsp_config, kind)
    x = np.empty((len(index.entries),) + shape)
    y = np.empty(len(index.entries), dtype=np.int64)
    for i, entry in enumerate(index.entries):
        values = dsp.mfcc_pipeline(audio_io.load_clip(entry), dsp_config, kind).values
        if values.shape != shape:
            source = "in-memory clip" if isinstance(entry[0], audio_io.AudioClip) else entry[0]
            raise DataError(
                f"{split} entry {i} ({source}): features of shape {values.shape}, "
                f"expected {shape} of a 1-second clip"
            )
        x[i] = values
        y[i] = index.class_index(entry[1])
    return x, y


# ---- checkpoint format ------------------------------------------------
# magic "KWSA" | u32 version (5) | u32 metadata length | metadata (the
# key=value lines of METADATA_KEYS, UTF-8) | the raw values of every array
# in Model.arrays() order, <f4 or <f8 as the dtype line says; the
# metadata's model fixes each array's name and shape | u32 CRC32 (zlib) of
# every preceding byte


def _read_metadata(text: str, path) -> dict:
    """The METADATA_KEYS values of a checkpoint's metadata text. A line the
    key = value reader refuses, and labels that are not n_classes many,
    raise DataError naming the file."""
    where = f"{path}: metadata"
    meta = read_key_values(text, METADATA_KEYS, where, DataError)
    labels, n_classes = meta["labels"], meta["n_classes"]
    if len(labels) != n_classes:
        raise DataError(f"{where}: labels names {len(labels)} classes, but n_classes is {n_classes}")
    return meta


def save_checkpoint(model: Model, path, train_config: TrainConfig | None = None, *, labels):
    """Serialize parameters and running statistics; the training history is
    persisted separately via write_metrics_csv. Metadata that
    load_checkpoint would refuse, such as labels=None or a label that is not
    one directory name, raises DataError."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    values = dict(vars(model.config), labels=labels)
    if train_config is not None:
        values.update({f"train.{key}": v for key, v in vars(train_config).items()})
    text = write_key_values(values, METADATA_KEYS, path)
    _read_metadata(text, path)  # as a load reads it
    meta = text.encode("utf-8")
    blob += struct.pack("<I", len(meta)) + meta
    stored = np.dtype(model.config.dtype).newbyteorder("<")
    for _, arr in model.arrays():
        blob += np.ascontiguousarray(arr, dtype=stored).data
    blob += struct.pack("<I", zlib.crc32(blob))
    write_atomic(path, blob)


def load_checkpoint(path):
    """Returns (model, typed METADATA_KEYS dict). Rejects bad magic, version,
    checksum, truncation, undecodable metadata, metadata that the key = value
    reader refuses, and an array section of another size than the
    metadata's model with DataError."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:  # magic, version, metadata length and CRC32
        raise DataError(f"{path}: truncated checkpoint file")
    magic, version, meta_len = struct.unpack_from("<4sII", raw)
    if magic != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic bytes")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) != int.from_bytes(raw[-4:], "little"):
        raise DataError(f"{path}: checksum mismatch (corrupt or truncated file)")
    if 12 + meta_len > len(body):
        raise DataError(f"{path}: truncated checkpoint file")
    try:
        text = str(body[12:12 + meta_len], "utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: metadata at byte {12 + exc.start} is not UTF-8") from None
    meta = _read_metadata(text, path)
    section = body[12 + meta_len:]
    budget = [len(section)]

    def zeros(shape):  # so that a forged size in the metadata cannot exhaust memory
        budget[0] -= math.prod(shape) * np.dtype(config.dtype).itemsize
        if budget[0] < 0:
            raise DataError(f"{path}: metadata describes more values than the file stores")
        return np.zeros(shape, config.dtype)

    try:
        config = from_config(ModelConfig, meta)
        model = make_model(config, zeros)
    except (ValueError, ConfigError) as exc:
        raise DataError(f"{path}: invalid metadata ({exc})") from exc
    stored = np.dtype(config.dtype).newbyteorder("<")
    names, arrays = zip(*model.arrays())
    expected = stored.itemsize * sum(arr.size for arr in arrays)
    if len(section) != expected:
        short = ""
        if len(section) < expected:  # name the first array the section cuts off
            ends = np.cumsum([arr.nbytes for arr in arrays])
            cut = names[np.searchsorted(ends, len(section), side="right")]
            short = f"; {cut} is not stored whole"
        raise DataError(f"{path}: the arrays take {len(section)} bytes, but the "
                        f"metadata's model needs {expected}{short}")
    values = np.frombuffer(section, dtype=stored)
    start = 0
    for arr in arrays:
        arr[...] = values[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    model.set_mode("infer")
    return model, meta
