"""Per-keyword evaluation: confusion matrix, accuracy report and its CSV or
text emission."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import DatasetIndex
from .errors import ConfigError, DataError, write_atomic
from .models import Model
from .training import evaluate_arrays, featurize_index

# Clips per chunk of `evaluate`: featurized together, then one forward.
# multilayer_attention at float32 over 24 paper-scale 98x40 clips, one
# BLAS thread, 2 shared vCPUs (forward ms, median of three runs of 15;
# tracemalloc peak MiB): batch 1 67.7, 1.7; 4 39.8, 3.1; 8 35.6, 5.1;
# 12 34.7, 7.2; 24 36.6, 14.4. Past 8 the BiLSTMs' per-step overhead is
# already amortized and only memory grows.
EVAL_BATCH = 8


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # C x C, rows = true label, columns = predicted
    labels: tuple

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    @property
    def overall_accuracy(self) -> float:
        n = self.n_samples
        return float(np.trace(self.counts)) / n if n else 0.0

    def rows(self):
        """(label, accuracy, n) of each class with at least one sample."""
        for i, label in enumerate(self.labels):
            n = int(self.counts[i].sum())
            if n:
                yield label, float(self.counts[i, i]) / n, n


def confusion_matrix(predictions, labels, n_classes: int, label_names=None) -> ConfusionMatrix:
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise DataError("predictions and labels differ in length")
    for arr, what in ((predictions, "prediction"), (labels, "label")):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise DataError(f"{what} outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (labels, predictions), 1)
    names = tuple(label_names) if label_names else tuple(
        str(i) for i in range(n_classes)
    )
    return ConfusionMatrix(counts=counts, labels=names)


def evaluate(model: Model, index, dsp_config: dsp.DspConfig, kind: str) -> ConfusionMatrix:
    """The confusion matrix of the frozen model over every entry of a
    dataset index, run in chunks of EVAL_BATCH clips: each chunk is
    featurized and then forwarded as one batch, so at most EVAL_BATCH clips'
    features are held at a time. The result is a function of the index's
    order and EVAL_BATCH: a batched matmul may sum in another order than a
    batch of 1, so predict's logits for a clip may differ from these in
    the last bits. An index with other than n_classes labels raises
    DataError, and a front end whose features do not have the model's
    input shape ConfigError, before any clip is featurized."""
    if len(index.label_set) != model.config.n_classes:
        raise DataError(f"the index names {len(index.label_set)} labels, but the model "
                        f"has {model.config.n_classes} classes")
    if not index.entries:
        raise DataError("the evaluation split holds no clips")
    shape, want = dsp.feature_shape(dsp_config, kind), model.config.input_shape
    if shape != want:
        width = "n_mel_filters" if kind == "log_mel" else "n_mfcc"
        keys = ", ".join(f"{key} = {getattr(dsp_config, key)}"
                         for key in ("sample_rate", "frame_len", "hop_len", width))
        raise ConfigError(f"the front end ({keys}, feature_kind = {kind}) gives features "
                          f"of shape {shape}, but the model takes {want}")
    preds, truths = [], []
    for start in range(0, len(index.entries), EVAL_BATCH):
        chunk = DatasetIndex(index.entries[start:start + EVAL_BATCH], index.label_set)
        x, y = featurize_index(chunk, dsp_config, kind, "evaluation")
        preds.append(evaluate_arrays(model, x, y, batch_size=EVAL_BATCH)[2])
        truths.append(y)
    return confusion_matrix(np.concatenate(preds), np.concatenate(truths),
                            model.config.n_classes, label_names=index.label_set)


def emit_report(cm: ConfusionMatrix, path, fmt: str = "csv"):
    """csv: label,accuracy,n rows plus an __overall__ row; text: aligned
    table plus the confusion grid."""
    if fmt == "csv":
        lines = ["label,accuracy,n"]
        lines += [f"{label},{accuracy:.4f},{n}" for label, accuracy, n in cm.rows()]
        lines.append(f"__overall__,{cm.overall_accuracy:.4f},{cm.n_samples}")
    elif fmt == "text":
        width = max((len(l) for l in cm.labels), default=5) + 2
        lines = [f"{'label':<{width}}accuracy      n"]
        lines += [f"{label:<{width}}{accuracy:.4f}   {n:6d}" for label, accuracy, n in cm.rows()]
        lines.append(f"{'overall':<{width}}{cm.overall_accuracy:.4f}   {cm.n_samples:6d}")
        lines.append("")
        lines.append("confusion (rows = true, columns = predicted):")
        for row in cm.counts:
            lines.append(" ".join(f"{v:6d}" for v in row))
    else:
        raise DataError(f"unknown report format {fmt!r}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))

