"""Per-keyword evaluation: confusion matrix, accuracy report, CSV/text
emission and re-parsing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import audio_io, dsp
from .errors import DataError, IoError, read_text, write_atomic
from .models import Model, predict


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # C x C, rows = true label, columns = predicted
    labels: tuple

    def row_sum(self, i: int) -> int:
        return int(self.counts[i].sum())

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class EvalReport:
    overall_accuracy: float
    per_keyword: dict       # label -> accuracy; empty rows absent
    confusion: ConfusionMatrix
    n_samples: int


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


def report_from_confusion(cm: ConfusionMatrix) -> EvalReport:
    n = cm.n_samples
    overall = float(np.trace(cm.counts)) / n if n else 0.0
    per_keyword = {}
    for i, label in enumerate(cm.labels):
        total = cm.row_sum(i)
        if total:
            per_keyword[label] = float(cm.counts[i, i]) / total
    return EvalReport(
        overall_accuracy=overall, per_keyword=per_keyword, confusion=cm, n_samples=n
    )


def evaluate(model: Model, index, dsp_config: dsp.DspConfig,
             kind: str = "log_mel") -> EvalReport:
    """Run the frozen model over every entry of a dataset index."""
    if len(index.label_set) > model.config.n_classes:
        raise DataError(
            f"dataset has {len(index.label_set)} labels but the model only "
            f"knows {model.config.n_classes} classes"
        )
    saved = model.mode
    model.set_mode("infer")
    preds, truths = [], []
    try:
        for entry in index.entries:
            clip = audio_io.load_clip(entry)
            features = dsp.mfcc_pipeline(clip, dsp_config, kind)
            label_idx, _ = predict(model, features)
            preds.append(label_idx)
            truths.append(index.class_index(entry[1]))
    finally:
        model.set_mode(saved)
    cm = confusion_matrix(
        preds, truths, model.config.n_classes,
        label_names=list(index.label_set)
        + [f"class{i}" for i in range(len(index.label_set), model.config.n_classes)],
    )
    return report_from_confusion(cm)


def emit_report(report: EvalReport, path, fmt: str = "csv"):
    """csv: label,accuracy,n rows plus an __overall__ row; text: aligned
    table plus the confusion grid."""
    if fmt == "csv":
        lines = ["label,accuracy,n"]
        for i, label in enumerate(report.confusion.labels):
            total = report.confusion.row_sum(i)
            if total:
                lines.append(f"{label},{report.per_keyword[label]:.4f},{total}")
        lines.append(f"__overall__,{report.overall_accuracy:.4f},{report.n_samples}")
        text = "\n".join(lines) + "\n"
    elif fmt == "text":
        width = max((len(l) for l in report.confusion.labels), default=5) + 2
        lines = [f"{'label':<{width}}accuracy      n"]
        for i, label in enumerate(report.confusion.labels):
            total = report.confusion.row_sum(i)
            if total:
                lines.append(f"{label:<{width}}{report.per_keyword[label]:.4f}   {total:6d}")
        lines.append(f"{'overall':<{width}}{report.overall_accuracy:.4f}   {report.n_samples:6d}")
        lines.append("")
        lines.append("confusion (rows = true, columns = predicted):")
        for row in report.confusion.counts:
            lines.append(" ".join(f"{v:6d}" for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise DataError(f"unknown report format {fmt!r}")
    try:
        write_atomic(path, text.encode("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


def parse_report_csv(path):
    """Re-parse an emitted CSV into (per-keyword map, overall, n_samples).
    A foreign file or a malformed row raises DataError."""
    lines = read_text(path, DataError).strip().splitlines()
    if not lines or lines[0] != "label,accuracy,n":
        raise DataError(f"{path}: not a kwspot report CSV")
    per_keyword, overall, n_samples = {}, None, None
    for lineno, line in enumerate(lines[1:], 2):
        try:
            label, acc, n = line.split(",")
            acc, n = float(acc), int(n)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: expected label,accuracy,n, got {line!r}"
            ) from None
        if label == "__overall__":
            overall, n_samples = acc, n
        else:
            per_keyword[label] = acc
    if overall is None:
        raise DataError(f"{path}: missing __overall__ row")
    return per_keyword, overall, n_samples
