"""Command-line entry point: featurize, synth, train, eval and report
subcommands over a flat key=value configuration."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import audio_io, dsp, eval as evaluation, training
from .errors import ConfigError, DatasetError, KwspotError, UsageError, read_text
from .models import ARCHITECTURES, ModelConfig, build_model

# key -> (parser, default); every key is documented in the README
CONFIG_KEYS = {
    "sample_rate": (int, 16000),
    "frame_len": (int, 400),
    "hop_len": (int, 160),
    "n_fft": (int, 512),
    "pre_emphasis_alpha": (float, 0.97),
    "n_mel_filters": (int, 40),
    "n_mfcc": (int, 20),
    "fmin": (float, 20.0),
    "fmax": (float, 8000.0),
    "log_floor": (float, 1e-10),
    "window": (str, "hamming"),
    "feature_kind": (str, "log_mel"),
    "arch": (str, "multilayer_attention"),
    "lstm_hidden": (int, 64),
    "dense_hidden": (int, 64),
    "dropout_rate": (float, 0.25),
    "conv_channels": (lambda s: tuple(int(v) for v in s.split(",")), None),
    "max_epochs": (int, 40),
    "batch_size": (int, 64),
    "base_lr": (float, 1e-3),
    "lr_decay": (float, 0.97),
    "patience": (int, 10),
    "seed": (int, 0),
    "train_ratio": (float, 0.8),
    "val_ratio": (float, 0.1),
    "test_ratio": (float, 0.1),
}

# synth spec key -> (parser, default); None marks a required key
SYNTH_KEYS = {
    "n_classes": (int, None),
    "clips_per_class": (int, None),
    "sample_rate": (int, None),
    "class_frequencies": (lambda s: tuple(float(v) for v in s.split(",")), None),
    "noise_amplitude": (float, 0.0),
    "seed": (int, 0),
}


def _parse_value(keys: dict, key: str, raw: str, where: str):
    if key not in keys:
        raise ConfigError(f"{where}: unknown key {key!r}")
    parser, _ = keys[key]
    try:
        return parser(raw.strip())
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: cannot parse {key} = {raw.strip()!r}") from None


def _read_key_values(path, keys: dict) -> dict:
    """The defaults of `keys` updated from the `key = value` lines of a
    file (None: defaults only); `#` starts a comment."""
    values = {key: default for key, (_, default) in keys.items()}
    if path is None:
        return values
    for lineno, line in enumerate(read_text(path, ConfigError).splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        values[key] = _parse_value(keys, key, raw, f"{path}:{lineno}")
    return values


def parse_config(path=None, overrides=None) -> dict:
    """Merged configuration; precedence: overrides > file > defaults."""
    config = _read_key_values(path, CONFIG_KEYS)
    for key, raw in (overrides or {}).items():
        config[key] = _parse_value(CONFIG_KEYS, key, str(raw), "command line")
    return config


def _from_config(cls, cfg: dict):
    """A config dataclass (DspConfig, TrainConfig) built from its keys."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def _print_header(command: str, cfg: dict):
    print(f"kwspot {command}")
    for key in sorted(cfg):
        print(f"  {key} = {cfg[key]}")


def _collect_overrides(args) -> dict:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip()] = raw
    if getattr(args, "batch_size", None) is not None:
        overrides["batch_size"] = args.batch_size
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "arch", None) is not None:
        overrides["arch"] = args.arch
    return overrides


def _cmd_featurize(args) -> int:
    cfg = parse_config(args.config, _collect_overrides(args))
    _print_header("featurize", cfg)
    clip = audio_io.read_wav(args.wav)
    features = dsp.mfcc_pipeline(clip, _from_config(dsp.DspConfig, cfg), cfg["feature_kind"])
    rows = "\n".join(
        ",".join(f"{v:.6f}" for v in frame) for frame in features.values
    )
    if args.out:
        Path(args.out).write_text(rows + "\n")
        print(f"wrote {features.values.shape[0]} frames to {args.out}")
    else:
        print(rows)
    return 0


def _cmd_synth(args) -> int:
    values = _read_key_values(args.spec, SYNTH_KEYS)
    missing = sorted(key for key, value in values.items() if value is None)
    if missing:
        raise ConfigError(f"{args.spec}: missing synth keys {missing}")
    seed = values.pop("seed")
    try:
        spec = audio_io.SynthSpec(**values)
    except DatasetError as exc:
        raise ConfigError(f"{args.spec}: {exc}") from None
    index = audio_io.synth_dataset(spec, seed)
    out = Path(args.out)
    counters: dict[str, int] = {}
    for clip, label in index.entries:
        n = counters.get(label, 0)
        counters[label] = n + 1
        target = out / label
        target.mkdir(parents=True, exist_ok=True)
        audio_io.write_wav(target / f"{n:04d}.wav", clip)
    print(f"wrote {len(index)} clips over {len(index.label_set)} labels to {out}")
    return 0


def _scan(data_dir, labels=None) -> audio_io.DatasetIndex:
    root = Path(data_dir)
    if labels is None:
        labels = sorted(p.name for p in root.iterdir() if p.is_dir())
    return audio_io.scan_dataset(root, labels)


def _cmd_train(args) -> int:
    cfg = parse_config(args.config, _collect_overrides(args))
    _print_header("train", cfg)
    index = _scan(args.data)
    train_idx, val_idx, _ = audio_io.split_dataset(
        index, (cfg["train_ratio"], cfg["val_ratio"], cfg["test_ratio"]), cfg["seed"]
    )
    dsp_cfg = _from_config(dsp.DspConfig, cfg)
    kind = cfg["feature_kind"]
    train_data = training.featurize_index(train_idx, dsp_cfg, kind)
    val_data = training.featurize_index(val_idx, dsp_cfg, kind)
    t, d = train_data[0].shape[1:]
    model_cfg = ModelConfig(
        arch=cfg["arch"], n_classes=len(index.label_set), input_shape=(t, d),
        conv_channels=cfg["conv_channels"], lstm_hidden=cfg["lstm_hidden"],
        dense_hidden=cfg["dense_hidden"], dropout_rate=cfg["dropout_rate"],
        seed=cfg["seed"],
    )
    model = build_model(model_cfg)
    train_cfg = _from_config(training.TrainConfig, cfg)
    model, history = training.fit(model, train_data, val_data, train_cfg)
    training.save_checkpoint(
        model, args.out, train_config=train_cfg, labels=index.label_set
    )
    metrics_path = args.metrics or f"{args.out}.metrics.csv"
    training.write_metrics_csv(history, metrics_path)
    best = history.records[history.best_epoch - 1]
    print(
        f"best epoch {history.best_epoch}: val_acc {best.val_acc:.4f} "
        f"(checkpoint {args.out}, metrics {metrics_path})"
    )
    return 0


def _cmd_eval(args) -> int:
    model, meta = training.load_checkpoint(args.ckpt)
    labels = meta.get("labels", "").split(",") if meta.get("labels") else None
    index = _scan(args.data, labels)
    cfg = parse_config(args.config, _collect_overrides(args))
    _print_header("eval", cfg)
    report = evaluation.evaluate(
        model, index, _from_config(dsp.DspConfig, cfg), cfg["feature_kind"]
    )
    evaluation.emit_report(report, args.out, args.format)
    print(
        f"evaluated {report.n_samples} clips: overall accuracy "
        f"{report.overall_accuracy:.4f} -> {args.out}"
    )
    return 0


def _cmd_report(args) -> int:
    records = training.read_metrics_csv(args.metrics)
    print(f"{'epoch':>5} {'train_loss':>11} {'train_acc':>10} "
          f"{'val_loss':>11} {'val_acc':>10} {'lr':>10}")
    best_epoch, best_acc = 0, -1.0
    for r in records:
        print(f"{r.epoch:>5} {r.train_loss:>11.6f} {r.train_acc:>10.6f} "
              f"{r.val_loss:>11.6f} {r.val_acc:>10.6f} {r.lr:>10.8g}")
        if r.val_acc > best_acc:
            best_epoch, best_acc = r.epoch, r.val_acc
    print(f"best epoch: {best_epoch} (val_acc {best_acc:.4f})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwspot", description="Keyword spotting toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the seed")

    p = sub.add_parser("featurize", help="dump a feature matrix as CSV")
    p.add_argument("wav")
    p.add_argument("--out", help="output CSV (default: stdout)")
    common(p)
    p.set_defaults(fn=_cmd_featurize)

    p = sub.add_parser("synth", help="write a synthetic WAV dataset")
    p.add_argument("--spec", required=True, help="synth spec key=value file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--arch", choices=ARCHITECTURES)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="metrics CSV path (default: <out>.metrics.csv)")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    common(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("report", help="summarize a training metrics CSV")
    p.add_argument("--metrics", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KwspotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
