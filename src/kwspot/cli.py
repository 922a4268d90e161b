"""Command-line entry point: featurize, synth, train, eval and report
subcommands over a flat key=value configuration."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import audio_io, dsp, eval as evaluation, training
from .errors import ConfigError, DatasetError, KwspotError, UsageError, read_text, write_atomic
from .keyvalue import (
    PARSERS, REQUIRED, checked, from_config, parse_value, read_key_values, schema,
    write_key_values,
)
from .models import ModelConfig, build_model

# the front end's keys: DspConfig's fields and the feature kind
FRONT_END_KEYS = {
    **schema(dsp.DspConfig),
    "feature_kind": (checked(str, lambda v: v in dsp.FEATURE_KINDS), "log_mel"),
}

# key -> (parser, default); every key is documented in the README
CONFIG_KEYS = {
    **FRONT_END_KEYS,
    "arch": (str, "multilayer_attention"),
    # a model's dtype is fixed by `kwspot train`, not a config key
    **{key: (parse, default) for key, (parse, default) in schema(ModelConfig).items()
       if default is not REQUIRED and key != "dtype"},
    **schema(training.TrainConfig),
    "train_ratio": (PARSERS[float], 0.8),
    "val_ratio": (PARSERS[float], 0.1),
    "test_ratio": (PARSERS[float], 0.1),
}

SYNTH_KEYS = {**schema(audio_io.SynthSpec), "seed": (int, 0)}


def parse_config(path=None, overrides=None) -> dict:
    """Merged configuration; precedence: overrides > file > defaults."""
    text = "" if path is None else read_text(path, ConfigError)
    config = read_key_values(text, CONFIG_KEYS, path)
    for key, raw in (overrides or {}).items():
        config[key] = parse_value(CONFIG_KEYS, key, raw, "command line")
    return config


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
    return overrides


def _cmd_featurize(args) -> int:
    cfg = parse_config(args.config, _collect_overrides(args))
    _print_header("featurize", cfg)
    dsp_cfg = from_config(dsp.DspConfig, cfg)  # a bad setting is refused before the read
    features = dsp.mfcc_pipeline(audio_io.read_wav(args.wav), dsp_cfg, cfg["feature_kind"])
    rows = "\n".join(
        ",".join(f"{v:.6f}" for v in frame) for frame in features.values
    )
    if args.out:
        write_atomic(args.out, (rows + "\n").encode("utf-8"))
        print(f"wrote {features.values.shape[0]} frames to {args.out}")
    else:
        print(rows)
    return 0


def read_synth_spec(path) -> tuple:
    """(SynthSpec, seed) of a synth spec file; a missing required key or a
    bad value raises ConfigError naming the file."""
    values = read_key_values(read_text(path, ConfigError), SYNTH_KEYS, path)
    seed = values.pop("seed")
    if seed < 0:
        raise ConfigError(f"{path}: seed must not be negative, got {seed}")
    try:
        return audio_io.SynthSpec(**values), seed
    except DatasetError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_synth(args) -> int:
    index = audio_io.synth_dataset(*read_synth_spec(args.spec))
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


def _cmd_train(args) -> int:
    cfg = parse_config(args.config, _collect_overrides(args))
    _print_header("train", cfg)
    # the settings are refused before --data is scanned; the scan gives
    # n_classes, which replaces the least valid one and is checked then
    train_cfg = from_config(training.TrainConfig, cfg)
    dsp_cfg = from_config(dsp.DspConfig, cfg)
    ratios = (cfg["train_ratio"], cfg["val_ratio"], cfg["test_ratio"])
    audio_io.check_ratios(ratios)
    kind = cfg["feature_kind"]
    model_cfg = from_config(ModelConfig, dict(
        cfg, n_classes=2, input_shape=dsp.feature_shape(dsp_cfg, kind), dtype=ModelConfig.dtype))
    data = Path(args.data)
    index = audio_io.scan_dataset(data, sorted(p.name for p in data.iterdir() if p.is_dir()))
    # refuse a label the checkpoint could not store before training for it
    write_key_values({"labels": index.label_set}, training.METADATA_KEYS, args.out)
    # and a model too large before the front end runs
    model = build_model(dataclasses.replace(model_cfg, n_classes=len(index.label_set)))
    train_idx, val_idx, _ = audio_io.split_dataset(index, ratios, cfg["seed"])
    train_data = training.featurize_index(train_idx, dsp_cfg, kind, "train")
    val_data = training.featurize_index(val_idx, dsp_cfg, kind, "validation")
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
    # a bad setting is refused before the checkpoint is loaded or --data scanned
    cfg = parse_config(args.config, _collect_overrides(args))
    dsp_cfg = from_config(dsp.DspConfig, cfg)
    model, meta = training.load_checkpoint(args.ckpt)
    index = audio_io.scan_dataset(args.data, meta["labels"])
    # the model is the checkpoint's: only the front end comes from the config
    _print_header("eval", {key: cfg[key] for key in FRONT_END_KEYS}
                  | dataclasses.asdict(model.config))
    report = evaluation.evaluate(model, index, dsp_cfg, cfg["feature_kind"])
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
    for r in records:
        print(f"{r.epoch:>5} {r.train_loss:>11.6f} {r.train_acc:>10.6f} "
              f"{r.val_loss:>11.6f} {r.val_acc:>10.6f} {r.lr:>10.8g}")
    best = max(records, key=lambda r: r.val_acc)  # the first of equal ones
    print(f"best epoch: {best.epoch} (val_acc {best.val_acc:.4f})")
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
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="metrics CSV path (default: <out>.metrics.csv)")
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
    except (KwspotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, UsageError)) else 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
