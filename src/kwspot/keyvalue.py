"""The `key = value` format of config files, synth specs and checkpoint
metadata: their schemas, the one line reader, the value parsers, the writer."""

from dataclasses import fields

from .dsp import FEATURE_KINDS
from .errors import ConfigError, DataError

REQUIRED = object()  # schema default of a key the file must set


def _tuple(item):
    """Parser of comma-separated values, each parsed by `item`."""
    return lambda raw: tuple(item(v.strip()) for v in raw.split(","))


def _checked(parse, ok):
    """Parser `parse` refusing a value that ok(value) rejects."""
    def parse_checked(raw: str):
        if not ok(value := parse(raw)):
            raise ValueError(raw)
        return value
    return parse_checked


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
    "feature_kind": (_checked(str, lambda v: v in FEATURE_KINDS), "log_mel"),
    "arch": (str, "multilayer_attention"),
    "lstm_hidden": (int, 64),
    "dense_hidden": (int, 64),
    "dropout_rate": (float, 0.25),
    "conv_channels": (_tuple(int), None),
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

SYNTH_KEYS = {
    "n_classes": (int, REQUIRED),
    "clips_per_class": (int, REQUIRED),
    "sample_rate": (int, REQUIRED),
    "class_frequencies": (_tuple(float), REQUIRED),
    "noise_amplitude": (float, 0.0),
    "seed": (int, 0),
}

# the ModelConfig fields, then what save_checkpoint was given, in the order
# they are written; a key the config has too is parsed the same way
METADATA_KEYS = {
    "arch": (str, REQUIRED),
    "n_classes": (int, REQUIRED),
    "input_shape": (_checked(_tuple(int), lambda v: len(v) == 2), REQUIRED),
    **{key: (CONFIG_KEYS[key][0], REQUIRED)
       for key in ("conv_channels", "lstm_hidden", "dense_hidden", "dropout_rate", "seed")},
    "dtype": (str, REQUIRED),
    "labels": (_tuple(_checked(str, bool)), None),  # non-empty names
    **{f"train.{key}": (CONFIG_KEYS[key][0], None)
       for key in ("max_epochs", "batch_size", "base_lr", "lr_decay", "patience", "seed")},
}


def parse_value(keys: dict, key: str, raw: str, where: str, error=ConfigError):
    """The value of one key of the schema `keys`, parsed from `raw`."""
    if key not in keys:
        raise error(f"{where}: unknown key {key!r}")
    parser, _ = keys[key]
    try:
        return parser(raw.strip())
    except (TypeError, ValueError):
        raise error(f"{where}: cannot parse {key} = {raw.strip()!r}") from None


def read_key_values(text: str, keys: dict, where, error=ConfigError) -> dict:
    """The defaults of `keys` updated from the `key = value` lines of
    `text`; `#` starts a comment. A required key left unset is absent from
    the result. A line without `=`, an unknown key, a key set twice and a
    value its parser rejects raise `error` naming `where`, the line and the
    key."""
    values = {key: default for key, (_, default) in keys.items() if default is not REQUIRED}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise error(f"{where}:{lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise error(f"{where}:{lineno}: key {key!r} is set twice")
        seen.add(key)
        values[key] = parse_value(keys, key, raw, f"{where}:{lineno}", error)
    return values


def write_key_values(values: dict, keys: dict, where) -> str:
    """The `key=value` lines of the entries of `values` that are not None,
    in the order of `keys`. A value that would not read back unchanged (an
    item that is empty, has surrounding spaces, or holds `,`, `#`, `=` or a
    line break) raises DataError naming `where`, the key and the item."""
    lines = []
    for key in keys:
        value = values.get(key)
        if value is None:
            continue
        items = [str(v) for v in value] if isinstance(value, (tuple, list)) else [str(value)]
        for item in items or [""]:
            if item != item.strip() or item.splitlines() != [item] or any(c in item for c in ",#="):
                raise DataError(f"{where}: cannot write {key} item {item!r}")
        lines.append(f"{key}={','.join(items)}")
    return "\n".join(lines)


def from_config(cls, values: dict):
    """A config dataclass (DspConfig, TrainConfig, ModelConfig) from its keys."""
    return cls(**{f.name: values[f.name] for f in fields(cls)})
