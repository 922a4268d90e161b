"""The `key = value` format of config files, synth specs and checkpoint
metadata: the one line reader, the value parsers, the writer, and the
schemas derived from config dataclasses."""

import math
from dataclasses import MISSING, fields
from typing import get_type_hints

from .errors import ConfigError, DataError

REQUIRED = object()  # schema default of a key the file must set


def tuple_of(item):
    """Parser of comma-separated values, each parsed by `item`."""
    return lambda raw: tuple(item(v.strip()) for v in raw.split(","))


def checked(parse, ok):
    """Parser `parse` refusing a value that ok(value) rejects."""
    def parse_checked(raw: str):
        if not ok(value := parse(raw)):
            raise ValueError(raw)
        return value
    return parse_checked


_finite_float = checked(float, math.isfinite)  # refuses nan, inf and -inf

# the parser of each field annotation a config dataclass may use
PARSERS = {
    int: int,
    float: _finite_float,
    str: str,
    tuple[int, int]: checked(tuple_of(int), lambda v: len(v) == 2),
    tuple[int, ...] | None: tuple_of(int),
    tuple[float, ...]: tuple_of(_finite_float),
}


def schema(cls, required=False, prefix="") -> dict:
    """key -> (parser, default) of the fields of the dataclass `cls`, in
    field order, each key being `prefix` + the field name. A field without
    a default, or every field if `required`, gets REQUIRED. An annotation
    without a parser raises TypeError."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        if hints[f.name] not in PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no parser for {hints[f.name]}")
        default = REQUIRED if required or f.default is MISSING else f.default
        keys[prefix + f.name] = (PARSERS[hints[f.name]], default)
    return keys


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
    `text`; `#` starts a comment. A line without `=`, an unknown key, a key
    set twice and a value its parser rejects raise `error` naming `where`,
    the line and the key; a required key left unset raises `error` naming
    `where` and every such key."""
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
    missing = [key for key in keys if key not in values]
    if missing:
        raise error(f"{where}: required keys not set: {', '.join(missing)}")
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
