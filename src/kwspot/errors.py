"""Exception hierarchy shared by all kwspot modules, the one text-file read
that maps undecodable bytes onto it, and the one artifact write."""

import os
from pathlib import Path


class KwspotError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(KwspotError):
    """Malformed file container (bad RIFF header, truncated chunk, ...)."""


class UnsupportedError(KwspotError):
    """Well-formed file in an encoding we refuse (non-PCM, stereo, 8-bit)."""


class DatasetError(KwspotError):
    """Dataset directory layout violation."""


class SplitError(KwspotError):
    """Dataset cannot be split as requested."""


class DspError(KwspotError):
    """Signal-processing precondition violation."""


class ShapeError(KwspotError):
    """Tensor shapes do not conform for an operation."""


class UsageError(KwspotError):
    """API misuse (e.g. backward on a non-scalar)."""


class ConfigError(KwspotError):
    """Invalid configuration value or key."""


class DataError(KwspotError):
    """Invalid data value (label out of range, ...)."""


class CheckpointError(KwspotError):
    """Unreadable or corrupt checkpoint file."""


class IoError(KwspotError):
    """Filesystem failure while writing an artifact."""


def read_text(path, error: type) -> str:
    """UTF-8 contents of a text file; undecodable bytes raise `error`
    naming the file and the offset."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def write_atomic(path, data):
    """Replace `path` with `data` in one step: the bytes go to a temporary
    file in the same directory, which is flushed to disk and then renamed
    over the target. A failure leaves the previous file as it was and
    removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
