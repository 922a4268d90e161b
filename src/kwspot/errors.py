"""The exception classes shared by all kwspot modules, one per exit status,
the one text-file read that maps undecodable bytes onto them, and the one
artifact write."""

import os
from pathlib import Path


class KwspotError(Exception):
    """Base class for all errors raised by this package; a subclass fixes
    the command's exit status."""


class ConfigError(KwspotError):
    """A refused setting, or a function called in a way it cannot serve
    (a bad key or value, shapes that do not conform, backward on a
    non-scalar): exit status 1."""


class DataError(KwspotError):
    """A refused input file, its contents or a dataset, or a failed write
    (a malformed WAV, a corrupt checkpoint, a split that cannot be made):
    exit status 2."""


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
    removes the temporary file; an OSError is raised as DataError naming
    `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise
