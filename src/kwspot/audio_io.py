"""Audio ingestion: RIFF/WAVE PCM-16 mono reader and writer, dataset
directory scanning, deterministic stratified splits, and synthetic
sine-tone datasets for desk-scale experiments."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError, FormatError, SplitError, UnsupportedError


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray  # float64 amplitudes in [-1, 1]
    sample_rate: int
    label: str | None = None


@dataclass(frozen=True)
class DatasetIndex:
    """Ordered (source, label) pairs; source is a Path or an in-memory clip."""
    entries: tuple
    label_set: tuple

    def __post_init__(self):
        if len(set(self.label_set)) != len(self.label_set):
            raise DatasetError("label_set contains duplicates")
        for _, label in self.entries:
            if label not in self.label_set:
                raise DatasetError(f"entry label {label!r} not in label_set")

    def __len__(self):
        return len(self.entries)

    def class_index(self, label: str) -> int:
        return self.label_set.index(label)


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int
    clips_per_class: int
    sample_rate: int
    class_frequencies: tuple
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if len(self.class_frequencies) != self.n_classes:
            raise DatasetError("need one frequency per class")
        if len(set(self.class_frequencies)) != self.n_classes:
            raise DatasetError("class frequencies must be distinct")
        if any(f >= self.sample_rate / 2 for f in self.class_frequencies):
            raise DatasetError("class frequencies must be below Nyquist")


def _pad_or_trim(samples: np.ndarray, target: int) -> np.ndarray:
    if len(samples) >= target:
        return samples[:target]
    out = np.zeros(target)
    out[: len(samples)] = samples
    return out


def read_wav(path) -> AudioClip:
    """Read a PCM-16 mono WAV as a 1-second clip (end-padded or truncated)."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_len,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = raw[pos + 8:pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedError(f"{path}: non-PCM audio format {audio_format}")
    if channels != 1:
        raise UnsupportedError(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise UnsupportedError(f"{path}: {bits} bits/sample, expected 16")
    pcm = np.frombuffer(data[: 2 * (len(data) // 2)], dtype="<i2")
    samples = _pad_or_trim(pcm.astype(np.float64) / 32768.0, sample_rate)
    return AudioClip(samples=samples, sample_rate=sample_rate)


def write_wav(path, clip: AudioClip):
    """Write a clip as PCM-16 mono RIFF/WAVE."""
    pcm = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    sr = clip.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(body))
    Path(path).write_bytes(header + body)


def scan_dataset(root, label_set) -> DatasetIndex:
    """Index a <root>/<label>/<clip>.wav layout, sorted by path."""
    root = Path(root)
    label_set = tuple(label_set)
    entries = []
    for label in label_set:
        sub = root / label
        if not sub.is_dir():
            raise DatasetError(f"missing directory for label {label!r} under {root}")
        for wav in sorted(sub.iterdir()):
            if wav.suffix == ".wav" and wav.is_file():
                entries.append((wav, label))
    entries.sort(key=lambda e: str(e[0]))
    return DatasetIndex(entries=tuple(entries), label_set=label_set)


def split_dataset(index: DatasetIndex, ratios, seed: int):
    """Stratified (train, val, test) split, deterministic in the seed.

    Per label: floor(n * ratio) entries to val and test, remainder to train.
    """
    train_r, val_r, test_r = ratios
    if min(train_r, val_r, test_r) < 0 or abs(train_r + val_r + test_r - 1.0) > 1e-9:
        raise SplitError(f"ratios must be non-negative and sum to 1, got {ratios}")
    n_nonzero = sum(1 for r in ratios if r > 0)
    rng = np.random.default_rng(seed)
    buckets: dict[str, list] = {label: [] for label in index.label_set}
    for entry in index.entries:
        buckets[entry[1]].append(entry)
    splits = ([], [], [])
    for label in index.label_set:
        group = buckets[label]
        if 0 < len(group) < n_nonzero:
            raise SplitError(
                f"label {label!r} has {len(group)} entries, fewer than "
                f"{n_nonzero} non-empty splits"
            )
        order = rng.permutation(len(group))
        n = len(group)
        n_val = int(n * val_r)
        n_test = int(n * test_r)
        n_train = n - n_val - n_test
        for rank, idx in enumerate(order):
            if rank < n_train:
                splits[0].append(group[idx])
            elif rank < n_train + n_val:
                splits[1].append(group[idx])
            else:
                splits[2].append(group[idx])
    return tuple(
        DatasetIndex(entries=tuple(part), label_set=index.label_set)
        for part in splits
    )


def synth_dataset(spec: SynthSpec, seed: int) -> DatasetIndex:
    """Sine tones per class with random phase plus uniform noise, in memory."""
    rng = np.random.default_rng(seed)
    t = np.arange(spec.sample_rate) / spec.sample_rate
    entries = []
    labels = tuple(f"class{c}" for c in range(spec.n_classes))
    for c, freq in enumerate(spec.class_frequencies):
        for _ in range(spec.clips_per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            samples = np.sin(2.0 * np.pi * freq * t + phase)
            if spec.noise_amplitude > 0:
                samples = samples + rng.uniform(
                    -spec.noise_amplitude, spec.noise_amplitude, len(t)
                )
            clip = AudioClip(
                samples=np.clip(samples, -1.0, 1.0),
                sample_rate=spec.sample_rate,
                label=labels[c],
            )
            entries.append((clip, labels[c]))
    return DatasetIndex(entries=tuple(entries), label_set=labels)


def load_clip(entry) -> AudioClip:
    """Resolve a dataset entry to an AudioClip (reads from disk if needed)."""
    source, label = entry
    if isinstance(source, AudioClip):
        return source
    clip = read_wav(source)
    return AudioClip(samples=clip.samples, sample_rate=clip.sample_rate, label=label)
