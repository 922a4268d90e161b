"""Audio ingestion: RIFF/WAVE PCM-16 mono reader and writer, dataset
directory scanning, deterministic stratified splits, and synthetic
sine-tone datasets for desk-scale experiments."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


MAX_SAMPLE_RATE = 384_000  # Hz, the highest rate in common PCM use

WAVE_FORMAT_PCM, WAVE_FORMAT_EXTENSIBLE = 0x0001, 0xFFFE
# the SubFormat GUID of integer PCM in a WAVE_FORMAT_EXTENSIBLE fmt chunk
# (KSDATAFORMAT_SUBTYPE_PCM), in the byte order of the file
PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray  # float64 amplitudes in [-1, 1]
    sample_rate: int


@dataclass(frozen=True)
class DatasetIndex:
    """Ordered (source, label) pairs; source is a Path or an in-memory clip."""
    entries: tuple
    label_set: tuple

    def __post_init__(self):
        if len(set(self.label_set)) != len(self.label_set):
            raise DataError("label_set contains duplicates")
        for _, label in self.entries:
            if label not in self.label_set:
                raise DataError(f"entry label {label!r} not in label_set")

    def __len__(self):
        return len(self.entries)

    def class_index(self, label: str) -> int:
        return self.label_set.index(label)


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int
    clips_per_class: int
    sample_rate: int
    class_frequencies: tuple[float, ...]
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if not 1 <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ConfigError(
                f"sample_rate must be 1 to {MAX_SAMPLE_RATE} Hz, got {self.sample_rate}"
            )
        if self.clips_per_class < 1:
            raise ConfigError(f"clips_per_class must be at least 1, got {self.clips_per_class}")
        if not self.noise_amplitude >= 0:
            raise ConfigError(f"noise_amplitude must be at least 0, got {self.noise_amplitude}")
        if len(self.class_frequencies) != self.n_classes:
            raise ConfigError("need one frequency per class")
        if len(set(self.class_frequencies)) != self.n_classes:
            raise ConfigError("class frequencies must be distinct")
        if not all(0 < f < self.sample_rate / 2 for f in self.class_frequencies):
            raise ConfigError("class frequencies must be above 0 Hz and below Nyquist")


def read_wav(path) -> AudioClip:
    """Read a PCM-16 mono WAV as a 1-second clip (end-padded or truncated).
    The fmt chunk's format is PCM, or WAVE_FORMAT_EXTENSIBLE with the PCM
    SubFormat GUID."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_len,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = raw[pos + 8:pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise DataError(f"{path}: truncated fmt chunk")
            fmt = body
        elif chunk_id == b"data":
            if len(body) < chunk_len:
                raise DataError(
                    f"{path}: data chunk declares {chunk_len} bytes, "
                    f"{len(body)} present"
                )
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format == WAVE_FORMAT_EXTENSIBLE:
        # the format proper is the SubFormat GUID at bytes 24-40 of the chunk
        if len(fmt) < 40:
            raise DataError(
                f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk of {len(fmt)} bytes, "
                f"expected at least 40"
            )
        if fmt[24:40] != PCM_SUBFORMAT:
            raise DataError(
                f"{path}: WAVE_FORMAT_EXTENSIBLE with non-PCM subformat {fmt[24:40].hex()}"
            )
    elif audio_format != WAVE_FORMAT_PCM:
        raise DataError(f"{path}: non-PCM audio format {audio_format}")
    if channels != 1:
        raise DataError(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise DataError(f"{path}: {bits} bits/sample, expected 16")
    # the clip holds one second, so the rate sets the allocation
    if not 0 < sample_rate <= MAX_SAMPLE_RATE:
        raise DataError(
            f"{path}: sample rate {sample_rate} Hz, expected 1 to {MAX_SAMPLE_RATE}"
        )
    pcm = np.frombuffer(data[: 2 * min(len(data) // 2, sample_rate)], dtype="<i2")
    samples = np.zeros(sample_rate)
    samples[: len(pcm)] = pcm / 32768.0
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
            raise DataError(f"missing directory for label {label!r} under {root}")
        for wav in sub.iterdir():
            if wav.suffix == ".wav" and wav.is_file():
                entries.append((wav, label))
    entries.sort(key=lambda e: str(e[0]))
    return DatasetIndex(entries=tuple(entries), label_set=label_set)


def check_ratios(ratios):
    """Refuse (train, val, test) split ratios that are negative or do not
    sum to 1 with ConfigError."""
    train_r, val_r, test_r = ratios
    # written so that a NaN ratio, which every comparison rejects, fails it
    if not (min(train_r, val_r, test_r) >= 0 and abs(train_r + val_r + test_r - 1.0) <= 1e-9):
        raise ConfigError("train_ratio, val_ratio and test_ratio must be non-negative and "
                          f"sum to 1, got {ratios}")


def split_dataset(index: DatasetIndex, ratios, seed: int):
    """Stratified (train, val, test) split, deterministic in the seed; the
    ratios pass check_ratios.

    Per label: floor(n * ratio) entries to val and test, remainder to train.
    A label with fewer entries than non-zero ratios, none included, raises
    DataError.
    """
    check_ratios(ratios)
    _, val_r, test_r = ratios
    n_nonzero = sum(1 for r in ratios if r > 0)
    rng = np.random.default_rng(seed)
    buckets: dict[str, list] = {label: [] for label in index.label_set}
    for entry in index.entries:
        buckets[entry[1]].append(entry)
    splits = ([], [], [])
    for label in index.label_set:
        group = buckets[label]
        if len(group) < n_nonzero:
            raise DataError(
                f"label {label!r} has {len(group)} entries, fewer than "
                f"{n_nonzero} non-empty splits"
            )
        n = len(group)
        shuffled = [group[i] for i in rng.permutation(n)]
        n_val, n_test = int(n * val_r), int(n * test_r)
        n_train = n - n_val - n_test
        splits[0].extend(shuffled[:n_train])
        splits[1].extend(shuffled[n_train:n_train + n_val])
        splits[2].extend(shuffled[n_train + n_val:])
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
            )
            entries.append((clip, labels[c]))
    return DatasetIndex(entries=tuple(entries), label_set=labels)


def load_clip(entry) -> AudioClip:
    """Resolve a dataset entry to an AudioClip (reads from disk if needed)."""
    source, _ = entry
    return source if isinstance(source, AudioClip) else read_wav(source)
