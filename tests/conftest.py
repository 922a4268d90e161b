import struct
import zlib

import numpy as np
import pytest

from kwspot.audio_io import SynthSpec, synth_dataset
from kwspot.dsp import DspConfig

# one PASS/FAIL line per acceptance criterion, filled in by
# tests/test_acceptance.py and echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def small_dsp_config():
    """4 kHz desk-scale front end: 61 frames x 20 mel filters on 1 s."""
    return DspConfig(
        sample_rate=4000, frame_len=128, hop_len=64, n_fft=128,
        n_mel_filters=20, n_mfcc=10, fmin=50.0, fmax=1900.0,
    )


@pytest.fixture
def synth_index():
    spec = SynthSpec(
        n_classes=3, clips_per_class=20, sample_rate=4000,
        class_frequencies=(400.0, 800.0, 1400.0), noise_amplitude=0.05,
    )
    return synth_dataset(spec, 42)


def naive_dft_power(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """O(N^2) DFT power oracle, one-sided."""
    x = np.zeros(n_fft)
    x[: len(frame)] = frame
    n = np.arange(n_fft)
    out = np.empty(n_fft // 2 + 1)
    for k in range(n_fft // 2 + 1):
        re = np.sum(x * np.cos(-2.0 * np.pi * k * n / n_fft))
        im = np.sum(x * np.sin(-2.0 * np.pi * k * n / n_fft))
        out[k] = re * re + im * im
    return out


def write_sealed_checkpoint(path, body: bytes):
    """Write a (mutated) checkpoint body with a valid CRC32 trailer, so that
    loading it reaches the checks behind the checksum."""
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
