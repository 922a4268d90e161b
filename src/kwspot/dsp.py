"""MFCC front end: pre-emphasis, framing, windowing, power spectrum,
triangular mel filterbank, log compression and DCT-II.

mfcc_pipeline chains the public stages; the Hamming window is built once
per frame length, the FFT zero-pads each frame to n_fft itself, and
squaring and the log run in place."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import MAX_SAMPLE_RATE
from .errors import ConfigError, DspError

FEATURE_KINDS = ("mfcc", "log_mel")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DspConfig:
    sample_rate: int = 16000
    frame_len: int = 400
    hop_len: int = 160
    n_fft: int = 512
    pre_emphasis_alpha: float = 0.97
    n_mel_filters: int = 40
    n_mfcc: int = 20
    fmin: float = 20.0
    fmax: float = 8000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.frame_len < 2:  # a Hamming window divides by frame_len - 1
            raise ConfigError(f"frame_len must be at least 2, got {self.frame_len}")
        if self.hop_len < 1:
            raise ConfigError(f"hop_len must be at least 1, got {self.hop_len}")
        if self.sample_rate > MAX_SAMPLE_RATE:
            raise ConfigError(f"sample_rate must be at most {MAX_SAMPLE_RATE} Hz, "
                              f"got {self.sample_rate}")
        if self.frame_len > self.sample_rate:  # a 1-second clip would hold no frame
            raise ConfigError(f"frame_len {self.frame_len} exceeds sample_rate {self.sample_rate}")
        if self.hop_len > self.frame_len:
            raise ConfigError(f"hop_len {self.hop_len} exceeds frame_len {self.frame_len}")
        if not _is_power_of_two(self.n_fft) or self.n_fft < self.frame_len:
            raise ConfigError(f"n_fft must be a power of two >= frame_len, got {self.n_fft}")
        # a larger n_fft would pad each frame past one second; the smallest
        # valid one never does, since frame_len <= sample_rate
        max_fft = 1 << (self.sample_rate - 1).bit_length()
        if self.n_fft > max_fft:
            raise ConfigError(f"n_fft {self.n_fft} exceeds {max_fft}, the smallest power of two "
                              f">= sample_rate {self.sample_rate}")
        if not 0.0 <= self.pre_emphasis_alpha < 1.0:
            raise ConfigError(f"pre_emphasis_alpha out of [0,1): {self.pre_emphasis_alpha}")
        if not self.fmin >= 0:
            raise ConfigError(f"fmin must be at least 0, got {self.fmin}")
        if not self.fmin < self.fmax:
            raise ConfigError(f"fmin {self.fmin} must be below fmax {self.fmax}")
        if self.fmax > self.sample_rate / 2:
            raise ConfigError(f"fmax {self.fmax} above Nyquist {self.sample_rate / 2}")
        # the m + 2 filter edges must be distinct bins in [0, n_fft / 2]
        if self.n_mel_filters > self.n_fft // 2 - 1:
            raise ConfigError(f"n_mel_filters {self.n_mel_filters} exceeds {self.n_fft // 2 - 1}, "
                              f"the most that n_fft {self.n_fft} keeps on distinct bins")
        if self.n_mfcc < 1:
            raise ConfigError(f"n_mfcc must be at least 1, got {self.n_mfcc}")
        if self.n_mfcc > self.n_mel_filters:
            raise ConfigError("n_mfcc cannot exceed n_mel_filters")
        if not 0 < self.log_floor < math.inf:
            raise ConfigError(f"log_floor must be finite and positive, got {self.log_floor}")


@dataclass(frozen=True)
class MelFilterBank:
    weights: np.ndarray      # M x (n_fft//2 + 1)
    center_bins: np.ndarray  # M + 2 FFT bin indices


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray  # T frames x D coefficients

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise DspError("feature matrix contains non-finite values")


def n_frames(signal_len: int, frame_len: int, hop_len: int) -> int:
    return 1 + (signal_len - frame_len) // hop_len


def feature_shape(config: DspConfig, kind: str) -> tuple:
    """(frames, coefficients) of every clip's features: mfcc_pipeline takes
    a clip at config.sample_rate, and read_wav makes each 1 second long."""
    width = config.n_mel_filters if kind == "log_mel" else config.n_mfcc
    return n_frames(config.sample_rate, config.frame_len, config.hop_len), width


def pre_emphasis(signal: np.ndarray, alpha: float) -> np.ndarray:
    """y[0] = x[0]; y[n] = x[n] - alpha * x[n-1]."""
    signal = np.asarray(signal, dtype=np.float64)
    out = signal.copy()
    out[1:] -= alpha * signal[:-1]
    return out


def frame_signal(signal: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    """Overlapping frames as a read-only strided view of the signal;
    trailing remainder dropped."""
    signal = np.asarray(signal, dtype=np.float64)
    if len(signal) < frame_len:
        raise DspError(f"signal of {len(signal)} samples shorter than frame {frame_len}")
    return sliding_window_view(signal, frame_len)[::hop_len]


@lru_cache(maxsize=16)
def _hamming(n: int) -> np.ndarray:
    """The n-point Hamming window, built once per n and read-only."""
    w = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    w.flags.writeable = False
    return w


def apply_window(frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    return frames * _hamming(frames.shape[1])


def power_spectrum(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """|FFT|^2 of zero-padded frames, one-sided (bins 0..n_fft/2); DspConfig
    checks that n_fft is a power of two >= the frame length."""
    frames = np.asarray(frames, dtype=np.float64)
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1))
    return np.multiply(power, power, out=power)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def build_mel_filterbank(config: DspConfig) -> MelFilterBank:
    """Triangular filters with centers equally spaced on the mel scale.

    Row m rises linearly on [f(m-1), f(m)] and falls on [f(m), f(m+1)].
    Adjacent edges partition unity on interior bins. Built once per config
    (DspConfig is frozen, so hashable); every caller shares the read-only
    arrays.
    """
    m = config.n_mel_filters
    mels = np.linspace(hz_to_mel(config.fmin), hz_to_mel(config.fmax), m + 2)
    hz = mel_to_hz(mels)
    bins = np.floor((config.n_fft + 1) * hz / config.sample_rate).astype(np.int64)
    if np.any(np.diff(bins) < 1):
        raise DspError(
            "adjacent mel filter centers collapsed onto the same FFT bin; "
            "increase n_fft or reduce n_mel_filters"
        )
    k = np.arange(config.n_fft // 2 + 1)
    left, center, right = bins[:-2, None], bins[1:-1, None], bins[2:, None]
    # the rising edge is the smaller one up to the center, the falling one
    # after it, and outside [left, right] one of them is negative
    weights = np.maximum(np.minimum((k - left) / (center - left),
                                    (right - k) / (right - center)), 0.0)
    weights.flags.writeable = False
    bins.flags.writeable = False
    return MelFilterBank(weights=weights, center_bins=bins)


def mel_energies(spectra: np.ndarray, bank: MelFilterBank) -> np.ndarray:
    """Per-filter energies: out[t, m] = sum_k H_m(k) * |X_t(k)|^2."""
    spectra = np.asarray(spectra, dtype=np.float64)
    if spectra.shape[1] != bank.weights.shape[1]:
        raise DspError(
            f"spectra have {spectra.shape[1]} bins, filterbank expects "
            f"{bank.weights.shape[1]}"
        )
    return spectra @ bank.weights.T


def log_compress(energies: np.ndarray, log_floor: float) -> np.ndarray:
    floored = np.maximum(np.asarray(energies, dtype=np.float64), log_floor)
    return np.log(floored, out=floored)


def dct_ii(logmel: np.ndarray, n_mfcc: int) -> np.ndarray:
    """Orthonormal DCT-II along the filter axis, first n_mfcc coefficients
    (DspConfig keeps 1 <= n_mfcc <= the filter count)."""
    logmel = np.asarray(logmel, dtype=np.float64)
    m = logmel.shape[1]
    c = np.arange(m)[:, None]
    j = np.arange(m)[None, :]
    basis = np.cos(np.pi * c * (2 * j + 1) / (2 * m))
    scale = np.full(m, np.sqrt(2.0 / m))
    scale[0] = np.sqrt(1.0 / m)
    basis *= scale[:, None]
    return logmel @ basis[:n_mfcc].T


def mfcc_pipeline(clip, config: DspConfig, kind: str) -> FeatureMatrix:
    """Full front end on a 1-second clip; stops before the DCT for log_mel."""
    if kind not in FEATURE_KINDS:
        raise DspError(f"unknown feature kind {kind!r}")
    if clip.sample_rate != config.sample_rate:
        raise DspError(
            f"clip sample rate {clip.sample_rate} differs from config "
            f"{config.sample_rate}"
        )
    emphasized = pre_emphasis(clip.samples, config.pre_emphasis_alpha)
    frames = frame_signal(emphasized, config.frame_len, config.hop_len)
    spectra = power_spectrum(apply_window(frames), config.n_fft)
    bank = build_mel_filterbank(config)
    logmel = log_compress(mel_energies(spectra, bank), config.log_floor)
    values = logmel if kind == "log_mel" else dct_ii(logmel, config.n_mfcc)
    return FeatureMatrix(values)
