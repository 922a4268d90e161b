"""MFCC front end: pre-emphasis, framing, windowing, power spectrum,
triangular mel filterbank, log compression and DCT-II."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DspError


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
    window: str = "hamming"

    def __post_init__(self):
        if self.hop_len > self.frame_len:
            raise DspError(f"hop_len {self.hop_len} exceeds frame_len {self.frame_len}")
        if not _is_power_of_two(self.n_fft) or self.n_fft < self.frame_len:
            raise DspError(f"n_fft must be a power of two >= frame_len, got {self.n_fft}")
        if not 0.0 <= self.pre_emphasis_alpha < 1.0:
            raise DspError(f"pre_emphasis_alpha out of [0,1): {self.pre_emphasis_alpha}")
        if not self.fmin < self.fmax:
            raise DspError(f"fmin {self.fmin} must be below fmax {self.fmax}")
        if self.fmax > self.sample_rate / 2:
            raise DspError(f"fmax {self.fmax} above Nyquist {self.sample_rate / 2}")
        if self.n_mfcc > self.n_mel_filters:
            raise DspError("n_mfcc cannot exceed n_mel_filters")
        if self.log_floor <= 0:
            raise DspError("log_floor must be positive")
        if self.window not in ("hamming", "rectangular"):
            raise DspError(f"unknown window {self.window!r}")


@dataclass(frozen=True)
class MelFilterBank:
    weights: np.ndarray      # M x (n_fft//2 + 1)
    center_bins: np.ndarray  # M + 2 FFT bin indices


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray  # T frames x D coefficients
    kind: str           # "mfcc" or "log_mel"

    def __post_init__(self):
        if self.kind not in ("mfcc", "log_mel"):
            raise DspError(f"unknown feature kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise DspError("feature matrix contains non-finite values")


def n_frames(signal_len: int, frame_len: int, hop_len: int) -> int:
    return 1 + (signal_len - frame_len) // hop_len


def pre_emphasis(signal: np.ndarray, alpha: float) -> np.ndarray:
    """y[0] = x[0]; y[n] = x[n] - alpha * x[n-1]."""
    signal = np.asarray(signal, dtype=np.float64)
    out = signal.copy()
    out[1:] -= alpha * signal[:-1]
    return out


def frame_signal(signal: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    """Slice a signal into overlapping frames; trailing remainder dropped."""
    signal = np.asarray(signal, dtype=np.float64)
    if len(signal) < frame_len:
        raise DspError(f"signal of {len(signal)} samples shorter than frame {frame_len}")
    count = n_frames(len(signal), frame_len, hop_len)
    starts = np.arange(count) * hop_len
    return np.stack([signal[s:s + frame_len] for s in starts])


def apply_window(frames: np.ndarray, window: str = "hamming") -> np.ndarray:
    if window == "rectangular":
        return np.asarray(frames, dtype=np.float64)
    if window == "hamming":
        n = frames.shape[1]
        w = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
        return frames * w
    raise DspError(f"unknown window {window!r}")


def power_spectrum(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """|FFT|^2 of zero-padded frames, one-sided (bins 0..n_fft/2)."""
    frames = np.asarray(frames, dtype=np.float64)
    if not _is_power_of_two(n_fft) or n_fft < frames.shape[1]:
        raise DspError(f"n_fft must be a power of two >= frame length, got {n_fft}")
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    return np.abs(spectrum) ** 2


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def build_mel_filterbank(config: DspConfig) -> MelFilterBank:
    """Triangular filters with centers equally spaced on the mel scale.

    Row m rises linearly on [f(m-1), f(m)] and falls on [f(m), f(m+1)].
    Adjacent edges partition unity on interior bins.
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
    n_bins = config.n_fft // 2 + 1
    weights = np.zeros((m, n_bins))
    k = np.arange(n_bins)
    for row in range(m):
        left, center, right = bins[row], bins[row + 1], bins[row + 2]
        rising = (k >= left) & (k <= center)
        falling = (k > center) & (k <= right)
        weights[row, rising] = (k[rising] - left) / (center - left)
        weights[row, falling] = (right - k[falling]) / (right - center)
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
    return np.log(np.maximum(np.asarray(energies, dtype=np.float64), log_floor))


def dct_ii(logmel: np.ndarray, n_mfcc: int) -> np.ndarray:
    """Orthonormal DCT-II along the filter axis, first n_mfcc coefficients."""
    logmel = np.asarray(logmel, dtype=np.float64)
    m = logmel.shape[1]
    if n_mfcc > m:
        raise DspError(f"n_mfcc {n_mfcc} exceeds filter count {m}")
    c = np.arange(m)[:, None]
    j = np.arange(m)[None, :]
    basis = np.cos(np.pi * c * (2 * j + 1) / (2 * m))
    scale = np.full(m, np.sqrt(2.0 / m))
    scale[0] = np.sqrt(1.0 / m)
    basis *= scale[:, None]
    return logmel @ basis[:n_mfcc].T


def mfcc_pipeline(clip, config: DspConfig, kind: str = "mfcc") -> FeatureMatrix:
    """Full front end on a 1-second clip; stops before the DCT for log_mel."""
    if clip.sample_rate != config.sample_rate:
        raise DspError(
            f"clip sample rate {clip.sample_rate} differs from config "
            f"{config.sample_rate}"
        )
    emphasized = pre_emphasis(clip.samples, config.pre_emphasis_alpha)
    frames = frame_signal(emphasized, config.frame_len, config.hop_len)
    windowed = apply_window(frames, config.window)
    spectra = power_spectrum(windowed, config.n_fft)
    bank = build_mel_filterbank(config)
    logmel = log_compress(mel_energies(spectra, bank), config.log_floor)
    if kind == "log_mel":
        return FeatureMatrix(values=logmel, kind="log_mel")
    return FeatureMatrix(values=dct_ii(logmel, config.n_mfcc), kind="mfcc")
