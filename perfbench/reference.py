"""An independent log-mel front end used to check kwspot's features.

It shares no code with kwspot: the WAV is decoded with the standard
library's `wave` module, frames are gathered by fancy indexing, the
spectrum comes from the full complex `np.fft.fft`, and the filterbank is
built one weight at a time from the textbook triangle definition.
"""

from __future__ import annotations

import wave

import numpy as np


def read_pcm16(path, sample_rate: int) -> np.ndarray:
    """Mono PCM-16 samples scaled to [-1, 1), zero-padded or cut to 1 s."""
    with wave.open(str(path), "rb") as handle:
        if handle.getnchannels() != 1 or handle.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        raw = handle.readframes(handle.getnframes())
    samples = np.frombuffer(raw, dtype="<i2") / 32768.0
    out = np.zeros(sample_rate)
    n = min(sample_rate, len(samples))
    out[:n] = samples[:n]
    return out


def _mel(hz):
    return 2595.0 * np.log10(1.0 + hz / 700.0)


def _hz(mel):
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


def mel_weights(cfg) -> np.ndarray:
    edges_mel = np.linspace(_mel(cfg.fmin), _mel(cfg.fmax), cfg.n_mel_filters + 2)
    edges = [int(np.floor((cfg.n_fft + 1) * _hz(m) / cfg.sample_rate)) for m in edges_mel]
    weights = np.zeros((cfg.n_mel_filters, cfg.n_fft // 2 + 1))
    for m in range(cfg.n_mel_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k in range(lo, hi + 1):
            if k <= mid:
                weights[m, k] = (k - lo) / (mid - lo)
            else:
                weights[m, k] = (hi - k) / (hi - mid)
    return weights


def log_mel(samples: np.ndarray, cfg) -> np.ndarray:
    """T x n_mel_filters log-mel energies for a Hamming-windowed clip."""
    emphasized = np.concatenate(
        ([samples[0]], samples[1:] - cfg.pre_emphasis_alpha * samples[:-1])
    )
    count = 1 + (len(emphasized) - cfg.frame_len) // cfg.hop_len
    index = cfg.hop_len * np.arange(count)[:, None] + np.arange(cfg.frame_len)[None, :]
    frames = emphasized[index] * np.hamming(cfg.frame_len)
    spectrum = np.fft.fft(frames, n=cfg.n_fft, axis=1)[:, : cfg.n_fft // 2 + 1]
    power = spectrum.real ** 2 + spectrum.imag ** 2
    energies = np.einsum("tk,mk->tm", power, mel_weights(cfg))
    return np.log(np.maximum(energies, cfg.log_floor))
