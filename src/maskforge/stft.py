"""Short-time Fourier transform with Hann analysis and weighted overlap-add.

Analysis uses the periodic (DFT-even) Hann window, which sums to a constant
across hop-shifted copies and so keeps the synthesis envelope flat away from
the signal edges. Synthesis divides by the accumulated squared-window
envelope, which stays well behaved even for masked spectrograms that are no
longer consistent STFTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer

_ENVELOPE_EPS = 1e-12


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 2048
    hop: int = 512
    window: str = "hann"

    def __post_init__(self):
        if self.frame_len < 2 or self.frame_len % 2 != 0:
            raise ValueError("frame_len must be an even integer >= 2")
        if not (0 < self.hop <= self.frame_len):
            raise ValueError("hop must satisfy 0 < hop <= frame_len")
        if self.window != "hann":
            raise ValueError(f"unsupported window {self.window!r}")

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1


@dataclass
class ComplexSpectrogram:
    """F x N complex grid plus the config and the pre-padding signal length."""

    bins: np.ndarray
    config: StftConfig
    original_len: int
    sample_rate: int = 44100

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim != 2 or self.bins.shape[0] != self.config.n_bins:
            raise ValueError(
                f"expected {self.config.n_bins} frequency rows, got shape {self.bins.shape}"
            )
        if not np.all(np.isfinite(self.bins)):
            raise ValueError("spectrogram contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]


@dataclass
class MagnitudeSpectrogram:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("magnitude grid must be 2-D")
        if np.any(self.values < 0):
            raise ValueError("magnitudes must be non-negative")

    @property
    def shape(self):
        return self.values.shape


@dataclass
class PhaseSpectrogram:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("phase grid must be 2-D")


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann: w[k] = 0.5*(1 - cos(2*pi*k/n)), k = 0..n-1."""
    if n < 2:
        raise ValueError("window length must be >= 2")
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def n_frames_for(length: int, cfg: StftConfig) -> int:
    """Frame count: ceil((len - frame_len)/hop) + 1, minimum one frame."""
    if length <= cfg.frame_len:
        return 1
    return int(np.ceil((length - cfg.frame_len) / cfg.hop)) + 1


def stft(buffer: AudioBuffer, cfg: StftConfig | None = None) -> ComplexSpectrogram:
    """Forward transform; the final partial frame is zero-padded."""
    cfg = cfg or StftConfig()
    x = buffer.samples
    n = len(x)
    frames = n_frames_for(n, cfg)
    padded_len = (frames - 1) * cfg.hop + cfg.frame_len
    if padded_len > n:
        x = np.concatenate([x, np.zeros(padded_len - n)])
    idx = np.arange(cfg.frame_len)[None, :] + cfg.hop * np.arange(frames)[:, None]
    segs = x[idx] * hann_window(cfg.frame_len)[None, :]
    bins = np.fft.rfft(segs, axis=1).T
    return ComplexSpectrogram(bins, cfg, original_len=n, sample_rate=buffer.sample_rate)


def ola_accumulate(frames, window, hop, out_len):
    """Sum windowed time-domain frames into (signal, squared-window envelope)."""
    acc = np.zeros(out_len, dtype=np.float64)
    env = np.zeros(out_len, dtype=np.float64)
    w2 = window * window
    n_frames, frame_len = frames.shape
    for m in range(n_frames):
        start = m * hop
        acc[start:start + frame_len] += frames[m] * window
        env[start:start + frame_len] += w2
    return acc, env


def istft(spec: ComplexSpectrogram) -> AudioBuffer:
    """Weighted overlap-add inversion, trimmed to the recorded original length.

    Each frame is inverse transformed, windowed again, and accumulated; the
    result is divided by the summed squared-window envelope wherever that
    envelope is nonzero (it is strictly positive on the interior whenever
    hop <= frame_len/2).
    """
    cfg = spec.config
    frames_td = np.fft.irfft(spec.bins.T, n=cfg.frame_len, axis=1)
    frames_td = np.ascontiguousarray(frames_td, dtype=np.float64)
    out_len = (spec.n_frames - 1) * cfg.hop + cfg.frame_len
    win = hann_window(cfg.frame_len)
    acc, env = ola_accumulate(frames_td, win, cfg.hop, out_len)
    if cfg.hop <= cfg.frame_len // 2 and spec.n_frames > 1:
        interior = env[cfg.frame_len:-cfg.frame_len]
        if interior.size and np.min(interior) <= _ENVELOPE_EPS:
            raise ValueError("overlap-add envelope vanishes inside the signal")
    samples = np.where(env > _ENVELOPE_EPS, acc / np.maximum(env, _ENVELOPE_EPS), 0.0)
    return AudioBuffer(samples[: spec.original_len], sample_rate=spec.sample_rate)


def split(spec: ComplexSpectrogram) -> tuple[MagnitudeSpectrogram, PhaseSpectrogram]:
    """Magnitude/phase split; zero bins get phase 0 by convention."""
    return MagnitudeSpectrogram(np.abs(spec.bins)), PhaseSpectrogram(np.angle(spec.bins))


def combine(mag: MagnitudeSpectrogram, phase: PhaseSpectrogram,
            cfg: StftConfig, original_len: int,
            sample_rate: int = 44100) -> ComplexSpectrogram:
    if mag.shape != phase.values.shape:
        raise ValueError("magnitude/phase shape mismatch")
    bins = mag.values * np.exp(1j * phase.values)
    return ComplexSpectrogram(bins, cfg, original_len, sample_rate)
