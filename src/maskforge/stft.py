"""Short-time Fourier transform with Hann analysis and weighted overlap-add.

Analysis uses the periodic (DFT-even) Hann window, which sums to a constant
across hop-shifted copies and so keeps the synthesis envelope flat away from
the signal edges. Synthesis divides by the accumulated squared-window
envelope, which stays well behaved even for masked spectrograms that are no
longer consistent STFTs. Frames are a strided view of the signal, and one
`overlap_add` inverts the STFT and repacks the windows of `maskforge.patching`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer

_ENVELOPE_EPS = 1e-12


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 2048
    hop: int = 512

    def __post_init__(self):
        if self.frame_len < 2 or self.frame_len % 2 != 0:
            raise ValueError("frame_len must be an even integer >= 2")
        if not (0 < self.hop <= self.frame_len):
            raise ValueError("hop must satisfy 0 < hop <= frame_len")

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
    n = len(buffer.samples)
    frames = n_frames_for(n, cfg)
    x = np.pad(buffer.samples, (0, (frames - 1) * cfg.hop + cfg.frame_len - n))
    segs = strided_frames(x, frames, cfg.frame_len, cfg.hop) * hann_window(cfg.frame_len)
    bins = np.fft.rfft(segs, axis=1).T
    return ComplexSpectrogram(bins, cfg, original_len=n, sample_rate=buffer.sample_rate)


def strided_frames(x, count, length, hop, writeable=False):
    """View of `count` frames of `length` entries along x's first axis, `hop`
    apart: frame i is x[i*hop : i*hop + length]. Nothing is copied."""
    if hop < 1 or count and (count - 1) * hop + length > x.shape[0]:
        raise ValueError(f"{count} frames of {length} at hop {hop} do not fit {x.shape[0]} rows")
    return np.lib.stride_tricks.as_strided(
        x, (count, length, *x.shape[1:]), (hop * x.strides[0], *x.strides),
        writeable=writeable)


def overlap_add(segments, hop, out) -> None:
    """out[p*hop : p*hop + L] += segments[p] for every segment p, in place.

    Piece j (entries j*hop to (j+1)*hop) of all segments is one strided slice-add.
    Pieces run last to first, so each element sums its segments in start order."""
    count, length = segments.shape[:2]
    for start in reversed(range(0, length, hop)):
        stop = min(start + hop, length)
        target = strided_frames(out[start:], count, stop - start, hop, writeable=True)
        target += segments[:, start:stop]


def ola_accumulate(frames, window, hop, out_len):
    """Sum windowed time-domain frames into (signal, squared-window envelope)."""
    acc, env = np.zeros(out_len), np.zeros(out_len)
    overlap_add(frames * window, hop, acc)
    overlap_add(np.broadcast_to(window * window, frames.shape), hop, env)
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
    out_len = (spec.n_frames - 1) * cfg.hop + cfg.frame_len
    acc, env = ola_accumulate(frames_td, hann_window(cfg.frame_len), cfg.hop, out_len)
    if cfg.hop <= cfg.frame_len // 2 and spec.n_frames > 1:
        interior = env[cfg.frame_len:-cfg.frame_len]
        if interior.size and np.min(interior) <= _ENVELOPE_EPS:
            raise ValueError("overlap-add envelope vanishes inside the signal")
    samples = np.where(env > _ENVELOPE_EPS, acc / np.maximum(env, _ENVELOPE_EPS), 0.0)
    return AudioBuffer(samples[: spec.original_len], sample_rate=spec.sample_rate)


def magnitude(spec: ComplexSpectrogram) -> MagnitudeSpectrogram:
    """Elementwise |bins|."""
    return MagnitudeSpectrogram(np.abs(spec.bins))
