"""Short-time Fourier transform with Hann analysis and weighted overlap-add.

Analysis uses the periodic (DFT-even) Hann window, which sums to a constant
across hop-shifted copies and so keeps the synthesis envelope flat away from
the signal edges. Synthesis divides by the accumulated squared-window
envelope, which the window alone sets, masked or not: for hop <= frame_len/2
it is at least 0.25 away from the edges (`InverseStft`). Frames are a strided
view of the signal. One streamed overlap-add (`OverlapAdd`), which carries the
sums that later segments still reach from block to block, inverts the STFT and
averages the windows of `maskforge.patching`. The inverse takes its frames a
block at a time (`InverseStft`), so a long signal is inverted without holding
its whole grid; `istft` is one block. A spectrogram holds only its complex
bins, and callers take magnitudes as `np.abs(spec.bins)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer

_ENVELOPE_EPS = 1e-12


@dataclass(frozen=True)
class StftConfig:
    frame_len: int
    hop: int

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
    sample_rate: int

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


def stft(buffer: AudioBuffer, cfg: StftConfig) -> ComplexSpectrogram:
    """Forward transform; the final partial frame is zero-padded."""
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


class OverlapAdd:
    """`overlap_add` of segments that arrive in consecutive blocks, each also
    adding `weight` (L,) into a second sum: a squared window or a count.

    `push` adds its segments, in start order, onto the sums carried from the
    push before, and returns (sums, weights) of the entries no later segment
    reaches, or of all the rest on the last push. So every entry sums its
    segments from zero in start order, exactly as one push of them all does."""

    def __init__(self, weight: np.ndarray, hop: int):
        self.weight, self.hop = weight, hop
        self._sums = self._weights = 0          # nothing carried before the first push
        self._carried = max(len(weight) - hop, 0)

    def push(self, segments: np.ndarray, last: bool):
        P, L = segments.shape[:2]
        sums = np.zeros((P * self.hop + self._carried, *segments.shape[2:]))
        weights = np.zeros(len(sums), dtype=self.weight.dtype)
        sums[:self._carried], weights[:self._carried] = self._sums, self._weights
        overlap_add(segments, self.hop, sums)
        overlap_add(np.broadcast_to(self.weight, (P, L)), self.hop, weights)
        done = len(sums) if last else P * self.hop
        self._sums, self._weights = sums[done:], weights[done:]
        return sums[:done], weights[:done]


class InverseStft:
    """Weighted overlap-add inversion of an `n_frames`-frame STFT whose frames
    arrive in consecutive blocks; each `push` returns the samples that no later
    frame reaches, and the last push returns the rest, trimmed to
    `original_len`.

    Each frame is inverse transformed, windowed again, and summed with its
    squared window by one `OverlapAdd`, which carries the unfinished sums into
    the next block; the sums are divided by that envelope where it exceeds
    `_ENVELOPE_EPS`. Only the edges can fall below it when hop <= frame_len/2,
    so there is no check: an interior sample's window offsets k + j*hop include
    one within hop/2 of frame_len/2, where w^2 >= cos^4(pi/4) = 0.25.
    """

    def __init__(self, cfg: StftConfig, n_frames: int, original_len: int):
        self.cfg, self.n_frames, self.original_len = cfg, n_frames, original_len
        self._window = hann_window(cfg.frame_len)
        self._sums = OverlapAdd(self._window * self._window, cfg.hop)
        self._pushed = 0

    def push(self, bins: np.ndarray) -> np.ndarray:
        start = self._pushed * self.cfg.hop     # the first sample this push returns
        self._pushed += bins.shape[1]
        frames = np.fft.irfft(bins.T, n=self.cfg.frame_len, axis=1) * self._window
        acc, env = self._sums.push(frames, last=self._pushed == self.n_frames)
        samples = np.divide(acc, env, out=np.zeros(len(acc)), where=env > _ENVELOPE_EPS)
        return samples[:max(self.original_len - start, 0)]


def istft(spec: ComplexSpectrogram) -> AudioBuffer:
    """Weighted overlap-add inversion (`InverseStft`), trimmed to the recorded
    original length."""
    inverse = InverseStft(spec.config, spec.n_frames, spec.original_len)
    return AudioBuffer(inverse.push(spec.bins), sample_rate=spec.sample_rate)
