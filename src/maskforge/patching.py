"""Sliding-window patch extraction, the models' row layout, and repacking.

A spectrogram is cut into F x T windows along the time axis. Training uses
non-overlapping windows (stride = T); at separation time the window slides one
frame at a time, so every interior element receives T overlapping predictions
whose arithmetic mean becomes the element's confidence value. Separation cuts,
predicts and accumulates those windows a fixed-size block at a time, so the
memory they take does not grow with the song's length. Models read a window
as one frame-major row, its T frames of F bins in turn; the rows are a strided
view of the (N, F) frame matrix, and repacking adds them back with the
overlap-add that also inverts the STFT. This module owns that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stft import MagnitudeSpectrogram, overlap_add, strided_frames

KIND_MIXTURE = "mixture_input"
KIND_TARGET = "mask_target"
KIND_PREDICTION = "prediction"


@dataclass(frozen=True)
class PatchConfig:
    width: int = 20
    train_stride: int = 20

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("patch width must be >= 1")
        if self.train_stride < 1:
            raise ValueError("train_stride must be >= 1")


@dataclass
class PatchSet:
    """Stack of F x T grids with the frame offsets they were cut from."""

    patches: np.ndarray            # (P, F, T), a view of rows
    offsets: np.ndarray            # (P,) start frames
    total_frames: int              # N before padding
    kind: str = KIND_MIXTURE
    rows: np.ndarray = field(init=False, repr=False)   # (P, T*F), frame-major

    def __post_init__(self):
        patches = np.asarray(self.patches, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if patches.ndim != 3:
            raise ValueError("patches must be a (P, F, T) array")
        P, F, T = patches.shape
        self.rows = patches.transpose(0, 2, 1).reshape(P, T * F)
        self.patches = self.rows.reshape(P, T, F).transpose(0, 2, 1)
        if len(self.offsets) != self.patches.shape[0]:
            raise ValueError("one offset per patch required")
        if self.kind == KIND_PREDICTION and self.patches.size:
            lo, hi = self.patches.min(), self.patches.max()
            if lo < 0.0 or hi > 1.0:
                raise ValueError(f"prediction values outside [0,1]: [{lo}, {hi}]")

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]

    @property
    def patch_shape(self) -> tuple[int, int]:
        return self.patches.shape[1], self.patches.shape[2]

    def predictions(self, rows: np.ndarray) -> PatchSet:
        """The prediction set for these windows from one model output row each."""
        P, F, T = self.patches.shape
        return PatchSet(rows.reshape(P, T, F).transpose(0, 2, 1), self.offsets,
                        self.total_frames, kind=KIND_PREDICTION)


@dataclass
class MeanPrediction:
    """Per-element mean of all sliding-window predictions covering it."""

    values: np.ndarray   # (F, N) in [0, 1]
    counts: np.ndarray   # (F, N) contribution counts, >= 1; a read-only view


def normalize_unit_scale(mag: MagnitudeSpectrogram) -> tuple[MagnitudeSpectrogram, float]:
    """Rescale so max element is 1; returns (scaled, original max)."""
    peak = float(np.max(mag.values))
    if peak == 0.0:
        raise ValueError("all-zero spectrogram has no unit scale")
    return MagnitudeSpectrogram(mag.values / peak), peak


def patch_offsets(n_frames: int, width: int, stride: int) -> np.ndarray:
    """Start offsets 0, stride, 2*stride, ... until the windows cover N frames."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if n_frames <= width:
        return np.array([0], dtype=np.int64)
    count = int(np.ceil((n_frames - width) / stride)) + 1
    return stride * np.arange(count, dtype=np.int64)


def extract_patches(mag: MagnitudeSpectrogram, cfg: PatchConfig,
                    stride: int, kind: str = KIND_MIXTURE) -> PatchSet:
    """Cut F x width windows at the given stride, zero-padding the tail; the
    windows are one strided view of the padded (N, F) frame matrix."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    N = mag.values.shape[1]
    offsets = patch_offsets(N, cfg.width, stride)
    frames = np.zeros((int(offsets[-1]) + cfg.width, mag.values.shape[0]))
    frames[:N] = mag.values.T
    windows = strided_frames(frames, len(offsets), cfg.width, stride)
    return PatchSet(windows.transpose(0, 2, 1), offsets, total_frames=N, kind=kind)


def repack_accumulate(patches, offsets, acc, counts) -> None:
    """Add patch grids (P, F, T) at their evenly spaced frame offsets into the
    sum grid `acc` (F x Np) and the per-frame `counts` (Np), in place.

    Each element sums its patches in offset order (see `stft.overlap_add`).
    """
    P, _, T = patches.shape
    hop = int(offsets[1] - offsets[0]) if P > 1 else T
    if hop < 1 or np.any(np.diff(offsets) != hop):
        raise ValueError("repack needs increasing, evenly spaced offsets")
    overlap_add(patches.transpose(0, 2, 1), hop, acc.T[offsets[0]:])
    overlap_add(np.broadcast_to(np.int64(1), (P, T)), hop, counts[offsets[0]:])


def repack_finish(acc, counts, n_frames: int) -> MeanPrediction:
    """Divide accumulated sums by their counts; padded frames dropped."""
    counts_grid = np.broadcast_to(counts[None, :n_frames], (acc.shape[0], n_frames))
    return MeanPrediction(values=acc[:, :n_frames] / counts_grid, counts=counts_grid)


def repack_mean(predictions: PatchSet) -> MeanPrediction:
    """Average overlapping patch values per element; padded frames dropped."""
    if predictions.kind != KIND_PREDICTION:
        raise ValueError(f"repack_mean expects prediction patches, got {predictions.kind!r}")
    if predictions.n_patches == 0:
        raise ValueError("empty patch set")
    F, T = predictions.patch_shape
    padded = int(predictions.offsets[-1]) + T
    acc, counts = np.zeros((padded, F)).T, np.zeros(padded, dtype=np.int64)
    repack_accumulate(predictions.patches, predictions.offsets, acc, counts)
    return repack_finish(acc, counts, predictions.total_frames)
