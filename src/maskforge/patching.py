"""Sliding-window patch extraction, the models' row layout, and repacking.

A plain (F, N) grid (unit-peak magnitudes, which the pipeline scales, or an
oracle mask) is cut into F x T windows along the time axis. Training uses
non-overlapping windows (stride = T); at separation time the window slides one
frame at a time, so every interior element receives T overlapping predictions
whose arithmetic mean, a `MeanPrediction`, is the element's confidence value.
The streamed overlap-add that also inverts the STFT (`stft.OverlapAdd`) sums
the windows and counts them per frame, and the sums are divided by the counts
as they come: `repack_mean` pushes the windows all at once, given the stride
and frame count they were cut at, and separation a fixed-size block at a time,
carrying only the last width - 1 frames' sums, so the memory it takes does not
grow with the song's length. Models read a window as one frame-major row, its
T frames of F bins in turn; the rows are a strided view of the (N, F) frame
matrix. This module owns that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stft import OverlapAdd, strided_frames


@dataclass(frozen=True)
class PatchConfig:
    width: int
    train_stride: int | None = None     # None: the width, so windows tile the song

    def __post_init__(self):
        if self.train_stride is None:
            object.__setattr__(self, "train_stride", self.width)
        if self.width < 1:
            raise ValueError("patch width must be >= 1")
        if self.train_stride < 1:
            raise ValueError("train_stride must be >= 1")


class PredictionRange(ValueError):
    """A model output outside [0, 1], NaN included."""


@dataclass
class PatchSet:
    """Stack of F x T windows, and the same memory as one model row each."""

    patches: np.ndarray            # (P, F, T), a view of rows
    rows: np.ndarray = field(init=False, repr=False)   # (P, T*F), frame-major

    def __post_init__(self):
        patches = np.asarray(self.patches, dtype=np.float64)
        if patches.ndim != 3:
            raise ValueError("patches must be a (P, F, T) array")
        P, F, T = patches.shape
        self.rows = patches.transpose(0, 2, 1).reshape(P, T * F)
        self.patches = self.rows.reshape(P, T, F).transpose(0, 2, 1)

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]

    @property
    def patch_shape(self) -> tuple[int, int]:
        return self.patches.shape[1], self.patches.shape[2]

    def predictions(self, rows: np.ndarray) -> PatchSet:
        """The prediction set for these windows from one model output row each,
        which every model's predictor makes; each value must lie in [0, 1]."""
        P, F, T = self.patches.shape
        preds = PatchSet(rows.reshape(P, T, F).transpose(0, 2, 1))
        if preds.rows.size:
            lo, hi = preds.rows.min(), preds.rows.max()
            if not (0.0 <= lo and hi <= 1.0):   # NaN fails it too
                raise PredictionRange(f"prediction values outside [0,1]: [{lo}, {hi}]")
        return preds


@dataclass
class MeanPrediction:
    """Per-element mean of the window predictions covering it; `OverlapAdd` keeps the counts."""

    values: np.ndarray   # (F, N) in [0, 1]

    @classmethod
    def of_sums(cls, sums: np.ndarray, counts: np.ndarray) -> MeanPrediction:
        """The mean of frame-major (N, F) window sums over their (N,) counts."""
        return cls((sums / counts[:, None]).T)


def patch_offsets(n_frames: int, width: int, stride: int) -> np.ndarray:
    """Start offsets 0, stride, 2*stride, ... until the windows cover N frames."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if n_frames <= width:
        return np.array([0], dtype=np.int64)
    count = int(np.ceil((n_frames - width) / stride)) + 1
    return stride * np.arange(count, dtype=np.int64)


def extract_patches(grid: np.ndarray, cfg: PatchConfig, stride: int) -> PatchSet:
    """Cut F x width windows of an (F, N) grid at the given stride, zero-padding
    the tail; the windows are one strided view of the padded (N, F) frame matrix."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    F, N = grid.shape
    offsets = patch_offsets(N, cfg.width, stride)
    frames = np.zeros((int(offsets[-1]) + cfg.width, F))
    frames[:N] = grid.T
    windows = strided_frames(frames, len(offsets), cfg.width, stride)
    return PatchSet(windows.transpose(0, 2, 1))


def repack_mean(predictions: PatchSet, stride: int, n_frames: int) -> MeanPrediction:
    """Average per element the windows cut at offsets 0, stride, 2*stride, ...
    over frames 0..n_frames - 1, dropping padded frames. The stride must not
    pass the width, and the windows must reach frame n_frames - 1."""
    P, _, T = predictions.patches.shape
    if P == 0:
        raise ValueError("empty patch set")
    if not (1 <= stride <= T and 0 < n_frames <= (P - 1) * stride + T):
        raise ValueError(f"{P} windows of {T} frames at stride {stride} "
                         f"do not cover frames 0..{n_frames - 1}")
    sums, counts = OverlapAdd(np.ones(T, dtype=np.int64), stride).push(
        predictions.patches.transpose(0, 2, 1), last=True)
    return MeanPrediction.of_sums(sums[:n_frames], counts[:n_frames])
