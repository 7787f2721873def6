"""Sliding-window patch extraction, the models' row layout, and repacking.

A plain (F, N) grid (unit-peak magnitudes, which the pipeline scales, or an
oracle mask) is cut into F x T windows along the time axis. Training uses
non-overlapping windows (stride = T); at separation time the window slides one
frame at a time, so every interior element receives T overlapping predictions
whose arithmetic mean becomes the element's confidence value. The windows are
summed, with a count per frame, by the streamed overlap-add that also inverts
the STFT (`stft.OverlapAdd`): `repack_mean` pushes them all at once, and
separation pushes them a fixed-size block at a time, carrying only the last
width - 1 frames' sums, so the memory it takes does not grow with the song's
length. Models read a window as one frame-major row, its T frames of F bins in
turn; the rows are a strided view of the (N, F) frame matrix. This module owns
that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stft import OverlapAdd, strided_frames

KIND_MIXTURE = "mixture_input"
KIND_PREDICTION = "prediction"


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
            if not (0.0 <= lo and hi <= 1.0):   # NaN fails it too
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

    @classmethod
    def of_sums(cls, sums: np.ndarray, counts: np.ndarray) -> MeanPrediction:
        """The mean of frame-major (N, F) window sums over their (N,) counts."""
        values = (sums / counts[:, None]).T
        return cls(values, np.broadcast_to(counts, values.shape))


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
    return PatchSet(windows.transpose(0, 2, 1), offsets, total_frames=N)


def repack_mean(predictions: PatchSet) -> MeanPrediction:
    """Average overlapping patch values per element; padded frames dropped.

    The windows must start at frame 0, at evenly spaced offsets no further
    apart than their width, and reach frame total_frames - 1."""
    if predictions.kind != KIND_PREDICTION:
        raise ValueError(f"repack_mean expects prediction patches, got {predictions.kind!r}")
    if predictions.n_patches == 0:
        raise ValueError("empty patch set")
    (P, _, T), offsets = predictions.patches.shape, predictions.offsets
    N = predictions.total_frames
    hop = int(offsets[1]) if P > 1 else T
    if not (1 <= hop <= T and np.array_equal(offsets, hop * np.arange(P))
            and 0 < N <= offsets[-1] + T):
        raise ValueError(f"windows of {T} frames at offsets {offsets[0]}..{offsets[-1]} "
                         f"do not evenly cover frames 0..{N - 1}")
    sums, counts = OverlapAdd(np.ones(T, dtype=np.int64), hop).push(
        predictions.patches.transpose(0, 2, 1), last=True)
    return MeanPrediction.of_sums(sums[:N], counts[:N])
