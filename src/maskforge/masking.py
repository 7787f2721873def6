"""Binary time-frequency masks.

The training target is the ideal binary mask (vocal wins an element when its
magnitude exceeds the accompaniment's). At separation time, mean network
predictions are thresholded into two independent masks: the vocal mask keeps
elements with mean confidence above alpha, the non-vocal mask keeps elements
below 1 - alpha. For alpha > 0.5 some elements belong to neither mask; for
alpha < 0.5 the masks overlap. The NMF baseline's per-element prediction is
the vocal share of its two reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import NON_VOCAL, VOCAL
from .patching import MeanPrediction
from .stft import ComplexSpectrogram, MagnitudeSpectrogram


@dataclass
class BinaryMask:
    values: np.ndarray           # (F, N) in {0, 1}
    source_tag: str = VOCAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("mask must be a 2-D grid")
        if not np.all((self.values == 0.0) | (self.values == 1.0)):
            raise ValueError("binary mask values must be exactly 0 or 1")
        if self.source_tag not in (VOCAL, NON_VOCAL):
            raise ValueError(f"unknown source tag {self.source_tag!r}")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def ideal_binary_mask(mag_vocal: MagnitudeSpectrogram,
                      mag_nonvocal: MagnitudeSpectrogram) -> BinaryMask:
    """1 where the vocal magnitude strictly exceeds the accompaniment, else 0."""
    if mag_vocal.values.shape != mag_nonvocal.values.shape:
        raise ValueError("magnitude shapes differ")
    values = (mag_vocal.values > mag_nonvocal.values).astype(np.float64)
    return BinaryMask(values, source_tag=VOCAL)


def vocal_mask_from_confidence(mean_pred: MeanPrediction, alpha: float) -> BinaryMask:
    """Keep elements whose mean prediction is strictly above alpha."""
    alpha = _check_alpha(alpha)
    return BinaryMask((mean_pred.values > alpha).astype(np.float64), source_tag=VOCAL)


def nonvocal_mask_from_confidence(mean_pred: MeanPrediction, alpha: float) -> BinaryMask:
    """Keep elements whose mean prediction is strictly below 1 - alpha."""
    alpha = _check_alpha(alpha)
    values = (mean_pred.values < 1.0 - alpha).astype(np.float64)
    return BinaryMask(values, source_tag=NON_VOCAL)


def vocal_share(v: np.ndarray, nv: np.ndarray) -> np.ndarray:
    """Elementwise v / (v + nv) for non-negative arrays; 0/0 becomes 0.5."""
    total = v + nv
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0.0, v / np.where(total > 0.0, total, 1.0), 0.5)


def apply_mask(mix: ComplexSpectrogram, mask: BinaryMask) -> ComplexSpectrogram:
    """Elementwise product; the mixture's bins survive wherever the mask is 1."""
    if mix.bins.shape != mask.values.shape:
        raise ValueError(
            f"mask shape {mask.values.shape} != spectrogram shape {mix.bins.shape}"
        )
    return ComplexSpectrogram(
        mix.bins * mask.values,
        mix.config,
        original_len=mix.original_len,
        sample_rate=mix.sample_rate,
    )
