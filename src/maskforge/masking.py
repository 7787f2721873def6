"""Binary time-frequency masks.

The training target is the ideal binary mask (vocal wins an element when its
magnitude exceeds the accompaniment's). At separation time, mean network
predictions are thresholded into two independent masks: the vocal mask keeps
elements with mean confidence above alpha, the non-vocal mask keeps elements
below 1 - alpha. For alpha > 0.5 some elements belong to neither mask; for
alpha < 0.5 the masks overlap. A mask is applied by multiplying the mixture's
complex STFT bins by its values, which `pipeline` does wherever it separates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patching import MeanPrediction


@dataclass
class BinaryMask:
    values: np.ndarray           # (F, N) in {0, 1}

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("mask must be a 2-D grid")
        if not np.all((self.values == 0.0) | (self.values == 1.0)):
            raise ValueError("binary mask values must be exactly 0 or 1")


def check_alpha(alpha: float) -> float:
    """alpha as a float strictly inside (0, 1), where both masks are defined."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")
    return alpha


def ideal_binary_mask(mag_vocal: np.ndarray, mag_nonvocal: np.ndarray) -> BinaryMask:
    """1 where the vocal magnitude strictly exceeds the accompaniment, else 0."""
    if mag_vocal.shape != mag_nonvocal.shape:
        raise ValueError("magnitude shapes differ")
    return BinaryMask((mag_vocal > mag_nonvocal).astype(np.float64))


def vocal_mask_from_confidence(mean_pred: MeanPrediction, alpha: float) -> BinaryMask:
    """Keep elements whose mean prediction is strictly above alpha."""
    alpha = check_alpha(alpha)
    return BinaryMask((mean_pred.values > alpha).astype(np.float64))


def nonvocal_mask_from_confidence(mean_pred: MeanPrediction, alpha: float) -> BinaryMask:
    """Keep elements whose mean prediction is strictly below 1 - alpha."""
    alpha = check_alpha(alpha)
    return BinaryMask((mean_pred.values < 1.0 - alpha).astype(np.float64))
