"""Ideal binary masks, confidence thresholding, the vocal share, mask application."""

from dataclasses import replace

import numpy as np
import pytest

from maskforge.audio_io import AudioBuffer
from maskforge.masking import (
    BinaryMask,
    ideal_binary_mask,
    nonvocal_mask_from_confidence,
    vocal_mask_from_confidence,
)
from maskforge.nmf import vocal_share
from maskforge.patching import MeanPrediction
from maskforge.pipeline import _masked_inversions
from maskforge.stft import StftConfig, istft, stft


def _mag(values):
    return np.asarray(values, dtype=np.float64)


def _pred(values):
    v = np.asarray(values, dtype=np.float64)
    return MeanPrediction(values=v, counts=np.ones_like(v))


# ---------------------------------------------------------------------------
# ideal binary mask
# ---------------------------------------------------------------------------

def test_ibm_strict_inequality():
    mask = ideal_binary_mask(_mag([[2.0, 1.0]]), _mag([[1.0, 3.0]]))
    assert mask.values.tolist() == [[1.0, 0.0]]


def test_ibm_ties_go_to_accompaniment():
    mask = ideal_binary_mask(_mag([[1.0, 0.0]]), _mag([[1.0, 0.0]]))
    assert not np.any(mask.values)


def test_ibm_scale_invariance(rng):
    a = rng.uniform(0, 1, size=(5, 9))
    b = rng.uniform(0, 1, size=(5, 9))
    base = ideal_binary_mask(_mag(a), _mag(b)).values
    scaled = ideal_binary_mask(_mag(4.0 * a), _mag(4.0 * b)).values
    assert np.array_equal(base, scaled)


def test_ibm_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        ideal_binary_mask(_mag(np.zeros((2, 2))), _mag(np.zeros((2, 3))))


def test_ibm_complementary_coverage(rng):
    # with no ties every element lands in exactly one mask
    a = rng.uniform(0.1, 1, size=(4, 7))
    b = rng.uniform(0.1, 1, size=(4, 7))
    b[a == b] += 0.01
    m = ideal_binary_mask(_mag(a), _mag(b)).values
    comp = ideal_binary_mask(_mag(b), _mag(a)).values
    assert np.array_equal(m + comp, np.ones_like(m))


# ---------------------------------------------------------------------------
# confidence thresholding
# ---------------------------------------------------------------------------

def test_low_alpha_masks_overlap():
    pred = _pred([[0.5]])
    m_v = vocal_mask_from_confidence(pred, 0.2)
    m_nv = nonvocal_mask_from_confidence(pred, 0.2)
    assert m_v.values[0, 0] == 1.0
    assert m_nv.values[0, 0] == 1.0


def test_high_alpha_masks_exclude():
    pred = _pred([[0.5]])
    assert vocal_mask_from_confidence(pred, 0.8).values[0, 0] == 0.0
    assert nonvocal_mask_from_confidence(pred, 0.8).values[0, 0] == 0.0


def test_half_alpha_masks_are_disjoint(rng):
    pred = _pred(rng.uniform(0, 1, size=(6, 11)))
    v = vocal_mask_from_confidence(pred, 0.5).values
    nv = nonvocal_mask_from_confidence(pred, 0.5).values
    assert not np.any(v * nv)


def test_boundary_values_fall_out_of_both_masks():
    alpha = 0.7
    pred = _pred([[alpha, 1.0 - alpha]])
    assert not np.any(vocal_mask_from_confidence(pred, alpha).values)
    nv = nonvocal_mask_from_confidence(pred, alpha).values
    assert nv.tolist() == [[0.0, 0.0]]


def test_alpha_bounds_checked():
    pred = _pred([[0.5]])
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            vocal_mask_from_confidence(pred, alpha)
        with pytest.raises(ValueError, match="alpha"):
            nonvocal_mask_from_confidence(pred, alpha)


def test_vocal_mask_monotone_in_alpha(rng):
    pred = _pred(rng.uniform(0, 1, size=(8, 8)))
    sizes = []
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        sizes.append(vocal_mask_from_confidence(pred, alpha).values.sum())
    assert sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------------------
# vocal share: the soft mask V_v / (V_v + V_nv) that NMF windows predict,
# kept in maskforge.nmf, its only user
# ---------------------------------------------------------------------------

def test_soft_mask_ratio():
    share = vocal_share(np.array([[3.0, 0.0]]), np.array([[1.0, 2.0]]))
    assert share.tolist() == [[0.75, 0.0]]


def test_soft_mask_zero_energy_element_is_half():
    assert vocal_share(np.zeros((1, 1)), np.zeros((1, 1)))[0, 0] == 0.5


def test_soft_mask_complementary(rng):
    a = rng.uniform(0, 2, size=(4, 6))
    b = rng.uniform(0, 2, size=(4, 6))
    a[0, 0] = b[0, 0] = 0.0  # the 0/0 element: 0.5 + 0.5
    assert np.allclose(vocal_share(a, b) + vocal_share(b, a), 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# mask application and validation
# ---------------------------------------------------------------------------

def test_masked_inversions_invert_hand_masked_bins(rng):
    cfg = StftConfig(frame_len=16, hop=4)
    spec = stft(AudioBuffer(rng.standard_normal(64), 8000), cfg)
    masks = [BinaryMask((rng.uniform(0, 1, size=spec.bins.shape) > 0.5).astype(np.float64))
             for _ in range(2)]
    for out, mask in zip(_masked_inversions(spec, masks), masks):
        bins = spec.bins.copy()
        bins[mask.values == 0.0] = 0.0
        assert np.array_equal(out.samples, istft(replace(spec, bins=bins)).samples)
        assert (len(out), out.sample_rate) == (spec.original_len, spec.sample_rate)


def test_binary_mask_validation():
    with pytest.raises(ValueError, match="exactly 0 or 1"):
        BinaryMask(np.array([[0.5]]))
    with pytest.raises(ValueError, match="2-D"):
        BinaryMask(np.zeros(4))


def test_vocal_share_equals_where_form(rng):
    v = rng.uniform(0, 2, size=(30, 40))
    nv = rng.uniform(0, 2, size=(30, 40))
    v[::3, ::4] = 0.0
    nv[::3, ::2] = 0.0
    total = v + nv
    expect = np.where(total > 0.0, v / np.where(total > 0.0, total, 1.0), 0.5)
    assert np.array_equal(vocal_share(v, nv), expect)
