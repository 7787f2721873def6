"""Sliding-window extraction, the frame-major row layout, and mean repacking."""

import numpy as np
import pytest

from maskforge.patching import (
    KIND_MIXTURE,
    KIND_PREDICTION,
    PatchConfig,
    PatchSet,
    extract_patches,
    normalize_unit_scale,
    patch_offsets,
    repack_accumulate,
    repack_mean,
)


# ---------------------------------------------------------------------------
# offsets
# ---------------------------------------------------------------------------

def test_offsets_exact_tiling():
    assert patch_offsets(40, 20, 20).tolist() == [0, 20]


def test_offsets_sliding():
    assert patch_offsets(22, 20, 1).tolist() == [0, 1, 2]


def test_offsets_ragged_tail():
    assert patch_offsets(25, 20, 20).tolist() == [0, 20]


def test_offsets_short_signal_single_patch():
    assert patch_offsets(5, 20, 1).tolist() == [0]
    assert patch_offsets(20, 20, 20).tolist() == [0]


def test_offsets_cover_every_frame(rng):
    for _ in range(200):
        n = int(rng.integers(1, 60))
        t = int(rng.integers(1, 12))
        s = int(rng.integers(1, t + 1))
        offs = patch_offsets(n, t, s)
        covered = np.zeros(max(n, offs[-1] + t), dtype=bool)
        for o in offs:
            covered[o:o + t] = True
        assert covered[:n].all()
        # no gratuitous extra patch: dropping the last one must leave a gap
        if len(offs) > 1:
            assert offs[-2] + t < n


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_tail_is_zero_padded(rng):
    grid = rng.uniform(0, 1, size=(3, 25))
    ps = extract_patches(grid, PatchConfig(width=20), stride=20)
    assert ps.n_patches == 2
    assert ps.total_frames == 25
    assert np.array_equal(ps.patches[0], grid[:, :20])
    assert np.array_equal(ps.patches[1, :, :5], grid[:, 20:])
    assert not np.any(ps.patches[1, :, 5:])


def test_extract_sliding_windows(rng):
    grid = rng.uniform(0, 1, size=(4, 22))
    ps = extract_patches(grid, PatchConfig(width=20), stride=1)
    assert ps.offsets.tolist() == [0, 1, 2]
    for i, o in enumerate(ps.offsets):
        assert np.array_equal(ps.patches[i], grid[:, o:o + 20])


def test_extract_rejects_bad_stride(rng):
    with pytest.raises(ValueError):
        extract_patches(np.zeros((2, 8)), PatchConfig(width=4), stride=0)


def test_patch_config_validation():
    with pytest.raises(ValueError):
        PatchConfig(width=0)
    with pytest.raises(ValueError):
        PatchConfig(width=4, train_stride=0)


def test_prediction_patchset_bounds_checked():
    bad = np.full((1, 2, 2), 1.5)
    with pytest.raises(ValueError, match="outside"):
        PatchSet(bad, np.array([0]), total_frames=2, kind=KIND_PREDICTION)
    # same payload is fine under a non-prediction kind
    PatchSet(bad, np.array([0]), total_frames=2, kind=KIND_MIXTURE)


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def test_flatten_frame_major_order():
    patch = np.array([[1.0, 3.0], [2.0, 4.0]])  # frame 0 = [1,2], frame 1 = [3,4]
    ps = PatchSet(patch[None], np.array([0]), total_frames=2)
    assert ps.rows.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_flatten_length_for_full_band_patch():
    ps = PatchSet(np.zeros((1, 1025, 20)), np.array([0]), total_frames=20)
    assert ps.rows.shape == (1, 20500)


def test_unflatten_inverts_flatten(rng):
    patches = rng.uniform(0, 1, size=(3, 7, 5))
    ps = PatchSet(patches, np.arange(3), total_frames=7)
    assert np.array_equal(ps.predictions(ps.rows).patches, patches)
    with pytest.raises(ValueError):
        ps.predictions(np.zeros((1, 10)))


def test_flatten_set_rows_match_scalar_flatten(rng):
    grid = rng.uniform(0, 1, size=(6, 30))
    ps = extract_patches(grid, PatchConfig(width=10), stride=10)
    rows = ps.rows
    assert rows.shape == (3, 60)
    for i in range(ps.n_patches):
        assert np.array_equal(rows[i], ps.patches[i].reshape(-1, order="F"))
    assert np.array_equal(ps.predictions(rows).patches, ps.patches)


# ---------------------------------------------------------------------------
# repacking
# ---------------------------------------------------------------------------

def _brute_force_mean(patches, offsets, F, T, N):
    """Independent oracle: per-element sums in patch order."""
    padded = int(offsets[-1]) + T
    acc = np.zeros((F, padded))
    cnt = np.zeros(padded)
    for p, o in enumerate(offsets):
        acc[:, o:o + T] += patches[p]
        cnt[o:o + T] += 1.0
    return acc[:, :N] / cnt[None, :N]


def test_repack_requires_prediction_kind(rng):
    ps = extract_patches(rng.uniform(0, 1, (2, 8)), PatchConfig(width=4), stride=4)
    with pytest.raises(ValueError, match="prediction"):
        repack_mean(ps)


def test_repack_single_patch_is_identity(rng):
    vals = rng.uniform(0, 1, size=(3, 4))
    ps = PatchSet(vals[None], np.array([0]), total_frames=4, kind=KIND_PREDICTION)
    mp = repack_mean(ps)
    assert np.array_equal(mp.values, vals)
    assert np.all(mp.counts == 1)


def test_repack_coverage_counts_stride_one(rng):
    # closed form for full coverage: min(t+1, T, N-t, N-T+1)
    F, T, N = 2, 5, 12
    grid = rng.uniform(0, 1, size=(F, N))
    ps = extract_patches(grid, PatchConfig(width=T), stride=1)
    ps = PatchSet(ps.patches, ps.offsets, ps.total_frames, kind=KIND_PREDICTION)
    mp = repack_mean(ps)
    expected = np.array([min(t + 1, T, N - t, N - T + 1) for t in range(N)])
    assert np.array_equal(mp.counts[0], expected)


def test_repack_interior_coverage_equals_width():
    # frame 20 of a 22-frame grid sits inside windows starting at 1 and 2
    grid = np.zeros((1, 22))
    ps = extract_patches(grid, PatchConfig(width=20), stride=1)
    ps = PatchSet(ps.patches, ps.offsets, ps.total_frames, kind=KIND_PREDICTION)
    mp = repack_mean(ps)
    assert mp.counts[0, 20] == 2
    assert mp.counts[0, 21] == 1


def test_repack_matches_brute_force_random(rng):
    for _ in range(60):
        F = int(rng.integers(1, 4))
        T = int(rng.integers(1, 7))
        N = int(rng.integers(1, 30))
        stride = int(rng.integers(1, T + 1))
        offs = patch_offsets(N, T, stride)
        patches = rng.uniform(0, 1, size=(len(offs), F, T))
        ps = PatchSet(patches, offs, total_frames=N, kind=KIND_PREDICTION)
        mp = repack_mean(ps)
        oracle = _brute_force_mean(patches, offs, F, T, N)
        assert np.array_equal(mp.values, oracle)  # same summation order: exact


def test_extract_repack_round_trip_near_identity(rng):
    # sums of several copies of one value round in the last bit, so the
    # round trip is identical only to ~1 ulp, not bitwise
    grid = rng.uniform(0, 1, size=(5, 40))
    ps = extract_patches(grid, PatchConfig(width=8), stride=1)
    ps = PatchSet(ps.patches, ps.offsets, ps.total_frames, kind=KIND_PREDICTION)
    mp = repack_mean(ps)
    assert np.allclose(mp.values, grid, rtol=0, atol=1e-15)


def test_repack_drops_padded_frames(rng):
    grid = rng.uniform(0, 1, size=(2, 25))
    ps = extract_patches(grid, PatchConfig(width=20), stride=20)
    ps = PatchSet(ps.patches, ps.offsets, ps.total_frames, kind=KIND_PREDICTION)
    mp = repack_mean(ps)
    assert mp.values.shape == (2, 25)
    assert np.allclose(mp.values, grid, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# normalization and training-set files
# ---------------------------------------------------------------------------

def test_normalize_unit_scale(rng):
    grid = rng.uniform(0, 3, size=(4, 6))
    grid[2, 3] = 5.0
    scaled = normalize_unit_scale(grid)
    assert scaled.max() == 1.0
    assert np.array_equal(scaled, grid / 5.0)
    with pytest.raises(ValueError, match="all-zero"):
        normalize_unit_scale(np.zeros((2, 2)))


def test_repack_accumulate_counts():
    patches = np.ones((3, 2, 2))
    offsets = np.array([0, 1, 2], dtype=np.int64)
    acc, counts = np.zeros((2, 4)), np.zeros(4, dtype=np.int64)
    repack_accumulate(patches, offsets, acc, counts)
    assert counts.tolist() == [1, 2, 2, 1]
    assert acc[0].tolist() == [1.0, 2.0, 2.0, 1.0]


@pytest.mark.parametrize("offsets", [[0, 1, 3], [0, 2, 3], [2, 1, 0], [1, 1, 1]])
def test_repack_accumulate_rejects_uneven_offsets(offsets):
    acc, counts = np.zeros((2, 8)), np.zeros(8, dtype=np.int64)
    with pytest.raises(ValueError, match="evenly spaced"):
        repack_accumulate(np.ones((3, 2, 2)), np.array(offsets), acc, counts)


def test_repack_counts_is_a_read_only_view(rng):
    ps = extract_patches(rng.uniform(0, 1, (3, 12)), PatchConfig(width=4), stride=1)
    mp = repack_mean(PatchSet(ps.patches, ps.offsets, ps.total_frames, kind=KIND_PREDICTION))
    assert mp.counts.shape == (3, 12)
    assert not mp.counts.flags.owndata
    assert not mp.counts.flags.writeable
