"""Sliding-window extraction, the frame-major row layout, and mean repacking."""

import numpy as np
import pytest

from maskforge import mlp, nmf
from maskforge.model_file import FrontEnd
from maskforge.patching import (
    PatchConfig,
    PatchSet,
    PredictionRange,
    extract_patches,
    patch_offsets,
    repack_mean,
)
from maskforge.stft import OverlapAdd


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
    assert np.array_equal(ps.patches[0], grid[:, :20])
    assert np.array_equal(ps.patches[1, :, :5], grid[:, 20:])
    assert not np.any(ps.patches[1, :, 5:])


def test_extract_sliding_windows(rng):
    grid = rng.uniform(0, 1, size=(4, 22))
    ps = extract_patches(grid, PatchConfig(width=20), stride=1)
    assert ps.n_patches == 3
    for o in range(3):
        assert np.array_equal(ps.patches[o], grid[:, o:o + 20])


def test_extract_rejects_bad_stride(rng):
    with pytest.raises(ValueError):
        extract_patches(np.zeros((2, 8)), PatchConfig(width=4), stride=0)


def test_patch_config_validation():
    with pytest.raises(ValueError):
        PatchConfig(width=0)
    with pytest.raises(ValueError):
        PatchConfig(width=4, train_stride=0)


def test_train_stride_defaults_to_width():
    # windows that tile the song, whatever the width
    assert PatchConfig(width=7).train_stride == 7
    assert PatchConfig(20) == PatchConfig(width=20, train_stride=20)
    assert PatchConfig(width=7, train_stride=3).train_stride == 3


def test_prediction_patchset_bounds_checked():
    bad = np.full((1, 2, 2), 1.5)
    ps = PatchSet(bad)    # windows cut from a grid hold any values
    with pytest.raises(ValueError, match="outside"):
        ps.predictions(ps.rows)


def _refusing_predictor(monkeypatch, kind, value):
    """A block predictor of the given kind whose every output value is `value`."""
    front_end = FrontEnd(8000, 64, 16, 2)
    d = front_end.window_size
    if kind == "dnn":
        monkeypatch.setattr(mlp, "forward_batch",
                            lambda model, X: np.full((X.shape[0], model.output_size), value))
        return mlp.init_model([d, 3, d], seed=0, front_end=front_end).predictor(4, 1, 0)
    monkeypatch.setattr(nmf, "vocal_share", lambda v, nv: np.full(v.shape, value))
    W = np.ones((d, 1))
    return nmf.NmfModel(W, W, front_end).predictor(4, 1, 0)


@pytest.mark.parametrize("kind, value", [("dnn", np.nan), ("dnn", 1.5), ("nmf", -0.1)])
def test_each_models_predictor_refuses_an_output_outside_0_1(monkeypatch, kind, value):
    predict = _refusing_predictor(monkeypatch, kind, value)
    windows = extract_patches(np.full((33, 5), 0.5), PatchConfig(width=2), stride=1)
    with pytest.raises(PredictionRange, match=fr"^prediction values outside \[0,1\]: "
                                              fr"\[{value}, {value}\]$"):
        predict(windows, 0)


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def test_flatten_frame_major_order():
    patch = np.array([[1.0, 3.0], [2.0, 4.0]])  # frame 0 = [1,2], frame 1 = [3,4]
    ps = PatchSet(patch[None])
    assert ps.rows.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_flatten_length_for_full_band_patch():
    ps = PatchSet(np.zeros((1, 1025, 20)))
    assert ps.rows.shape == (1, 20500)


def test_unflatten_inverts_flatten(rng):
    patches = rng.uniform(0, 1, size=(3, 7, 5))
    ps = PatchSet(patches)
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


def _coverage(patches: PatchSet, stride: int) -> np.ndarray:
    """The per-frame window counts that the repack divides by: OverlapAdd's weights."""
    T = patches.patch_shape[1]
    _, counts = OverlapAdd(np.ones(T, dtype=np.int64), stride).push(
        patches.patches.transpose(0, 2, 1), last=True)
    return counts


def test_repack_single_patch_is_identity(rng):
    vals = rng.uniform(0, 1, size=(3, 4))
    mp = repack_mean(PatchSet(vals[None]), 4, 4)
    assert np.array_equal(mp.values, vals)
    assert np.all(_coverage(PatchSet(vals[None]), 4) == 1)


def test_repack_coverage_counts_stride_one(rng):
    # closed form for full coverage: min(t+1, T, N-t, N-T+1)
    F, T, N = 2, 5, 12
    grid = rng.uniform(0, 1, size=(F, N))
    counts = _coverage(extract_patches(grid, PatchConfig(width=T), stride=1), 1)
    expected = np.array([min(t + 1, T, N - t, N - T + 1) for t in range(N)])
    assert np.array_equal(counts, expected)


def test_repack_interior_coverage_equals_width():
    # frame 20 of a 22-frame grid sits inside windows starting at 1 and 2
    counts = _coverage(extract_patches(np.zeros((1, 22)), PatchConfig(width=20), stride=1), 1)
    assert counts[20] == 2
    assert counts[21] == 1


def test_repack_matches_brute_force_random(rng):
    for _ in range(60):
        F = int(rng.integers(1, 4))
        T = int(rng.integers(1, 7))
        N = int(rng.integers(1, 30))
        stride = int(rng.integers(1, T + 1))
        offs = patch_offsets(N, T, stride)
        patches = rng.uniform(0, 1, size=(len(offs), F, T))
        mp = repack_mean(PatchSet(patches), stride, N)
        oracle = _brute_force_mean(patches, offs, F, T, N)
        assert np.array_equal(mp.values, oracle)  # same summation order: exact


def test_extract_repack_round_trip_near_identity(rng):
    # sums of several copies of one value round in the last bit, so the
    # round trip is identical only to ~1 ulp, not bitwise
    grid = rng.uniform(0, 1, size=(5, 40))
    mp = repack_mean(extract_patches(grid, PatchConfig(width=8), stride=1), 1, 40)
    assert np.allclose(mp.values, grid, rtol=0, atol=1e-15)


def test_repack_drops_padded_frames(rng):
    grid = rng.uniform(0, 1, size=(2, 25))
    mp = repack_mean(extract_patches(grid, PatchConfig(width=20), stride=20), 20, 25)
    assert mp.values.shape == (2, 25)
    assert np.allclose(mp.values, grid, rtol=0, atol=1e-15)


def test_repack_accumulate_counts():
    # the repack's accumulation: three windows of two frames at stride 1,
    # summed frame-major with one count per frame
    patches = np.ones((3, 2, 2))
    acc, counts = OverlapAdd(np.ones(2, dtype=np.int64), 1).push(
        patches.transpose(0, 2, 1), last=True)
    assert counts.tolist() == [1, 2, 2, 1]
    assert acc[:, 0].tolist() == [1.0, 2.0, 2.0, 1.0]


@pytest.mark.parametrize("stride, n_frames, covered", [
    (0, 4, "0..3"),        # no stride: every window at frame 0
    (5, 14, "0..13"),      # frames 4 and 9 between windows
    (1, 20, "0..19"),      # frames 6-19 after the last window
], ids=["stride_0", "stride_above_width", "frames_past_the_last_window"])
def test_repack_rejects_uncovered_frames(stride, n_frames, covered):
    # three 2 x 4 windows; each case once gave NaN or a numpy error
    with pytest.raises(ValueError, match=f"^3 windows of 4 frames at stride {stride} "
                                         f"do not cover frames {covered}$"):
        repack_mean(PatchSet(np.full((3, 2, 4), 0.5)), stride, n_frames)


def test_repack_rejects_an_empty_window_set():
    with pytest.raises(ValueError, match="^empty patch set$"):
        repack_mean(PatchSet(np.zeros((0, 2, 4))), 1, 1)
